"""Run-length quantizers with per-index error guarantees.

A quantizer watches N independently synthesized copies of one run and
decides which of the designed round durations produced it.  Designs are
built so that, for every true duration index, the exact probability of a
wrong decision stays at or below the error budget.  Two copy statistics
are supported: binomial run lengths (decision on the copy sum) and Poisson
run lengths (decision on the copy mean).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize, stats
from scipy.special import gammaln

BINOMIAL = "binomial"
POISSON = "poisson"


class Infeasible(ValueError):
    """No design exists within the duration budget."""


@dataclass(frozen=True)
class QuantizerDesign:
    """Designed duration menu plus right-closed decision thresholds.

    ``sum_thresholds`` holds tau_0..tau_ell on the *copy sum* scale, where
    they are integers for both families; the reported ``thresholds`` are on
    the decision scale (sum for binomial, mean for Poisson).  The guarantee
    is that for every index the exact misdecision probability is at most
    ``error_budget``.
    """

    family: str
    durations: tuple[float, ...]
    sum_thresholds: tuple[int, ...]
    error_budget: float
    copies: int
    max_duration: float | None
    p: float | None = None
    rates: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in (BINOMIAL, POISSON):
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.sum_thresholds) != len(self.durations) + 1:
            raise ValueError("need one more threshold than durations")
        if any(b > c for b, c in zip(self.sum_thresholds, self.sum_thresholds[1:])):
            raise ValueError("thresholds must be nondecreasing")
        if self.sum_thresholds[0] != 0:
            raise ValueError("tau_0 must be 0")

    @property
    def ell(self) -> int:
        return len(self.durations)

    @property
    def thresholds(self) -> tuple[float, ...]:
        if self.family == BINOMIAL:
            return tuple(float(k) for k in self.sum_thresholds)
        return tuple(k / self.copies for k in self.sum_thresholds)

    def sum_distribution(self, index: int):
        """Frozen scipy distribution of the copy sum under true index (1-based)."""
        if self.family == BINOMIAL:
            return stats.binom(self.copies * int(self.durations[index - 1]), self.p)
        return stats.poisson(self.copies * self.rates[index - 1])


# ---------------------------------------------------------------------------
# Binomial design
# ---------------------------------------------------------------------------

def _binomial_crossing(n_prev: int, n_new: int, tau: int, p: float) -> float:
    """Log-likelihood margin of observing tau under the longer round.

    Equals log C(n_new, tau) - log C(n_prev, tau) + (n_new - n_prev) ln(1-p);
    nonpositive means the shorter round is still at least as likely at tau,
    so tau remains a valid right boundary for the previous index.
    """
    num = gammaln(n_new + 1) - gammaln(n_prev + 1)
    den = gammaln(n_new - tau + 1) - gammaln(n_prev - tau + 1)
    return float(num - den + (n_new - n_prev) * math.log1p(-p))


def _scan_threshold(dist, tau_prev: int, support_end: int, delta: float) -> int | None:
    """Smallest x with Pr(sum > x) + Pr(sum <= tau_prev) <= delta, or None."""
    left = float(dist.cdf(tau_prev))
    for x in range(tau_prev + 1, support_end + 1):
        if float(dist.sf(x)) + left <= delta:
            return x
    return None


def design_binomial(p: float, delta: float, copies: int, max_duration: int) -> QuantizerDesign:
    """Design durations and thresholds for binomial run lengths.

    The first duration is the shortest round whose copy sum is positive
    with probability at least 1 - delta.  Each later duration is the
    shortest longer round that (a) makes the previous threshold at least
    as likely under the previous duration as under the new one and (b)
    leaves at most a delta chance of falling at or below the previous
    threshold; its threshold then captures 1 - delta of the remaining
    mass.  The scan stops once no duration within the budget qualifies.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("error budget must lie in (0, 1)")
    if copies < 1 or max_duration < 1:
        raise ValueError("copies and max duration must be positive")

    n = copies
    t1 = None
    for t in range(1, int(max_duration) + 1):
        if float(stats.binom(n * t, p).cdf(0)) <= delta:
            t1 = t
            break
    if t1 is None:
        raise Infeasible(
            f"no duration up to {max_duration} keeps the run-deletion "
            f"probability at or below {delta}"
        )

    durations = [t1]
    taus = [0]
    tau1 = _scan_threshold(stats.binom(n * t1, p), 0, n * t1, delta)
    taus.append(tau1)

    while True:
        t_prev, tau_prev = durations[-1], taus[-1]
        chosen = None
        for t in range(t_prev + 1, int(max_duration) + 1):
            if _binomial_crossing(n * t_prev, n * t, tau_prev, p) > 0.0:
                continue
            dist = stats.binom(n * t, p)
            if float(dist.cdf(tau_prev)) > delta:
                continue
            tau = _scan_threshold(dist, tau_prev, n * t, delta)
            if tau is not None:
                chosen = (t, tau)
                break
        if chosen is None:
            break
        durations.append(chosen[0])
        taus.append(chosen[1])

    return QuantizerDesign(
        family=BINOMIAL,
        durations=tuple(float(t) for t in durations),
        sum_thresholds=tuple(taus),
        error_budget=delta,
        copies=copies,
        max_duration=float(max_duration),
        p=p,
    )


# ---------------------------------------------------------------------------
# Poisson design
# ---------------------------------------------------------------------------

def design_poisson(
    delta: float,
    copies: int,
    ell_max: int | None = 10,
    max_duration: float | None = None,
) -> QuantizerDesign:
    """Design Poisson rates and thresholds on the copy-mean scale.

    The first rate makes a fully deleted run (copy sum zero) exactly a
    delta/2 event.  Each threshold cuts the right tail of the current rate
    to delta/2 on the 1/N grid of copy means; the next rate is the
    smallest one whose mass at or below that threshold is delta/2.  Each
    rate maps to a round duration proportional to the square root of the
    rate ratio.  Stops after ``ell_max`` indices or when the duration
    would exceed ``max_duration``.
    """
    if not 0 < delta < 1:
        raise ValueError("error budget must lie in (0, 1)")
    if copies < 1:
        raise ValueError("copies must be positive")
    if ell_max is None and max_duration is None:
        raise ValueError("need an index limit or a duration budget")

    n = copies
    half = delta / 2.0
    rates = [math.log(2.0 / delta) / n]
    taus = [0]

    while True:
        mean = n * rates[-1]
        k = taus[-1]
        while float(stats.poisson(mean).sf(k)) > half:
            k += 1
        taus.append(k)
        if ell_max is not None and len(rates) >= ell_max:
            break

        def left_mass(rate: float, k=k) -> float:
            return float(stats.poisson(n * rate).cdf(k)) - half

        hi = rates[-1] + 1.0
        while left_mass(hi) > 0.0:
            hi *= 2.0
        rate = float(optimize.brentq(left_mass, rates[-1], hi, xtol=1e-12, rtol=1e-15))
        # minimality: nudge up until the crossing holds in float arithmetic
        while left_mass(rate) > 0.0:
            rate = math.nextafter(rate, math.inf)
        duration = math.sqrt(rate / rates[0])
        if max_duration is not None and duration > max_duration:
            break
        rates.append(rate)

    durations = tuple(math.sqrt(r / rates[0]) for r in rates)
    return QuantizerDesign(
        family=POISSON,
        durations=durations,
        sum_thresholds=tuple(taus),
        error_budget=delta,
        copies=copies,
        max_duration=max_duration,
        rates=tuple(rates),
    )


# ---------------------------------------------------------------------------
# Decisions and exact error evaluation
# ---------------------------------------------------------------------------

def decide(design: QuantizerDesign, sums) -> tuple[np.ndarray, np.ndarray]:
    """The decision rule, elementwise over copy sums: (index, low_confidence).

    Each sum maps to the unique index whose right-closed threshold interval
    holds it.  Sums above the top threshold clamp to the last index; a sum
    at or below tau_0 = 0 (the run was deleted in every copy) maps to
    index 1 flagged low-confidence.
    """
    sums = np.asarray(sums, dtype=np.int64)
    inner = np.array(design.sum_thresholds[1:], dtype=np.int64)
    index = np.minimum(np.searchsorted(inner, sums, side="left") + 1, design.ell)
    return index, sums <= design.sum_thresholds[0]


def quantize(design: QuantizerDesign, observations: Sequence[int]) -> tuple[int, bool]:
    """Decide the duration index from N observed copy run lengths.

    Returns ``(index, low_confidence)`` from :func:`decide` on the copy sum.
    """
    if len(observations) != design.copies:
        raise ValueError(f"expected {design.copies} observations")
    if any(r < 0 or int(r) != r for r in observations):
        raise ValueError("run lengths are nonnegative integers")
    index, low_confidence = decide(design, int(sum(observations)))
    return int(index), bool(low_confidence)


def exact_error_probabilities(design: QuantizerDesign) -> tuple[float, ...]:
    """Exact misdecision probability per true index.

    For index i this is Pr(sum <= tau_{i-1}) plus, when a longer duration
    exists, Pr(sum > tau_i); the clamp rule makes overshoot past the last
    threshold a correct decision for the final index.
    """
    errors = []
    for i in range(1, design.ell + 1):
        dist = design.sum_distribution(i)
        err = float(dist.cdf(design.sum_thresholds[i - 1]))
        if i < design.ell:
            err += float(dist.sf(design.sum_thresholds[i]))
        errors.append(err)
    return tuple(errors)


# ---------------------------------------------------------------------------
# Serialization and reporting
# ---------------------------------------------------------------------------

def design_to_json(design: QuantizerDesign) -> str:
    payload = {
        "family": design.family,
        "t": list(design.durations),
        "tau": list(design.thresholds),
        "delta": design.error_budget,
        "N": design.copies,
        "M": design.max_duration,
    }
    if design.family == BINOMIAL:
        payload["p"] = design.p
    else:
        payload["lambda"] = list(design.rates)
    return json.dumps(payload, indent=2)


def design_from_json(text: str) -> QuantizerDesign:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("design JSON must be an object")
    missing = [key for key in ("family", "N", "t", "tau", "delta") if key not in data]
    if missing:
        raise ValueError(f"design JSON lacks {', '.join(missing)}")
    family = data["family"]
    try:
        copies = int(data["N"])
        if family == BINOMIAL:
            sums = tuple(int(round(x)) for x in data["tau"])
        else:
            sums = tuple(int(round(x * copies)) for x in data["tau"])
        durations = tuple(float(t) for t in data["t"])
        error_budget = float(data["delta"])
        max_duration = None if data.get("M") is None else float(data["M"])
        rates = None if "lambda" not in data else tuple(float(x) for x in data["lambda"])
    except (TypeError, OverflowError) as exc:  # null, a list for a number, infinity
        raise ValueError(f"design JSON has a malformed field: {exc}") from None
    return QuantizerDesign(
        family=family,
        durations=durations,
        sum_thresholds=sums,
        error_budget=error_budget,
        copies=copies,
        max_duration=max_duration,
        p=data.get("p"),
        rates=rates,
    )


def design_table(design: QuantizerDesign) -> str:
    """Human-readable per-index summary of a design."""
    errors = exact_error_probabilities(design)
    head = (
        f"{design.family} design: N={design.copies} delta={design.error_budget:g}"
        + (f" p={design.p:g}" if design.p is not None else "")
        + (f" M={design.max_duration:g}" if design.max_duration is not None else "")
    )
    lines = [head, f"{'i':>3} {'t':>10} {'tau':>10} {'exact_err':>12}"]
    taus = design.thresholds
    for i, t in enumerate(design.durations, start=1):
        lines.append(f"{i:>3} {t:>10.6g} {taus[i]:>10.6g} {errors[i - 1]:>12.4e}")
    return "\n".join(lines)
