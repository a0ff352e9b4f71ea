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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, cython_special, gammaln, pdtr, pdtrc
from scipy.special._ufuncs import _binom_cdf

from prdna.graph import _brentq

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
    ``error_budget``.  A design the channel cannot sample is refused: a
    copy count that is not a whole number from 1, a binomial design without
    p in (0, 1) or with fractional durations, a Poisson design without one
    positive rate per duration, or a duration cap ``max_duration`` that is
    not finite or lies below a duration.
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
        if not (self.copies >= 1 and float(self.copies).is_integer()):
            raise ValueError(f"a design needs at least one copy, a whole number of them, not {self.copies}")
        if self.max_duration is not None and not max(self.durations, default=0) <= self.max_duration < math.inf:
            raise ValueError(f"max duration {self.max_duration} is not finite or lies below a duration")
        if self.family == BINOMIAL:
            if not (isinstance(self.p, numbers.Real) and 0 < self.p < 1):
                raise ValueError("a binomial design needs p in (0, 1)")
            if not all(float(t).is_integer() for t in self.durations):
                raise ValueError("binomial durations must be whole numbers")
        elif self.rates is None or len(self.rates) != len(self.durations) or not all(
            r > 0 for r in self.rates
        ):
            raise ValueError("a Poisson design needs one positive rate per duration")

    @property
    def ell(self) -> int:
        return len(self.durations)

    @property
    def thresholds(self) -> tuple[float, ...]:
        if self.family == BINOMIAL:
            return tuple(float(k) for k in self.sum_thresholds)
        return tuple(k / self.copies for k in self.sum_thresholds)


# ---------------------------------------------------------------------------
# Binomial design
# ---------------------------------------------------------------------------

def _binomial_crossing(n_prev: int, n_new, tau: int, p: float):
    """Log-likelihood margin of observing tau under the longer round.

    Equals log C(n_new, tau) - log C(n_prev, tau) + (n_new - n_prev) ln(1-p),
    elementwise over an array of ``n_new``; nonpositive means the shorter
    round is still at least as likely at tau, so tau remains a valid right
    boundary for the previous index.
    """
    num = gammaln(n_new + 1) - gammaln(n_prev + 1)
    den = gammaln(n_new - tau + 1) - gammaln(n_prev - tau + 1)
    return num - den + (n_new - n_prev) * math.log1p(-p)


def _upper_tail(k, n, p: float) -> np.ndarray:
    """Pr(Binomial(n, p) > k), elementwise; the same floats as ``stats.binom.sf``.

    The tail is the regularized incomplete beta I_p(k + 1, n - k) for
    0 <= k < n, 1 below the support and 0 at or above n.  One ufunc call
    skips ``rv_discrete``'s argument handling, which costs far more than
    the tail itself on short arrays.
    """
    k = np.asarray(k)
    inside = (k >= 0) & (k < n)
    tail = betainc(np.where(inside, k + 1, 1), np.where(inside, n - k, 1), p)
    return np.where(inside, tail, k < 0)


def _lower_tail(k, n, p: float) -> np.ndarray:
    """Pr(Binomial(n, p) <= k), elementwise; the same floats as ``stats.binom.cdf``.

    Inside the support, 0 <= k < n, ``cdf`` evaluates the Boost kernel
    ``_binom_cdf`` on whole k and clips it to [0, 1]; below the support the
    mass is 0 and at or above n it is 1.  Calling the kernel from
    ``scipy.special`` skips ``rv_discrete``'s argument handling and the
    import of ``scipy.stats``.  The public ufuncs are no stand-in:
    ``special.bdtr`` and ``betaincc(k + 1, n - k, p)`` round differently.
    """
    k = np.asarray(k)
    inside = (k >= 0) & (k < n)
    mass = _binom_cdf(np.where(inside, k, 0), np.where(inside, n, 1), p)
    return np.where(inside, np.clip(mass, 0.0, 1.0), k >= n)


_SCAN_BLOCK = 4096


def _blocks(start: int, stop: int):
    """int64 aranges covering start..stop, stop inclusive.

    Blocks grow from 32 to ``_SCAN_BLOCK`` candidates, so a hit near the
    start costs one short block and a long range costs bounded memory.
    """
    size = 32
    while start <= stop:
        end = min(start + size, stop + 1)
        yield np.arange(start, end, dtype=np.int64)
        start, size = end, min(2 * size, _SCAN_BLOCK)


def _scan_threshold(trials: int, p: float, tau_prev: int, delta: float, left: float) -> int:
    """Smallest x in tau_prev+1..trials with Pr(sum > x) + left <= delta.

    The copy sum is Binomial(trials, p) and ``left`` is its mass at or
    below tau_prev.  Callers pass left <= delta, so x = trials, whose
    upper tail is 0, always qualifies.  Each candidate's tail is the scalar
    ``betainc`` on the floats :func:`_upper_tail` passes, so the scan stops
    at its first hit.  A binomial median is floor(np) or ceil(np) (Kaas and
    Buhrman, Statistica Neerlandica 34(1), 1980), so every x below
    floor(np) - 2 has Pr(sum > x) >= 1/2 and fails a budget below 1/2.
    """
    x = tau_prev + 1
    if delta < 0.5:
        x = max(x, math.floor(trials * p) - 2)
    while x < trials and not cython_special.betainc(x + 1.0, float(trials - x), p) + left <= delta:
        x += 1
    return x


def _next_level(copies: int, p: float, delta: float, t_prev: int, tau_prev: int, max_duration: int):
    """(t, tau) for the shortest qualifying duration in t_prev+1..max_duration, or None.

    One :func:`_lower_tail` call per block of candidate durations gives
    each one's mass at or below tau_prev, which must be at most delta; after
    the first level (t_prev = 0) the crossing margin must also be
    nonpositive.  The chosen duration's mass goes to the threshold scan.
    """
    for ts in _blocks(t_prev + 1, max_duration):
        left = _lower_tail(tau_prev, copies * ts, p)
        ok = left <= delta
        if t_prev:
            ok &= _binomial_crossing(copies * t_prev, copies * ts, tau_prev, p) <= 0.0
        hits = np.flatnonzero(ok)
        if hits.size:
            t = int(ts[hits[0]])
            return t, _scan_threshold(copies * t, p, tau_prev, delta, float(left[hits[0]]))
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
    if not float(copies).is_integer():
        raise ValueError(f"binomial copy count {copies} is not a whole number")
    if not float(max_duration).is_integer():
        raise ValueError(f"binomial max duration {max_duration} is not a whole number")
    copies, max_duration = int(copies), int(max_duration)

    durations, taus = [0], [0]  # t = 0 with tau_0 = 0 seeds the first level
    while (level := _next_level(copies, p, delta, durations[-1], taus[-1], max_duration)) is not None:
        durations.append(level[0])
        taus.append(level[1])
    if len(durations) == 1:
        raise Infeasible(
            f"no duration up to {max_duration} keeps the run-deletion "
            f"probability at or below {delta}"
        )

    return QuantizerDesign(
        family=BINOMIAL,
        durations=tuple(float(t) for t in durations[1:]),
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
    ell_max: int = 10,
    max_duration: float | None = None,
) -> QuantizerDesign:
    """Design Poisson rates and thresholds on the copy-mean scale.

    The first rate makes a fully deleted run (copy sum zero) exactly a
    delta/2 event.  Each threshold cuts the right tail of the current rate
    to delta/2 on the 1/N grid of copy means; the next rate is the Brent
    root (:func:`prdna.graph._brentq`, the float scipy's ``brentq`` gives)
    of its mass at or below that threshold minus delta/2, nudged up until
    that mass is at most delta/2 in float arithmetic.  So the guarantee
    holds exactly, but the rate is only within the root search's tolerance
    of the smallest float that meets it: it may sit up to a few thousand
    ulps above that float.  Each rate maps to a round duration
    proportional to the square root of the rate ratio.  Stops after
    ``ell_max`` indices or when the duration would exceed
    ``max_duration``; a cap that is not finite is refused.
    """
    if not 0 < delta < 1:
        raise ValueError("error budget must lie in (0, 1)")
    if not (copies >= 1 and float(copies).is_integer()):
        raise ValueError(f"Poisson copy count {copies} is not a positive whole number")
    if max_duration is not None and not math.isfinite(max_duration):
        raise ValueError(f"max duration {max_duration} is not finite")
    if max_duration is not None and max_duration < 1:
        raise Infeasible(f"no duration up to {max_duration}: the first is 1")

    n = copies = int(copies)
    half = delta / 2.0
    rates = [math.log(2.0 / delta) / n]
    taus = [0]

    while True:
        mean = n * rates[-1]
        # The Poisson median is at least mean - ln 2 (K. P. Choi, Proc. AMS
        # 121(1), 1994), so every k <= mean - 2 has Pr(X > k) >= 1/2 > half
        # and the scan may start at floor(mean) - 2.  The tail vanishes as k
        # grows, so the open scan ends; a NaN tail ends it as well.
        k = max(taus[-1], math.floor(mean) - 2)
        while cython_special.pdtrc(k, mean) > half:
            k += 1
        taus.append(k)
        if len(rates) >= ell_max:
            break

        def left_mass(rate: float, k=k) -> float:
            return cython_special.pdtr(k, n * rate) - half

        hi = rates[-1] + 1.0
        while left_mass(hi) > 0.0:
            hi *= 2.0
        rate = _brentq(left_mass, rates[-1], hi, xtol=1e-12, rtol=1e-15)
        # nudge up until the crossing holds in float arithmetic; this is not
        # a search for the smallest such float (see the docstring)
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


def exact_error_probabilities(design: QuantizerDesign) -> tuple[float, ...]:
    """Exact misdecision probability per true index.

    For index i this is Pr(sum <= tau_{i-1}) plus, when a longer duration
    exists, Pr(sum > tau_i); the clamp rule makes overshoot past the last
    threshold a correct decision for the final index.
    """
    taus = np.array(design.sum_thresholds, dtype=np.int64)
    below_at, above_at = taus[:-1], taus[1:]
    if design.family == BINOMIAL:
        trials = design.copies * np.array([int(t) for t in design.durations], dtype=np.int64)
        below = _lower_tail(below_at, trials, design.p)
        above = _upper_tail(above_at, trials, design.p)
    else:
        means = design.copies * np.array(design.rates)
        below = pdtr(below_at, means)
        above = pdtrc(above_at, means)
    errors = [float(b) for b in below]
    for i in range(design.ell - 1):  # the last index keeps its overshoot
        errors[i] += float(above[i])
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


def _json_number(value, field: str) -> int | float:
    """A JSON number as read; a string or a bool is refused, never converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"design JSON field {field} holds {value!r}, not a number")
    return value


def _json_floats(values, field: str) -> tuple[float, ...]:
    if isinstance(values, str):  # it would read as its characters
        raise ValueError(f"design JSON field {field} holds {values!r}, not a list of numbers")
    return tuple(float(_json_number(x, field)) for x in values)


def _json_whole(value, field: str, scale: int = 1) -> int:
    """A JSON number times ``scale`` as an int, refused unless the product is whole.

    A Poisson mean-scale threshold times N may miss by a file's nine-digit rounding.
    """
    total = _json_number(value, field) * scale
    whole = round(total)  # raises OverflowError on infinity, ValueError on nan
    if not math.isclose(total, whole, rel_tol=0.0 if scale == 1 else 1e-8, abs_tol=0.0):
        times = "" if scale == 1 else f" times N = {scale}"
        raise ValueError(f"design JSON field {field} holds {value!r}{times}, not a whole number")
    return int(whole)


def design_from_json(text: str) -> QuantizerDesign:
    """Read a design written by :func:`design_to_json`; a malformed one raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("design JSON must be an object")
    missing = [key for key in ("family", "N", "t", "tau", "delta") if key not in data]
    if missing:
        raise ValueError(f"design JSON lacks {', '.join(missing)}")
    family = data["family"]
    other = "lambda" if family == BINOMIAL else "p" if family == POISSON else None
    if other in data:  # it would be dropped on writing back
        raise ValueError(f"a {family} design JSON carries {other!r}, the other family's parameter")
    try:
        copies = _json_whole(data["N"], "N")
        sums = tuple(_json_whole(x, "tau", 1 if family == BINOMIAL else copies) for x in data["tau"])
        durations = _json_floats(data["t"], "t")
        error_budget = float(_json_number(data["delta"], "delta"))
        max_duration = None if data.get("M") is None else float(_json_number(data["M"], "M"))
        rates = None if "lambda" not in data else _json_floats(data["lambda"], "lambda")
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
