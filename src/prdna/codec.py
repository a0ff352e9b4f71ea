"""Enumerative schedule codec and the redundancy pipeline.

User bits map to synthesis schedules by ranking/unranking within the set
of schedules of one exact total duration, in lexicographic round order.
Duration indices of the payload rounds are then protected by a
Reed-Solomon code whose parity is carried by extra unit-index rounds: the
code hands over its parity as one integer, the integer is shifted up to
the plan's width, spelled in nonzero (q-1)-ary letter increments, and the
increments become letters via running sums in Z_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from prdna.ecc import ReedSolomonCode, digits_needed
from prdna.graph import (
    SynthesisGraph,
    _count_table,
    capacity,
    count_schedules,
    max_entropic_chain,
)


class BudgetTooSmall(ValueError):
    """The time budget admits fewer schedules than the payload needs."""


class InvalidSchedule(ValueError):
    """Schedule violates the graph constraints or the stated duration."""


class ZeroDifference(ValueError):
    """Consecutive redundancy letters coincide; the input is corrupt."""


@dataclass(frozen=True)
class Schedule:
    """A synthesis program: start letter and (letter, duration-index) rounds."""

    start: str
    rounds: tuple[tuple[str, int], ...]
    total_time: float

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def letters(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.rounds)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for _, i in self.rounds)


def _whole_total(total: float) -> float:
    """A schedule's summed duration, as an int when it is a whole number."""
    return int(total) if float(total).is_integer() else total


def make_schedule(graph: SynthesisGraph, start: str, rounds: Sequence[tuple[str, int]]) -> Schedule:
    """Validate rounds against the graph and compute the total duration."""
    index, menus = graph.alphabet.index, graph.menus
    prev = index(start)
    total = 0.0
    for a, i in rounds:
        ai = index(a)
        if ai == prev:
            raise InvalidSchedule(f"letter {a!r} repeats consecutively")
        menu = menus[prev][ai]
        if not 1 <= i <= len(menu):
            raise InvalidSchedule(f"duration index {i} outside 1..{len(menu)}")
        total += menu[i - 1]
        prev = ai
    rounds = tuple((a, int(i)) for a, i in rounds)
    return Schedule(start=start, rounds=rounds, total_time=_whole_total(total))


# ---------------------------------------------------------------------------
# Enumerative coding
# ---------------------------------------------------------------------------

def max_payload_bits(graph: SynthesisGraph, start: str, total_duration: int) -> int:
    """Largest payload, in bits, that a duration-exact budget accommodates."""
    count = count_schedules(graph, start, total_duration)
    if count <= 0:
        raise BudgetTooSmall(f"no schedule of duration {total_duration} from {start!r}")
    return count.bit_length() - 1  # floor(log2(count)), exact on big integers


def unrank_schedule(graph: SynthesisGraph, start: str, total_duration: int, value: int) -> Schedule:
    """Schedule at position `value` in lexicographic round order."""
    count = count_schedules(graph, start, total_duration)
    if not 0 <= value < count:
        raise BudgetTooSmall(f"rank {value} outside 0..{count - 1}")
    table = _count_table(graph).upto(int(total_duration))
    letters, out_edges = graph.alphabet.letters, graph.out_edges
    rounds = []
    b_idx = graph.alphabet.index(start)
    remaining = int(total_duration)
    while remaining > 0:
        for ai, i, t in out_edges[b_idx]:
            if t > remaining:
                continue
            below = table[remaining - t][ai]
            if value < below:
                rounds.append((letters[ai], i))
                b_idx = ai
                remaining -= t
                break
            value -= below
        else:  # pragma: no cover - impossible while counts are consistent
            raise RuntimeError("unrank walked off the count table")
    # rounds came off real edges; skip re-validation on this hot path
    return Schedule(start=start, rounds=tuple(rounds), total_time=int(total_duration))


def rank_schedule(graph: SynthesisGraph, schedule: Schedule, total_duration: int) -> int:
    """Position of a duration-exact schedule in lexicographic round order."""
    validated = make_schedule(graph, schedule.start, schedule.rounds)
    if validated.total_time != total_duration:
        raise InvalidSchedule(
            f"schedule lasts {validated.total_time}, expected {total_duration}"
        )
    table = _count_table(graph).upto(int(total_duration))
    index, out_edges = graph.alphabet.index, graph.out_edges
    value = 0
    b_idx = index(schedule.start)
    remaining = int(total_duration)
    for a_target, i_target in schedule.rounds:
        target = (index(a_target), i_target)
        for ai, i, t in out_edges[b_idx]:
            if (ai, i) == target:
                b_idx = ai
                remaining -= t
                break
            if t <= remaining:
                value += table[remaining - t][ai]
    return value


def encode_payload(bits: str, graph: SynthesisGraph, start: str, total_duration: int) -> Schedule:
    """Unrank a bitstring (MSB first) into a duration-exact schedule."""
    if bits and set(bits) - {"0", "1"}:
        raise ValueError("payload must be a string of 0s and 1s")
    count = count_schedules(graph, start, total_duration)
    if 2 ** len(bits) > count:
        raise BudgetTooSmall(
            f"{len(bits)} bits need {2 ** len(bits)} schedules; "
            f"duration {total_duration} offers {count}"
        )
    value = int(bits, 2) if bits else 0
    return unrank_schedule(graph, start, total_duration, value)


def decode_payload(
    schedule: Schedule,
    graph: SynthesisGraph,
    total_duration: int,
    n_bits: int | None = None,
) -> str:
    """Rank a schedule back into its bitstring.

    ``n_bits`` defaults to the duration's full payload width; pass the
    original payload length when encoding shorter strings.
    """
    if n_bits is None:
        n_bits = max_payload_bits(graph, schedule.start, total_duration)
    value = rank_schedule(graph, schedule, total_duration)
    if value >= 2**n_bits:
        raise BudgetTooSmall(f"rank {value} does not fit in {n_bits} bits")
    return format(value, f"0{n_bits}b") if n_bits else ""


# ---------------------------------------------------------------------------
# Redundancy sizing
# ---------------------------------------------------------------------------

def code_rate(delta: float, ell: int) -> float:
    """Asymptotic rate of an ell-ary code correcting a typical delta-fraction.

    Equals 1 + delta*log_ell(delta/(ell-1)) + (1-delta)*log_ell(1-delta);
    continuous in delta with value 1 at delta = 0.
    """
    if ell < 2:
        raise ValueError("rate is defined for at least two symbol values")
    if delta < 0 or delta >= (ell - 1) / ell:
        raise ValueError(f"delta must lie in [0, {(ell - 1) / ell}) for ell={ell}")
    if delta == 0:
        return 1.0
    log_ell = math.log(ell)
    return (
        1.0
        + delta * (math.log(delta / (ell - 1)) / log_ell)
        + (1.0 - delta) * (math.log1p(-delta) / log_ell)
    )


@dataclass(frozen=True)
class RedundancyPlan:
    """Sizing of the appended error-correction rounds.

    The parity block is an integer below ``ell**parity_symbols``, that is
    ``parity_symbols`` digits over the duration alphabet; ``redundancy_rounds``
    is its width in nonzero (q-1)-ary letter increments.
    ``parity_symbols_formula`` records the information-theoretic sizing
    before any adjustment for a concrete code.
    """

    payload_rounds: int
    delta: float
    ell: int
    q: int
    parity_symbols: int
    parity_symbols_formula: int
    radius_target: int

    @property
    def redundancy_rounds(self) -> int:
        return digits_needed(self.q - 1, self.ell**self.parity_symbols)


def plan_redundancy(
    payload_rounds: int,
    delta: float,
    ell: int,
    q: int,
    margin: float = 3.0,
) -> RedundancyPlan:
    """Size the parity block for `payload_rounds` duration indices by formula.

    The parity block is ceil(s * (1/rate - 1)) symbols, and the repair
    radius to aim for is ``delta*s + margin*sqrt(s)`` symbol errors.  With
    ``delta = 0`` or a single-duration menu nothing is appended.
    :func:`size_parity` grows the block to fit a concrete code.
    """
    if q < 3:
        raise ValueError("letter increments need at least q = 3")
    if payload_rounds < 0:
        raise ValueError("payload length must be nonnegative")
    s = payload_rounds
    if ell < 2 or delta == 0:
        formula = 0
        radius = 0
    else:
        formula = math.ceil(s * (1.0 / code_rate(delta, ell) - 1.0))
        radius = math.ceil(delta * s + margin * math.sqrt(s))
    return RedundancyPlan(
        payload_rounds=s,
        delta=delta,
        ell=ell,
        q=q,
        parity_symbols=formula,
        parity_symbols_formula=formula,
        radius_target=radius,
    )


def size_parity(
    payload_rounds: int,
    delta: float,
    ell: int,
    q: int,
    margin: float = 3.0,
) -> tuple[RedundancyPlan, ReedSolomonCode | None]:
    """Plan the parity block and build the Reed-Solomon code that fills it.

    The code repairs the plan's ``radius_target`` symbol errors, and the
    parity block grows from the formula size to whatever that code needs.
    There is no code when ``delta = 0`` or the menu has a single duration.
    """
    plan = plan_redundancy(payload_rounds, delta, ell, q, margin)
    if delta == 0 or ell < 2:
        return plan, None
    ecc = ReedSolomonCode(payload_rounds, ell, plan.radius_target)
    return replace(plan, parity_symbols=max(plan.parity_symbols, ecc.parity_len)), ecc


# ---------------------------------------------------------------------------
# Base conversion and differential letters
# ---------------------------------------------------------------------------

_LEAF_DIGITS = 64


def _join_digits(digits: Sequence[int], base: int) -> int:
    """The integer spelled by 1-based digits in `base`, most significant first.

    Long sequences are split in half and joined by a power of the base,
    so the cost is a few big multiplications instead of one per digit.
    """
    if len(digits) <= _LEAF_DIGITS:
        value = 0
        for d in digits:
            value = value * base + d - 1
        return value
    low = len(digits) // 2
    return _join_digits(digits[:-low], base) * base**low + _join_digits(digits[-low:], base)


def _split_digits(value: int, base: int, width: int) -> list[int]:
    """The low `width` digits of `value` in `base`, 1-based, most significant first.

    Long widths split the value by a power of the base and recurse.
    """
    if width <= _LEAF_DIGITS:
        digits = [0] * width
        for i in range(width - 1, -1, -1):
            digits[i] = value % base + 1
            value //= base
        return digits
    low = width // 2
    high, rest = divmod(value, base**low)
    return _split_digits(high, base, width - low) + _split_digits(rest, base, low)


def append_redundancy(graph: SynthesisGraph, schedule: Schedule, barred: Sequence[int]) -> Schedule:
    """Append one shortest-duration round per nonzero letter increment.

    Each increment adds to the previous letter in Z_q; increments are
    nonzero, so consecutive letters always differ.
    """
    alphabet = graph.alphabet
    q = alphabet.q
    if not schedule.rounds:
        raise InvalidSchedule("cannot append redundancy to an empty schedule")
    increments = np.array(barred, dtype=np.int64)
    if increments.size and (increments.min() < 1 or increments.max() > q - 1):
        raise ValueError(f"letter increments must lie in 1..{q - 1}")
    last = alphabet.index(schedule.rounds[-1][0])
    positions = np.cumsum(np.append(last, increments)) % q
    # the payload rounds are a valid schedule already; only the appended
    # rounds add to its total, one at a time as make_schedule adds them
    added = graph.duration_table[positions[:-1], positions[1:], 0]
    total = np.cumsum(np.append(float(schedule.total_time), added))[-1]
    letters = alphabet.letters
    rounds = tuple(schedule.rounds) + tuple((letters[a], 1) for a in positions[1:].tolist())
    return Schedule(start=schedule.start, rounds=rounds, total_time=_whole_total(float(total)))


def extract_redundancy(letters: Sequence[str], alphabet) -> tuple[int, ...]:
    """Recover letter increments from the run letters, last payload letter first."""
    if len(letters) < 2:
        return ()
    position = {a: i for i, a in enumerate(alphabet.letters)}
    codes = np.array([position.get(a, -1) for a in letters], dtype=np.int64)
    unknown = np.flatnonzero(codes < 0)
    known = int(unknown[0]) if unknown.size else len(codes)
    increments = np.diff(codes[:known]) % alphabet.q
    # the first fault in reading order is reported, a repeat or an unknown letter
    repeats = np.flatnonzero(increments == 0)
    if repeats.size:
        a = letters[int(repeats[0]) + 1]
        raise ZeroDifference(f"letter {a!r} repeats; increments must be nonzero")
    if known < len(codes):
        alphabet.index(letters[known])  # raises the unknown-letter error
    return tuple(increments.tolist())


# ---------------------------------------------------------------------------
# Synthesis-time bounds
# ---------------------------------------------------------------------------

def time_bound_formula(
    bits: int,
    cap: float,
    delta: float,
    ell: int,
    q: int,
    rounds_per_time: float = 1.0,
) -> float:
    """Synthesis-time bound for `bits` user bits at capacity `cap`.

    The overhead term charges the redundancy letters; scaling it by the
    expected fraction of time units that start a round tightens the
    worst-case figure to the typical one.
    """
    if cap <= 0:
        raise ValueError("capacity must be positive")
    if ell < 2 or delta == 0:
        overhead = 0.0
    else:
        overhead = (1.0 / code_rate(delta, ell) - 1.0) * (math.log(ell) / math.log(q - 1))
    return bits / cap * (1.0 + rounds_per_time * overhead)


def synthesis_time_bound(
    bits: int,
    graph: SynthesisGraph,
    delta: float,
    mode: str = "worst",
) -> float:
    """Worst-case or expected synthesis-time bound on a schedule graph."""
    if mode not in ("worst", "expected"):
        raise ValueError("mode is 'worst' or 'expected'")
    if mode == "worst":
        cap, alpha = capacity(graph), 1.0
    else:
        chain = max_entropic_chain(graph)
        cap, alpha = chain.capacity, chain.rounds_per_time
    return time_bound_formula(bits, cap.capacity, delta, graph.ell, graph.q, alpha)


# ---------------------------------------------------------------------------
# Whole-message pipeline
# ---------------------------------------------------------------------------

def _parity_shift(plan: RedundancyPlan, ecc: ReedSolomonCode | None) -> int:
    """ell**pad, where pad is the plan's parity digits beyond the code's block."""
    pad = plan.parity_symbols - (0 if ecc is None else ecc.parity_len)
    if pad < 0:
        raise ValueError("plan is smaller than the code's parity block")
    return plan.ell**pad


def attach_redundancy(
    graph: SynthesisGraph,
    schedule: Schedule,
    plan: RedundancyPlan,
    ecc: ReedSolomonCode | None,
) -> Schedule:
    """Encode the schedule's duration indices and append the parity rounds.

    A plan wider than the code's parity block shifts the parity integer up
    by the missing base-ell digits, so the appended block always matches
    the plan's width.
    """
    if plan.parity_symbols == 0:
        return schedule
    parity = ecc.encode(schedule.indices()) if ecc is not None else 0
    barred = _split_digits(parity * _parity_shift(plan, ecc), plan.q - 1, plan.redundancy_rounds)
    return append_redundancy(graph, schedule, barred)


def strip_and_correct(
    full_letters: Sequence[str],
    payload_indices: Sequence[int],
    plan: RedundancyPlan,
    ecc: ReedSolomonCode | None,
    alphabet,
) -> list[int]:
    """Recover corrected payload indices from letters plus quantized indices.

    ``full_letters`` covers the payload rounds and the appended rounds;
    the increments of the appended block reconstitute the parity integer.
    """
    s = plan.payload_rounds
    if len(payload_indices) != s:
        raise ValueError(f"expected {s} payload indices")
    if plan.parity_symbols == 0 or ecc is None:
        return list(payload_indices)
    tail = list(full_letters[s - 1 : s + plan.redundancy_rounds])
    barred = extract_redundancy(tail, alphabet)
    if len(barred) != plan.redundancy_rounds:
        raise ValueError("increment sequence has the wrong width")
    value = _join_digits(barred, plan.q - 1)
    if value >= plan.ell**plan.parity_symbols:
        raise ValueError("increments decode outside the parity space")
    return ecc.decode(list(payload_indices), value // _parity_shift(plan, ecc))
