"""Enumerative schedule codec and the redundancy pipeline.

User bits map to synthesis schedules by ranking/unranking within the set
of schedules of one exact total duration, in lexicographic round order.
Duration indices of the payload rounds are then protected by a symbol
code whose parity is carried by extra unit-index rounds: parity symbols
become an integer, the integer becomes nonzero letter increments, and the
increments become letters via running sums in Z_q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

from prdna.ecc import ReedSolomonCode
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


def make_schedule(graph: SynthesisGraph, start: str, rounds: Sequence[tuple[str, int]]) -> Schedule:
    """Validate rounds against the graph and compute the total duration."""
    graph.alphabet.index(start)
    prev = start
    total = 0.0
    for a, i in rounds:
        if a == prev:
            raise InvalidSchedule(f"letter {a!r} repeats consecutively")
        menu = graph.menu(prev, a)
        if not 1 <= i <= len(menu):
            raise InvalidSchedule(f"duration index {i} outside 1..{len(menu)}")
        total += menu[i - 1]
        prev = a
    if float(total).is_integer():
        total = int(total)
    return Schedule(start=start, rounds=tuple((a, int(i)) for a, i in rounds), total_time=total)


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(
        {
            "start": schedule.start,
            "rounds": [[a, i] for a, i in schedule.rounds],
            "total_time": schedule.total_time,
        },
        indent=2,
    )


def schedule_from_json(text: str, graph: SynthesisGraph) -> Schedule:
    data = json.loads(text)
    return make_schedule(graph, data["start"], [(a, int(i)) for a, i in data["rounds"]])


# ---------------------------------------------------------------------------
# Enumerative coding
# ---------------------------------------------------------------------------

def _lex_edges(graph: SynthesisGraph, b_idx: int):
    letters = graph.alphabet.letters
    for ai, a in enumerate(letters):
        if ai == b_idx:
            continue
        for i, t in enumerate(graph.menus[b_idx][ai], start=1):
            yield ai, a, i, int(t)


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
    rounds = []
    b_idx = graph.alphabet.index(start)
    remaining = int(total_duration)
    while remaining > 0:
        for ai, a, i, t in _lex_edges(graph, b_idx):
            if t > remaining:
                continue
            below = table[remaining - t][ai]
            if value < below:
                rounds.append((a, i))
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
    value = 0
    b_idx = graph.alphabet.index(schedule.start)
    remaining = int(total_duration)
    for a_target, i_target in schedule.rounds:
        for ai, a, i, t in _lex_edges(graph, b_idx):
            if (a, i) == (a_target, i_target):
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


def letters_needed(symbols: int, base: int, q: int) -> int:
    """Fewest (q-1)-ary digits covering `symbols` base-`base` digits, exactly."""
    if symbols == 0:
        return 0
    space = base**symbols
    out, reach = 0, 1
    while reach < space:
        out += 1
        reach *= q - 1
    return out


@dataclass(frozen=True)
class RedundancyPlan:
    """Sizing of the appended error-correction rounds.

    ``parity_symbols`` counts symbols over the duration alphabet appended
    after the payload; ``redundancy_rounds`` is their length once
    re-expressed in nonzero letter increments.  ``parity_symbols_formula``
    records the information-theoretic sizing before any adjustment for a
    concrete code.
    """

    payload_rounds: int
    delta: float
    ell: int
    q: int
    rate: float
    parity_symbols: int
    parity_symbols_formula: int
    margin: float
    radius_target: int

    @property
    def redundancy_rounds(self) -> int:
        return letters_needed(self.parity_symbols, max(self.ell, 2), self.q)


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
        rate = 1.0
        formula = 0
        radius = 0
    else:
        rate = code_rate(delta, ell)
        formula = math.ceil(s * (1.0 / rate - 1.0))
        radius = math.ceil(delta * s + margin * math.sqrt(s))
    return RedundancyPlan(
        payload_rounds=s,
        delta=delta,
        ell=ell,
        q=q,
        rate=rate,
        parity_symbols=formula,
        parity_symbols_formula=formula,
        margin=margin,
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

def symbols_to_base(parity: Sequence[int], q: int, base: int) -> tuple[int, ...]:
    """Re-express 1-based base-`base` digits as 1-based (q-1)-ary digits.

    The parity sequence, read most significant first with symbols shifted
    down by one, forms an integer; the output spells that integer in
    exactly ``letters_needed`` digits of base q-1, shifted up by one.
    """
    if not parity:
        raise ValueError("parity sequence may not be empty")
    if any(not 1 <= v <= base for v in parity):
        raise ValueError(f"parity symbols must lie in 1..{base}")
    value = 0
    for v in parity:
        value = value * base + (v - 1)
    width = letters_needed(len(parity), base, q)
    digits = []
    for _ in range(width):
        digits.append(value % (q - 1) + 1)
        value //= q - 1
    return tuple(reversed(digits))


def base_to_symbols(barred: Sequence[int], base: int, length: int, q: int) -> tuple[int, ...]:
    """Invert :func:`symbols_to_base` given the original symbol count."""
    if any(not 1 <= v <= q - 1 for v in barred):
        raise ValueError(f"letter increments must lie in 1..{q - 1}")
    if len(barred) != letters_needed(length, base, q):
        raise ValueError("increment sequence has the wrong width")
    value = 0
    for v in barred:
        value = value * (q - 1) + (v - 1)
    symbols = []
    for _ in range(length):
        symbols.append(value % base + 1)
        value //= base
    if value:
        raise ValueError("increments decode outside the parity space")
    return tuple(reversed(symbols))


def append_redundancy(graph: SynthesisGraph, schedule: Schedule, barred: Sequence[int]) -> Schedule:
    """Append one shortest-duration round per nonzero letter increment.

    Each increment adds to the previous letter in Z_q; increments are
    nonzero, so consecutive letters always differ.
    """
    alphabet = graph.alphabet
    q = alphabet.q
    if not schedule.rounds:
        raise InvalidSchedule("cannot append redundancy to an empty schedule")
    if any(not 1 <= v <= q - 1 for v in barred):
        raise ValueError(f"letter increments must lie in 1..{q - 1}")
    rounds = list(schedule.rounds)
    prev = alphabet.index(rounds[-1][0])
    for inc in barred:
        nxt = (prev + inc) % q
        rounds.append((alphabet.letters[nxt], 1))
        prev = nxt
    return make_schedule(graph, schedule.start, rounds)


def extract_redundancy(letters: Sequence[str], alphabet) -> tuple[int, ...]:
    """Recover letter increments from the run letters, last payload letter first."""
    if len(letters) < 2:
        return ()
    out = []
    prev = alphabet.index(letters[0])
    for a in letters[1:]:
        cur = alphabet.index(a)
        inc = (cur - prev) % alphabet.q
        if inc == 0:
            raise ZeroDifference(f"letter {a!r} repeats; increments must be nonzero")
        out.append(inc)
        prev = cur
    return tuple(out)


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
    cap = capacity(graph).capacity
    alpha = 1.0 if mode == "worst" else max_entropic_chain(graph).rounds_per_time
    return time_bound_formula(bits, cap, delta, graph.ell, graph.q, alpha)


# ---------------------------------------------------------------------------
# Whole-message pipeline
# ---------------------------------------------------------------------------

def attach_redundancy(
    graph: SynthesisGraph,
    schedule: Schedule,
    plan: RedundancyPlan,
    ecc: ReedSolomonCode | None,
) -> Schedule:
    """Encode the schedule's duration indices and append the parity rounds.

    Parity symbols beyond what the code produces are filled with the
    lowest symbol, so the appended block always matches the plan's width.
    """
    if plan.parity_symbols == 0:
        return schedule
    parity = list(ecc.encode(list(schedule.indices()))) if ecc is not None else []
    if len(parity) > plan.parity_symbols:
        raise ValueError("plan is smaller than the code's parity block")
    parity += [1] * (plan.parity_symbols - len(parity))
    barred = symbols_to_base(parity, plan.q, max(plan.ell, 2))
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
    the increments of the appended block reconstitute the parity symbols.
    """
    s = plan.payload_rounds
    if len(payload_indices) != s:
        raise ValueError(f"expected {s} payload indices")
    if plan.parity_symbols == 0 or ecc is None:
        return list(payload_indices)
    tail = list(full_letters[s - 1 : s + plan.redundancy_rounds])
    barred = extract_redundancy(tail, alphabet)
    parity = base_to_symbols(barred, max(plan.ell, 2), plan.parity_symbols, plan.q)
    return ecc.decode(list(payload_indices), list(parity[: ecc.parity_len]))
