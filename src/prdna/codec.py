"""Enumerative schedule codec and the redundancy pipeline.

User bits map to synthesis schedules by ranking/unranking within the set
of schedules of one exact total duration, in lexicographic round order.
Duration indices of the payload rounds are then protected by a
Reed-Solomon code whose parity is carried by extra unit-index rounds: the
code hands over its parity as one integer, the integer is spelled in
nonzero (q-1)-ary letter increments, and the increments become letters
via running sums in Z_q.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from operator import getitem, mul
from typing import Sequence

import numpy as np
from scipy.special._ufuncs import _binom_isf

from prdna.ecc import ReedSolomonCode, _byte_symbols, _join_digits, _split_digits, digits_needed
from prdna.graph import (
    _WINDOW_BITS,
    INDEX_OUTSIDE,
    NO_LETTER,
    REPEATED_LETTER,
    SynthesisGraph,
    _count_table,
    _start_count,
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


@dataclass(frozen=True, eq=False)
class Schedule:
    """A synthesis program on a graph: a start letter, then rounds held as two int64 arrays.

    Round k writes the letter at ``positions[k]`` for the 1-based duration
    index ``indices[k]``.  ``rounds`` spells them as ``(letter, index)``
    pairs, and ``total_time`` sums their durations on the graph.
    """

    graph: SynthesisGraph
    start: str
    positions: np.ndarray
    indices: np.ndarray

    @property
    def num_rounds(self) -> int:
        return len(self.indices)

    @property
    def elapsed(self) -> np.ndarray:
        """Running sum of the round durations, left to right."""
        # a round off the graph reads its fault code, as rank_schedule's lookup does
        positions = np.minimum(np.maximum(self.positions, -1), self.graph.q)
        indices = np.minimum(np.maximum(self.indices, 0), self.graph.ell + 1)
        prev = _previous(self.graph.alphabet.index(self.start), positions)
        return self.graph.duration_table.take(_round_keys(self.graph, prev, positions, indices)).cumsum()

    @property
    def total_time(self) -> float:
        return _left_total(self.elapsed)

    @property
    def rounds(self) -> tuple[tuple[str, int], ...]:
        rows = map(self.graph.round_pairs.__getitem__, self.positions.tolist())
        try:  # the graph's shared pairs; an index off the menu is spelled afresh
            return tuple(map(getitem, rows, self.indices.tolist()))
        except KeyError:
            letters, pairs = self.graph.alphabet.letters, zip(self.positions.tolist(), self.indices.tolist())
            return tuple([(letters[a], i) for a, i in pairs])


def _left_total(elapsed: np.ndarray) -> float:
    """Last running sum of durations, an int when whole; cumsum adds left to right, not pairwise."""
    total = float(elapsed[-1]) if len(elapsed) else 0.0
    return int(total) if total.is_integer() else total


def _round_keys(graph: SynthesisGraph, prev: np.ndarray, positions: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Each round's flat index into ``duration_table``, and into the count table's ``skip_keys``.

    Letter positions, preceding ones included, must lie in -1..q and indices
    in 0..ell+1, where the table holds a duration or a fault code: a flat
    index neither wraps nor raises per axis, so a value past them would read
    another round's cell.
    """
    _, letters, width = graph.duration_table.shape
    return (prev * letters + positions) * width + indices


def _int_array(values: list) -> np.ndarray:
    """A list of nonnegative ints as int64: one ``bytes`` copy when every item
    fits a byte (several times faster on long lists), else ``np.fromiter``."""
    array = _byte_symbols(values)
    return np.fromiter(values, np.int64, len(values)) if array is None else array


def _previous(start: int, positions: np.ndarray) -> np.ndarray:
    """Each round's preceding letter position: the start, then the rounds."""
    prev = np.empty(len(positions), dtype=np.int64)
    if len(prev):
        prev[0] = start
        prev[1:] = positions[:-1]
    return prev


def _first_fault(durations: np.ndarray, fraction: np.ndarray | None = None) -> tuple[int, float] | None:
    """(round, fault code) of the first invalid round in reading order, else None.

    ``durations`` are lookups in ``SynthesisGraph.duration_table``, whose
    fault codes rank a round's faults as a round-by-round reader meets
    them: unknown letter, repeated letter, index outside the menu.  An
    index that is no integer, marked in ``fraction``, comes last.
    """
    if not len(durations) or (durations.min() >= 0 and (fraction is None or not fraction.any())):
        return None
    bad = durations < 0
    if fraction is not None:
        bad |= fraction
    k = int(bad.argmax())
    return k, float(durations[k])


def _read_letters(alphabet, letters: list) -> np.ndarray:
    """Each letter's position in the alphabet as int64, -1 for a letter not in it.

    On an alphabet of single ASCII characters the items are joined by
    '>', which no letter holds, and read through the alphabet's character
    table.  The join has n - 1 separators; when it is 2n - 1 characters
    long and no '>' sits at an even place, they fill the odd places, so
    every item is one character.  Anything else (items that are no string,
    longer or empty ones, other characters, other alphabets) is read
    through the position dict.
    """
    table, n = alphabet._ascii_positions, len(letters)
    if table is not None and n:
        try:
            joined = ">".join(letters)
        except TypeError:  # an item that is no string
            joined = ""
        if len(joined) == 2 * n - 1 and ">" not in joined[0::2]:
            try:
                return table.take(np.frombuffer(joined[0::2].encode("ascii"), dtype=np.uint8))
            except UnicodeEncodeError:
                pass
    position = {a: k for k, a in enumerate(alphabet.letters)}
    return np.fromiter(map(position.get, letters, repeat(-1)), dtype=np.int64, count=n)


def _read_indices(raw: list, ell: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Duration indices as int64 in 0..ell+1, and a mask of those that are no integer.

    Integers outside 1..ell, and real numbers outside it, read as 0 so the
    range check reports them; any other index that is no integer reads as
    1 and is masked.  Integers in 0..255 (bools and numpy ints too) are
    read through one ``bytes`` copy.
    """
    values = _byte_symbols(raw)
    if values is not None:
        return np.minimum(values, ell + 1), None
    values = np.asarray(raw)
    if values.dtype.kind in "iub":
        return np.minimum(np.maximum(values.astype(np.int64), 0), ell + 1), None
    clipped, fraction = [], []
    for i in raw:
        if isinstance(i, numbers.Integral):
            clipped.append(min(max(int(i), 0), ell + 1))
        elif isinstance(i, numbers.Real) and not 1 <= i <= ell:
            clipped.append(0)
        else:
            clipped.append(1)
            fraction.append(len(clipped) - 1)
    mask = np.zeros(len(clipped), dtype=bool)
    mask[fraction] = True
    return np.array(clipped, dtype=np.int64), mask


def make_schedule(graph: SynthesisGraph, start: str, rounds: Sequence[tuple[str, int]]) -> Schedule:
    """Validate (letter, index) rounds against the graph.

    The first fault in reading order raises: an unknown letter, a letter
    repeating its predecessor, or an index outside the menu or not an
    integer.
    """
    alphabet = graph.alphabet
    prev_start = alphabet.index(start)
    # unpacking raises the first malformed round's error; zip(*rounds) would GC-track an iterator per round
    letters, raw = [a for a, _ in rounds], [i for _, i in rounds]
    positions = _read_letters(alphabet, letters)
    indices, fraction = _read_indices(raw, graph.ell)
    prev = _previous(prev_start, positions)
    durations = graph.duration_table.take(_round_keys(graph, prev, positions, indices))
    fault = _first_fault(durations, fraction)
    if fault is not None:
        k, code = fault
        if code == NO_LETTER:
            alphabet.index(letters[k])  # raises the unknown-letter error
        if code == REPEATED_LETTER:
            raise InvalidSchedule(f"letter {letters[k]!r} repeats consecutively")
        if code == INDEX_OUTSIDE:
            raise InvalidSchedule(f"duration index {raw[k]} outside 1..{graph.ell}")
        raise InvalidSchedule(f"duration index {raw[k]!r} is not an integer")
    return Schedule(graph, start, positions, indices)


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
    """Schedule at position `value` in lexicographic round order.

    Each round takes the first edge whose count exceeds the rank left, less
    the counts it passes.  In a window the walk compares v = ``value >> shift``
    with counts shifted alike, so after k passes the rank lies in (v - k,
    v + 1) shifted units: a decision clear by the window's most passes is
    exact.  The window then subtracts its passed counts as :func:`rank_schedule`
    sums them; after a near tie, the rest of the window is walked exactly.
    """
    if type(value) is not int:  # tiny schedules are unranked by the thousand
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"rank {value!r} is not an integer")
        value = int(value)
    counts, b, remaining, count = _start_count(graph, start, total_duration)
    if not 0 <= value < count:  # sizes in bits: a decimal past 4300 digits raises
        rank = "a negative rank" if value < 0 else f"a rank of {value.bit_length()} bits"
        raise BudgetTooSmall(
            f"{rank} lies outside 0..count - 1 for a count of {count.bit_length()} bits "
            f"(duration {total_duration} from {start!r})"
        )
    table, out_edges, longest = counts.rows, graph.out_edges, counts.longest  # grown by the count
    window_edges, q = counts.window_edges, graph.q
    rounds = []  # letter position, then index, per round
    for low, shift, shifted in counts.windows(remaining)[::-1] if count.bit_length() > _WINDOW_BITS else ():
        if low > remaining:
            continue
        enter, first, base = (b, remaining), len(rounds), low - longest
        slack = (remaining - low + 1) * graph.num_edges  # the most edges the window's rounds pass
        # left: time left as a row of shifted, times q
        v, left, stop = value >> shift, (remaining - base) * q, longest * q
        while left >= stop:
            for key, ai, i, tq in window_edges[b]:
                below = shifted[left - key]
                if v < below:
                    break
                v -= below
            else:  # every edge passed: a near tie, or counts gone wrong
                if v > slack:  # pragma: no cover - impossible while counts are consistent
                    raise RuntimeError("unrank walked off the count table")
                ai = -1
            # v falls as edges pass, so one test at the chosen edge finds a near
            # tie after any of them; taking the first edge passes none
            if v > slack or (ai, i) == out_edges[b][0][:2]:
                rounds.append(ai)
                rounds.append(i)
                b, left = ai, left - tq
            else:  # too near a passed count to tell
                tied, left = left, -1
        remaining = (tied if left < 0 else left) // q + base
        if value >> shift > slack:  # else any pass was a near tie: none was taken
            positions, indices = _int_array(rounds[first:]).reshape(-1, 2).T
            keys = _round_keys(graph, _previous(enter[0], positions), positions, indices)
            value -= _passed_total(counts, keys, graph.duration_table.take(keys), enter[1])
        b, remaining, value = _walk(table, out_edges, rounds, b, remaining, value, low)  # after a near tie
    _walk(table, out_edges, rounds, b, remaining, value, 1)
    # rounds came off real edges; skip re-validation on this hot path.  One
    # conversion for both arrays: tiny schedules are unranked by the thousand.
    both = _int_array(rounds) if len(rounds) > 64 else np.fromiter(rounds, np.int64, len(rounds))
    return Schedule(graph, start, both[0::2], both[1::2])


def _walk(table, out_edges, rounds: list, b: int, remaining: int, value: int, low: int):
    """The exact walk from letter b while ``remaining >= low``: (letter, time, rank) left."""
    while remaining >= low:
        for ai, i, t in out_edges[b]:
            if t > remaining:
                continue
            below = table[remaining - t][ai]
            if value < below:
                rounds.append(ai)
                rounds.append(i)
                b, remaining = ai, remaining - t
                break
            value -= below
        else:  # pragma: no cover - impossible while counts are consistent
            raise RuntimeError("unrank walked off the count table")
    return b, remaining, value


def _passed_total(counts, round_keys: np.ndarray, durations: np.ndarray, total: int) -> int:
    """Sum of the counts that rounds of these flat indices (:func:`_round_keys`)
    and durations, lasting ``total``, pass over.

    Each passed edge that fits adds its count, binned by time block and letter
    class; the transfer rows turn a block's bins into int64 weights on a few
    stored counts: a few big-integer products per block, not one per edge.
    """
    if not len(durations):
        return 0
    counts.upto(total)  # grows the block counts too
    block, longest, n_classes = counts.block, counts.longest, len(counts.representatives)
    # time left before each round, falling, so the bin (time left after it) *
    # classes + class of each passed edge's count lies in the blocks from
    # before[-1] - longest to before[0] - 1; a key is that bin counted from
    # the first block, plus one, and an edge that does not fit keys bin 0
    before = (durations - durations.cumsum() + total).astype(np.int64)
    first, last = max(int(before[-1]) - longest, 0) // block, (int(before[0]) - 1) // block
    span, width, n_blocks = block * n_classes, longest * n_classes, last - first + 1
    skip = counts.skip_keys.take(round_keys, axis=0)
    keys = (before * n_classes - (first * span - 1))[:, None] - skip
    np.maximum(keys, 0, out=keys)
    bins = np.bincount(keys.ravel(), minlength=n_blocks * span + 1)[1:]
    # passed counts per (block, offset in it, class), weighted into
    # coefficients on the counts N[base - lag][class] of each block's base
    coefficients = (bins.reshape(n_blocks, span) @ counts.transfer).ravel().tolist()
    return sum(map(mul, coefficients, counts.block_counts[first * width : (last + 1) * width]))


def rank_schedule(graph: SynthesisGraph, schedule: Schedule, total_duration: int) -> int:
    """Position of a duration-exact schedule in lexicographic round order.

    Validation and ranking share one pass over the round arrays; the rank
    is the sum of the counts the rounds pass over (:func:`_passed_total`).
    """
    q, ell = graph.q, graph.ell
    positions = np.minimum(np.maximum(schedule.positions, -1), q)
    indices = np.minimum(np.maximum(schedule.indices, 0), ell + 1)
    keys = _round_keys(graph, _previous(graph.alphabet.index(schedule.start), positions), positions, indices)
    durations = graph.duration_table.take(keys)
    fault = _first_fault(durations)
    if fault is not None:
        k, code = fault
        if code == NO_LETTER:
            raise InvalidSchedule(f"letter position {schedule.positions[k]} outside 0..{q - 1}")
        if code == REPEATED_LETTER:
            a = graph.alphabet.letters[positions[k]]
            raise InvalidSchedule(f"letter {a!r} repeats consecutively")
        raise InvalidSchedule(f"duration index {schedule.indices[k]} outside 1..{ell}")
    total = _left_total(durations.cumsum())
    if total != total_duration:
        raise InvalidSchedule(f"schedule lasts {total}, expected {total_duration}")
    return _passed_total(_count_table(graph), keys, durations, total)


_DROP_BITS = str.maketrans("", "", "01")


def encode_payload(bits: str, graph: SynthesisGraph, start: str, total_duration: int) -> Schedule:
    """Unrank a bitstring (MSB first) into a duration-exact schedule."""
    if bits.translate(_DROP_BITS):  # what is left is no bit
        raise ValueError("payload must be a string of 0s and 1s")
    count = count_schedules(graph, start, total_duration)
    if len(bits) >= count.bit_length():  # 2**len(bits) > count, sized in bits
        raise BudgetTooSmall(
            f"{len(bits)} bits need 2**{len(bits)} schedules; "
            f"duration {total_duration} from {start!r} offers fewer than 2**{count.bit_length()}"
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
    if n_bits is not None and n_bits < 0:
        raise ValueError(f"payload width {n_bits} is negative")
    # rank first: it refuses a schedule of another total before any count grows to it
    value = rank_schedule(graph, schedule, total_duration)
    if n_bits is None:
        n_bits = max_payload_bits(graph, schedule.start, total_duration)
    if value.bit_length() > n_bits:
        raise BudgetTooSmall(f"a rank of {value.bit_length()} bits does not fit in {n_bits} bits")
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
    if not 0 <= delta < (ell - 1) / ell:  # also refuses nan
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

    @cached_property
    def redundancy_rounds(self) -> int:
        return digits_needed(self.q - 1, self.ell**self.parity_symbols)


_BLOCK_FAILURE_BOUND = 1e-6  # largest chance of more misread rounds than the code repairs


def _parity_overhead(delta: float, ell: int, q: int) -> float:
    """Parity symbols per payload symbol, ``1/code_rate - 1``.

    With ``delta = 0`` or a single-duration menu nothing is appended, so
    any q will do; appended parity needs q >= 3 for nonzero increments.
    """
    if ell < 2 or delta == 0:
        if not 0 <= delta < 1:  # code_rate checks delta when ell >= 2; also refuses nan
            raise ValueError(f"delta must lie in [0, 1) for ell={ell}")
        return 0.0
    if q < 3:
        raise ValueError("letter increments need at least q = 3")
    return 1.0 / code_rate(delta, ell) - 1.0


def plan_redundancy(payload_rounds: int, delta: float, ell: int, q: int) -> RedundancyPlan:
    """Size the parity block for `payload_rounds` duration indices by formula.

    The parity block is ceil(s * (1/rate - 1)) symbols.  The repair radius
    is the smallest r with Pr(Binomial(s, delta) > r) <= 1e-6, where
    ``delta`` bounds the chance that a payload round is misread.  This is
    a bound, not a guess: given the schedule, rounds are synthesized and
    so misread independently, each with probability at most ``delta``, so
    the misread count is stochastically dominated by Binomial(s, delta).
    A design's exact worst misread probability counts rounds deleted in
    every copy through its Pr(sum <= tau_0) term, and letters are read
    intact.  With ``delta = 0`` or a single-duration menu nothing is
    appended.  :func:`size_parity` sets the block to the code's parity.
    """
    if not (payload_rounds >= 0 and float(payload_rounds).is_integer()):
        raise ValueError(f"payload length {payload_rounds!r} is not a nonnegative whole number")
    s = payload_rounds
    overhead = _parity_overhead(delta, ell, q)
    formula = math.ceil(s * overhead)
    # the Boost kernel behind stats.binom.isf, the smallest r with
    # sf(r) <= bound; tests pin both on a grid
    radius = int(_binom_isf(_BLOCK_FAILURE_BOUND, s, delta)) if overhead else 0
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
    payload_rounds: int, delta: float, ell: int, q: int
) -> tuple[RedundancyPlan, ReedSolomonCode | None]:
    """Plan the parity block and build the Reed-Solomon code that fills it.

    The code repairs the plan's ``radius_target`` symbol errors, and the
    parity block is exactly that code's parity.  A radius of 0 (``delta =
    0``, a single-duration menu, or a misread bound too small to matter)
    needs no code and no parity.
    """
    plan = plan_redundancy(payload_rounds, delta, ell, q)
    if plan.radius_target == 0:
        return replace(plan, parity_symbols=0), None
    ecc = ReedSolomonCode(payload_rounds, ell, plan.radius_target)
    return replace(plan, parity_symbols=ecc.parity_len), ecc


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
    overhead = _parity_overhead(delta, ell, q)
    if overhead:  # ell-ary parity symbols ride on (q-1)-ary increments
        overhead *= math.log(ell) / math.log(q - 1)
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

def _check_width(plan: RedundancyPlan, ecc: ReedSolomonCode | None) -> None:
    width = 0 if ecc is None else ecc.parity_len
    if plan.parity_symbols != width:
        raise ValueError(f"plan holds {plan.parity_symbols} parity digits; the code has {width}")


def attach_redundancy(
    graph: SynthesisGraph,
    schedule: Schedule,
    plan: RedundancyPlan,
    ecc: ReedSolomonCode | None,
) -> Schedule:
    """Encode the schedule's duration indices and append the parity rounds.

    The plan's parity block must be the code's; without a code it is empty.
    Each nonzero letter increment appends one shortest-duration round whose
    letter is the previous one plus the increment in Z_q.
    """
    _check_width(plan, ecc)
    if ecc is None:
        return schedule
    barred = _split_digits(ecc.encode(schedule.indices), plan.q - 1, plan.redundancy_rounds)
    positions = np.cumsum(np.append(schedule.positions[-1], barred)) % graph.q
    indices = np.concatenate([schedule.indices, np.ones(len(barred), dtype=np.int64)])
    return Schedule(graph, schedule.start, np.concatenate([schedule.positions, positions[1:]]), indices)


def strip_and_correct(
    graph: SynthesisGraph,
    received: Schedule,
    plan: RedundancyPlan,
    ecc: ReedSolomonCode | None,
) -> Schedule:
    """Correct the payload rounds of a schedule as read against its appended parity.

    ``received`` holds every round's letter and each payload round's read
    index; appended indices are not read.  The appended increments,
    ``np.diff(positions) % q``, spell the parity integer.  Returns the
    payload rounds, corrected: ready to rank.
    """
    _check_width(plan, ecc)
    s = plan.payload_rounds
    if received.num_rounds != s + plan.redundancy_rounds:
        raise ValueError(f"{received.num_rounds} rounds read; the plan has {s} + {plan.redundancy_rounds}")
    positions, indices = received.positions[:s], received.indices[:s]
    if ecc is not None:
        tail = received.positions[s - 1 :]
        barred = np.diff(tail) % plan.q
        repeats = np.flatnonzero(barred == 0)
        if repeats.size:
            a = graph.alphabet.letters[tail[repeats[0] + 1]]
            raise ZeroDifference(f"letter {a!r} repeats; increments must be nonzero")
        # Python ints, as the code returns them: a trace of ecc.decode counts changed
        # positions between argument and result, and numpy ints would not serialize
        corrected = ecc.decode(indices.tolist(), _join_digits(barred, plan.q - 1))
        indices = _byte_symbols(corrected)
        if indices is None:  # an alphabet past 255 symbols
            indices = np.fromiter(corrected, dtype=np.int64, count=s)
    return Schedule(graph, received.start, positions, indices)
