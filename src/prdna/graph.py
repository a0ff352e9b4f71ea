"""Constrained graphs of synthesis schedules.

A schedule graph has one vertex per alphabet letter and, for every ordered
pair of distinct letters (b, a), one parallel edge per allowed round
duration.  An edge b -> a of duration t stands for "run a synthesis round
of t time units appending the letter a after a run of b".  Words generated
by paths describe synthesis programs, so capacity here is measured in bits
per synthesis *time* unit, not per written base.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

DNA_LETTERS = ("A", "C", "G", "T")
_GENERIC_LETTERS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")

_REL_TOL = 1e-13  # relative width at which the root bisection stops


@dataclass(frozen=True)
class Alphabet:
    """Finite set of distinct letters; the vertices of a schedule graph."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if len(self.letters) < 2:
            raise ValueError("alphabet needs at least two letters")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    @property
    def q(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise ValueError(f"unknown letter {letter!r}") from None


def default_alphabet(q: int = 4) -> Alphabet:
    """A, C, G, T for q=4; generic uppercase letters otherwise."""
    if q == 4:
        return Alphabet(DNA_LETTERS)
    if 2 <= q <= len(_GENERIC_LETTERS):
        return Alphabet(_GENERIC_LETTERS[:q])
    raise ValueError(f"no default letter names for q={q}")


@dataclass(frozen=True)
class SynthesisGraph:
    """Schedule graph: per ordered letter pair, an ascending duration menu.

    ``menus[b][a]`` is the tuple of allowed round durations for writing a
    after b (empty on the diagonal).  All pairs carry the same number of
    durations.  Durations may be real; integer-only operations reject
    non-integer graphs (see :func:`rescale_to_integer`).
    """

    alphabet: Alphabet
    menus: tuple[tuple[tuple[float, ...], ...], ...]
    max_duration: float

    def __post_init__(self):
        # set at construction, not cached on first use: an attribute added
        # later slows every attribute read on the instance
        integer = all(float(t).is_integer() for _, _, _, t in self.edges())
        object.__setattr__(self, "_integer_durations", integer)

    @property
    def q(self) -> int:
        return self.alphabet.q

    @property
    def ell(self) -> int:
        return len(self.menus[0][1])

    @property
    def num_edges(self) -> int:
        return self.q * (self.q - 1) * self.ell

    def menu(self, b: str, a: str) -> tuple[float, ...]:
        bi, ai = self.alphabet.index(b), self.alphabet.index(a)
        if bi == ai:
            raise ValueError("no self-transitions: consecutive letters differ")
        return self.menus[bi][ai]

    def duration(self, b: str, a: str, index: int) -> float:
        """Round duration for 1-based duration index on edge b -> a."""
        menu = self.menu(b, a)
        if not 1 <= index <= len(menu):
            raise ValueError(f"duration index {index} outside 1..{len(menu)}")
        return menu[index - 1]

    def edges(self) -> Iterator[tuple[str, str, int, float]]:
        """Yield (b, a, index, duration) over all edges; index is 1-based."""
        letters = self.alphabet.letters
        for bi, b in enumerate(letters):
            for ai, a in enumerate(letters):
                if bi == ai:
                    continue
                for i, t in enumerate(self.menus[bi][ai], start=1):
                    yield b, a, i, t

    def is_integer(self) -> bool:
        return self._integer_durations


def _normalize_menu(raw: Sequence[float]) -> tuple[float, ...]:
    menu = tuple(float(t) for t in raw)
    if not menu:
        raise ValueError("duration menu may not be empty")
    if any(t < 1 for t in menu):
        raise ValueError("durations must be at least 1 time unit")
    if any(t2 <= t1 for t1, t2 in zip(menu, menu[1:])):
        raise ValueError("duration menu must be strictly increasing")
    return tuple(int(t) if t.is_integer() else t for t in menu)


def _pair_key(key, alphabet: Alphabet) -> tuple[int, int]:
    if isinstance(key, str):
        if ">" not in key:
            raise ValueError(f"pair key {key!r} must look like 'B>A'")
        b, a = key.split(">", 1)
    else:
        b, a = key
    bi, ai = alphabet.index(b), alphabet.index(a)
    if bi == ai:
        raise ValueError(f"self-pair {b!r}->{a!r} is not allowed")
    return bi, ai


def build_graph(alphabet: Alphabet, durations: Mapping, max_duration: float | None = None) -> SynthesisGraph:
    """Build a schedule graph from a duration map.

    ``durations`` maps ordered letter pairs to menus.  Keys are either
    ``(b, a)`` tuples or ``"B>A"`` strings; the key ``"default"`` supplies
    the menu for every pair not listed explicitly.  Every ordered pair of
    distinct letters must end up covered, all menus must share one length,
    and no duration may exceed ``max_duration`` (defaults to the largest
    duration present).
    """
    q = alphabet.q
    table: list[list[tuple[float, ...] | None]] = [[None] * q for _ in range(q)]
    default = None
    for key, raw in durations.items():
        if key == "default":
            default = _normalize_menu(raw)
            continue
        bi, ai = _pair_key(key, alphabet)
        table[bi][ai] = _normalize_menu(raw)
    for bi in range(q):
        for ai in range(q):
            if bi == ai:
                continue
            if table[bi][ai] is None:
                if default is None:
                    b, a = alphabet.letters[bi], alphabet.letters[ai]
                    raise ValueError(f"no durations for pair {b}>{a} and no default")
                table[bi][ai] = default

    lengths = {len(table[bi][ai]) for bi in range(q) for ai in range(q) if bi != ai}
    if len(lengths) != 1:
        raise ValueError("all pairs must offer the same number of durations")

    longest = max(t for bi in range(q) for ai in range(q) if bi != ai for t in table[bi][ai])
    if max_duration is None:
        max_duration = longest
    elif longest > max_duration:
        raise ValueError(f"duration {longest} exceeds max duration {max_duration}")

    menus = tuple(
        tuple(table[bi][ai] if bi != ai else () for ai in range(q)) for bi in range(q)
    )
    return SynthesisGraph(alphabet=alphabet, menus=menus, max_duration=float(max_duration))


def uniform_graph(q: int, menu: Sequence[float], max_duration: float | None = None) -> SynthesisGraph:
    """Graph where every ordered pair shares the same duration menu."""
    return build_graph(default_alphabet(q), {"default": tuple(menu)}, max_duration)


# ---------------------------------------------------------------------------
# Capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityResult:
    """Perron root of the schedule graph and the induced capacity.

    ``capacity`` is log2 of ``perron_root`` in bits per synthesis time
    unit.  The right/left vectors are the positive eigenvectors of the
    duration-weighted transfer matrix at the root, indexed by letters.
    """

    capacity: float
    perron_root: float
    right_vector: tuple[float, ...]
    left_vector: tuple[float, ...]


def transfer_matrix(graph: SynthesisGraph, z: float) -> np.ndarray:
    """Matrix with entry [b, a] equal to the sum of z**(-t) over the b->a menu."""
    q = graph.q
    mat = np.zeros((q, q))
    for bi in range(q):
        for ai in range(q):
            if bi != ai:
                mat[bi, ai] = sum(z ** (-t) for t in graph.menus[bi][ai])
    return mat


def _spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _positive_eigenvector(mat: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(mat)
    lead = int(np.argmax(values.real))
    vec = np.abs(vectors[:, lead].real)
    return vec / vec.sum()


def capacity(graph: SynthesisGraph) -> CapacityResult:
    """Capacity of the schedule constraint in bits per synthesis time unit.

    Solves for the unique z >= 1 at which the spectral radius of the
    transfer matrix equals one; the radius is strictly decreasing in z, so
    plain bisection on (1, q*ell + 1] is robust.  For a uniform menu this
    root satisfies (q-1) * sum_i z**(-t_i) = 1.
    """
    rho_one = _spectral_radius(transfer_matrix(graph, 1.0))
    if rho_one <= 1.0 + 1e-12:
        root = 1.0
    else:
        lo, hi = 1.0, graph.q * graph.ell + 1.0
        if _spectral_radius(transfer_matrix(graph, hi)) >= 1.0:
            raise RuntimeError("root bracket failure; graph invariants violated")
        while hi - lo > _REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if _spectral_radius(transfer_matrix(graph, mid)) >= 1.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)

    at_root = transfer_matrix(graph, root)
    right = _positive_eigenvector(at_root)
    left = _positive_eigenvector(at_root.T)
    return CapacityResult(
        capacity=math.log2(root),
        perron_root=root,
        right_vector=tuple(float(x) for x in right),
        left_vector=tuple(float(x) for x in left),
    )


# ---------------------------------------------------------------------------
# Ordinary (unit-duration) expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OrdinaryGraph:
    """Unit-duration expansion of a schedule graph.

    Each duration-t edge becomes a t-step path through t-1 fresh auxiliary
    vertices.  ``non_auxiliary`` marks the original letter vertices.
    """

    adjacency: np.ndarray
    non_auxiliary: np.ndarray
    vertex_labels: tuple[str, ...]

    @property
    def num_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_auxiliary(self) -> int:
        return int(np.sum(~self.non_auxiliary))


def ordinary_expand(graph: SynthesisGraph) -> OrdinaryGraph:
    """Expand multi-unit edges into unit-edge paths via auxiliary vertices."""
    if not graph.is_integer():
        raise ValueError("ordinary expansion needs integer durations; rescale first")
    letters = graph.alphabet.letters
    labels = list(letters)
    arcs: list[tuple[int, int]] = []
    for b, a, i, t in graph.edges():
        t = int(t)
        bi, ai = graph.alphabet.index(b), graph.alphabet.index(a)
        prev = bi
        for step in range(1, t):
            labels.append(f"{b}>{a}#{i}.{step}")
            aux = len(labels) - 1
            arcs.append((prev, aux))
            prev = aux
        arcs.append((prev, ai))
    n = len(labels)
    adjacency = np.zeros((n, n), dtype=np.int64)
    for u, v in arcs:
        adjacency[u, v] += 1
    non_aux = np.zeros(n, dtype=bool)
    non_aux[: len(letters)] = True
    return OrdinaryGraph(adjacency=adjacency, non_auxiliary=non_aux, vertex_labels=tuple(labels))


def rescale_to_integer(graph: SynthesisGraph, denominator: int = 10) -> SynthesisGraph:
    """Multiply every duration by ``denominator`` and round to integers.

    Supports integer-only operations (expansion, schedule counting) on
    graphs designed with real durations.  Capacity of the rescaled graph is
    1/denominator times the original per-time-unit figure.  Raises if the
    rounding collapses two durations of one menu.
    """
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    q = graph.q
    menus = []
    for bi in range(q):
        row = []
        for ai in range(q):
            if bi == ai:
                row.append(())
                continue
            scaled = tuple(int(round(t * denominator)) for t in graph.menus[bi][ai])
            if any(t2 <= t1 for t1, t2 in zip(scaled, scaled[1:])):
                raise ValueError("rescaling collapsed durations; use a larger denominator")
            row.append(scaled)
        menus.append(tuple(row))
    return SynthesisGraph(
        alphabet=graph.alphabet,
        menus=tuple(menus),
        max_duration=float(int(math.ceil(graph.max_duration * denominator))),
    )


# ---------------------------------------------------------------------------
# Max-entropic round process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovAnalysis:
    """Entropy-maximizing round process on a schedule graph.

    ``edge_probabilities[b]`` lists (letter, duration_index, probability)
    for the outgoing edges of b.  ``rounds_per_time`` is the reciprocal of
    the mean round duration: the long-run fraction of time units at which
    a new round starts.
    """

    edge_probabilities: tuple[tuple[tuple[str, int, float], ...], ...]
    stationary: tuple[float, ...]
    rounds_per_time: float
    mean_round_duration: float


def max_entropic_chain(graph: SynthesisGraph) -> MarkovAnalysis:
    """Edge distribution maximizing schedule entropy per time unit.

    An edge b -> a of duration t receives probability z**(-t) x[a] / x[b],
    with z the Perron root and x the right vector; this is the unit-step
    chain of the ordinary expansion collapsed onto whole rounds.
    """
    cap = capacity(graph)
    z = cap.perron_root
    x = np.array(cap.right_vector)
    letters = graph.alphabet.letters
    q = graph.q

    per_letter: list[tuple[tuple[str, int, float], ...]] = []
    letter_chain = np.zeros((q, q))
    for bi, b in enumerate(letters):
        out = []
        for ai, a in enumerate(letters):
            if ai == bi:
                continue
            for i, t in enumerate(graph.menus[bi][ai], start=1):
                prob = z ** (-t) * x[ai] / x[bi]
                out.append((a, i, float(prob)))
                letter_chain[bi, ai] += prob
        per_letter.append(tuple(out))

    values, vectors = np.linalg.eig(letter_chain.T)
    lead = int(np.argmin(np.abs(values - 1.0)))
    pi = np.abs(vectors[:, lead].real)
    pi = pi / pi.sum()

    mean_duration = 0.0
    for bi in range(q):
        for a, i, prob in per_letter[bi]:
            t = graph.menus[bi][graph.alphabet.index(a)][i - 1]
            mean_duration += pi[bi] * prob * t

    return MarkovAnalysis(
        edge_probabilities=tuple(per_letter),
        stationary=tuple(float(p) for p in pi),
        rounds_per_time=1.0 / mean_duration,
        mean_round_duration=float(mean_duration),
    )


# ---------------------------------------------------------------------------
# Exact schedule counting and enumeration
# ---------------------------------------------------------------------------

class _CountTable:
    """Schedule counts of one graph, grown on demand to the longest duration asked.

    ``rows[time][letter]`` counts schedules from ``letter`` of duration
    exactly ``time``.  Row ``time`` does not depend on how far the table
    has grown, so one table serves every duration.  Rows are tuples, since
    every caller of the cache shares them.
    """

    def __init__(self, graph: SynthesisGraph):
        q = graph.q
        # per letter, its outgoing (successor, duration) edges
        self.edges = tuple(
            tuple((ai, int(t)) for ai in range(q) if ai != bi for t in graph.menus[bi][ai])
            for bi in range(q)
        )
        self.rows: list[tuple[int, ...]] = [(1,) * q]

    def upto(self, total: int) -> list[tuple[int, ...]]:
        """The table, grown so that it holds rows 0..total."""
        rows = self.rows
        for time in range(len(rows), total + 1):
            row = []
            for edges in self.edges:
                acc = 0
                for ai, t in edges:
                    if t <= time:
                        acc += rows[time - t][ai]
                row.append(acc)
            rows.append(tuple(row))
        return rows


@lru_cache(maxsize=16)
def _count_table(graph: SynthesisGraph) -> _CountTable:
    return _CountTable(graph)


def count_schedules(graph: SynthesisGraph, start: str, total_duration: int) -> int:
    """Number of schedules starting after a run of `start` with durations summing to exactly `total_duration`.

    Exact arbitrary-precision dynamic programming over (letter, remaining
    time); requires integer durations.
    """
    if not graph.is_integer():
        raise ValueError("schedule counting needs integer durations; rescale first")
    if total_duration < 0 or int(total_duration) != total_duration:
        raise ValueError("total duration must be a nonnegative integer")
    total = int(total_duration)
    return _count_table(graph).upto(total)[total][graph.alphabet.index(start)]


def iter_schedules(graph: SynthesisGraph, start: str, total_duration: int) -> Iterator[tuple[tuple[str, int], ...]]:
    """Yield every duration-exact schedule as a tuple of (letter, index) rounds.

    Rounds are emitted in lexicographic order: by letter position first,
    then by duration index.  Intended for small exhaustive checks.
    """
    if not graph.is_integer():
        raise ValueError("schedule enumeration needs integer durations")
    letters = graph.alphabet.letters

    def walk(b_idx: int, remaining: int, prefix: tuple):
        if remaining == 0:
            yield prefix
            return
        for ai, a in enumerate(letters):
            if ai == b_idx:
                continue
            for i, t in enumerate(graph.menus[b_idx][ai], start=1):
                t = int(t)
                if t <= remaining:
                    yield from walk(ai, remaining - t, prefix + ((a, i),))

    yield from walk(graph.alphabet.index(start), int(total_duration), ())


def rounds_to_word(graph: SynthesisGraph, start: str, rounds: Sequence[tuple[str, int]]) -> str:
    """DNA word generated by a schedule: each round contributes letter**duration."""
    word = []
    prev = start
    for a, i in rounds:
        t = graph.duration(prev, a, i)
        if not float(t).is_integer():
            raise ValueError("word generation needs integer durations")
        word.append(a * int(t))
        prev = a
    return "".join(word)


# ---------------------------------------------------------------------------
# JSON profiles
# ---------------------------------------------------------------------------

def graph_to_json(graph: SynthesisGraph) -> str:
    """Serialize as {"q", "letters", "M", "menus"} with a default menu when uniform."""
    letters = graph.alphabet.letters
    pair_menus = {
        f"{b}>{a}": list(graph.menus[graph.alphabet.index(b)][graph.alphabet.index(a)])
        for b in letters
        for a in letters
        if a != b
    }
    menus: dict = {}
    unique = {tuple(v) for v in pair_menus.values()}
    if len(unique) == 1:
        menus["default"] = list(next(iter(unique)))
    else:
        menus = pair_menus
    payload = {
        "q": graph.q,
        "letters": list(letters),
        "M": graph.max_duration,
        "menus": menus,
    }
    return json.dumps(payload, indent=2)


def graph_from_json(text: str) -> SynthesisGraph:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("graph profile must be a JSON object")
    letters = data.get("letters")
    if not isinstance(data.get("menus"), dict) or not (letters or "q" in data):
        raise ValueError("graph profile needs a 'menus' object and 'letters' or 'q'")
    try:
        alphabet = Alphabet(tuple(letters)) if letters else default_alphabet(int(data["q"]))
        if "q" in data and alphabet.q != int(data["q"]):
            raise ValueError("q does not match the number of letters")
        return build_graph(alphabet, data["menus"], data.get("M"))
    except (TypeError, OverflowError) as exc:  # null, a list for a number, infinity
        raise ValueError(f"graph profile has a malformed field: {exc}") from None
