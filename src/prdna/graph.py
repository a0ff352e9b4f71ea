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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import add
from typing import Iterator, Mapping, Sequence

import numpy as np

DNA_LETTERS = ("A", "C", "G", "T")
_GENERIC_LETTERS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")

# relative width at which the root search stops: the finest scipy's brentq
# accepts, so the root lands within a few ulps of the true one (z >= 1, so
# the same xtol at most doubles the width)
_REL_TOL = 4 * np.finfo(float).eps

# fault codes in SynthesisGraph.duration_table, where no edge is
NO_LETTER, REPEATED_LETTER, INDEX_OUTSIDE = -1.0, -2.0, -3.0


@dataclass(frozen=True)
class Alphabet:
    """Finite set of distinct letters; the vertices of a schedule graph."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if len(self.letters) < 2:
            raise ValueError("alphabet needs at least two letters")
        for a in self.letters:  # schedule file lines split on blanks, "B>A" menu keys on ">"
            if not isinstance(a, str) or a.split() != [a] or ">" in a:
                raise ValueError(f"letter {a!r} is not a non-empty string free of whitespace and '>'")
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

    @cached_property
    def _ascii_positions(self) -> np.ndarray | None:
        """Letter positions by character code, -1 for any other code; None unless
        every letter is one ASCII character.  Built once per alphabet, not per graph."""
        if not all(len(a) == 1 and a.isascii() for a in self.letters):
            return None
        table = np.full(128, -1, dtype=np.int64)
        table[[ord(a) for a in self.letters]] = range(self.q)
        return table


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
    durations.  Durations may be real; integer-only operations (expansion,
    counting, ranking, enumeration) reject non-integer graphs.

    ``out_edges[b]`` lists the edges leaving letter position b as
    ``(successor position, 1-based index, duration)``, ordered by
    successor position, then by index; whole durations are ints.  This
    lexicographic order fixes which rank maps to which schedule, and every
    schedule walk (counting, rank/unrank, enumeration, expansion, the
    max-entropic chain) reads this one table.  ``duration_table[b, a, i]``
    holds the same menus as one float array for schedules built or checked
    by array lookups, with the 1-based index i.  It is padded so that every
    lookup of a letter position in -1..q and an index in 0..ell+1 lands:
    where no edge is, it holds a negative fault code, ``NO_LETTER`` when b
    or a is -1 or q, else ``REPEATED_LETTER`` when a == b, else
    ``INDEX_OUTSIDE``.  The ``(letter, index)`` pair that all schedules
    share to spell round (a, i), a letter position and a 1-based index, is
    ``round_pairs[a * (ell + 2) + i]``, a flat object array with ell + 2
    entries per letter like the last axis of ``duration_table`` (None at
    indices 0 and ell + 1), and ``round_pair_at[a, i]``, a dict that holds
    only the pairs on the graph.  The tables are built at construction and
    are not fields, so equality and hashing see only the menus.
    """

    alphabet: Alphabet
    menus: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self):
        # set at construction, not cached on first use: an attribute added
        # later slows every attribute read on the instance
        q = self.alphabet.q
        out_edges = tuple(
            tuple(
                (ai, i, int(t) if float(t).is_integer() else t)
                for ai in range(q)
                if ai != bi
                for i, t in enumerate(self.menus[bi][ai], start=1)
            )
            for bi in range(q)
        )
        integer = all(isinstance(t, int) for edges in out_edges for _, _, t in edges)
        ell = len(self.menus[0][1])
        table = np.full((q + 1, q + 1, ell + 2), INDEX_OUTSIDE)
        for bi, row in enumerate(self.menus):
            for ai, menu in enumerate(row):
                if ai != bi:
                    table[bi, ai, 1 : ell + 1] = menu
        table[np.arange(q), np.arange(q)] = REPEATED_LETTER
        table[q] = table[:, q] = NO_LETTER
        object.__setattr__(self, "out_edges", out_edges)
        object.__setattr__(self, "duration_table", table)
        flat, pairs = [None] * (q * (ell + 2)), {}
        for p, a in enumerate(self.alphabet.letters):
            for i in range(1, ell + 1):
                flat[p * (ell + 2) + i] = pairs[p, i] = (a, i)
        object.__setattr__(self, "round_pairs", np.fromiter(flat, dtype=object, count=len(flat)))
        object.__setattr__(self, "round_pair_at", pairs)
        object.__setattr__(self, "_integer_durations", integer)
        # the hash every cache lookup needs, taken once over the same fields
        object.__setattr__(self, "_hash", hash((self.alphabet, self.menus)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from the fields, so a copy in another process hashes as its own
        return SynthesisGraph, (self.alphabet, self.menus)

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

    def is_integer(self) -> bool:
        return self._integer_durations


def _normalize_menu(raw: Sequence[float]) -> tuple[float, ...]:
    # a string would read as its characters, a bool as 0 or 1
    if isinstance(raw, str) or any(isinstance(t, (str, bool)) for t in raw):
        raise ValueError(f"duration menu {raw!r} must be a list of numbers")
    menu = tuple(float(t) for t in raw)
    if not menu:
        raise ValueError("duration menu may not be empty")
    bad = [t for t in menu if not math.isfinite(t)]
    if bad:
        raise ValueError(f"durations must be finite, not {bad[0]}")
    if any(t < 1 for t in menu):
        raise ValueError("durations must be at least 1 time unit")
    if any(t2 <= t1 for t1, t2 in zip(menu, menu[1:])):
        raise ValueError("duration menu must be strictly increasing")
    return tuple(int(t) if t.is_integer() else t for t in menu)


def _pair_key(key, alphabet: Alphabet) -> tuple[int, int]:
    if not (isinstance(key, str) and ">" in key):
        raise ValueError(f"pair key {key!r} must look like 'B>A'")
    b, a = key.split(">", 1)
    bi, ai = alphabet.index(b), alphabet.index(a)
    if bi == ai:
        raise ValueError(f"self-pair {b!r}->{a!r} is not allowed")
    return bi, ai


def build_graph(alphabet: Alphabet, durations: Mapping, max_duration: float | None = None) -> SynthesisGraph:
    """Build a schedule graph from a duration map.

    ``durations`` maps ordered letter pairs, keyed ``"B>A"``, to menus;
    the key ``"default"`` supplies the menu for every pair not listed
    explicitly.  Every ordered pair of distinct letters must end up
    covered, all menus must share one length, and no duration may exceed
    ``max_duration`` when it is given.
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

    if max_duration is not None:
        longest = max(t for bi in range(q) for ai in range(q) if bi != ai for t in table[bi][ai])
        if not longest <= max_duration < math.inf:  # also refuses nan
            raise ValueError(f"max duration {max_duration} is not finite or lies below duration {longest}")

    menus = tuple(
        tuple(table[bi][ai] if bi != ai else () for ai in range(q)) for bi in range(q)
    )
    return SynthesisGraph(alphabet=alphabet, menus=menus)


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
    durations = graph.duration_table[: graph.q, : graph.q, 1 : graph.ell + 1]
    return np.where(durations > 0, z ** -durations, 0.0).sum(axis=2)


def _spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _positive_eigenvector(mat: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(mat)
    lead = int(np.argmax(values.real))
    vec = np.abs(vectors[:, lead].real)
    return vec / vec.sum()


@lru_cache(maxsize=16)
def _letter_classes(graph: SynthesisGraph) -> tuple[tuple[int, ...], tuple]:
    """The coarsest equitable letter partition, by colour refinement, and its quotient.

    Returns ``(letter_class, class_terms)``.  Two letters share a class
    when their out-edges reach each class with the same multiset of
    durations; classes are numbered in order of their first letter.
    ``class_terms[c]`` lists ``(duration, class reached, multiplicity)``,
    sorted, over the out-edges of any one letter of class c.

    One partition serves both the schedule counts and the Perron solve.
    Every letter of a class has the same out-terms, so the counts of two
    such letters are equal at every time, and the quotient matrix
    ``B(z)[c, d]``, the sum of m * z**(-t) over the terms of c that reach
    d, is the row sum of the transfer matrix T(z) over class d from any
    letter of c.  Then T(z) P = P B(z) for the letter-to-class indicator
    P: B's positive eigenvector lifts to a positive eigenvector of T(z),
    which on the irreducible T(z) can only be its Perron vector, so B(z)
    and T(z) share the Perron root and the right Perron vector is B's,
    constant on each class (Godsil & Royle, Algebraic Graph Theory, ch. 9).
    """
    edges = tuple(tuple((ai, t) for ai, _, t in out) for out in graph.out_edges)
    classes = (0,) * len(edges)
    while True:
        numbering: dict = {}
        refined = tuple(
            numbering.setdefault((classes[b], tuple(sorted((classes[a], t) for a, t in out))), len(numbering))
            for b, out in enumerate(edges)
        )
        if len(numbering) == max(classes) + 1:
            break
        classes = refined
    reps = tuple(refined.index(c) for c in range(len(numbering)))
    terms = tuple(
        tuple((t, c, m) for (t, c), m in sorted(Counter((t, refined[a]) for a, t in edges[r]).items()))
        for r in reps
    )
    return refined, terms


def _quotient(class_terms, z: float) -> list[list[float]]:
    """The class quotient B(z) of the transfer matrix (see :func:`_letter_classes`)."""
    quotient = [[0.0] * len(class_terms) for _ in class_terms]
    for row, terms in zip(quotient, class_terms):
        for t, c, m in terms:
            row[c] += m * z**-t
    return quotient


def _quotient_radius(class_terms, z: float) -> float:
    quotient = _quotient(class_terms, z)
    # on one class B(z) is a single entry: every row of T(z) has this sum
    return quotient[0][0] if len(quotient) == 1 else _spectral_radius(np.array(quotient))


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b] by Brent's method: scipy's ``optimize.brentq``, step for step.

    A port of scipy's ``brentq.c`` (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4), operation for operation, so it
    returns the same float without importing ``scipy.optimize``.  Like
    scipy it raises ValueError on a NaN value or when f(a) and f(b) share
    a sign, and RuntimeError when 100 steps do not converge.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)  # C doubles, as scipy parses them
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # a step C would compute as inf or nan: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                if den := dblk * dpre * (fblk - fpre):
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def capacity(graph: SynthesisGraph) -> CapacityResult:
    """Capacity of the schedule constraint in bits per synthesis time unit.

    Solves for the unique z >= 1 at which the spectral radius of the
    transfer matrix T(z) equals one.  The radius is strictly decreasing in
    z and below one at z = q*ell + 1, so Brent's method (:func:`_brentq`,
    the float scipy's ``brentq`` returns) finds the root on the bracket
    (1, q*ell + 1].  Every step evaluates the radius on the
    C x C quotient of T(z) over the letter classes, which keeps the Perron
    root (see :func:`_letter_classes`): on one class, as on every uniform
    menu, it is one row's sum of z**(-t), and the root satisfies
    (q-1) * sum_i z**(-t_i) = 1.  The right Perron vector is the
    quotient's, lifted to the letters, so it is exactly uniform on one
    class; one q x q eigen-solve at the root gives the left vector.
    """
    letter_class, class_terms = _letter_classes(graph)
    if _quotient_radius(class_terms, 1.0) <= 1.0 + 1e-12:
        root = 1.0
    else:
        root = _brentq(
            lambda z: _quotient_radius(class_terms, z) - 1.0,
            1.0,
            graph.q * graph.ell + 1.0,
            xtol=_REL_TOL,
            rtol=_REL_TOL,
        )

    if len(class_terms) == 1:
        right = np.full(graph.q, 1.0 / graph.q)
    else:
        lifted = _positive_eigenvector(np.array(_quotient(class_terms, root)))[list(letter_class)]
        right = lifted / lifted.sum()
    left = _positive_eigenvector(transfer_matrix(graph, root).T)
    return CapacityResult(
        capacity=math.log2(root),
        perron_root=root,
        right_vector=tuple(float(x) for x in right),
        left_vector=tuple(float(x) for x in left),
    )


# ---------------------------------------------------------------------------
# Ordinary (unit-duration) expansion
# ---------------------------------------------------------------------------

def ordinary_expand(graph: SynthesisGraph) -> np.ndarray:
    """Adjacency matrix of the unit-duration expansion of a schedule graph.

    Each duration-t edge becomes a t-step path through t-1 fresh auxiliary
    vertices.  Vertices 0..q-1 are the letters; every later vertex is
    auxiliary.
    """
    if not graph.is_integer():
        raise ValueError("ordinary expansion needs integer durations")
    n = graph.q  # the letters, then each auxiliary vertex as it is made
    arcs: list[tuple[int, int]] = []
    for bi, edges in enumerate(graph.out_edges):
        for ai, _, t in edges:
            prev = bi
            for _ in range(t - 1):
                arcs.append((prev, n))
                prev = n
                n += 1
            arcs.append((prev, ai))
    adjacency = np.zeros((n, n), dtype=np.int64)
    for u, v in arcs:
        adjacency[u, v] += 1
    return adjacency


# ---------------------------------------------------------------------------
# Max-entropic round process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovAnalysis:
    """Entropy-maximizing round process on a schedule graph.

    ``edge_probabilities[b]`` lists (letter, duration_index, probability)
    for the outgoing edges of b, in the order of ``out_edges[b]``.
    ``stationary`` is the long-run law of the letters, proportional to the
    product of the right and left Perron vectors.  ``rounds_per_time`` is
    the reciprocal of the mean round duration: the long-run fraction of
    time units at which a new round starts.  ``capacity`` is the solved
    root the chain was built from, so its readers need not solve it again.
    """

    edge_probabilities: tuple[tuple[tuple[str, int, float], ...], ...]
    stationary: tuple[float, ...]
    rounds_per_time: float
    mean_round_duration: float
    capacity: CapacityResult


def max_entropic_chain(graph: SynthesisGraph) -> MarkovAnalysis:
    """Edge distribution maximizing schedule entropy per time unit.

    An edge b -> a of duration t receives probability z**(-t) x[a] / x[b],
    with z the Perron root and x the right vector; this is the unit-step
    chain of the ordinary expansion collapsed onto whole rounds.  With y
    the left vector, y T(z) = y, so the stationary law of the letters is
    pi[b] proportional to x[b] y[b], with no second eigen-solve.
    """
    cap = capacity(graph)
    z = cap.perron_root
    x, y = np.array(cap.right_vector), np.array(cap.left_vector)
    letters = graph.alphabet.letters
    durations = graph.duration_table[: graph.q, : graph.q, 1 : graph.ell + 1]
    probs = np.where(durations > 0, z ** -durations, 0.0) * x[None, :, None] / x[:, None, None]
    pi = x * y / (x * y).sum()
    # the diagonal's probabilities are zero, so its fault codes add nothing
    mean_duration = math.fsum((pi[:, None, None] * probs * durations).flat)

    rows = probs.tolist()
    return MarkovAnalysis(
        edge_probabilities=tuple(
            tuple((letters[ai], i, rows[bi][ai][i - 1]) for ai, i, _ in edges)
            for bi, edges in enumerate(graph.out_edges)
        ),
        stationary=tuple(pi.tolist()),
        rounds_per_time=1.0 / mean_duration,
        mean_round_duration=mean_duration,
        capacity=cap,
    )


# ---------------------------------------------------------------------------
# Schedule counting and enumeration
# ---------------------------------------------------------------------------

_COUNT_BITS = 32  # w: the significant bits each rounded count keeps
_WALK_CHUNK = 4096  # times per step of the walk-row build, so no count list of every time sits beside the rows


class _CountTable:
    """Rounded schedule counts of one graph, grown on demand to the longest duration asked.

    With C letter classes (see :func:`_letter_classes`), entry ``time * C + c``
    of the int64 arrays ``mantissas`` and ``exponents`` holds Ñ[time][c] =
    mantissa << exponent for schedules of duration ``time`` from a letter of
    class c: Ñ[0][c] = 1, Ñ[time][c] = 0 for time < 0, and over the class
    terms (t, c', m), Ñ[time][c] = floor_w(sum m * Ñ[time - t][c']), the exact
    sum with all but its top w = ``_COUNT_BITS`` bits cleared.  So Ñ[time][b]
    is at most the sum of Ñ over b's fitting out-edges, and the greedy walk
    maps ranks 0..Ñ[T][b] - 1 one to one onto schedules (Cover, "Enumerative
    source coding", 1973; Immink, IEEE Trans. IT 43(5), 1997).  Ñ never
    exceeds the exact count and equals it below 2**w.  Rows do not depend on
    how far the table has grown, so one table serves every duration.

    The codec reads counts by walk key ``d * C + c``, d the place of an
    edge's duration t among the distinct durations and c its successor's
    class: ``left`` time units before the end that count is entry
    ``left * C - walk_back[key]`` (``t * C - c``), negative when it does not
    fit.  ``walk_keys[b]`` lists the keys of ``out_edges[b]`` in walk order;
    row ``(b * (q + 1) + a) * (ell + 2) + i`` of ``passed``, a round's flat
    index into ``SynthesisGraph.duration_table``, counts by key the edges
    before (a, i) in ``out_edges[b]``, which that round passes.  Unranking
    reads the cumulative rows of :meth:`walk_rows` in place of the keys,
    built on the first unrank and never by counting alone.
    """

    def __init__(self, graph: SynthesisGraph):
        if not graph.is_integer():
            raise ValueError("schedule counting needs integer durations")
        letter_class, class_terms = _letter_classes(graph)
        n_classes = len(class_terms)
        self.letter_class = letter_class
        self.class_edges = tuple(tuple((t * n_classes - c, m) for t, c, m in terms) for terms in class_terms)
        self.longest = max(t for terms in class_terms for t, _, _ in terms)
        durations = sorted({t for out in graph.out_edges for _, _, t in out})
        self.walk_back = np.array([t * n_classes - c for t in durations for c in range(n_classes)])
        self.out_edges = graph.out_edges
        self.walk_keys = tuple(
            tuple(durations.index(t) * n_classes + letter_class[a] for a, _, t in out) for out in graph.out_edges
        )
        # per flat duration-table index of a round (see codec._round_keys)
        _, width, depth = graph.duration_table.shape
        self.passed = np.zeros((width * width * depth, len(self.walk_back)))
        for b, (keys, out) in enumerate(zip(self.walk_keys, graph.out_edges)):
            for j, (a, i, _) in enumerate(out):
                for key in keys[:j]:
                    self.passed[(b * width + a) * depth + i, key] += 1
        self.limb_pad = self.longest * n_classes
        self.mantissas = np.ones(n_classes, dtype=np.int64)
        self.exponents = np.zeros(n_classes, dtype=np.int64)
        self._walk = self._limbs = None

    def upto(self, total: int) -> None:
        """Grow the table so that it holds rows 0..total."""
        n, longest = len(self.class_edges), self.longest
        first = len(self.mantissas) // n
        if total < first:  # grown already
            return
        # the rows the new ones read, after zero rows standing for times below 0
        pad = max(longest - first, 0) * n
        mants = [0] * pad + self.mantissas[(first - longest) * n + pad :].tolist()
        exps = [0] * pad + self.exponents[(first - longest) * n + pad :].tolist()
        kept = len(mants)
        for at in range(kept, kept + (total + 1 - first) * n, n):
            for terms in self.class_edges:
                # the exact sum, held as acc << low
                acc = low = 0
                for back, mult in terms:
                    m = mants[at - back]
                    if m:
                        e = exps[at - back]
                        if not acc:
                            acc, low = m * mult, e
                        elif e >= low:
                            acc += m * mult << e - low
                        else:
                            acc, low = (acc << low - e) + m * mult, e
                drop = acc.bit_length() - _COUNT_BITS
                if drop > 0:
                    acc >>= drop
                    low += drop
                mants.append(acc)
                exps.append(low)
        self.mantissas = np.concatenate([self.mantissas, mants[kept:]]).astype(np.int64)
        self.exponents = np.concatenate([self.exponents, exps[kept:]]).astype(np.int64)

    def walk_rows(self, total: int) -> tuple[list[int], tuple[tuple[list, list], ...]]:
        """``(limb, walks)`` for unranking from any time up to ``total``, built on first use.

        ``walks[b]`` is ``(rows, steps)`` for letter position b.  ``rows[left]``
        holds, with ``left`` time units left, the running sums of the counts
        of ``out_edges[b]`` in walk order: it starts at 0 and drops the last
        sum, which the rank left is always below, and an edge that does not
        fit adds 0.  Every sum is shifted right by 32 * limb[left], the
        32-bit limb at or below the lowest exponent of every count read from
        ``left`` down, so shifts drop only zero bits.  ``steps[j]`` is edge j
        as ``((successor, index), duration, rows, steps)``, the last two the
        successor's.  Letters whose out-edges have the same walk keys share
        one row list (a uniform graph has one).  The sums are built from the
        count arrays ``_WALK_CHUNK`` times at a time, in place of per-key
        rows: at T = 10**5 (q = 4, menu {1, 2}) encode plus decode peaks at
        40.7 MB under tracemalloc, against 33.0 MB with per-key rows.
        """
        if self._walk is None or len(self._walk[0]) <= total:
            self.upto(total)
            n = len(self.class_edges)
            times = len(self.mantissas) // n
            at = np.arange(times)[:, None] * n - self.walk_back
            fits = at >= 0
            at[~fits] = 0
            mants = np.where(fits, self.mantissas[at], 0)
            # a zero count reads as the largest exponent: no limb of it is needed
            exps = np.where(mants > 0, self.exponents[at], self.exponents.max())
            limb = np.minimum.accumulate((exps.min(axis=1) >> 5)[::-1])[::-1]
            shifts = np.where(mants > 0, exps - (limb[:, None] << 5), 0)
            walks = {keys: [] for keys in self.walk_keys}
            for first in range(0, times, _WALK_CHUNK):
                chunk = slice(first, first + _WALK_CHUNK)
                columns = zip(mants[chunk].T.tolist(), shifts[chunk].T.tolist())
                counts = [list(map(int.__lshift__, m, e)) for m, e in columns]
                for keys, rows in walks.items():  # no last sum: the register is always below it
                    sums = accumulate((counts[key] for key in keys[:-1]), lambda x, y: list(map(add, x, y)))
                    rows.extend(zip(repeat(0, len(counts[0])), *sums))
            rows = [walks[keys] for keys in self.walk_keys]
            steps = [[] for _ in rows]
            for b, out in enumerate(self.out_edges):
                steps[b] += [((a, i), t, rows[a], steps[a]) for a, i, t in out]
            self._walk = limb.tolist(), tuple(zip(rows, steps))
        return self._walk

    def limb_parts(self) -> tuple[np.ndarray, ...]:
        """``(limb, limb + 1, low, high)`` per entry, after ``limb_pad`` zero counts.

        Entry k + ``limb_pad`` splits count k, m << e, at its 32-bit limb
        ``e >> 5`` into m << (e & 31) = ``low + high * 2**32``, halves below
        2**32 held as float64, so 2**21 of them add exactly.  The zero counts
        stand for the times below 0.
        """
        if self._limbs is None or len(self._limbs[0]) != len(self.mantissas) + self.limb_pad:
            pad = np.zeros(self.limb_pad, dtype=np.int64)
            shifted = np.concatenate([pad, self.mantissas << (self.exponents & 31)])
            limb = np.concatenate([pad, self.exponents >> 5])
            low, high = (shifted & 0xFFFFFFFF).astype(float), (shifted >> 32).astype(float)
            self._limbs = limb, limb + 1, low, high
        return self._limbs


@lru_cache(maxsize=16)
def _count_table(graph: SynthesisGraph) -> _CountTable:
    return _CountTable(graph)


def _start_count(graph: SynthesisGraph, start: str, total_duration: int) -> tuple[_CountTable, int, int, int]:
    """The codec's budget: (count table, start position, total, rounded count Ñ[total])."""
    table = _count_table(graph)  # refuses real durations
    total, b = _budget(graph, start, total_duration)
    table.upto(total)
    k = total * len(table.class_edges) + table.letter_class[b]
    return table, b, total, table.mantissas.item(k) << table.exponents.item(k)


def _budget(graph: SynthesisGraph, start: str, total_duration: int) -> tuple[int, int]:
    if total_duration < 0 or int(total_duration) != total_duration:
        raise ValueError("total duration must be a nonnegative integer")
    return int(total_duration), graph.alphabet.index(start)


def count_schedules(graph: SynthesisGraph, start: str, total_duration: int) -> int:
    """Number of schedules starting after a run of `start` with durations summing to exactly `total_duration`.

    Exact arbitrary-precision dynamic programming over (letter class,
    remaining time), keeping the last ``longest duration`` rows; requires
    integer durations.  The codec ranks on the rounded counts of
    :class:`_CountTable`, which equal these below 2**32.
    """
    longest = _count_table(graph).longest  # refuses real durations
    total, b = _budget(graph, start, total_duration)
    letter_class, class_terms = _letter_classes(graph)
    rows = [[1] * len(class_terms)]  # the rows before the next time, the last one latest
    for _ in range(total):
        rows.append([sum(m * rows[-t][c] for t, c, m in terms if t <= len(rows)) for terms in class_terms])
        if len(rows) > longest:
            del rows[0]
    return rows[-1][letter_class[b]]


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
        for ai, i, t in graph.out_edges[b_idx]:
            if t <= remaining:
                yield from walk(ai, remaining - t, prefix + ((letters[ai], i),))

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

def graph_from_json(text: str) -> SynthesisGraph:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("graph profile must be a JSON object")
    letters = data.get("letters")
    if not isinstance(data.get("menus"), dict) or not (letters or "q" in data):
        raise ValueError("graph profile needs a 'menus' object and 'letters' or 'q'")
    q = data.get("q")
    if "q" in data and (isinstance(q, bool) or not isinstance(q, (int, float)) or not float(q).is_integer()):
        raise ValueError(f"graph profile field q holds {q!r}, not a whole number")
    if isinstance(data.get("M"), (str, bool)):
        raise ValueError(f"graph profile field M holds {data['M']!r}, not a number")
    try:
        alphabet = Alphabet(tuple(letters)) if letters else default_alphabet(int(q))
        if "q" in data and alphabet.q != int(q):
            raise ValueError("q does not match the number of letters")
        return build_graph(alphabet, data["menus"], data.get("M"))
    except (TypeError, OverflowError) as exc:  # null, a list for a number, infinity
        raise ValueError(f"graph profile has a malformed field: {exc}") from None
