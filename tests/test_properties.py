"""Property tests for the decision rule, the trial tally, the inverses, the fast kernels, the shared edge table, the class count table and the file parsers."""

import contextlib
import functools
import io
import json
import math
import numbers
import os
import random
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.special import betainc, cython_special, pdtr, pdtrc

import prdna.codec
import prdna.graph
from prdna.cli import _parse_schedule_file
from prdna.cli import main as cli_main
from prdna.codec import (
    InvalidSchedule,
    RedundancyPlan,
    _join_digits,
    _split_digits,
    attach_redundancy,
    make_schedule,
    rank_schedule,
    size_parity,
    strip_and_correct,
    unrank_schedule,
)
from prdna.ecc import EccError, ReedSolomonCode, digits_needed
from prdna.graph import (
    _COUNT_BITS,
    _REL_TOL,
    Alphabet,
    _CountTable,
    _brentq,
    _count_table,
    _letter_classes,
    _quotient,
    _quotient_radius,
    _spectral_radius,
    _start_count,
    build_graph,
    capacity,
    count_schedules,
    default_alphabet,
    iter_schedules,
    max_entropic_chain,
    transfer_matrix,
    uniform_graph,
)
from prdna.quantizer import (
    Infeasible,
    QuantizerDesign,
    _binomial_crossing,
    _lower_tail,
    _upper_tail,
    decide,
    design_binomial,
    design_from_json,
    design_poisson,
    exact_error_probabilities,
)
from prdna.simulator import (
    PipelineSetup,
    _stream,
    random_schedule,
    run_schedule_trial,
    synthesize,
)

DESIGNS = (
    design_binomial(0.5, 0.1, copies=1, max_duration=10),  # one duration, frequent deletions
    design_binomial(0.3, 0.05, copies=3, max_duration=10),
    design_binomial(0.9, 0.02, copies=5, max_duration=10),
    design_poisson(0.05, copies=2, ell_max=3),
)
PAYLOAD_ROUNDS = 60
SETUPS = [PipelineSetup.for_design(design, PAYLOAD_ROUNDS) for design in DESIGNS]


def _reference_index(design, total: int) -> int:
    # the index whose right-closed interval (tau_{i-1}, tau_i] holds the
    # sum; index 1 also takes a zero sum, the last index takes any overshoot
    taus = design.sum_thresholds
    for i in range(1, design.ell):
        if total <= taus[i]:
            return i
    return design.ell


def _reference_wrong(design, true_index: int, total: int) -> bool:
    # the misdecision event of exact_error_probabilities
    taus = design.sum_thresholds
    return total <= taus[true_index - 1] or (true_index < design.ell and total > taus[true_index])


def _copy_observations(design):
    # a copy sum, often on or next to a threshold, split across the copies
    taus = design.sum_thresholds
    near = sorted({max(0, tau + d) for tau in taus for d in (-1, 0, 1)})
    totals = st.one_of(st.sampled_from(near), st.integers(0, taus[-1] + 5))

    def split(total):
        cuts = st.lists(st.integers(0, total), min_size=design.copies - 1, max_size=design.copies - 1)
        return cuts.map(lambda c: [b - a for a, b in zip([0] + sorted(c), sorted(c) + [total])])

    return totals.flatmap(split)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scalar_and_vector_decisions_agree(data):
    design = data.draw(st.sampled_from(DESIGNS))
    observations = data.draw(st.lists(_copy_observations(design), min_size=1, max_size=30))
    sums = [sum(obs) for obs in observations]
    index, low_confidence = decide(design, sums)
    for k, obs in enumerate(observations):
        assert decide(design, sum(obs)) == (index[k], low_confidence[k])
        assert index[k] == _reference_index(design, sums[k])
        assert low_confidence[k] == (sums[k] == 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(SETUPS) - 1), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_trial_tally_matches_threshold_reference(which, seed, trial):
    setup = SETUPS[which]
    design = setup.design
    report = run_schedule_trial(setup, seed, trial)
    payload = random_schedule(setup.graph, "A", PAYLOAD_ROUNDS, _stream(seed, trial, payload=True))
    full = attach_redundancy(setup.graph, payload, setup.plan, setup.ecc)
    sums = synthesize(full, design, seed, trial).copies[:, :PAYLOAD_ROUNDS].sum(axis=0)
    errors, rounds = [0] * design.ell, [0] * design.ell
    for true_index, total in zip(payload.indices.tolist(), sums):
        rounds[true_index - 1] += 1
        errors[true_index - 1] += _reference_wrong(design, true_index, int(total))
    assert report.per_index_rounds == rounds
    assert report.per_index_errors == errors


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.integers(2, 9), st.integers(1, 40), st.data())
def test_base_conversion_roundtrip(q, base, length, data):
    # a parity integer of `length` base-`base` digits, as increments and back
    value = data.draw(st.integers(0, base**length - 1))
    barred = _split_digits(value, q - 1, digits_needed(q - 1, base**length))
    assert all(1 <= v <= q - 1 for v in barred)
    assert _join_digits(barred, q - 1) == value


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from([2, 3, 4]),
    st.integers(1, 80),
    st.sampled_from([0.02, 0.1, 0.3]),
    st.integers(0, 100),
    st.booleans(),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_attach_strip_restores_payload_up_to_radius(q, ell, s, delta, errors, real, rng, data):
    plan, ecc = size_parity(s, delta, ell, q)
    graph = _draw_graph(data, q, ell, real=real)
    payload = random_schedule(graph, "A", s, _stream(rng.getrandbits(32), 0))
    full = attach_redundancy(graph, payload, plan, ecc)
    assert full.num_rounds == s + plan.redundancy_rounds
    # the appended block spells the code's parity
    barred = np.diff(full.positions[s - 1 :]) % q
    assert _join_digits(barred, q - 1) == ecc.encode(payload.indices.tolist())
    corrupted = full.indices.copy()
    for pos in rng.sample(range(s), min(errors, s, ecc.radius)):
        corrupted[pos] = corrupted[pos] % ell + 1
    fixed = strip_and_correct(graph, replace(full, indices=corrupted), plan, ecc)
    assert fixed.indices.tolist() == payload.indices.tolist()
    # the corrected payload is the schedule its own rounds validate to: total and its type too
    _same_schedule(fixed, make_schedule(graph, "A", fixed.rounds))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 60),
    st.sampled_from([0.0, 1e-9, 0.02, 0.1, 0.3]),
    st.integers(1, 4),
    st.integers(3, 5),
    st.integers(0, 2**32 - 1),
)
def test_only_the_pair_size_parity_returns_is_accepted(s, delta, ell, q, seed):
    plan, ecc = size_parity(s, delta, ell, q)
    assert plan.parity_symbols == (0 if ecc is None else ecc.parity_len)
    graph = uniform_graph(q, range(1, ell + 1))
    payload = random_schedule(graph, "A", s, _stream(seed, 0))
    full = attach_redundancy(graph, payload, plan, ecc)
    assert full.num_rounds == s + plan.redundancy_rounds
    _same_schedule(strip_and_correct(graph, full, plan, ecc), payload)
    # a plan with parity and no code, or a code under a plan of another width
    mismatched = [(replace(plan, parity_symbols=plan.parity_symbols + 1), ecc)]
    if ecc is not None:
        mismatched += [(plan, None), (replace(plan, parity_symbols=0), ecc)]
    for other_plan, other_ecc in mismatched:
        with pytest.raises(ValueError, match="plan holds"):
            attach_redundancy(graph, payload, other_plan, other_ecc)
        with pytest.raises(ValueError, match="plan holds"):
            strip_and_correct(graph, full, other_plan, other_ecc)


def _draw_graph(data, q: int, ell: int, per_pair: bool = True, real: bool = False):
    # every ordered pair draws its own menu (or all share one); durations
    # up to 4, optionally real
    values = st.sampled_from([1, 1.5, 2, 2.25, 3, 4]) if real else st.integers(1, 4)
    menu = st.lists(values, min_size=ell, max_size=ell, unique=True).map(sorted)
    alphabet = default_alphabet(q)
    if not per_pair:
        return build_graph(alphabet, {"default": data.draw(menu)})
    letters = alphabet.letters
    return build_graph(alphabet, {f"{b}>{a}": data.draw(menu) for b in letters for a in letters if a != b})


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4), st.integers(1, 3), st.booleans(), st.integers(1, 12), st.data())
def test_rank_inverts_unrank(q, ell, per_pair, total, data):
    graph = _draw_graph(data, q, ell, per_pair)
    start = data.draw(st.sampled_from(graph.alphabet.letters))
    count = count_schedules(graph, start, total)
    assume(count > 0)
    value = data.draw(st.integers(0, count - 1))
    schedule = unrank_schedule(graph, start, total, value)
    assert schedule.total_time == total
    assert rank_schedule(graph, schedule, total) == value


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([2, 3, 4, 8]),
    st.integers(0, 6),
    st.randoms(use_true_random=False),
)
def test_rs_corrects_every_error_count_up_to_radius(s, ell, radius, rng):
    code = ReedSolomonCode(s, ell, radius)
    payload = [rng.randint(1, ell) for _ in range(s)]
    parity = code.encode(payload)
    positions = rng.sample(range(s), min(radius, s))
    for n_errors in range(len(positions) + 1):
        corrupted = payload[:]
        for pos in positions[:n_errors]:
            corrupted[pos] = (corrupted[pos] - 1 + rng.randint(1, ell - 1)) % ell + 1
        assert code.decode(corrupted, parity) == payload


# Reference Reed-Solomon arithmetic: polynomial long division for parity,
# Horner syndromes, Berlekamp-Massey one discrepancy at a time, a root
# search by powers, and error values by Gaussian elimination.  The parity
# integer is built and split one base-p digit, one field element, at a
# time.  The code's matrix kernels and Forney values must agree.

def _reference_parity(code, payload):
    p, n_par = code.prime, code.n_parity_field
    work = [v - 1 for v in payload] + [0] * n_par
    for i in range(len(payload)):
        coef = work[i] % p
        for j in range(1, n_par + 1):
            work[i + j] = (work[i + j] - coef * code._gen_poly[j]) % p
    value = 0
    for element in (-c % p for c in work[len(payload):]):
        value = value * p + element
    return value


def _reference_parity_elements(code, parity):
    if not 0 <= parity < code.symbol_count**code.parity_len:
        raise ValueError(f"parity must lie in [0, {code.symbol_count}**{code.parity_len})")
    p, n_par = code.prime, code.n_parity_field
    if parity >= p**n_par:
        raise EccError(f"parity lies outside [0, {p}**{n_par})")
    elements = []
    for _ in range(n_par):
        elements.append(parity % p)
        parity //= p
    return elements[::-1]


def _reference_syndromes(code, word):
    p, n = code.prime, len(word)
    return [
        sum(c * pow(code.generator, i * (n - 1 - j), p) for j, c in enumerate(word)) % p
        for i in range(1, code.n_parity_field + 1)
    ]


def _reference_berlekamp_massey(p, syndromes):
    # one discrepancy per syndrome, each summed term by term
    locator, previous, length, shift, prev_delta = [1], [1], 0, 1, 1
    for i, s in enumerate(syndromes):
        delta = s
        for j in range(1, min(length, len(locator) - 1) + 1):
            delta = (delta + locator[j] * syndromes[i - j]) % p
        if delta == 0:
            shift += 1
            continue
        scale = delta * pow(prev_delta, p - 2, p) % p
        update = locator + [0] * max(0, len(previous) + shift - len(locator))
        for j, c in enumerate(previous):
            update[j + shift] = (update[j + shift] - scale * c) % p
        if 2 * length <= i:
            previous, prev_delta, length, shift = locator, delta, i + 1 - length, 1
        else:
            shift += 1
        locator = update
    while len(locator) > 1 and locator[-1] == 0:
        locator.pop()
    return locator


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 661]), st.data())
def test_berlekamp_massey_matches_reference(p, data):
    # any sequences, small fields and many zeros included, so zero
    # discrepancies fall anywhere in the walk
    code = ReedSolomonCode(1, p, 0)
    assert code.prime == p
    values = st.one_of(st.integers(0, p - 1), st.just(0))
    syndromes = data.draw(st.lists(values, max_size=40))
    assert code._berlekamp_massey(syndromes) == _reference_berlekamp_massey(p, syndromes)


class _CountedReads(list):
    # a syndrome list that counts the entries the walk reads one by one;
    # numpy reads a copy, which counts nothing
    reads = 0

    def __iter__(self):
        for value in list.__iter__(self):
            self.reads += 1
            yield value

    def __array__(self, dtype=None, copy=None):
        return np.array(self[:], dtype=dtype)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 60),
    st.sampled_from([2, 4, 8]),
    st.integers(1, 40),
    st.data(),
    st.randoms(use_true_random=False),
)
def test_berlekamp_massey_stops_once_the_locator_is_certified(s, ell, radius, data, rng):
    # syndromes of a codeword with e <= r corrupted coefficients: the locator
    # is final after 2e syndromes, so the walk reads 2e + 1 of the 2r and
    # stops, and its locator is the reference's
    code = ReedSolomonCode(s, ell, radius)
    p, n = code.prime, s + code.n_parity_field
    payload = [rng.randint(1, ell) for _ in range(s)]
    word = [v - 1 for v in payload] + _reference_parity_elements(code, code.encode(payload))
    n_errors = data.draw(st.integers(0, min(radius, n)), label="n_errors")
    for pos in rng.sample(range(n), n_errors):
        word[pos] = (word[pos] + rng.randrange(1, p)) % p
    syndromes = _reference_syndromes(code, word)
    counted = _CountedReads(syndromes)
    locator = code._berlekamp_massey(counted)
    assert locator == _reference_berlekamp_massey(p, syndromes)
    assert len(locator) == n_errors + 1
    assert counted.reads == min(2 * n_errors + 1, 2 * radius)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 661]), st.integers(1, 8), st.integers(1, 8), st.data())
def test_berlekamp_massey_walks_on_past_a_zero_discrepancy(p, length, tail, data):
    # a sequence that follows a length-L recurrence past index 2L, so a zero
    # discrepancy arrives with 2L <= i, and then breaks it: the check sees
    # the nonzero discrepancy ahead and the walk goes on
    code = ReedSolomonCode(1, p, 0)
    field = st.integers(0, p - 1)
    taps = data.draw(st.lists(field, min_size=length, max_size=length), label="taps")
    sequence = data.draw(st.lists(field, min_size=length, max_size=length), label="seed")
    broken = data.draw(st.integers(1, p - 1), label="break")
    while len(sequence) <= 2 * length + tail:
        recent = sequence[-1 : -length - 1 : -1]
        follows = -sum(a * b for a, b in zip(taps, recent))
        sequence.append((follows + broken * (len(sequence) == 2 * length + tail)) % p)
    locator = _reference_berlekamp_massey(p, sequence)
    assume(locator != _reference_berlekamp_massey(p, sequence[:-1]))  # the break counts
    counted = _CountedReads(sequence)
    assert code._berlekamp_massey(counted) == locator
    assert counted.reads == len(sequence)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_berlekamp_massey_reduces_its_rows_in_time_at_a_large_prime(data):
    # p = 1000003: one product of field elements is near 2**40, so the rows
    # left unreduced over a few lengthenings in a row would pass int64.  100
    # to 400 entries, p - 1 and 0 drawn often, so the locator lengthens
    # again and again and the rows are reduced many times over the walk
    p = 1000003
    code = ReedSolomonCode(1, p, 0)
    values = st.one_of(st.integers(0, p - 1), st.just(p - 1), st.just(0))
    sequence = data.draw(st.lists(values, min_size=100, max_size=400))
    assert code._berlekamp_massey(sequence) == _reference_berlekamp_massey(p, sequence)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([20627, 1000003]),
    st.integers(1, 30),
    st.integers(1, 150),
    st.data(),
    st.randoms(use_true_random=False),
)
def test_berlekamp_massey_locates_up_to_the_radius_at_large_primes(p, s, radius, data, rng):
    # syndromes of a codeword with e <= r corrupted coefficients, r up to
    # 150, in the field of s = 20000 payload rounds and at a prime near
    # 10**6: the locator has degree e after 2e + 1 reads, as the reference's
    code = ReedSolomonCode(s, p, radius)
    assert code.prime == p
    n = s + code.n_parity_field
    payload = [rng.randint(1, p) for _ in range(s)]
    word = [v - 1 for v in payload] + _reference_parity_elements(code, code.encode(payload))
    n_errors = data.draw(st.integers(0, radius), label="n_errors")
    for pos in rng.sample(range(n), n_errors):
        word[pos] = (word[pos] + rng.randrange(1, p)) % p
    syndromes = code._syndromes(np.array(word)).tolist()
    counted = _CountedReads(syndromes)
    locator = code._berlekamp_massey(counted)
    assert locator == _reference_berlekamp_massey(p, syndromes)
    assert len(locator) == n_errors + 1
    assert counted.reads == min(2 * n_errors + 1, 2 * radius)


def _reference_eval_poly(coeffs, points, p):
    # Horner evaluation mod p of a polynomial given lowest degree first
    values = np.zeros(len(points), dtype=np.int64)
    for c in reversed(coeffs):
        values = (values * points + c) % p
    return values


@st.composite
def _chien_codes(draw):
    # a code over each prime with n = k + 2r coefficients: one, a square
    # m * m, or any other count; an alphabet of 4177 symbols is refused, so
    # there n + 1 itself must round up to the prime
    p = draw(st.sampled_from([2, 3, 5, 661, 4177]), label="prime")
    if p == 4177:
        n, ell = draw(st.integers(4159, 4176), label="n"), 2
    else:
        squares = [m * m for m in range(1, math.isqrt(p - 1) + 1)]
        n = draw(st.one_of(st.just(1), st.sampled_from(squares), st.integers(1, p - 1)), label="n")
        ell = p
    radius = draw(st.integers(0, min((n - 1) // 2, 60)), label="radius")
    code = ReedSolomonCode(n - 2 * radius, ell, radius)
    assert code.prime == p
    return code


@settings(max_examples=150, deadline=None)
@given(_chien_codes(), st.data())
def test_chien_search_in_baby_and_giant_steps_matches_horner(code, data):
    # locators with roots planted at chosen degrees, times a factor that may
    # add roots or none; every degree 0..n-1 checked against Horner
    p, radius = code.prime, code.radius
    n = code.payload_len + code.n_parity_field
    inverse = pow(code.generator, p - 2, p)
    planted = data.draw(st.sets(st.integers(0, n - 1), max_size=radius), label="planted")
    locator = [1]
    for degree in sorted(planted):  # times (1 - alpha^degree x)
        root = pow(code.generator, degree, p)
        locator = [(a - root * b) % p for a, b in zip(locator + [0], [0] + locator)]
    extra = data.draw(
        st.lists(st.integers(0, p - 1), max_size=radius - len(planted)), label="extra factor"
    )
    locator = np.convolve(locator, [1] + extra).astype(np.int64) % p
    points = np.array([pow(inverse, d, p) for d in range(n)], dtype=np.int64)
    expected = np.flatnonzero(_reference_eval_poly(locator.tolist(), points, p) == 0)
    found = code._error_degrees(locator.tolist())
    assert found.tolist() == expected.tolist()
    assert set(planted) <= set(found.tolist())
    # one shared pair of power tables, k = 0..2r: m baby rows, ceil(n/m) giant rows
    m = math.isqrt(n - 1) + 1
    baby, giant = code._power_steps
    assert baby.shape == (m, 2 * radius + 1) and giant.shape == (-(-n // m), 2 * radius + 1)


def _reference_decode(code, payload, parity):
    p = code.prime
    word = [v - 1 for v in payload] + _reference_parity_elements(code, parity)
    syndromes = _reference_syndromes(code, word)
    if not any(syndromes):
        return list(payload)
    locator = _reference_berlekamp_massey(p, syndromes)
    e = len(locator) - 1
    if e > code.radius:
        raise EccError(f"{e} errors exceed the radius {code.radius}")
    inv_alpha = pow(code.generator, p - 2, p)
    degrees = [
        d for d in range(len(word))
        if sum(c * pow(inv_alpha, d * j, p) for j, c in enumerate(locator)) % p == 0
    ]
    if len(degrees) != e:
        raise EccError("error locator roots do not match its degree")
    # sum_m value_m * (alpha^degree_m)^i = S_i for i = 1..e
    locs = [pow(code.generator, d, p) for d in degrees]
    rows = [[pow(x, i, p) for x in locs] + [syndromes[i - 1]] for i in range(1, e + 1)]
    for col in range(e):
        pivot = next(r for r in range(col, e) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], p - 2, p)
        rows[col] = [c * scale % p for c in rows[col]]
        for r in range(e):
            if r != col:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
    for degree, row in zip(degrees, rows):
        word[len(word) - 1 - degree] = (word[len(word) - 1 - degree] - row[e]) % p
    if any(_reference_syndromes(code, word)):
        raise EccError("correction left nonzero syndromes")
    fixed = word[: code.payload_len]
    if any(v >= code.symbol_count for v in fixed):
        raise EccError("corrected payload leaves the symbol alphabet")
    return [v + 1 for v in fixed]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 60),
    st.sampled_from([2, 3, 4, 8]),
    st.integers(1, 6),
    st.integers(0, 8),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_one_matrix_syndromes_match_horner(s, ell, radius, n_errors, n_parity_errors, rng):
    # syndromes of a codeword with corrupted payload symbols and parity
    # elements (any field element), from the power tables, against Horner
    code = ReedSolomonCode(s, ell, radius)
    p, n = code.prime, s + code.n_parity_field
    payload = [rng.randint(1, ell) for _ in range(s)]
    word = [v - 1 for v in payload] + _reference_parity_elements(code, code.encode(payload))
    for pos in rng.sample(range(s), min(n_errors, s)):
        word[pos] = (word[pos] + rng.randrange(1, ell)) % ell
    for pos in rng.sample(range(s, n), min(n_parity_errors, n - s)):
        word[pos] = rng.randrange(p)
    assert code._syndromes(np.array(word)).tolist() == _reference_syndromes(code, word)


def test_one_matrix_syndromes_are_exact_at_every_coefficient_p_minus_one():
    # a prime near 10**6: a product of two field elements is near 2**40, so
    # the baby-step product is reduced before the giant-step contraction or
    # its sums would pass 2**53.  Every payload symbol and parity element at
    # p - 1, against Horner; then the parity and a decode with errors in the
    # payload and the parity against the reference arithmetic
    code = ReedSolomonCode(40, 1000003, 6)
    p, s, n = code.prime, 40, 52
    assert p == 1000003
    word = [p - 1] * n
    assert code._syndromes(np.array(word)).tolist() == _reference_syndromes(code, word)
    payload = [p] * s
    parity = code.encode(payload)
    assert parity == _reference_parity(code, payload)
    corrupted = payload[:]
    for pos in (0, 17, 39):
        corrupted[pos] = 1 + pos
    for args in ((corrupted, parity), (corrupted, parity ^ 1)):  # the last element off by one
        assert _outcome(code.decode, *args) == _outcome(_reference_decode, code, *args)
    assert code.decode(corrupted, parity) == payload


@pytest.mark.parametrize("prime, fits", [(54361, True), (54401, False)])
def test_unreduced_float_sums_stop_at_2_to_the_53(prime, fits):
    # n = 52 on 7 x 8 power tables: 56 (p - 1)**3 passes 2**53 between these
    # primes.  Below it the syndromes and the Chien values sum unreduced
    # products, above it every product is reduced first; either way a word
    # at p - 1 everywhere and a decode with errors in the payload and the
    # parity match Horner and the reference arithmetic
    code = ReedSolomonCode(40, prime, 6)
    assert code.prime == prime and code._sums_fit_float is fits
    word = [prime - 1] * 52
    assert code._syndromes(np.array(word)).tolist() == _reference_syndromes(code, word)
    payload = [prime - k for k in range(40)]
    parity = code.encode(payload)
    assert parity == _reference_parity(code, payload)
    corrupted = payload[:]
    for pos in (0, 17, 39):
        corrupted[pos] = 1 + pos
    for args in ((corrupted, parity), (corrupted, parity ^ 1)):
        assert _outcome(code.decode, *args) == _outcome(_reference_decode, code, *args)


def _outcome(decode, *args):
    try:
        return decode(*args)
    except (EccError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([2, 3, 4, 8]),
    st.integers(0, 6),
    st.data(),
    st.randoms(use_true_random=False),
)
def test_rs_kernels_match_reference_arithmetic(s, ell, radius, data, rng):
    code = ReedSolomonCode(s, ell, radius)
    payload = [rng.randint(1, ell) for _ in range(s)]
    parity = code.encode(payload)
    assert parity == _reference_parity(code, payload)
    n_errors = data.draw(st.integers(0, min(s, 2 * radius + 2)), label="n_errors")
    corrupted = payload[:]
    for pos in rng.sample(range(s), n_errors):
        corrupted[pos] = (corrupted[pos] - 1 + rng.randint(1, ell - 1)) % ell + 1
    corrupt = data.draw(
        st.sampled_from(["none", "digits", "beyond field", "below", "above"]), label="corrupt parity"
    )
    if corrupt == "digits":  # rewrite up to three base-ell digits, maybe to p**(2r) or more
        for pos in rng.sample(range(code.parity_len), min(3, code.parity_len)):
            parity += (rng.randrange(ell) - parity // ell**pos % ell) * ell**pos
    elif corrupt == "beyond field" and radius:  # below ell**parity_len, spelling no field elements
        parity = rng.randrange(code.prime ** (2 * radius), ell**code.parity_len)
    elif corrupt == "below":
        parity = -1 - rng.randrange(ell)
    elif corrupt == "above":
        parity = ell**code.parity_len + rng.randrange(ell)
    assert _outcome(code.decode, corrupted, parity) == _outcome(
        _reference_decode, code, corrupted, parity
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_counts_in_any_duration_order_match_enumeration(q, ell, data):
    graph = _draw_graph(data, q, ell)
    alphabet = graph.alphabet
    totals = data.draw(st.lists(st.integers(0, 8), min_size=2, max_size=5, unique=True))
    longest = max(totals)
    totals = [longest] + [t for t in totals if t != longest]  # grow, then read shorter rows
    _count_table.cache_clear()
    for total in totals:
        for start in alphabet.letters:
            listed = sum(1 for _ in iter_schedules(graph, start, total))
            assert count_schedules(graph, start, total) == listed


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 7), st.data())
def test_unrank_order_is_enumeration_order(q, ell, total, data):
    graph = _draw_graph(data, q, ell)
    start = data.draw(st.sampled_from(graph.alphabet.letters))
    listed = list(iter_schedules(graph, start, total))
    position = graph.alphabet.letters.index
    assert listed == sorted(listed, key=lambda rounds: [(position(a), i) for a, i in rounds])
    assert count_schedules(graph, start, total) == len(listed)
    unranked = [unrank_schedule(graph, start, total, v).rounds for v in range(len(listed))]
    assert unranked == listed


def _same_schedule(built, reference):
    # == alone would let an int total equal a float one
    assert built.start == reference.start
    assert built.rounds == reference.rounds
    assert built.total_time == reference.total_time
    assert type(built.total_time) is type(reference.total_time)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 5),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_built_schedules_equal_validated_ones(q, ell, real, n_rounds, seed, data):
    # random_schedule and attach_redundancy skip make_schedule; it stays the reference
    graph = _draw_graph(data, q, ell, real=real)
    start = data.draw(st.sampled_from(graph.alphabet.letters))
    payload = random_schedule(graph, start, n_rounds, _stream(seed))
    _same_schedule(payload, make_schedule(graph, start, payload.rounds))
    if n_rounds:
        barred = data.draw(st.lists(st.integers(1, q - 1), max_size=30))
        # a stand-in code whose parity spells the increments `barred`: on a
        # plan with ell = q-1, w parity symbols take exactly w increments
        w = len(barred)
        plan = RedundancyPlan(
            payload_rounds=n_rounds, delta=0.1, ell=q - 1, q=q,
            parity_symbols=w, parity_symbols_formula=w, radius_target=1,
        )
        code = SimpleNamespace(parity_len=w, encode=lambda indices: _join_digits(barred, q - 1))
        full = attach_redundancy(graph, payload, plan, code)
        assert (np.diff(full.positions[n_rounds - 1 :]) % q).tolist() == barred
        _same_schedule(full, make_schedule(graph, start, full.rounds))


# Reference validation and ranking, one round at a time: the scalar
# definitions the array passes of make_schedule and rank_schedule must meet.

def _reference_make(graph, start, rounds):
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
        if not isinstance(i, numbers.Integral):
            raise InvalidSchedule(f"duration index {i!r} is not an integer")
        total += menu[i - 1]
        prev = ai
    return tuple((a, int(i)) for a, i in rounds), int(total) if total.is_integer() else total


def _reference_rank(graph, schedule, total_duration):
    letters, q = graph.alphabet.letters, graph.q
    prev = graph.alphabet.index(schedule.start)
    total = 0.0
    for p, i in zip(schedule.positions.tolist(), schedule.indices.tolist()):
        if not 0 <= p < q:
            raise InvalidSchedule(f"letter position {p} outside 0..{q - 1}")
        if p == prev:
            raise InvalidSchedule(f"letter {letters[p]!r} repeats consecutively")
        menu = graph.menus[prev][p]
        if not 1 <= i <= len(menu):
            raise InvalidSchedule(f"duration index {i} outside 1..{len(menu)}")
        total += menu[i - 1]
        prev = p
    total = int(total) if total.is_integer() else total
    if total != total_duration:
        raise InvalidSchedule(f"schedule lasts {total}, expected {total_duration}")
    value, remaining = 0, total_duration
    b = graph.alphabet.index(schedule.start)
    for p, i in zip(schedule.positions.tolist(), schedule.indices.tolist()):
        for a, j, t in graph.out_edges[b]:
            if (a, j) == (p, i):
                b, remaining = a, remaining - t
                break
            if t <= remaining:
                value += count_schedules(graph, letters[a], remaining - t)
    return value


def _random_walk(data, graph, start):
    # a valid schedule of up to 12 rounds
    letters = graph.alphabet.letters
    rounds, prev = [], start
    for _ in range(data.draw(st.integers(0, 12))):
        a = data.draw(st.sampled_from([x for x in letters if x != prev]))
        rounds.append((a, data.draw(st.integers(1, graph.ell))))
        prev = a
    return rounds


def _made(graph, start, rounds):
    try:
        built = make_schedule(graph, start, rounds)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return built.rounds, built.total_time, type(built.total_time)


def _referenced(graph, start, rounds):
    try:
        rounds, total = _reference_make(graph, start, rounds)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return rounds, total, type(total)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 5), st.integers(1, 3), st.booleans(), st.data())
def test_make_schedule_matches_round_by_round_reference(q, ell, real, data):
    # letters of the alphabet or not, repeats allowed; indices in and out
    # of the menu, whole or not
    graph = _draw_graph(data, q, ell, real=real)
    start = data.draw(st.sampled_from(graph.alphabet.letters))
    letters = st.sampled_from(graph.alphabet.letters + ("Z", "a"))
    indices = st.one_of(
        st.integers(1, ell),
        st.integers(-1, ell + 2),
        st.sampled_from([0.5, 1.5, 2.0, float(ell), ell + 0.5, 10**20]),
    )
    if data.draw(st.booleans()):
        rounds = _random_walk(data, graph, start)
    else:
        rounds = data.draw(st.lists(st.tuples(letters, indices), max_size=12))
    assert _made(graph, start, rounds) == _referenced(graph, start, rounds)


# Alphabets of single ASCII letters (read as joined bytes) and of longer or
# non-ASCII letters (read through the position dict)
BULK_ALPHABETS = (
    ("A", "C", "G", "T"),
    ("A1", "C2", "G3", "T4"),
    ("\u00c5", "\u03b2", "C"),
    ("x", "yy", "z"),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BULK_ALPHABETS), st.integers(1, 3), st.booleans(), st.data())
def test_make_schedule_bulk_reads_match_round_by_round_reference(letters, ell, as_lists, data):
    # items that are letters, near-letters (joined, split, empty, holding
    # '>') or no string at all; indices as bools, numpy ints and ints past a
    # byte; rounds as tuples or lists
    menu = data.draw(st.lists(st.integers(1, 4), min_size=ell, max_size=ell, unique=True).map(sorted))
    graph = build_graph(Alphabet(letters), {"default": menu})
    start = data.draw(st.sampled_from(letters))
    near = ("", ">", "A>", "AC", letters[0] + letters[1], letters[0][:1], "Z", "\u00e9", "\x00", 1, None)
    items = st.one_of(st.sampled_from(letters), st.sampled_from(near))
    indices = st.one_of(
        st.integers(1, ell),
        st.sampled_from(
            [0, True, False, np.True_, np.bool_(False), np.int64(1), np.int64(ell), np.uint8(1), 255, 256, 2**70, -1]
        ),
        st.just(np.int64(300)),
    )
    if data.draw(st.booleans()):
        rounds = _random_walk(data, graph, start)
    else:
        rounds = data.draw(st.lists(st.tuples(items, indices), max_size=12))
    if as_lists:
        rounds = [list(r) for r in rounds]
    assert _made(graph, start, rounds) == _referenced(graph, start, rounds)


@pytest.mark.parametrize(
    "items",
    [["AC", ""], ["", "AC"], ["A>", ""], ["A", ">", "C"], [">", "A"], ["A", "CG", "", "T"],
     ["A", 1, "C"], ["A", None], ["\u00c5", "C"], ["A", "C", "\x00"]],
)
def test_make_schedule_reads_near_letters_as_the_reference(items):
    # items whose '>'-join has the length of single letters, or a '>' where
    # a letter should be: read round by round, the first fault is the same
    graph = uniform_graph(4, [1, 2])
    rounds = [(a, 1) for a in items]
    assert _made(graph, "T", rounds) == _referenced(graph, "T", rounds)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 5), st.integers(1, 3), st.integers(0, 12), st.data())
def test_rank_schedule_matches_round_by_round_reference(q, ell, total, data):
    # an unranked schedule, then perhaps one fault: a letter position that
    # repeats or leaves the alphabet, an index off the menu, or a total
    # that is not the schedule's
    graph = _draw_graph(data, q, ell)
    start = data.draw(st.sampled_from(graph.alphabet.letters))
    count = count_schedules(graph, start, total)
    assume(count > 0)
    schedule = unrank_schedule(graph, start, total, data.draw(st.integers(0, count - 1)))
    positions, indices = schedule.positions.copy(), schedule.indices.copy()
    fault = data.draw(st.sampled_from(["none", "position", "index", "total"]))
    if fault != "none" and schedule.num_rounds:
        k = data.draw(st.integers(0, schedule.num_rounds - 1))
        if fault == "position":
            positions[k] = data.draw(st.sampled_from([-2, -1, q, q + 7] + list(range(q))))
        elif fault == "index":
            indices[k] = data.draw(st.sampled_from([-1, 0, ell + 1, ell + 9] + list(range(1, ell + 1))))
    if fault == "total":
        total += data.draw(st.sampled_from([-1, 1, 2]))
    tampered = replace(schedule, positions=positions, indices=indices)
    assert _outcome(rank_schedule, graph, tampered, total) == _outcome(
        _reference_rank, graph, tampered, total
    )


# Reference schedule counts: the per-letter dynamic program, one sum per
# letter and time, exact or with each sum rounded down to its top w bits.
# The count table, count_schedules and both codec directions must meet it.

def _floor_bits(x, bits):
    drop = x.bit_length() - bits
    return x >> drop << drop if drop > 0 else x


def _reference_rows(graph, total, bits=None):
    rows = [(1,) * graph.q]
    for time in range(1, total + 1):
        sums = (sum(rows[time - t][a] for a, _, t in edges if t <= time) for edges in graph.out_edges)
        rows.append(tuple(s if bits is None else _floor_bits(s, bits) for s in sums))
    return rows


def _table_rows(table, total):
    # the count table's rows 0..total, per letter, as Python ints
    n = len(table.class_edges)
    values = [m << e for m, e in zip(table.mantissas.tolist(), table.exponents.tolist())]
    return [tuple(values[time * n + c] for c in table.letter_class) for time in range(total + 1)]


def _draw_count_graph(data, q, ell, real=False):
    # one menu for all pairs, a default menu with a few pairs of their own,
    # a menu per pair, or the zero-capacity graph: q = 2 and one duration
    shape = data.draw(st.sampled_from(["uniform", "partial", "per pair", "zero capacity"]))
    if shape == "zero capacity":
        return uniform_graph(2, [data.draw(st.integers(1, 4))])
    if shape != "partial":
        return _draw_graph(data, q, ell, per_pair=shape == "per pair", real=real)
    values = st.sampled_from([1, 1.5, 2, 2.25, 3, 4]) if real else st.integers(1, 4)
    menu = st.lists(values, min_size=ell, max_size=ell, unique=True).map(sorted)
    letters = default_alphabet(q).letters
    pairs = [f"{b}>{a}" for b in letters for a in letters if a != b]
    own = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    menus = {"default": data.draw(menu), **{pair: data.draw(menu) for pair in own}}
    return build_graph(default_alphabet(q), menus)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 120), st.data())
def test_rounded_rows_match_the_per_letter_reference(q, ell, total, data):
    # the class rows are the per-letter rounded sums: each at most the sum
    # of the rounded counts its out-edges reach, with a mantissa below
    # 2**w, and exact wherever the exact count is below 2**w; grown in two steps
    graph = _draw_count_graph(data, q, ell)
    table = _CountTable(graph)
    table.upto(data.draw(st.integers(0, total)))
    table.upto(total)
    rows, exact = _table_rows(table, total), _reference_rows(graph, total)
    assert rows == _reference_rows(graph, total, _COUNT_BITS)
    assert 0 <= int(table.mantissas.min()) and int(table.mantissas.max()) < 2**_COUNT_BITS
    for time in range(1, total + 1):
        for b, edges in enumerate(graph.out_edges):
            assert rows[time][b] <= sum(rows[time - t][a] for a, _, t in edges if t <= time)
            assert rows[time][b] <= exact[time][b]
            if exact[time][b] < 2**_COUNT_BITS:
                assert rows[time][b] == exact[time][b]
    for b, start in enumerate(graph.alphabet.letters):
        assert count_schedules(graph, start, total) == exact[total][b]
        below = max(time for time in range(total + 1) if exact[time][b] < 2**_COUNT_BITS)
        assert count_schedules(graph, start, below) == rows[below][b]


def _reference_passed(graph, b, rounds, total, rows):
    # per round, with the time left before it, the counts of the earlier
    # edges out of its letter that fit
    passed, remaining = 0, total
    for p, i in rounds:
        for a, j, t in graph.out_edges[b]:
            if (a, j) == (p, i):
                b, remaining = a, remaining - t
                break
            if t <= remaining:
                passed += rows[remaining - t][a]
    return passed


# The graphs the rank kernel and the shared round pairs are pinned on: one
# letter class at q = 4, 3 and 2, and the three-class graph of the README.
KERNEL_GRAPHS = (
    uniform_graph(4, [1, 2]),
    uniform_graph(3, [1, 4]),
    uniform_graph(2, [1, 2]),
    build_graph(default_alphabet(4), {"default": [1, 2], "A>C": [1, 3], "G>T": [2, 3]}),
)
KERNEL_IDS = ["q4-12", "q3-14", "q2-12", "three-classes"]


def _random_rounds(graph, b, n_rounds, rng):
    # n_rounds edges of a random walk from letter position b, as
    # (position, index) pairs, and the time they take
    rounds, elapsed = [], 0
    for _ in range(n_rounds):
        a, i, t = rng.choice(graph.out_edges[b])
        rounds.append((a, i))
        elapsed, b = elapsed + t, a
    return rounds, elapsed


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(KERNEL_GRAPHS),
    st.sampled_from([0, 1]) | st.integers(0, 300),
    st.randoms(use_true_random=False),
)
def test_rank_is_the_round_by_round_sum_of_rounded_counts(graph, n_rounds, rng):
    # any valid schedule, whether an unrank reaches it or not
    b = rng.randrange(graph.q)
    rounds, total = _random_rounds(graph, b, n_rounds, rng)
    expected = _reference_passed(graph, b, rounds, total, _reference_rows(graph, total, _COUNT_BITS))
    letters = graph.alphabet.letters
    schedule = make_schedule(graph, letters[b], [(letters[p], i) for p, i in rounds])
    assert rank_schedule(graph, schedule, total) == expected


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=KERNEL_IDS)
def test_rank_sums_the_same_in_chunks(graph, monkeypatch):
    # a rank past _SUM_TERMS passed counts sums chunk by chunk; chunks of
    # a few rounds give the one-chunk rank
    rng = random.Random(graph.q)
    schedules = []
    for total in (1, 40, 299):
        count = _start_count(graph, "A", total)[3]
        schedules += [(unrank_schedule(graph, "A", total, rng.randrange(count)), total) for _ in range(3)]
    ranks = [rank_schedule(graph, schedule, total) for schedule, total in schedules]
    monkeypatch.setattr(prdna.codec, "_SUM_TERMS", 3 * graph.num_edges)
    assert [rank_schedule(graph, schedule, total) for schedule, total in schedules] == ranks


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=KERNEL_IDS)
def test_ranks_agree_as_the_table_grows_and_it_grows_no_further(graph):
    # ranks at a long total, a short one and the long one again, and the
    # other way round, on a fresh table each time: the same ranks, and
    # rows for the longest total asked and no further
    rng = random.Random(graph.q)
    longer, shorter = 303, 5
    schedules = {}
    for total in (longer, shorter):
        count = _start_count(graph, "A", total)[3]
        value = rng.randrange(count)
        schedules[total] = unrank_schedule(graph, "A", total, value), value
    try:
        for order in ((longer, shorter, longer), (shorter, longer, shorter)):
            _count_table.cache_clear()
            asked = 0
            for total in order:
                schedule, value = schedules[total]
                assert rank_schedule(graph, schedule, total) == value
                asked = max(asked, total)
                counts = _count_table(graph)
                assert len(counts.mantissas) == len(counts.exponents) == (asked + 1) * len(counts.class_edges)
    finally:
        _count_table.cache_clear()


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=KERNEL_IDS)
def test_rounds_spell_the_graphs_shared_pairs(graph):
    # builtin (str, int) pairs, round by round, shared by every schedule of
    # the graph, on schedules of at most 64 rounds (T = 40) and of more
    # (T = 200); make_schedule reads them back to the same arrays, and an
    # index off the menu keeps its own letter and value
    letters, ell = graph.alphabet.letters, graph.ell
    for total in (40, 200):
        count = _start_count(graph, letters[1], total)[3]
        for value in (0, count // 3, count - 1):
            schedule = unrank_schedule(graph, letters[1], total, value)
            assert (schedule.num_rounds > 64) == (total == 200)
            pairs = list(zip(schedule.positions.tolist(), schedule.indices.tolist()))
            spelled = tuple((letters[p], i) for p, i in pairs)
            assert schedule.rounds == spelled
            assert all(type(a) is str and type(i) is int for a, i in schedule.rounds)
            shared = zip(schedule.rounds, pairs)
            assert all(pair is graph.round_pairs[p * (ell + 2) + i] is graph.round_pair_at[p, i] for pair, (p, i) in shared)
            again = make_schedule(graph, schedule.start, schedule.rounds)
            assert _pairs(again) == pairs and again.total_time == total
            for k in (0, len(pairs) - 1):
                for off in (0, ell + 1):
                    indices = schedule.indices.copy()
                    indices[k] = off
                    tampered = replace(schedule, indices=indices).rounds
                    assert tampered == spelled[:k] + ((spelled[k][0], off),) + spelled[k + 1 :]
    assert make_schedule(graph, letters[1], ()).rounds == ()


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=KERNEL_IDS)
def test_rounds_refuse_a_letter_position_off_the_alphabet(graph):
    # positions -1 and q, on one-round schedules and as the first or last
    # round of a short and a long one: the error total_time raises, never
    # another letter's pair or a bare IndexError
    letters, q = graph.alphabet.letters, graph.q
    schedules = [prdna.codec.Schedule(graph, letters[0], np.array([1]), np.array([1]))]
    schedules += [unrank_schedule(graph, letters[1], total, 0) for total in (40, 200)]
    for schedule in schedules:
        for position in (-1, q):
            for k in {0, schedule.num_rounds - 1}:
                positions = schedule.positions.copy()
                positions[k] = position
                tampered = replace(schedule, positions=positions)
                message = f"^letter position {position} outside 0..{q - 1}$"
                with pytest.raises(InvalidSchedule, match=message):
                    tampered.total_time
                with pytest.raises(InvalidSchedule, match=message):
                    tampered.rounds


# Reference unrank: the round-by-round greedy walk on rounded counts,
# one full-width subtraction per passed edge, that the register walk must
# reproduce round for round.

def _reference_unrank(graph, start, total, value, rows):
    # the rounds as (position, index) pairs, and the rank left before each
    rounds, left = [], []
    b, remaining = graph.alphabet.index(start), total
    while remaining > 0:
        left.append(value)
        for a, i, t in graph.out_edges[b]:
            if t > remaining:
                continue
            below = rows[remaining - t][a]
            if value < below:
                rounds.append((a, i))
                b, remaining = a, remaining - t
                break
            value -= below
    return rounds, left


def _pairs(schedule):
    return list(zip(schedule.positions.tolist(), schedule.indices.tolist()))


# One letter class at q = 4 and 3, a menu of even durations (every odd
# time counts 0), and the three-class graph
WALK_GRAPHS = (KERNEL_GRAPHS[0], KERNEL_GRAPHS[1], uniform_graph(4, [2, 6]), KERNEL_GRAPHS[3])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WALK_GRAPHS), st.integers(60, 2000), st.data())
def test_unrank_is_the_greedy_walk_on_rounded_counts(graph, total, data):
    # counts past 2**w; ranks 0 and count - 1, a random rank, and the ranks
    # on each side of the first rank of a prefix's subtree, where the walk
    # compares equal counts
    start = data.draw(st.sampled_from(graph.alphabet.letters))
    rows = _reference_rows(graph, total, _COUNT_BITS)
    count = rows[total][graph.alphabet.index(start)]
    assume(count >= 2**_COUNT_BITS)
    assert _start_count(graph, start, total)[3] == count
    value = data.draw(st.integers(0, count - 1))
    rounds, left = _reference_unrank(graph, start, total, value, rows)
    smallest = value - left[data.draw(st.integers(0, len(rounds) - 1))]  # same first rounds
    for v in sorted({0, count - 1, value, smallest, max(smallest - 1, 0)}):
        schedule = unrank_schedule(graph, start, total, v)
        assert _pairs(schedule) == _reference_unrank(graph, start, total, v, rows)[0]
        assert rank_schedule(graph, schedule, total) == v


@pytest.mark.parametrize("graph", WALK_GRAPHS, ids=["q4-12", "q3-14", "q4-26", "three-classes"])
def test_unrank_at_the_first_rounds_boundaries_is_the_greedy_walk(graph):
    # the ranks at each running sum of the first round's out-edge counts,
    # where the walk compares equal values, and just below it, on a budget
    # past 2**w and on one below the start letter's longest duration, where
    # some edges do not fit and add nothing to the sums
    rows = _reference_rows(graph, 300, _COUNT_BITS)
    for start in graph.alphabet.letters:
        b = graph.alphabet.index(start)
        longest = max(t for _, _, t in graph.out_edges[b])
        short = max(time for time in range(longest) if rows[time][b])
        assert rows[300][b] >= 2**_COUNT_BITS
        for total in (300, short):
            count, sums = rows[total][b], [0]
            for a, _, t in graph.out_edges[b]:
                sums.append(sums[-1] + (rows[total - t][a] if t <= total else 0))
            values = {v for s in sums for v in (s - 1, s) if 0 <= v < count}
            for v in sorted(values):
                schedule = unrank_schedule(graph, start, total, v)
                assert _pairs(schedule) == _reference_unrank(graph, start, total, v, rows)[0]
                assert rank_schedule(graph, schedule, total) == v


@functools.cache
def _codec_bench_rows():
    return _reference_rows(uniform_graph(4, [1, 2]), 8522, _COUNT_BITS)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**16384 - 1))
def test_rank_inverts_unrank_on_16384_bit_values(value):
    # the codec bench's budget: menu {1, 2} over q = 4 at T = 8522
    graph = uniform_graph(4, [1, 2])
    schedule = unrank_schedule(graph, "A", 8522, value)
    assert _pairs(schedule) == _reference_unrank(graph, "A", 8522, value, _codec_bench_rows())[0]
    assert rank_schedule(graph, schedule, 8522) == value


def test_max_entropic_chain_is_pinned():
    # the mean is an fsum of the per-edge terms; another summation order
    # moves its last digits.  For q = 4 and the menu {1, 2} the root is
    # z = (3 + sqrt 21)/2 and the mean round duration is 3 (1/z + 2/z**2);
    # the one-class right vector is exactly uniform, and the pinned mean is
    # the closed form to the last bit.
    graph = uniform_graph(4, [1, 2])
    chain = max_entropic_chain(graph)
    assert chain.mean_round_duration == 1.2087121525220799
    assert chain.rounds_per_time == 0.8273268353539887
    z = (3 + math.sqrt(21)) / 2
    closed_form = 3 * (1 / z + 2 / z**2)
    assert abs(chain.mean_round_duration - closed_form) <= 2 * math.ulp(closed_form)
    assert chain.capacity == capacity(graph)


def _reference_transfer_matrix(graph, z):
    # the transfer matrix pair by pair, over the menus
    q = graph.q
    mat = np.zeros((q, q))
    for bi in range(q):
        for ai in range(q):
            if bi != ai:
                mat[bi, ai] = sum(z ** (-t) for t in graph.menus[bi][ai])
    return mat


def _reference_chain(graph):
    # the chain edge by edge: per-edge probabilities, the stationary law by
    # an eigen-solve of the letter chain, the mean summed edge by edge
    cap = capacity(graph)
    z, x = cap.perron_root, np.array(cap.right_vector)
    letters = graph.alphabet.letters
    letter_chain = np.zeros((graph.q, graph.q))
    per_letter = []
    for bi, edges in enumerate(graph.out_edges):
        out = []
        for ai, i, t in edges:
            prob = z ** (-t) * x[ai] / x[bi]
            out.append((letters[ai], i, float(prob)))
            letter_chain[bi, ai] += prob
        per_letter.append(tuple(out))
    values, vectors = np.linalg.eig(letter_chain.T)
    pi = np.abs(vectors[:, int(np.argmin(np.abs(values - 1.0)))].real)
    pi = pi / pi.sum()
    mean = 0.0
    for bi, edges in enumerate(graph.out_edges):
        for (_, _, t), (_, _, prob) in zip(edges, per_letter[bi]):
            mean += pi[bi] * prob * t
    return tuple(per_letter), pi, mean


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.booleans(), st.booleans(), st.data())
def test_max_entropic_chain_matches_the_edge_by_edge_reference(q, ell, per_pair, real, data):
    graph = _draw_graph(data, q, ell, per_pair, real)
    chain = max_entropic_chain(graph)
    per_letter, pi, mean = _reference_chain(graph)
    assert [[(a, i) for a, i, _ in out] for out in chain.edge_probabilities] == [
        [(a, i) for a, i, _ in out] for out in per_letter
    ]
    got = [p for out in chain.edge_probabilities for _, _, p in out]
    want = [p for out in per_letter for _, _, p in out]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chain.stationary, pi, rtol=0, atol=1e-12)
    assert abs(chain.mean_round_duration - mean) <= 1e-12
    # the closed-form law is stationary for the chain's own letter moves
    position = graph.alphabet.index
    letter_chain = np.zeros((q, q))
    for bi, out in enumerate(chain.edge_probabilities):
        for a, _, p in out:
            letter_chain[bi, position(a)] += p
    np.testing.assert_allclose(np.array(chain.stationary) @ letter_chain, chain.stationary, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5), st.integers(1, 3), st.booleans(), st.booleans(),
    st.floats(1, 25), st.data(),
)
def test_transfer_matrix_is_the_pair_by_pair_sum(q, ell, per_pair, real, z, data):
    graph = _draw_graph(data, q, ell, per_pair, real)
    # numpy's vector power may round each z**(-t) one ulp away from the
    # scalar one, and a sum of ell <= 3 such terms moves by a few ulps
    np.testing.assert_allclose(
        transfer_matrix(graph, z), _reference_transfer_matrix(graph, z),
        rtol=4 * np.finfo(float).eps, atol=0,
    )


def _reference_perron_root(graph):
    # the letter-by-letter search: Brent's method on the spectral radius of
    # the q x q transfer matrix, on capacity's bracket and tolerance
    if _spectral_radius(transfer_matrix(graph, 1.0)) <= 1.0 + 1e-12:
        return 1.0
    return optimize.brentq(
        lambda z: _spectral_radius(transfer_matrix(graph, z)) - 1.0,
        1.0, graph.q * graph.ell + 1.0, xtol=_REL_TOL, rtol=_REL_TOL,
    )


def _check_quotient(graph):
    letter_class, class_terms = _letter_classes(graph)
    n_classes = len(class_terms)
    assert sorted(set(letter_class)) == list(range(n_classes))
    for z in (1.0, 1.25, 2.0, 3.5, 7.0, graph.q * graph.ell + 1.0):
        mat = transfer_matrix(graph, z)
        # the partition is equitable: from every letter of class c, the row
        # of T(z) sums to B(z)[c, d] over the letters of class d
        quotient = np.array(_quotient(class_terms, z))
        per_class = np.array([mat[:, np.equal(letter_class, d)].sum(axis=1) for d in range(n_classes)]).T
        np.testing.assert_allclose(per_class, quotient[list(letter_class)], rtol=1e-12, atol=0)
        np.testing.assert_allclose(_quotient_radius(class_terms, z), _spectral_radius(mat), rtol=1e-12, atol=0)
    cap = capacity(graph)
    # both searches stop within a few ulps of the root; eigvals rounds the
    # reference's radius by a few more on up to five letters
    reference = _reference_perron_root(graph)
    assert abs(cap.perron_root - reference) <= 32 * math.ulp(reference)
    at_root = transfer_matrix(graph, cap.perron_root)
    x, y = np.array(cap.right_vector), np.array(cap.left_vector)
    if n_classes == 1:
        # every row of T(z) has the same sum
        assert cap.right_vector == (1 / graph.q,) * graph.q
    np.testing.assert_allclose(at_root @ x, x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y @ at_root, y, rtol=0, atol=1e-12)
    assert min(x) > 0 and min(y) > 0
    assert abs(sum(x) - 1) <= 1e-12 and abs(sum(y) - 1) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.booleans(), st.data())
def test_capacity_on_the_class_quotient_matches_the_letter_by_letter_search(q, ell, real, data):
    # integer, real and per-pair menus on one to q classes, and the
    # zero-capacity graph
    _check_quotient(_draw_count_graph(data, q, ell, real))


@pytest.mark.parametrize(
    "menus, n_classes",
    [
        ({"default": [1, 2.5]}, 1),
        # a cyclic pattern: every letter alike, yet T(z) is not symmetric
        ({"default": [1, 2], "A>C": [2, 3], "C>G": [2, 3], "G>T": [2, 3], "T>A": [2, 3]}, 1),
        ({"default": [1, 2], "A>C": [1, 3], "C>A": [1, 3]}, 2),
        ({"default": [1, 2], "A>C": [1, 3], "G>T": [2, 3]}, 3),
        ({"default": [1.5, 2], "A>C": [1, 3], "C>G": [2, 3], "G>A": [1, 4]}, 4),
    ],
)
def test_capacity_on_one_to_q_classes(menus, n_classes):
    graph = build_graph(default_alphabet(4), menus)
    assert len(_letter_classes(graph)[1]) == n_classes
    _check_quotient(graph)


# The Brent port behind capacity and the Poisson design: the same float
# as scipy's brentq, or the same exception, on each function and bracket.

def _root_or_error(solve, f, a, b, xtol, rtol):
    try:
        root = solve(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return type(root), root


def _check_brentq_port(f, a, b, xtol, rtol):
    outcome = _root_or_error(_brentq, f, a, b, xtol, rtol)
    assert outcome == _root_or_error(optimize.brentq, f, a, b, xtol, rtol)
    return outcome


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 8) | st.floats(0.5, 8.0), st.integers(1, 4)), min_size=1, max_size=5
    ),
    st.floats(1.0, 1.5),
    st.floats(1e-9, 60.0),
)
def test_brentq_port_matches_scipy_on_capacity_roots(terms, lo, width):
    # one class's radius, a sum of m * z**(-t) over edge multiplicities m,
    # minus one: decreasing in z, and at least 0 at z = 1
    def radius_less_one(z):
        return sum(m * z**-t for t, m in terms) - 1.0

    _check_brentq_port(radius_less_one, lo, lo + width, _REL_TOL, _REL_TOL)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 400),
    st.integers(1, 20),
    st.floats(1e-6, 1.0, exclude_max=True),
    st.floats(0.0, 1.0),
    st.floats(1e-6, 10.0),
)
def test_brentq_port_matches_scipy_on_poisson_rates(k, copies, delta, lo_scale, hi_scale):
    # a threshold's left mass minus half the budget, on a bracket around
    # the mean k + 1 that mostly holds the root
    def left_mass(rate):
        return float(pdtr(k, copies * rate)) - delta / 2

    lo = lo_scale * (k + 1) / copies
    _check_brentq_port(left_mass, lo, lo + hi_scale * (k + 10) / copies, 1e-12, 1e-15)


@pytest.mark.parametrize(
    "f, a, b, error",
    [
        (lambda x: math.nan, 0.0, 1.0, "The function value at x=0.0 is NaN; solver cannot continue."),
        # equal values at both ends: the first step bisects onto 0.5
        (lambda x: math.nan if x == 0.5 else x - 0.5, 0.0, 1.0, "is NaN; solver cannot continue."),
        (lambda x: x * x + 1.0, -1.0, 2.0, "f(a) and f(b) must have different signs"),
        # a step gives no slope to follow: 100 halvings of 2e300 leave about 1.6e270
        (lambda x: -1.0 if x < 1.0 else 1.0, -1e300, 1e300, "Failed to converge after 100 iterations."),
    ],
    ids=["nan-at-a", "nan-midway", "same-sign", "no-convergence"],
)
def test_brentq_port_raises_as_scipy_does(f, a, b, error):
    kind, message = _check_brentq_port(f, a, b, _REL_TOL, _REL_TOL)
    assert kind in (ValueError, RuntimeError) and error in message


# Reference quantizer designs: the plain loops over frozen scipy
# distributions, one object per step.  The library's ufunc and vectorized
# scans must give the same floats, not merely close ones.

def _reference_scan(dist, tau_prev, support_end, delta):
    left = float(dist.cdf(tau_prev))
    for x in range(tau_prev + 1, support_end + 1):
        if float(dist.sf(x)) + left <= delta:
            return x
    return None


def _reference_binomial(p, delta, n, max_duration):
    t1 = next(
        (t for t in range(1, max_duration + 1) if float(stats.binom(n * t, p).cdf(0)) <= delta),
        None,
    )
    if t1 is None:
        raise Infeasible(
            f"no duration up to {max_duration} keeps the run-deletion "
            f"probability at or below {delta}"
        )
    durations = [t1]
    taus = [0, _reference_scan(stats.binom(n * t1, p), 0, n * t1, delta)]
    while True:
        t_prev, tau_prev = durations[-1], taus[-1]
        chosen = None
        for t in range(t_prev + 1, max_duration + 1):
            if _binomial_crossing(n * t_prev, n * t, tau_prev, p) > 0.0:
                continue
            dist = stats.binom(n * t, p)
            if float(dist.cdf(tau_prev)) > delta:
                continue
            tau = _reference_scan(dist, tau_prev, n * t, delta)
            if tau is not None:
                chosen = (t, tau)
                break
        if chosen is None:
            return tuple(float(t) for t in durations), tuple(taus), None
        durations.append(chosen[0])
        taus.append(chosen[1])


def _reference_poisson(delta, n, ell_max, max_duration):
    half = delta / 2.0
    rates, taus = [math.log(2.0 / delta) / n], [0]
    while True:
        k = taus[-1]
        while float(stats.poisson(n * rates[-1]).sf(k)) > half:
            k += 1
        taus.append(k)
        if len(rates) >= ell_max:
            break

        def left_mass(rate, k=k):
            return float(stats.poisson(n * rate).cdf(k)) - half

        hi = rates[-1] + 1.0
        while left_mass(hi) > 0.0:
            hi *= 2.0
        rate = float(optimize.brentq(left_mass, rates[-1], hi, xtol=1e-12, rtol=1e-15))
        while left_mass(rate) > 0.0:
            rate = math.nextafter(rate, math.inf)
        if max_duration is not None and math.sqrt(rate / rates[0]) > max_duration:
            break
        rates.append(rate)
    return tuple(math.sqrt(r / rates[0]) for r in rates), tuple(taus), tuple(rates)


def _reference_errors(design):
    errors = []
    for i in range(1, design.ell + 1):
        if design.p is not None:
            dist = stats.binom(design.copies * int(design.durations[i - 1]), design.p)
        else:
            dist = stats.poisson(design.copies * design.rates[i - 1])
        err = float(dist.cdf(design.sum_thresholds[i - 1]))
        if i < design.ell:
            err += float(dist.sf(design.sum_thresholds[i]))
        errors.append(err)
    return tuple(errors)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.01, 0.99),
    st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.1, 0.3]),
    st.integers(1, 8),
    st.integers(1, 30),
)
def test_binomial_design_matches_frozen_reference(p, delta, copies, max_duration):
    try:
        reference = _reference_binomial(p, delta, copies, max_duration)
    except Infeasible as exc:
        with pytest.raises(Infeasible) as info:
            design_binomial(p, delta, copies, max_duration)
        assert str(info.value) == str(exc)
        return
    design = design_binomial(p, delta, copies, max_duration)
    assert (design.durations, design.sum_thresholds, design.rates) == reference
    assert exact_error_probabilities(design) == _reference_errors(design)


@settings(max_examples=12, deadline=None)
@given(
    st.floats(0.002, 0.5),
    st.integers(1, 8),
    st.integers(1, 10),
    st.one_of(st.none(), st.floats(1.0, 6.0)),
)
def test_poisson_design_matches_frozen_reference(delta, copies, ell_max, max_duration):
    design = design_poisson(delta, copies, ell_max, max_duration)
    reference = _reference_poisson(delta, copies, ell_max, max_duration)
    assert (design.durations, design.sum_thresholds, design.rates) == reference
    assert exact_error_probabilities(design) == _reference_errors(design)


@pytest.mark.parametrize(
    "p, delta, copies, max_duration",
    [(0.5, 0.02, 8, 30), (0.5, 0.005, 8, 30), (0.01, 0.02, 1, 400), (0.05, 0.02, 2, 100)],
)
def test_binomial_design_past_the_first_scan_block_matches_frozen_reference(
    p, delta, copies, max_duration
):
    # N = 8 scans run past 32 thresholds; the small-p cases scan past 32 durations
    design = design_binomial(p, delta, copies, max_duration)
    reference = _reference_binomial(p, delta, copies, max_duration)
    assert (design.durations, design.sum_thresholds, design.rates) == reference
    assert exact_error_probabilities(design) == _reference_errors(design)


@pytest.mark.parametrize("copies", [5, 8])
def test_poisson_design_past_the_first_scan_block_matches_frozen_reference(copies):
    # at delta = 0.005 the thresholds climb to several hundred, 80-160 per step
    design = design_poisson(0.005, copies, 10)
    reference = _reference_poisson(0.005, copies, 10, None)
    assert max(np.diff(design.sum_thresholds)) > 64
    assert (design.durations, design.sum_thresholds, design.rates) == reference
    assert exact_error_probabilities(design) == _reference_errors(design)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(1, 200), st.sampled_from([4000, 9000])),
    st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(3 / 256)),
)
def test_upper_tail_is_binom_sf_bit_for_bit(n, p):
    # every k from below the support to past its end, as one array and one by one
    ks = np.arange(-2, n + 2)
    reference = stats.binom.sf(ks, n, p)
    assert _upper_tail(ks, n, p).tobytes() == reference.tobytes()
    for k in (-2, -1, 0, n // 2, n - 1, n, n + 1):
        assert _upper_tail(k, n, p).tobytes() == np.float64(stats.binom.sf(k, n, p)).tobytes()
    # one n per k, as the exact error evaluation passes them
    trials = np.full(ks.shape, n)
    assert _upper_tail(ks, trials, p).tobytes() == reference.tobytes()


@pytest.mark.parametrize("delta", [0.7, 0.9, 0.99])
@pytest.mark.parametrize("copies", [1, 5])
def test_poisson_design_at_a_large_budget_matches_frozen_reference(delta, copies):
    # the budgets past 0.5 that the hypothesis range never draws
    design = design_poisson(delta, copies, 10)
    reference = _reference_poisson(delta, copies, 10, None)
    assert (design.durations, design.sum_thresholds, design.rates) == reference
    assert exact_error_probabilities(design) == _reference_errors(design)


@pytest.mark.parametrize("delta", [0.002, 0.005, 0.02, 0.05, 0.2, 0.5])
@pytest.mark.parametrize("copies", [1, 7])
def test_poisson_scan_skips_only_thresholds_whose_tail_exceeds_half_the_budget(delta, copies):
    # each threshold scan starts at floor(mean) - 2 when that lies past the
    # previous threshold; every k it skips must fail the test it would face
    design = design_poisson(delta, copies, 10)
    skipped = 0
    for tau_prev, rate in zip(design.sum_thresholds, design.rates):
        mean = copies * rate
        ks = np.arange(tau_prev, math.floor(mean) - 2)
        assert np.all(pdtrc(ks, mean) > delta / 2)
        skipped += ks.size
    assert skipped > 0


@settings(max_examples=200, deadline=None)
@given(st.floats(2.0, 1e7) | st.integers(2, 10**7))
def test_poisson_tail_two_below_the_mean_is_at_least_half(mean):
    # the median bound behind the scan start: Pr(X > k) >= 1/2 for k <= mean - 2,
    # so no budget below 1 accepts a skipped k; checking the largest k suffices
    assert pdtrc(math.floor(mean) - 2, mean) >= 0.5


def _same_float(scalar, ufunc_value):
    return np.float64(scalar).tobytes() == np.float64(ufunc_value).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**5), st.data())
def test_scalar_poisson_kernels_give_the_ufuncs_floats(k, data):
    # the designs pass a whole k and a float mean, near k or anywhere
    spread = 6 * math.sqrt(k + 1) + 1
    mean = data.draw(
        st.floats(max(k - spread, 1e-9), k + spread) | st.floats(1e-9, 2e5), label="mean"
    )
    assert _same_float(cython_special.pdtr(k, mean), pdtr(np.int64(k), mean))
    assert _same_float(cython_special.pdtrc(k, mean), pdtrc(np.int64(k), mean))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10**5),
    st.data(),
    st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(3 / 256)),
)
def test_scalar_betainc_gives_the_ufuncs_float(n, data, p):
    # the threshold scan's form, betainc(x + 1.0, n - x, p), against the
    # ufunc on the int64 arguments _upper_tail passes
    x = data.draw(st.integers(0, n - 1), label="x")
    scalar = cython_special.betainc(x + 1.0, float(n - x), p)
    assert _same_float(scalar, betainc(np.int64(x + 1), np.int64(n - x), p))
    assert _same_float(scalar, _upper_tail(x, n, p))


@pytest.mark.parametrize("delta", [0.001, 0.02, 0.1, 0.3, 0.49])
@pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_binomial_scan_skips_only_thresholds_whose_tail_fails_the_budget(p, delta):
    # below a budget of 1/2 each threshold scan starts at floor(trials p) - 2
    # when that lies past tau_prev + 1; every x it skips must fail the test it
    # would face, for any mass left <= delta at or below tau_prev
    skipped = 0
    for trials in (1, 2, 5, 10, 37, 100, 1000, 10_000, 50_000):
        xs = np.arange(0, math.floor(trials * p) - 2)
        tails = _upper_tail(xs, trials, p)
        for left in (0.0, delta / 2, delta):
            assert not np.any(tails + left <= delta), (trials, left)
        skipped += xs.size
    assert skipped > 0


@pytest.mark.parametrize(
    "p, delta, max_duration",
    [(p, 0.02, m) for p in (0.5, 0.9) for m in (80, 1000)]
    + [(p, d, 30) for p in (0.5, 0.7) for d in (0.45, 0.49, 0.7, 0.9, 0.99)],
)
def test_binomial_design_where_the_median_start_matters_matches_frozen_reference(
    p, delta, max_duration
):
    # at M = 80 and 1000 tens of levels skip to floor(np) - 2; near a budget
    # of 1/2 a later start would skip qualifying thresholds, and past 1/2 the
    # median start would
    design = design_binomial(p, delta, 5, max_duration)
    reference = _reference_binomial(p, delta, 5, max_duration)
    assert (design.durations, design.sum_thresholds, design.rates) == reference
    assert exact_error_probabilities(design) == _reference_errors(design)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(1, 200), st.sampled_from([4000, 9000])),
    st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(3 / 256)),
)
def test_lower_tail_is_binom_cdf_bit_for_bit(n, p):
    # every k from below the support to past its end, as one array and one by one
    ks = np.arange(-2, n + 2)
    reference = stats.binom.cdf(ks, n, p)
    assert _lower_tail(ks, n, p).tobytes() == reference.tobytes()
    for k in (-2, -1, 0, n // 2, n - 1, n, n + 1):
        assert _lower_tail(k, n, p).tobytes() == np.float64(stats.binom.cdf(k, n, p)).tobytes()
    # one n per k, as the exact error evaluation passes them
    trials = np.full(ks.shape, n)
    assert _lower_tail(ks, trials, p).tobytes() == reference.tobytes()
    # one k against many n, as the duration scan passes them
    ns = np.arange(1, n + 3)
    k = n // 2
    assert _lower_tail(k, ns, p).tobytes() == stats.binom.cdf(k, ns, p).tobytes()


# Reference base conversion: the parity integer split into (q-1)-ary
# increments, and increments joined back, one digit at a time.

def _reference_to_increments(value, q, space):
    width, reach = 0, 1
    while reach < space:
        width += 1
        reach *= q - 1
    digits = []
    for _ in range(width):
        digits.append(value % (q - 1) + 1)
        value //= q - 1
    return list(reversed(digits))


def _reference_from_increments(barred, q):
    value = 0
    for v in barred:
        value = value * (q - 1) + (v - 1)
    return value


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(1, 200), st.sampled_from([511, 512, 513, 1024, 4097, 7020])),
    st.integers(2, 5),
    st.integers(3, 5),
    st.randoms(use_true_random=False),
)
def test_base_conversion_matches_digit_loop_reference(length, base, q, rng):
    # a parity integer of `length` base-`base` digits
    parity = rng.randrange(base**length)
    barred = _split_digits(parity, q - 1, digits_needed(q - 1, base**length))
    assert barred.tolist() == _reference_to_increments(parity, q, base**length)
    # any increments of that width, inside the parity space or not
    increments = [rng.randint(1, q - 1) for _ in barred]
    assert _join_digits(increments, q - 1) == _reference_from_increments(increments, q)


# ---------------------------------------------------------------------------
# File parsers: every input parses or raises ValueError
# ---------------------------------------------------------------------------

_JSON_LEAF = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(10**400)
    | st.floats() | st.text(max_size=4)
)
_JSON_ANY = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_JSON_NUMBERS = st.lists(st.integers(0, 30) | st.floats(0, 30) | _JSON_LEAF, max_size=4)
_DESIGN_JSON = st.fixed_dictionaries(
    {},
    optional={
        "family": st.sampled_from(["binomial", "poisson"]) | _JSON_ANY,
        "N": st.integers(0, 6) | st.floats(0, 6) | _JSON_ANY,
        "t": _JSON_NUMBERS | _JSON_ANY,
        "tau": _JSON_NUMBERS | _JSON_ANY,
        "delta": st.floats(0, 1) | _JSON_ANY,
        "M": st.integers(1, 10) | _JSON_ANY,
        "p": st.floats(0, 1) | _JSON_ANY,
        "lambda": _JSON_NUMBERS | _JSON_ANY,
    },
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_DESIGN_JSON.map(json.dumps), _JSON_ANY.map(json.dumps), st.text(max_size=40)))
def test_design_json_parses_or_raises_value_error(text):
    try:
        design = design_from_json(text)
    except ValueError:
        return
    assert isinstance(design, QuantizerDesign)
    assert all(type(k) is int for k in (design.copies, *design.sum_thresholds))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["binomial", "poisson"]),
    st.floats(0.1, 0.95),
    st.floats(0.005, 0.2),
    st.sampled_from([1, 3, 5]),
    st.integers(2, 10),
)
def test_design_files_load_back_equal(family, p, delta, copies, ell_max):
    # what `prdna design --out` writes, rounded to nine digits, reads back
    # as the design with each real field rounded the same way
    flags = ["--p", repr(p), "--M", "10"] if family == "binomial" else ["--ell-max", str(ell_max)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "design.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(
                ["design", family, *flags, "--delta", repr(delta), "--N", str(copies), "--out", path]
            )
        assume(code == 0)  # an infeasible design exits 2
        with open(path) as handle:
            loaded = design_from_json(handle.read())
    if family == "binomial":
        design = design_binomial(p, delta, copies, 10)
    else:
        design = design_poisson(delta, copies, ell_max=ell_max)

    def nine(x):
        return float(f"{x:.9g}")

    assert loaded == replace(
        design,
        durations=tuple(map(nine, design.durations)),
        rates=None if design.rates is None else tuple(map(nine, design.rates)),
        error_budget=nine(delta),
        p=None if design.p is None else nine(design.p),
    )


_TOKEN = st.sampled_from(
    ["4", "2", "0", "-1", "40", "0.02", "nan", "x", "A", "C", "#", "start=A", "margin=3"]
) | st.text(min_size=1, max_size=3)
_LINE = st.lists(_TOKEN, max_size=7).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(_LINE, max_size=8).map("\n".join), st.text(max_size=60)))
def test_schedule_file_parses_or_raises_value_error(text):
    try:
        parsed = _parse_schedule_file(text)
    except ValueError:
        return
    assert len(parsed["rounds"]) >= parsed["payload_rounds"] >= 1
