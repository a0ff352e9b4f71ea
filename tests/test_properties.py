"""Property tests for the decision rule, the trial tally, the inverses, and the fast kernels."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prdna.codec import (
    attach_redundancy,
    base_to_symbols,
    rank_schedule,
    symbols_to_base,
    unrank_schedule,
)
from prdna.ecc import EccError, ReedSolomonCode
from prdna.graph import (
    _count_table,
    build_graph,
    count_schedules,
    default_alphabet,
    iter_schedules,
    uniform_graph,
)
from prdna.quantizer import decide, design_binomial, design_poisson, quantize
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
        assert quantize(design, obs) == (index[k], low_confidence[k])
        assert index[k] == _reference_index(design, sums[k])
        assert low_confidence[k] == (sums[k] == 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(SETUPS) - 1), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_trial_tally_matches_threshold_reference(which, seed, trial):
    setup = SETUPS[which]
    design = setup.design
    report = run_schedule_trial(setup, seed, trial)
    payload = random_schedule(setup.graph, setup.start, PAYLOAD_ROUNDS, _stream(seed, trial))
    full = attach_redundancy(setup.graph, payload, setup.plan, setup.ecc)
    sums = synthesize(full, design, seed, trial).copies[:, :PAYLOAD_ROUNDS].sum(axis=0)
    errors, rounds = [0] * design.ell, [0] * design.ell
    for true_index, total in zip(payload.indices(), sums):
        rounds[true_index - 1] += 1
        errors[true_index - 1] += _reference_wrong(design, true_index, int(total))
    assert report.per_index_rounds == rounds
    assert report.per_index_errors == errors


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.integers(2, 9), st.data())
def test_base_conversion_roundtrip(q, base, data):
    parity = data.draw(st.lists(st.integers(1, base), min_size=1, max_size=40))
    barred = symbols_to_base(parity, q, base)
    assert all(1 <= v <= q - 1 for v in barred)
    assert base_to_symbols(barred, base, len(parity), q) == tuple(parity)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 4),
    st.sets(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(1, 12),
    st.data(),
)
def test_rank_inverts_unrank(q, menu, total, data):
    graph = uniform_graph(q, sorted(menu))
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
# Horner syndromes, a root search by powers, and error values by Gaussian
# elimination.  The code's matrix kernels and Forney values must agree.

def _reference_parity(code, payload):
    p, n_par = code.prime, code.n_parity_field
    work = [v - 1 for v in payload] + [0] * n_par
    for i in range(len(payload)):
        coef = work[i] % p
        for j in range(1, n_par + 1):
            work[i + j] = (work[i + j] - coef * code._gen_poly[j]) % p
    return code._field_to_symbols([-c % p for c in work[len(payload):]])


def _reference_syndromes(code, word):
    p, n = code.prime, len(word)
    return [
        sum(c * pow(code.generator, i * (n - 1 - j), p) for j, c in enumerate(word)) % p
        for i in range(1, code.n_parity_field + 1)
    ]


def _reference_decode(code, payload, parity):
    p = code.prime
    word = [v - 1 for v in payload] + code._symbols_to_field(parity)
    syndromes = _reference_syndromes(code, word)
    if not any(syndromes):
        return list(payload)
    locator = code._berlekamp_massey(syndromes)
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


def _outcome(decode, *args):
    try:
        return decode(*args)
    except EccError as exc:
        return str(exc)


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
    if parity and data.draw(st.booleans(), label="corrupt parity"):
        for pos in rng.sample(range(len(parity)), min(3, len(parity))):
            parity[pos] = rng.randint(1, ell)
    assert _outcome(code.decode, corrupted, parity) == _outcome(
        _reference_decode, code, corrupted, parity
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_counts_in_any_duration_order_match_enumeration(q, ell, data):
    alphabet = default_alphabet(q)
    menu = st.lists(st.integers(1, 4), min_size=ell, max_size=ell, unique=True).map(sorted)
    menus = {
        (b, a): data.draw(menu) for b in alphabet.letters for a in alphabet.letters if a != b
    }
    graph = build_graph(alphabet, menus)
    totals = data.draw(st.lists(st.integers(0, 8), min_size=2, max_size=5, unique=True))
    longest = max(totals)
    totals = [longest] + [t for t in totals if t != longest]  # grow, then read shorter rows
    _count_table.cache_clear()
    for total in totals:
        for start in alphabet.letters:
            listed = sum(1 for _ in iter_schedules(graph, start, total))
            assert count_schedules(graph, start, total) == listed
