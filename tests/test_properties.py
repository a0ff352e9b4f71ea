"""Property tests for the decision rule, the trial tally, and the inverses."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prdna.codec import (
    attach_redundancy,
    base_to_symbols,
    rank_schedule,
    symbols_to_base,
    unrank_schedule,
)
from prdna.ecc import ReedSolomonCode
from prdna.graph import count_schedules, uniform_graph
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
