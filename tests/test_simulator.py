"""Channel sampling, read path, deletion accounting, rate sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import prdna.codec
import prdna.graph
import prdna.simulator
from prdna.codec import attach_redundancy, plan_redundancy, synthesis_time_bound
from prdna.ecc import EccError, ReedSolomonCode
from prdna.graph import uniform_graph
from prdna.quantizer import (
    BINOMIAL,
    QuantizerDesign,
    decide,
    design_binomial,
    design_poisson,
    exact_error_probabilities,
)
from prdna.simulator import (
    PipelineSetup,
    _invert_binomial,
    _run_lengths,
    _stream,
    random_schedule,
    rate_curve,
    rate_curve_csv,
    read_and_decode,
    run_schedule_trial,
    simulate_schedules,
    synthesize,
)


def _binomial_channel(copies: int, p: float, durations: tuple) -> QuantizerDesign:
    # run-length law only; the thresholds are placeholders no test reads
    return QuantizerDesign(
        family=BINOMIAL, durations=durations, sum_thresholds=(0,) * (len(durations) + 1),
        error_budget=0.5, copies=copies, max_duration=None, p=p,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_high_success_rounds_concentrate():
    g = uniform_graph(4, [5])
    sched = random_schedule(g, "A", 2500, np.random.default_rng(0))
    trace = synthesize(sched, _binomial_channel(4, 0.999, (5,)), seed=1)
    frac_exact = float((trace.copies == 5).mean())
    assert frac_exact > 0.99


def test_synthesize_refuses_indices_beyond_the_design():
    # a schedule over three durations cannot be drawn from a two-index design
    sched = random_schedule(uniform_graph(4, [1, 2, 3]), "A", 200, np.random.default_rng(0))
    assert sched.indices.max() == 3
    with pytest.raises(ValueError, match=r"indices must lie in 1\.\.2"):
        synthesize(sched, _binomial_channel(2, 0.5, (1, 2)), seed=1)


def test_synthesize_refuses_index_zero():
    sched = random_schedule(uniform_graph(4, [1, 2]), "A", 50, np.random.default_rng(0))
    indices = sched.indices.copy()
    indices[7] = 0
    with pytest.raises(ValueError, match=r"indices must lie in 1\.\.2"):
        synthesize(replace(sched, indices=indices), _binomial_channel(2, 0.5, (1, 2)), seed=1)
    rng = _stream(1)  # the check comes before any draw
    with pytest.raises(ValueError, match=r"indices must lie in 1\.\.2"):
        _run_lengths(rng, _binomial_channel(2, 0.5, (1, 2)), indices, invert=True)
    assert rng.random() == _stream(1).random()


def _numpy_loop(rng, design, indices):
    # numpy's sampler called once per duration index, ascending, on (copies, rounds) blocks
    lengths = np.zeros((design.copies, len(indices)), dtype=np.int64)
    for idx in range(1, design.ell + 1):
        cols = np.flatnonzero(indices == idx)
        size = (design.copies, cols.size)
        if design.family == BINOMIAL:
            lengths[:, cols] = rng.binomial(int(design.durations[idx - 1]), design.p, size=size)
        else:
            lengths[:, cols] = rng.poisson(design.rates[idx - 1], size=size)
    return lengths


def _largest_inverted_t(p: float) -> int:
    # numpy inverts while t * min(p, 1 - p) <= 30, in floats
    low = min(p, 1.0 - p)
    t = int(30 / low) + 1
    while t * low > 30.0:
        t -= 1
    return t


def _record_inversion(monkeypatch) -> list:
    # the invert flag of every _run_lengths call that synthesize makes
    calls, real = [], prdna.simulator._run_lengths

    def recording(rng, design, indices, invert):
        calls.append(invert)
        return real(rng, design, indices, invert)

    monkeypatch.setattr(prdna.simulator, "_run_lengths", recording)
    return calls


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_lengths_equal_numpys_loop(data):
    # inverted: every duration below BTPE; straddling: one duration past
    # it, so the whole design takes numpy's samplers; and Poisson designs
    kind = data.draw(st.sampled_from(["inverted", "straddling", "poisson"]), label="kind")
    copies = data.draw(st.integers(1, 8), label="copies")
    if kind == "poisson":
        ell_max = data.draw(st.integers(1, 5), label="ell_max")
        design = design_poisson(data.draw(st.sampled_from([0.01, 0.05, 0.2])), copies, ell_max=ell_max)
    else:
        p = data.draw(st.sampled_from([0.5, 0.3, 0.7]) | st.floats(0.002, 0.998), label="p")
        edge = _largest_inverted_t(p)
        durations = data.draw(st.lists(st.integers(0, edge), min_size=1, max_size=5), label="t")
        if kind == "straddling":
            btpe = data.draw(st.integers(edge + 1, edge + 90), label="BTPE t")
            durations.insert(data.draw(st.integers(0, len(durations)), label="at"), btpe)
        design = _binomial_channel(copies, p, tuple(durations))
    left_out = data.draw(st.integers(0, design.ell), label="left out")  # 0: none
    kept = [idx for idx in range(1, design.ell + 1) if idx != left_out] or [1]
    indices = np.array(data.draw(st.lists(st.sampled_from(kept), max_size=60)), dtype=np.int64)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ours, numpys = _stream(seed), _stream(seed)
    got = _run_lengths(ours, design, indices, invert=kind == "inverted")
    assert got is not None
    assert np.array_equal(got, _numpy_loop(numpys, design, indices))
    assert ours.random() == numpys.random()


@pytest.mark.parametrize(
    "design, inverted",
    [
        (_binomial_channel(3, 0.3, (1, 4, 9)), True),
        (_binomial_channel(3, 0.7, (1, 4, 9)), True),  # numpy draws from 1 - p and returns t - x
        (_binomial_channel(2, 0.5, (2, 7, 61)), False),  # t = 61 is past BTPE: numpy's samplers
        (design_poisson(0.05, copies=3, ell_max=3), False),
    ],
    ids=["p0.3", "p0.7", "btpe", "poisson"],
)
def test_gathered_copies_equal_a_scatter_per_index(design, inverted, monkeypatch):
    # the blocks, side by side, go back to schedule order in one gather;
    # the reference scatters each index's block into its rounds
    assert design.ell == 3
    sched = random_schedule(uniform_graph(4, design.durations), "A", 400, np.random.default_rng(9))
    calls = _record_inversion(monkeypatch)
    trace = synthesize(sched, design, seed=4, trial=1)
    assert calls == [inverted]
    assert trace.copies.dtype == np.int64 and trace.copies.shape == (design.copies, 400)
    assert np.array_equal(trace.copies, _numpy_loop(_stream(4, 1), design, sched.indices))


def test_a_uniform_on_a_pmf_sum_stays_below_it():
    # Binomial(2, 1/2) has the exact float terms 1/4, 1/2, 1/4; numpy steps on while u > px
    u = np.array([0.0, 0.25, 0.25 + 2**-53, 0.75, 0.75 + 2**-53])
    assert _invert_binomial(u, 2, 0.5).tolist() == [0, 0, 1, 1, 2]


@pytest.mark.parametrize("p", [0.5, 0.25, 0.75])
def test_inversion_ends_where_numpy_switches_to_btpe(p, monkeypatch):
    sched = random_schedule(uniform_graph(4, [1]), "A", 300, np.random.default_rng(4))
    calls = _record_inversion(monkeypatch)
    edge = round(30 / min(p, 1 - p))  # t * min(p, 1 - p) is exactly 30
    for t, inverted in ((edge, True), (edge + 1, False)):
        design = _binomial_channel(3, p, (t,))
        want = _numpy_loop(_stream(8, 2), design, sched.indices)
        assert np.array_equal(synthesize(sched, design, seed=8, trial=2).copies, want)
        assert calls.pop() is inverted and not calls


def test_a_uniform_past_numpys_bound_replays_numpys_loop(monkeypatch):
    # at t = 10, p = 0.3 the float pmf sums below 1 - 2**-53: numpy's loop
    # passes its bound there and draws again, and so must the trial
    assert _invert_binomial(np.array([1 - 2**-53]), 10, 0.3) is None
    real = prdna.simulator._stream
    made = []

    class Forced:
        def __init__(self, rng):
            self.rng = rng
            self.blocks = 0

        def random(self, size):
            u = self.rng.random(size)
            self.blocks += 1
            if self.blocks == 2:  # index 2's block: t = 10
                u[-1, -1] = 1 - 2**-53
            return u

    def stream(seed, trial=None, payload=False):
        made.append(trial)
        rng = real(seed, trial, payload)
        return Forced(rng) if len(made) == 1 else rng

    monkeypatch.setattr(prdna.simulator, "_stream", stream)
    calls = _record_inversion(monkeypatch)
    sched = random_schedule(uniform_graph(4, [2, 10]), "A", 200, np.random.default_rng(6))
    design = _binomial_channel(4, 0.3, (2, 10))
    trace = synthesize(sched, design, seed=5, trial=3)
    assert made == [3, 3] and calls == [True, False]  # the trial re-keys its stream once, for the loop
    assert np.array_equal(trace.copies, _numpy_loop(real(5, 3), design, sched.indices))


def test_poisson_traces_come_from_numpys_loop(monkeypatch):
    sched = random_schedule(uniform_graph(4, [1.0, 2.3]), "A", 300, np.random.default_rng(5))
    design = design_poisson(0.05, copies=3, ell_max=2)
    calls = _record_inversion(monkeypatch)
    want = _numpy_loop(_stream(2, 9), design, sched.indices)
    assert np.array_equal(synthesize(sched, design, seed=2, trial=9).copies, want)
    assert calls == [False]


def test_random_schedule_draws_uniform_steps_and_indices():
    # the letter step (1..q-1) and the duration index (1..ell) of 20000
    # rounds, each count within 4 sigma of its binomial mean
    q, ell, n = 4, 3, 20000
    g = uniform_graph(q, [1, 2, 3])
    sched = random_schedule(g, "A", n, np.random.default_rng(12))
    positions = [g.alphabet.index("A")] + sched.positions.tolist()
    steps = np.diff(positions) % q
    for values, k in ((steps, q - 1), (sched.indices, ell)):
        counts = np.bincount(values, minlength=k + 1)
        assert counts[0] == 0 and counts.sum() == n
        sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
        assert np.all(np.abs(counts[1:] - n / k) < 4 * sigma), counts


def test_payload_and_channel_noise_use_separate_streams(monkeypatch):
    # copy 0's run in round 0, over trials whose round 0 has index 1
    # (duration 2): Binomial(2, 1/2) gives 0, 1, 2 with chance 1/4, 1/2,
    # 1/4.  A payload drawn from the channel's own words never leaves a 2.
    setup = PipelineSetup.for_design(design_binomial(0.5, 0.02, 5, 10), payload_rounds=20)
    real = prdna.simulator.synthesize
    runs = []

    def recording(schedule, design, seed, trial=None):
        trace = real(schedule, design, seed, trial)
        if schedule.rounds[0][1] == 1:
            runs.append(int(trace.copies[0, 0]))
        return trace

    monkeypatch.setattr(prdna.simulator, "synthesize", recording)
    for trial in range(600):
        run_schedule_trial(setup, 71, trial)
    counts = np.bincount(runs, minlength=3)
    assert counts.sum() > 200
    for count, chance in zip(counts, (0.25, 0.5, 0.25)):
        sigma = math.sqrt(len(runs) * chance * (1 - chance))
        assert abs(count - len(runs) * chance) < 4 * sigma, counts
    for seed, trial in ((0, 0), (71, 5)):
        noise = _stream(seed, trial).bit_generator.random_raw()
        assert _stream(seed, trial, payload=True).bit_generator.random_raw() != noise


def test_synthesize_is_deterministic_under_seed():
    g = uniform_graph(4, [1, 2])
    sched = random_schedule(g, "A", 50, np.random.default_rng(3))
    channel = _binomial_channel(3, 0.6, (1, 2))
    a = synthesize(sched, channel, seed=7, trial=4)
    b = synthesize(sched, channel, seed=7, trial=4)
    c = synthesize(sched, channel, seed=7, trial=5)
    assert np.array_equal(a.copies, b.copies)
    assert not np.array_equal(a.copies, c.copies)


def test_trace_shape_and_poisson_family():
    g = uniform_graph(4, [1.0, 2.3])
    sched = random_schedule(g, "A", 100, np.random.default_rng(5))
    design = design_poisson(0.05, copies=3, ell_max=2)
    trace = synthesize(sched, design, seed=2)
    assert trace.copies.shape == (3, 100)
    assert trace.copies.min() >= 0


def test_trace_rounds_and_decisions_are_int64_arrays():
    g = uniform_graph(4, [1, 2])
    sched = random_schedule(g, "A", 400, np.random.default_rng(1))
    design = design_binomial(0.5, 0.1, copies=2, max_duration=10)
    trace = synthesize(sched, design, seed=6)
    zero = trace.copies == 0
    for rounds, expected in (
        (trace.rounds_with_deletion, zero.any(axis=0)),
        (trace.rounds_fully_deleted, zero.all(axis=0)),
    ):
        assert rounds.dtype == np.int64
        assert rounds.tolist() == np.flatnonzero(expected).tolist()
    assert len(trace.rounds_fully_deleted) > 0
    assert trace.decisions.dtype == np.int64 and trace.decisions.shape == (400,)
    assert (trace.decisions[trace.rounds_fully_deleted] == 1).all()


def test_each_trial_decides_once(monkeypatch):
    # the reader and the error tally share one set of decisions per trace
    setup = PipelineSetup.for_design(design_binomial(0.5, 0.02, 5, 10), payload_rounds=50)
    calls = []

    def counted(design, sums):
        calls.append(len(sums))
        return decide(design, sums)

    monkeypatch.setattr(prdna.simulator, "decide", counted)
    report = run_schedule_trial(setup, seed=3, trial=0)
    assert report.successes == 1
    assert calls == [report.total_rounds]


def test_replaced_copies_report_their_own_deletions():
    # the deletion sets and decisions are read off the copies, so replace
    # never leaves them stale
    g = uniform_graph(4, [1, 2])
    sched = random_schedule(g, "A", 400, np.random.default_rng(1))
    design = design_binomial(0.5, 0.1, copies=2, max_duration=10)
    trace = synthesize(sched, design, seed=6)
    assert len(trace.rounds_fully_deleted) > 0
    lengths = trace.copies + 1
    lengths[:, 10] = 0
    lengths[0, 20] = 0
    before = trace.decisions
    injected = replace(trace, copies=lengths)
    assert injected.rounds_fully_deleted.tolist() == [10]
    assert injected.rounds_with_deletion.tolist() == [10, 20]
    assert injected.decisions.tolist() == decide(design, lengths.sum(axis=0))[0].tolist()
    assert not np.array_equal(injected.decisions, before)
    assert trace.decisions is before


def test_deletion_probability_decays_geometrically_in_copies():
    # same duration-2 rounds, p=0.5: a copy misses a round with chance
    # 0.25, all five copies only with chance 0.25**5
    g = uniform_graph(4, [2])
    sched = random_schedule(g, "A", 20000, np.random.default_rng(8))
    single = synthesize(sched, _binomial_channel(1, 0.5, (2,)), seed=31)
    multi = synthesize(sched, _binomial_channel(5, 0.5, (2,)), seed=32)
    rate1 = len(single.rounds_fully_deleted) / 20000
    rate5 = len(multi.rounds_fully_deleted) / 20000
    assert abs(rate1 - 0.25) < 0.01
    assert rate5 <= rate1**5 * 1.5


# ---------------------------------------------------------------------------
# Reading and decoding
# ---------------------------------------------------------------------------

def test_near_noiseless_channel_always_succeeds():
    design = design_binomial(0.999, 0.02, copies=1, max_duration=10)
    setup = PipelineSetup.for_design(design, payload_rounds=100)
    report = simulate_schedules(setup, trials=100, seed=11)
    assert report.success_rate == 1.0
    assert report.unrecoverable == 0


def test_per_index_error_rates_match_exact_probabilities():
    design = design_binomial(0.7, 0.1, copies=1, max_duration=10)
    assert design.ell >= 2
    setup = PipelineSetup.for_design(design, payload_rounds=10_000)
    report = run_schedule_trial(setup, seed=17, trial=0)
    exact = exact_error_probabilities(design)
    for i in range(1, design.ell + 1):
        n = report.per_index_rounds[i - 1]
        assert n > 1000
        sigma = math.sqrt(exact[i - 1] * (1 - exact[i - 1]) / n)
        assert abs(report.error_rate(i) - exact[i - 1]) < 3 * sigma + 1e-9, i


def test_fault_injected_full_deletion_is_counted_and_corrected():
    design = design_binomial(0.9, 0.05, copies=2, max_duration=10)
    setup = PipelineSetup.for_design(design, payload_rounds=60)
    rng = np.random.default_rng(23)
    payload = random_schedule(setup.graph, "A", 60, rng)
    full = attach_redundancy(setup.graph, payload, setup.plan, setup.ecc)
    trace = synthesize(full, design, seed=3)
    lengths = trace.copies.copy()
    lengths[:, 10] = 0
    injected = replace(trace, copies=lengths)
    assert 10 in injected.rounds_fully_deleted
    corrected = read_and_decode(injected, setup)
    assert corrected.indices.tolist() == payload.indices.tolist()
    assert injected.decisions[10] == 1  # deleted rounds map to the shortest duration


def test_strict_deletions_raise_on_appended_rounds():
    # single copy, loss-prone letters: an appended round deleted in the
    # only copy aborts under the strict reading
    design = design_binomial(0.4, 0.3, copies=1, max_duration=10)
    assert design.ell >= 2
    setup = PipelineSetup.for_design(design, payload_rounds=120)
    rng = np.random.default_rng(2)
    payload = random_schedule(setup.graph, "A", 120, rng)
    full = attach_redundancy(setup.graph, payload, setup.plan, setup.ecc)
    trace = synthesize(full, design, seed=5)
    s = setup.plan.payload_rounds
    assert any(r >= s for r in trace.rounds_fully_deleted)
    with pytest.raises(EccError):
        read_and_decode(trace, replace(setup, strict_deletions=True))
    # default reading keeps letters and recovers
    corrected = read_and_decode(trace, setup)
    assert corrected.indices.tolist() == payload.indices.tolist()


def test_unrecoverable_when_errors_exceed_radius():
    design = design_binomial(0.5, 0.1, copies=3, max_duration=10)
    assert design.ell == 2
    graph = uniform_graph(4, design.durations)
    ecc = ReedSolomonCode(200, design.ell, 1)  # radius far below the error load
    rng = np.random.default_rng(4)
    payload = random_schedule(graph, "A", 200, rng)
    plan = replace(
        plan_redundancy(200, design.error_budget, design.ell, 4),
        parity_symbols=ecc.parity_len, radius_target=1,
    )
    full = attach_redundancy(graph, payload, plan, ecc)
    trace = synthesize(full, design, seed=9)
    setup = PipelineSetup(graph=graph, design=design, plan=plan, ecc=ecc)
    with pytest.raises(EccError):
        read_and_decode(trace, setup)


def test_poisson_pipeline_end_to_end():
    # real-valued durations: schedule recovery works without bit decoding
    design = design_poisson(0.05, copies=4, ell_max=4)
    setup = PipelineSetup.for_design(design, payload_rounds=100)
    assert not setup.graph.is_integer()
    report = simulate_schedules(setup, trials=20, seed=14)
    assert report.success_rate >= 0.9
    assert report.unrecoverable == 0
    for i in range(1, design.ell + 1):
        assert report.error_rate(i) <= design.error_budget + 3 * 0.05


def test_single_duration_design_needs_no_parity():
    design = design_binomial(0.5, 0.1, copies=1, max_duration=10)
    assert design.ell == 1
    setup = PipelineSetup.for_design(design, payload_rounds=50)
    assert setup.plan.parity_symbols == 0 and setup.ecc is None
    report = simulate_schedules(setup, trials=10, seed=3)
    assert report.success_rate == 1.0  # one index value: decisions cannot stray


def test_parallel_trials_match_sequential():
    design = design_binomial(0.8, 0.1, copies=2, max_duration=10)
    setup = PipelineSetup.for_design(design, payload_rounds=40)
    seq = simulate_schedules(setup, trials=6, seed=51, jobs=1)
    par = simulate_schedules(setup, trials=6, seed=51, jobs=2)
    assert seq.successes == par.successes
    assert seq.per_index_errors == par.per_index_errors
    assert seq.per_index_rounds == par.per_index_rounds
    assert seq.synthesis_time == par.synthesis_time


def test_strict_reading_travels_to_workers():
    # one copy, loss-prone letters: the strict reader gives up on some
    # trials, and the setup carries that mode into every worker
    setup = PipelineSetup.for_design(design_binomial(0.4, 0.3, copies=1, max_duration=10), 120)
    strict = replace(setup, strict_deletions=True)
    seq = simulate_schedules(strict, trials=30, seed=2, jobs=1)
    assert seq.unrecoverable > simulate_schedules(setup, trials=30, seed=2).unrecoverable
    assert simulate_schedules(strict, trials=30, seed=2, jobs=2) == seq


def _record_pool(monkeypatch, cores) -> list:
    # the worker count of every pool simulate_schedules opens on a host
    # with `cores` cores; this stub runs the chunks in-process
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, list(chunks))

    monkeypatch.setattr(prdna.simulator, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(prdna.simulator.os, "cpu_count", lambda: cores)
    return started


@pytest.mark.parametrize("trials, jobs", [(2, 6), (3, 3), (5, 2)])
def test_parallel_trials_fork_no_more_workers_than_trials(monkeypatch, trials, jobs):
    # the pool forks every worker up front, so a worker beyond the trial
    # count would only be forked
    started = _record_pool(monkeypatch, cores=8)
    setup = PipelineSetup.for_design(design_binomial(0.8, 0.1, copies=2, max_duration=10), 40)
    par = simulate_schedules(setup, trials=trials, seed=51, jobs=jobs)
    assert started == [min(jobs, trials)]
    assert par == simulate_schedules(setup, trials=trials, seed=51, jobs=1)


@pytest.mark.parametrize("cores, workers", [(2, [2]), (1, []), (None, [])], ids=["2", "1", "None"])
def test_parallel_trials_fork_no_more_workers_than_cores(monkeypatch, cores, workers):
    # --jobs 1000 forks one worker per core, and none on one core or an
    # unknown count; the report does not depend on the jobs
    started = _record_pool(monkeypatch, cores)
    setup = PipelineSetup.for_design(design_binomial(0.8, 0.1, copies=2, max_duration=10), 40)
    par = simulate_schedules(setup, trials=6, seed=51, jobs=1000)
    assert started == workers
    assert par == simulate_schedules(setup, trials=6, seed=51, jobs=1)


# The report of the standard design at s=500 (binomial p=0.5, delta=0.02,
# N=5, M=10), pinned byte for byte: faster kernels must leave every trial
# bit-identical.
GOLDEN_REPORT_S500 = """{
  "trials": 3,
  "successes": 3,
  "success_rate": 1.0,
  "unrecoverable": 0,
  "per_index_error_rates": [
    0.012032085561497326,
    0.010638297872340425
  ],
  "per_index_confidence_radii": [
    0.011959480962909583,
    0.011223439119102941
  ],
  "rounds_with_deletion": 1158,
  "rounds_fully_deleted": 3,
  "total_rounds": 2190,
  "bits_per_time": 0.6963995668651868,
  "seed": 1
}"""


def test_standard_design_report_is_pinned():
    setup = PipelineSetup.for_design(design_binomial(0.5, 0.02, 5, 10), 500)
    assert simulate_schedules(setup, 3, seed=1).to_json() == GOLDEN_REPORT_S500


def test_standard_design_sizes_for_its_exact_misread():
    # the budget is 0.02; the design's exact worst misread is 3/256
    setup = PipelineSetup.for_design(design_binomial(0.5, 0.02, 5, 10), 500)
    assert (setup.plan.delta, setup.plan.radius_target) == (0.01171875, 20)


def test_block_failures_stay_within_the_sized_tail():
    # At 1e-6 no affordable run can see a failure, so size a code for a
    # 1e-2 tail of Binomial(s, exact worst misread) and watch it fail.
    design = design_binomial(0.5, 0.02, 5, 10)
    s, eps = 500, 1e-2
    misread = max(exact_error_probabilities(design))
    radius = next(r for r in range(s + 1) if stats.binom.sf(r, s, misread) <= eps)
    ecc = ReedSolomonCode(s, design.ell, radius)
    setup = PipelineSetup.for_design(design, s)
    setup = replace(
        setup, ecc=ecc,
        plan=replace(setup.plan, parity_symbols=ecc.parity_len, radius_target=radius),
    )
    report = simulate_schedules(setup, 1000, seed=2)
    failures = report.trials - report.successes
    interval = stats.binomtest(failures, report.trials).proportion_ci(method="exact")
    print(f"radius {radius}: {failures}/{report.trials} blocks failed, "
          f"Clopper-Pearson [{interval.low:.2e}, {interval.high:.2e}]")
    assert interval.low <= eps


def test_report_json_fields():
    design = design_binomial(0.9, 0.05, copies=1, max_duration=10)
    setup = PipelineSetup.for_design(design, payload_rounds=30)
    report = simulate_schedules(setup, trials=5, seed=60)
    import json

    data = json.loads(report.to_json())
    assert data["trials"] == 5
    assert data["seed"] == 60
    assert len(data["per_index_error_rates"]) == design.ell
    assert 0 <= data["success_rate"] <= 1


# ---------------------------------------------------------------------------
# Rate curves
# ---------------------------------------------------------------------------

def test_rate_point_solves_capacity_once(monkeypatch):
    real = prdna.graph.capacity
    calls = []

    def counted(graph):
        calls.append(graph)
        return real(graph)

    # a module that imported the solver by name is counted as well
    for module in (prdna.graph, prdna.codec, prdna.simulator):
        if getattr(module, "capacity", None) is real:
            monkeypatch.setattr(module, "capacity", counted)
    points = rate_curve("binomial", "p", [0.5], delta=0.02, copies=5, max_duration=10)
    assert points[0].status == "ok"
    assert len(calls) == 1
    calls.clear()
    synthesis_time_bound(1000, uniform_graph(4, [1, 2]), 0.02, mode="expected")
    assert len(calls) == 1


def test_rate_curve_exceeds_three_letter_limit():
    points = rate_curve(
        "binomial", "p", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95],
        delta=0.02, copies=5, max_duration=10,
    )
    best = max(pt.rate_bound for pt in points if pt.status == "ok")
    assert best > math.log2(3)


def test_rate_curve_marks_infeasible_points():
    points = rate_curve(
        "binomial", "p", [0.05, 0.5], delta=0.02, copies=1, max_duration=10
    )
    assert points[0].status == "infeasible"
    assert points[0].rate_bound is None
    assert points[1].status == "ok"


def test_rate_curve_extreme_budget_collapses_to_single_duration():
    # with the duration cap binding, designs keep only one duration and
    # the rate is exactly the single-duration capacity log2(3)/t1
    points = rate_curve(
        "binomial", "delta", [0.05, 0.45], p=0.3, copies=1, max_duration=10
    )
    for pt in points:
        assert pt.ell == 1
    design = design_binomial(0.3, 0.45, copies=1, max_duration=10)
    expected = math.log2(3) / design.durations[0]
    assert abs(points[-1].rate_bound - expected) < 1e-9


def test_rate_curve_poisson_rate_column():
    points = rate_curve("poisson", "N", list(range(1, 11)), delta=0.02, ell_max=10)
    lambdas = [pt.lambda1 for pt in points]
    for n, lam in zip(range(1, 11), lambdas):
        assert abs(lam - math.log(100) / n) < 1e-12
    assert all(a > b for a, b in zip(lambdas, lambdas[1:]))


def test_rate_curve_caps_poisson_durations():
    capped = rate_curve("poisson", "delta", [0.02], copies=5, max_duration=3)[0]
    design = design_poisson(0.02, 5, ell_max=10, max_duration=3)
    assert (capped.ell, capped.max_duration) == (design.ell, 3) == (2, 3)
    uncapped = rate_curve("poisson", "delta", [0.02], copies=5)[0]
    assert (uncapped.ell, uncapped.max_duration) == (10, None)
    # binomial designs fall back to a cap of 10, and the row says so
    assert rate_curve("binomial", "p", [0.5], delta=0.02, copies=5)[0] == rate_curve(
        "binomial", "p", [0.5], delta=0.02, copies=5, max_duration=10
    )[0]


def test_rate_curve_refuses_a_fractional_binomial_cap():
    # a binomial design counts whole time units; a Poisson cap stays real
    with pytest.raises(ValueError, match="max duration 3.5 is not a whole number"):
        rate_curve("binomial", "N", [1, 2], p=0.3, delta=0.02, max_duration=3.5)
    assert rate_curve("binomial", "N", [2], p=0.5, delta=0.02, max_duration=10.0) == rate_curve(
        "binomial", "N", [2], p=0.5, delta=0.02, max_duration=10
    )
    point = rate_curve("poisson", "delta", [0.02], copies=5, max_duration=3.5)[0]
    assert (point.status, point.max_duration) == ("ok", 3.5)


@pytest.mark.parametrize(
    "family, sweep, values, fixed",
    [
        ("binomial", "p", [0.5], dict(p=0.3, delta=0.02, copies=5)),
        ("binomial", "delta", [0.02], dict(p=0.5, delta=0.05, copies=5)),
        ("binomial", "N", [5], dict(p=0.5, delta=0.02, copies=3)),
        ("poisson", "N", [5], dict(delta=0.02, copies=3)),
    ],
)
def test_rate_curve_refuses_a_fixed_value_of_the_swept_parameter(family, sweep, values, fixed):
    # the sweep would silently drop the fixed value
    with pytest.raises(ValueError, match=f"the sweep sets {sweep}; a fixed {sweep} would be ignored"):
        rate_curve(family, sweep, values, **fixed)


def test_rate_curve_is_deterministic():
    kwargs = dict(delta=0.05, copies=3, max_duration=10)
    a = rate_curve_csv(rate_curve("binomial", "p", [0.4, 0.6, 0.8], **kwargs))
    b = rate_curve_csv(rate_curve("binomial", "p", [0.4, 0.6, 0.8], **kwargs))
    assert a == b
    assert a.startswith("param,N,delta,M,ell,capacity_bits_per_time,alpha,rate_thm2")
