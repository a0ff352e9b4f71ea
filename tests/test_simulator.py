"""Channel sampling, read path, deletion accounting, rate sweeps."""

import math

import numpy as np
import pytest

from prdna.codec import attach_redundancy, plan_redundancy
from prdna.ecc import ReedSolomonCode
from prdna.graph import uniform_graph
from prdna.quantizer import (
    BINOMIAL,
    QuantizerDesign,
    design_binomial,
    design_poisson,
    exact_error_probabilities,
)
from prdna.simulator import (
    ChannelTrace,
    PipelineSetup,
    Unrecoverable,
    quantize_trace,
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


def _trace_with_lengths(trace: ChannelTrace, lengths: np.ndarray) -> ChannelTrace:
    zero = lengths == 0
    return ChannelTrace(
        schedule=trace.schedule,
        copies=lengths,
        rounds_with_deletion=tuple(np.nonzero(zero.any(axis=0))[0]),
        rounds_fully_deleted=tuple(np.nonzero(zero.all(axis=0))[0]),
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
    injected = _trace_with_lengths(trace, lengths)
    assert 10 in injected.rounds_fully_deleted
    _, corrected = read_and_decode(
        injected, design, setup.plan, setup.ecc, setup.graph, None
    )
    assert tuple(corrected) == payload.indices()
    decided = quantize_trace(injected, design).quantized[10]
    assert decided == 1  # deleted rounds map to the shortest duration


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
    with pytest.raises(Unrecoverable):
        read_and_decode(
            trace, design, setup.plan, setup.ecc, setup.graph, None,
            strict_deletions=True,
        )
    # default reading keeps letters and recovers
    _, corrected = read_and_decode(
        trace, design, setup.plan, setup.ecc, setup.graph, None
    )
    assert tuple(corrected) == payload.indices()


def test_unrecoverable_when_errors_exceed_radius():
    design = design_binomial(0.5, 0.1, copies=3, max_duration=10)
    assert design.ell == 2
    graph = uniform_graph(4, design.durations)
    ecc = ReedSolomonCode(200, design.ell, 1)  # radius far below the error load
    rng = np.random.default_rng(4)
    payload = random_schedule(graph, "A", 200, rng)
    plan = plan_redundancy(200, design.error_budget, design.ell, 4, margin=0.0)
    assert plan.parity_symbols >= ecc.parity_len  # the formula block holds the code's parity
    full = attach_redundancy(graph, payload, plan, ecc)
    trace = synthesize(full, design, seed=9)
    with pytest.raises(Unrecoverable):
        read_and_decode(trace, design, plan, ecc, graph, None)


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


# The report of the standard design at s=500 (binomial p=0.5, delta=0.02,
# N=5, M=10), pinned byte for byte: faster kernels must leave every trial
# bit-identical.
GOLDEN_REPORT_S500 = """{
  "trials": 3,
  "successes": 3,
  "success_rate": 1.0,
  "unrecoverable": 0,
  "per_index_error_rates": [
    0.013642564802182811,
    0.01303780964797914
  ],
  "per_index_confidence_radii": [
    0.012853885927009371,
    0.01228785699812364
  ],
  "rounds_with_deletion": 2878,
  "rounds_fully_deleted": 4,
  "total_rounds": 4455,
  "bits_per_time": 0.4337952913675071,
  "seed": 1
}"""


def test_standard_design_report_is_pinned():
    setup = PipelineSetup.for_design(design_binomial(0.5, 0.02, 5, 10), 500)
    assert simulate_schedules(setup, 3, seed=1).to_json() == GOLDEN_REPORT_S500


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


def test_rate_curve_is_deterministic():
    kwargs = dict(delta=0.05, copies=3, max_duration=10)
    a = rate_curve_csv(rate_curve("binomial", "p", [0.4, 0.6, 0.8], **kwargs))
    b = rate_curve_csv(rate_curve("binomial", "p", [0.4, 0.6, 0.8], **kwargs))
    assert a == b
    assert a.startswith("param,N,delta,M,ell,capacity_bits_per_time,alpha,rate_thm2")


def test_trace_json_dump():
    import json

    from prdna.simulator import trace_to_json

    g = uniform_graph(4, [1, 2])
    sched = random_schedule(g, "A", 10, np.random.default_rng(1))
    design = design_binomial(0.8, 0.1, copies=2, max_duration=10)
    trace = quantize_trace(synthesize(sched, design, seed=6), design)
    data = json.loads(trace_to_json(trace))
    assert len(data["copies"]) == 2 and len(data["copies"][0]) == 10
    assert len(data["quantized"]) == 10
    assert data["rounds"] == [[a, i] for a, i in sched.rounds]
