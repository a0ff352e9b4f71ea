"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from prdna.codec import (
    attach_redundancy,
    code_rate,
    make_schedule,
    max_payload_bits,
    plan_redundancy,
    rank_schedule,
    strip_and_correct,
    synthesis_time_bound,
    unrank_schedule,
)
from prdna.graph import (
    capacity,
    count_schedules,
    iter_schedules,
    ordinary_expand,
    rounds_to_word,
    uniform_graph,
)
from prdna.quantizer import (
    Infeasible,
    design_binomial,
    design_poisson,
    exact_error_probabilities,
)
from prdna.simulator import PipelineSetup, random_schedule, rate_curve, simulate_schedules

MC_SEED = 20240501
MC_TRIALS = 100_000

BINOMIAL_GRID = [
    (p, d, n)
    for p in (0.3, 0.5, 0.7, 0.9)
    for d in (0.02, 0.05, 0.1)
    for n in (1, 3, 5)
]
POISSON_GRID = [(d, n) for d in (0.02, 0.05, 0.1) for n in range(1, 11)]


def _report(name: str, detail: str):
    print(f"CRITERION {name}: PASS — {detail}")


def _power_iteration_radius(mat, iters=50_000, tol=1e-14):
    mat = np.asarray(mat, dtype=float)
    x = np.full(mat.shape[0], 1.0)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = mat @ x
        lam_new = float(x @ y)
        x = y / np.linalg.norm(y)
        if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def test_criterion_1_capacity_exactness():
    start = time.perf_counter()
    unit = capacity(uniform_graph(4, [1]))
    assert abs(unit.capacity - math.log2(3)) < 1e-9

    two = capacity(uniform_graph(4, [1, 2]))
    closed_form = math.log2((3 + math.sqrt(21)) / 2)
    assert abs(two.capacity - closed_form) < 1e-9

    oracle = math.log2(_power_iteration_radius(ordinary_expand(uniform_graph(4, [1, 2]))))
    assert abs(two.capacity - oracle) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1", f"capacities match log2(3) and log2((3+sqrt(21))/2) to 1e-9 in {elapsed:.3f}s")


def test_criterion_2_losslessness_by_exhaustion():
    start = time.perf_counter()
    checked = 0
    for menu in ([1], [1, 2], [1, 3]):
        graph = uniform_graph(4, menu)
        for origin in graph.alphabet.letters:
            seen = set()
            for total in range(1, 7):
                for rounds in iter_schedules(graph, origin, total):
                    key = (rounds[-1][0], rounds_to_word(graph, origin, rounds))
                    assert key not in seen, (menu, origin, key)
                    seen.add(key)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("2", f"{checked} schedules map to distinct words per (start, end) in {elapsed:.1f}s")


def test_criterion_3_quantizer_guarantee():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(MC_SEED))
    radius_denominator = math.sqrt(MC_TRIALS)
    designs = 0
    infeasible = 0
    indices_checked = 0

    def check(design, p_or_none):
        nonlocal indices_checked
        exact = exact_error_probabilities(design)
        assert max(exact) <= design.error_budget  # zero tolerance
        radius = 3 * math.sqrt(design.error_budget * (1 - design.error_budget)) / radius_denominator
        for i in range(1, design.ell + 1):
            if p_or_none is not None:
                draws = rng.binomial(
                    int(design.durations[i - 1]), p_or_none,
                    size=(MC_TRIALS, design.copies),
                )
            else:
                draws = rng.poisson(design.rates[i - 1], size=(MC_TRIALS, design.copies))
            sums = draws.sum(axis=1)
            wrong = sums <= design.sum_thresholds[i - 1]
            if i < design.ell:
                wrong |= sums > design.sum_thresholds[i]
            assert abs(float(wrong.mean()) - exact[i - 1]) <= radius, (design.family, i)
            indices_checked += 1

    for p, delta, copies in BINOMIAL_GRID:
        try:
            design = design_binomial(p, delta, copies, 10)
        except Infeasible:
            # genuinely infeasible: even the longest round dies too often
            assert (1 - p) ** (copies * 10) > delta
            infeasible += 1
            continue
        designs += 1
        check(design, p)

    for delta, copies in POISSON_GRID:
        design = design_poisson(delta, copies, ell_max=10)
        assert design.ell == 10
        designs += 1
        check(design, None)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        "3",
        f"{designs} designs ({infeasible} infeasible grid points), "
        f"{indices_checked} indices: exact error <= budget and Monte Carlo "
        f"within 3 sigma in {elapsed:.0f}s",
    )


def test_criterion_4_poisson_rate_identity():
    lambdas_by_n = {}
    for delta, copies in POISSON_GRID:
        design = design_poisson(delta, copies, ell_max=10)
        lam = design.rates[0]
        assert abs(lam - math.log(2 / delta) / copies) < 1e-12
        assert abs(math.exp(-copies * lam) - delta / 2) < 1e-12
        lambdas_by_n.setdefault(delta, []).append(lam)
    for delta, lams in lambdas_by_n.items():
        assert all(a > b for a, b in zip(lams, lams[1:])), delta
    _report("4", "first rate equals ln(2/delta)/N to 1e-12 and decreases in N on the grid")


def test_criterion_5_rate_beyond_three_letters():
    points = rate_curve(
        "binomial", "p",
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
        delta=0.02, copies=5, max_duration=10,
    )
    rates = [pt.rate_bound for pt in points if pt.status == "ok"]
    best = max(rates)
    assert best > math.log2(3)
    _report("5", f"best expected-time rate {best:.4f} bits/time exceeds log2(3)={math.log2(3):.4f}")


def test_criterion_6_overhead_formulas():
    graph = uniform_graph(4, [1, 2])
    cap = capacity(graph).capacity
    for mode in ("worst", "expected"):
        assert abs(synthesis_time_bound(1000, graph, 0.0, mode) - 1000 / cap) < 1e-9

    bound = synthesis_time_bound(1000, graph, 0.02, "worst")
    hand = 1000 / math.log2((3 + math.sqrt(21)) / 2) * (
        1 + (1 / code_rate(0.02, 2) - 1) * math.log(2) / math.log(3)
    )
    assert abs(bound - hand) < 1e-9
    assert abs(bound - 574.2) <= 0.1

    for menu in ([1], [1, 2], [1, 3], [2, 5], [1, 2, 4], [2, 3, 7]):
        g = uniform_graph(4, menu)
        for delta in (0.02, 0.1):
            worst = synthesis_time_bound(700, g, delta, "worst")
            expected = synthesis_time_bound(700, g, delta, "expected")
            assert expected <= worst + 1e-12, (menu, delta)
    _report("6", f"noiseless bound is k/capacity; worked value {bound:.1f} within 574.2±0.1; expected<=worst")


def test_criterion_7_end_to_end_pipeline():
    start = time.perf_counter()
    design = design_binomial(0.5, 0.02, copies=5, max_duration=10)
    setup = PipelineSetup.for_design(design, payload_rounds=500)
    report = simulate_schedules(setup, trials=200, seed=424242)
    assert report.trials == 200
    assert report.success_rate >= 0.99

    # adversarial flips: exactly floor(delta * s) corrupted indices must
    # always come back, wherever they land
    s = 500
    flips = int(design.error_budget * s)
    assert flips <= setup.plan.radius_target
    rng = np.random.default_rng(99)
    recovered = 0
    patterns = []
    patterns.append(list(range(flips)))                  # leading block
    patterns.append(list(range(s - flips, s)))           # trailing block
    for _ in range(8):
        patterns.append(sorted(rng.choice(s, size=flips, replace=False).tolist()))
    for positions in patterns:
        payload = random_schedule(setup.graph, "A", s, rng)
        full = attach_redundancy(setup.graph, payload, setup.plan, setup.ecc)
        corrupted = full.indices.copy()
        for pos in positions:
            corrupted[pos] = (corrupted[pos] % design.ell) + 1
        fixed = strip_and_correct(setup.graph, replace(full, indices=corrupted), setup.plan, setup.ecc)
        if fixed.indices.tolist() == payload.indices.tolist():
            recovered += 1
    assert recovered == len(patterns)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "7",
        f"success rate {report.success_rate:.3f} over 200 trials; "
        f"{recovered}/{len(patterns)} adversarial {flips}-flip patterns recovered in {elapsed:.0f}s",
    )


def test_criterion_8_enumerative_codec():
    graph = uniform_graph(4, [1, 2])
    total_checked = 0
    for total in range(0, 11):
        listed = 0
        for k, rounds in enumerate(iter_schedules(graph, "A", total)):
            assert unrank_schedule(graph, "A", total, k).rounds == rounds, (total, k)
            listed += 1
        assert listed == count_schedules(graph, "A", total), total
        total_checked += listed
    # rank is the exact inverse on a mid-size budget, position by position
    for k, rounds in enumerate(iter_schedules(graph, "A", 8)):
        assert rank_schedule(graph, make_schedule(graph, "A", rounds), 8) == k

    unit = uniform_graph(4, [1])
    bits_per_time = max_payload_bits(unit, "A", 200) / 200
    assert bits_per_time >= math.log2(3) - 0.05
    _report(
        "8",
        f"unrank equals enumeration for all {total_checked} schedules with T<=10; "
        f"rate at T=200 is {bits_per_time:.3f} bits/time",
    )
