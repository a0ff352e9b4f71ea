"""Quantizer design steps, decision rule, and exact error guarantees."""

import json
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from prdna.graph import uniform_graph
from prdna.quantizer import (
    _SCAN_BLOCK,
    Infeasible,
    QuantizerDesign,
    _blocks,
    decide,
    design_binomial,
    design_from_json,
    design_poisson,
    design_table,
    design_to_json,
    exact_error_probabilities,
)
from prdna.simulator import random_schedule, synthesize

BINOMIAL_GRID = [
    (p, d, n)
    for p in (0.3, 0.5, 0.7, 0.9)
    for d in (0.02, 0.05, 0.1)
    for n in (1, 3, 5)
]


# ---------------------------------------------------------------------------
# Exact-rational re-execution of the binomial design steps
# ---------------------------------------------------------------------------

def _frac_cdf(x, n, p):
    return sum(Fraction(comb(n, k)) * p**k * (1 - p) ** (n - k) for k in range(min(x, n) + 1))


def rational_binomial_design(p: Fraction, delta: Fraction, copies: int, max_duration: int):
    """Step-by-step design re-run in exact rational arithmetic."""
    t1 = next(
        (t for t in range(1, max_duration + 1) if (1 - p) ** (copies * t) <= delta),
        None,
    )
    if t1 is None:
        return None
    ts, taus = [t1], [0]
    x = 1
    while (1 - _frac_cdf(x, copies * t1, p)) + _frac_cdf(0, copies * t1, p) > delta:
        x += 1
    taus.append(x)
    while True:
        t_prev, tau_prev = ts[-1], taus[-1]
        found = None
        for t in range(t_prev + 1, max_duration + 1):
            lhs = Fraction(comb(copies * t, tau_prev)) * (1 - p) ** (copies * (t - t_prev))
            if lhs > comb(copies * t_prev, tau_prev):
                continue
            if _frac_cdf(tau_prev, copies * t, p) > delta:
                continue
            x = tau_prev + 1
            while x <= copies * t:
                if (1 - _frac_cdf(x, copies * t, p)) + _frac_cdf(tau_prev, copies * t, p) <= delta:
                    found = (t, x)
                    break
                x += 1
            if found:
                break
        if not found:
            return ts, taus
        ts.append(found[0])
        taus.append(found[1])


def ml_index(design: QuantizerDesign, total: int) -> int:
    """Brute-force likelihood argmax over the designed durations.

    Ties break toward the smaller index; a sum beyond every support maps
    to the longest duration.
    """
    best, best_ll = None, None
    for j, t in enumerate(design.durations, start=1):
        n = design.copies * int(t)
        if total > n:
            continue
        ll = (
            math.lgamma(n + 1)
            - math.lgamma(total + 1)
            - math.lgamma(n - total + 1)
            + total * math.log(design.p / (1 - design.p))
            + n * math.log(1 - design.p)
        )
        if best_ll is None or ll > best_ll + 1e-12:
            best, best_ll = j, ll
    return best if best is not None else design.ell


# ---------------------------------------------------------------------------
# Binomial designs
# ---------------------------------------------------------------------------

def test_first_duration_single_copy_half():
    # 1 - 0.5**3 = 0.875 < 0.9 <= 1 - 0.5**4
    design = design_binomial(0.5, 0.1, copies=1, max_duration=10)
    assert int(design.durations[0]) == 4
    assert design.sum_thresholds[1] == 4


def test_first_duration_high_success_probability():
    design = design_binomial(0.99, 0.1, copies=1, max_duration=10)
    assert int(design.durations[0]) == 1


def test_infeasible_when_budget_too_short():
    with pytest.raises(Infeasible):
        design_binomial(0.3, 0.02, copies=1, max_duration=10)


def test_design_matches_rational_reexecution():
    for p_num, p_den, d_num, d_den, copies in [
        (1, 2, 1, 50, 5),   # p=0.5 delta=0.02 N=5
        (7, 10, 1, 10, 3),  # p=0.7 delta=0.1  N=3
        (9, 10, 1, 20, 1),  # p=0.9 delta=0.05 N=1
    ]:
        design = design_binomial(p_num / p_den, d_num / d_den, copies, 10)
        oracle = rational_binomial_design(
            Fraction(p_num, p_den), Fraction(d_num, d_den), copies, 10
        )
        assert [int(t) for t in design.durations] == oracle[0]
        assert list(design.sum_thresholds) == oracle[1]


def test_full_grid_matches_rational_reexecution():
    for p, d, n in BINOMIAL_GRID:
        oracle = rational_binomial_design(
            Fraction(p).limit_denominator(10),
            Fraction(d).limit_denominator(100),
            n,
            10,
        )
        try:
            design = design_binomial(p, d, n, 10)
        except Infeasible:
            assert oracle is None, (p, d, n)
            continue
        assert [int(t) for t in design.durations] == oracle[0], (p, d, n)
        assert list(design.sum_thresholds) == oracle[1], (p, d, n)


def test_grid_exact_errors_within_budget():
    for p, d, n in BINOMIAL_GRID:
        try:
            design = design_binomial(p, d, n, 10)
        except Infeasible:
            continue
        assert max(exact_error_probabilities(design)) <= d, (p, d, n)


def test_ell_monotone_in_budget_and_copies():
    def ell_of(p, d, n):
        try:
            return design_binomial(p, d, n, 10).ell
        except Infeasible:
            return 0

    for p in (0.3, 0.5, 0.7, 0.9):
        for n in (1, 3, 5):
            ells = [ell_of(p, d, n) for d in (0.02, 0.05, 0.1)]
            assert ells == sorted(ells), (p, n, ells)
        for d in (0.02, 0.05, 0.1):
            ells = [ell_of(p, d, n) for n in (1, 3, 5)]
            assert ells == sorted(ells), (p, d, ells)


def test_threshold_rule_tracks_likelihood_argmax():
    # The threshold decision matches the brute-force likelihood argmax at
    # every observable sum, except that a coverage threshold may sit one
    # observation below the exact likelihood crossing; there the rule
    # prefers the next index at tau_i + 1 while the likelihoods still tie
    # toward index i.
    for p, d, n in BINOMIAL_GRID:
        try:
            design = design_binomial(p, d, n, 10)
        except Infeasible:
            continue
        top = n * int(design.durations[-1]) + 20
        for total in range(0, top + 1):
            got, _ = decide(design, total)
            want = ml_index(design, total)
            if got != want:
                assert got == want + 1, (p, d, n, total)
                assert total == design.sum_thresholds[want] + 1, (p, d, n, total)


# ---------------------------------------------------------------------------
# Poisson designs
# ---------------------------------------------------------------------------

def test_poisson_first_rate_single_copy():
    design = design_poisson(0.02, copies=1)
    assert abs(design.rates[0] - math.log(100)) < 1e-12
    assert abs(math.exp(-design.rates[0]) - 0.01) < 1e-12


def test_poisson_first_threshold_by_scan():
    design = design_poisson(0.02, copies=1)
    lam = design.rates[0]
    k = 0
    while float(stats.poisson(lam).sf(k)) > 0.01:
        k += 1
    assert design.sum_thresholds[1] == k


def test_poisson_rate_scales_with_copies():
    design = design_poisson(0.02, copies=5)
    assert abs(design.rates[0] - math.log(100) / 5) < 1e-12


def test_poisson_step1_identity_full_grid():
    for d in (0.02, 0.05, 0.1):
        for n in range(1, 11):
            design = design_poisson(d, copies=n)
            assert abs(math.exp(-n * design.rates[0]) - d / 2) < 1e-12


def test_poisson_grid_exact_errors_within_budget():
    for d in (0.02, 0.05, 0.1):
        for n in range(1, 11):
            design = design_poisson(d, copies=n, ell_max=10)
            assert design.ell == 10
            assert max(exact_error_probabilities(design)) <= d


def test_poisson_tail_bounds_hold_per_side():
    design = design_poisson(0.05, copies=3, ell_max=6)
    half = 0.025
    for i in range(1, design.ell + 1):
        dist = stats.poisson(design.copies * design.rates[i - 1])
        assert float(dist.sf(design.sum_thresholds[i])) <= half
        if i > 1:
            assert float(dist.cdf(design.sum_thresholds[i - 1])) <= half


def test_poisson_duration_budget_mode():
    capped = design_poisson(0.02, copies=1, ell_max=10, max_duration=5.0)
    assert all(t <= 5.0 for t in capped.durations)
    unlimited = design_poisson(0.02, copies=1, ell_max=10)
    assert unlimited.ell > capped.ell
    # duration law: t_j = sqrt(rate_j / rate_1)
    for t, rate in zip(unlimited.durations, unlimited.rates):
        assert abs(t - math.sqrt(rate / unlimited.rates[0])) < 1e-12


# ---------------------------------------------------------------------------
# Decision rule
# ---------------------------------------------------------------------------

def test_quantize_inside_first_interval():
    design = design_binomial(0.5, 0.1, copies=1, max_duration=10)
    assert decide(design, 3) == (1, False)


def test_quantize_boundary_is_right_closed():
    design = design_binomial(0.9, 0.02, copies=1, max_duration=10)
    for i in range(1, design.ell + 1):
        tau = design.sum_thresholds[i]
        assert decide(design, tau)[0] == i


def test_quantize_zero_sum_flags_low_confidence():
    design = design_poisson(0.02, copies=1)
    assert decide(design, 0) == (1, True)
    multi = design_poisson(0.02, copies=4)
    assert decide(multi, 0) == (1, True)


def test_quantize_clamps_above_top_threshold():
    design = design_binomial(0.9, 0.02, copies=1, max_duration=10)
    top = design.sum_thresholds[-1]
    assert decide(design, top + 15)[0] == design.ell


# ---------------------------------------------------------------------------
# Exact error probabilities
# ---------------------------------------------------------------------------

def test_exact_error_single_index_design():
    design = design_binomial(0.5, 0.1, copies=1, max_duration=10)
    assert design.ell == 1
    errors = exact_error_probabilities(design)
    # only the deleted-run mass counts: Pr(Binomial(4, 0.5) = 0)
    assert abs(errors[0] - 0.0625) < 1e-12


def test_exact_error_poisson_first_index():
    design = design_poisson(0.02, copies=1)
    errors = exact_error_probabilities(design)
    dist = stats.poisson(design.copies * design.rates[0])
    left = float(dist.cdf(0))
    right = float(dist.sf(design.sum_thresholds[1]))
    assert abs(left - 0.01) < 1e-12
    assert right <= 0.01
    assert abs(errors[0] - (left + right)) < 1e-15


def test_exact_error_interior_index_uses_both_tails():
    design = design_binomial(0.9, 0.02, copies=1, max_duration=10)
    assert design.ell >= 2
    dist = stats.binom(design.copies * int(design.durations[0]), design.p)
    manual = float(dist.cdf(design.sum_thresholds[0])) + float(dist.sf(design.sum_thresholds[1]))
    assert abs(exact_error_probabilities(design)[0] - manual) < 1e-15


def test_smoke_monte_carlo_agreement():
    design = design_binomial(0.7, 0.1, copies=3, max_duration=10)
    exact = exact_error_probabilities(design)
    rng = np.random.default_rng(7)
    trials = 20000
    for i in range(1, design.ell + 1):
        t = int(design.durations[i - 1])
        draws = rng.binomial(t, design.p, size=(trials, design.copies)).sum(axis=1)
        low = design.sum_thresholds[i - 1]
        high = design.sum_thresholds[i] if i < design.ell else None
        wrong = (draws <= low)
        if high is not None:
            wrong |= draws > high
        rate = wrong.mean()
        sigma = math.sqrt(design.error_budget * (1 - design.error_budget) / trials)
        assert abs(rate - exact[i - 1]) < 3 * sigma + 1e-9


# ---------------------------------------------------------------------------
# Serialization and reporting
# ---------------------------------------------------------------------------

def test_design_json_roundtrip_binomial():
    design = design_binomial(0.7, 0.05, copies=3, max_duration=10)
    again = design_from_json(design_to_json(design))
    assert again == design


def test_design_json_roundtrip_poisson():
    design = design_poisson(0.05, copies=4, ell_max=6)
    again = design_from_json(design_to_json(design))
    assert again == design
    data = json.loads(design_to_json(design))
    assert data["tau"][1] == design.sum_thresholds[1] / design.copies


@pytest.mark.parametrize(
    "make, other, value",
    [
        (lambda: design_binomial(0.7, 0.05, copies=3, max_duration=10), "lambda", [0.5, 1.5]),
        (lambda: design_poisson(0.05, copies=4, ell_max=3), "p", 0.5),
    ],
    ids=["binomial-with-lambda", "poisson-with-p"],
)
def test_design_json_with_the_other_familys_parameter_is_refused(make, other, value):
    # writing it back would drop the field, so the file would not round trip
    data = json.loads(design_to_json(make()))
    data[other] = value
    with pytest.raises(ValueError, match=f"carries '{other}', the other family's parameter"):
        design_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "field, value",
    [("t", "26"), ("t", [2, "6"]), ("t", [True, 6]), ("delta", "0.02"), ("delta", False),
     ("M", "10"), ("M", True), ("lambda", "12"), ("lambda", [0.5, "1.5"])],
    ids=["t-string", "t-string-entry", "t-bool-entry", "delta-string", "delta-bool",
         "M-string", "M-bool", "lambda-string", "lambda-string-entry"],
)
def test_design_json_numbers_must_be_json_numbers(field, value):
    # bare float() once read "26" as durations (2, 6) and "0.02" as a budget
    make = design_poisson if field == "lambda" else design_binomial
    design = make(0.05, copies=4, ell_max=3) if field == "lambda" else make(0.5, 0.02, copies=5, max_duration=10)
    data = json.loads(design_to_json(design))
    design_from_json(json.dumps(data))
    data[field] = value
    with pytest.raises(ValueError, match=f"design JSON field {field} holds .*not a (list of )?number"):
        design_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(copies=0), "at least one copy"),
        (dict(copies=2.5), "a whole number of them, not 2.5"),
        (dict(copies=math.nan), "a whole number of them, not nan"),
        (dict(p=None), "needs p in"),
        (dict(p=1.0), "needs p in"),
        (dict(durations=(2.5, 6)), "whole numbers"),
        (dict(family="poisson"), "one positive rate per duration"),
        (dict(family="poisson", rates=(0.5,)), "one positive rate per duration"),
        (dict(family="poisson", rates=(0.5, 0.0)), "one positive rate per duration"),
        (dict(max_duration=math.nan), "max duration nan is not finite"),
        (dict(max_duration=math.inf), "max duration inf is not finite"),
        (dict(max_duration=-4.0), "max duration -4.0 is not finite or lies below"),
        (dict(max_duration=5.0), "max duration 5.0 is not finite or lies below"),
    ],
    ids=["no-copy", "fractional-copies", "nan-copies", "binomial-no-p", "binomial-p-one", "binomial-fractional-t",
         "poisson-no-rates", "poisson-short-rates", "poisson-zero-rate",
         "cap-nan", "cap-inf", "cap-negative", "cap-below-duration"],
)
def test_design_refuses_what_the_channel_cannot_sample(change, message):
    fields = dict(
        family="binomial", durations=(2, 6), sum_thresholds=(0, 4, 20),
        error_budget=0.02, copies=5, max_duration=None, p=0.5,
    )
    QuantizerDesign(**fields)
    with pytest.raises(ValueError, match=message):
        QuantizerDesign(**{**fields, **change})


@pytest.mark.parametrize("cap", [3.5, 10.25, math.inf, math.nan])
def test_binomial_design_refuses_a_fractional_duration_cap(cap):
    # durations are whole time units; a cap of 3.5 once became 3 unseen
    with pytest.raises(ValueError, match="is not a whole number"):
        design_binomial(0.3, 0.02, copies=2, max_duration=cap)


@pytest.mark.parametrize("copies", [2.5, math.inf, math.nan])
def test_binomial_design_refuses_a_fractional_copy_count(copies):
    with pytest.raises(ValueError, match="is not a whole number"):
        design_binomial(0.5, 0.02, copies=copies, max_duration=10)


@pytest.mark.parametrize("copies", [2.5, math.inf, math.nan, 0, -3])
def test_poisson_design_refuses_a_copy_count_that_is_no_positive_whole_number(copies):
    # 2.5 copies once gave sum thresholds (0, 8, 24, 48) no whole copies produce
    with pytest.raises(ValueError, match=f"Poisson copy count {copies} is not a positive whole number"):
        design_poisson(0.05, copies, 3)


def test_poisson_design_takes_a_whole_float_copy_count_as_its_integer():
    design = design_poisson(0.05, 3.0, 3)
    assert design == design_poisson(0.05, 3, 3)
    assert type(design.copies) is int


def test_binomial_design_takes_a_whole_float_cap_as_its_integer():
    assert design_binomial(0.5, 0.02, 5, 10.0) == design_binomial(0.5, 0.02, 5, 10)
    assert design_binomial(0.5, 0.02, 5.0, 10).copies == 5
    with pytest.raises(Infeasible, match="no duration up to 3 "):
        design_binomial(0.3, 0.02, copies=2, max_duration=3.0)


def test_poisson_design_below_its_first_duration_is_infeasible():
    # the first duration is 1 whatever the rates, so a smaller cap admits none
    with pytest.raises(Infeasible, match="no duration up to 0.5"):
        design_poisson(0.02, copies=5, max_duration=0.5)
    assert design_poisson(0.02, copies=5, ell_max=10, max_duration=1.0).durations == (1.0,)


@pytest.mark.parametrize("cap", [math.inf, math.nan])
def test_poisson_design_refuses_a_non_finite_duration_cap(cap):
    # the index limit would end the design, but the cap is refused all the same
    for ell_max in (4, 10):
        with pytest.raises(ValueError, match="is not finite"):
            design_poisson(0.05, 3, ell_max=ell_max, max_duration=cap)


@pytest.mark.parametrize("start", [0, 7])
def test_blocks_grow_from_32_candidates_by_doubling(start):
    # the duration scan's blocks: start + 31 ends the first, start + 32 opens the second
    blocks = list(_blocks(start, start + 1000))
    assert [len(b) for b in blocks[:3]] == [32, 64, 128]
    assert [int(b[0]) for b in blocks[:3]] == [start, start + 32, start + 96]


def test_blocks_include_their_stop():
    assert int(list(_blocks(10, 50))[-1][-1]) == 50
    assert [b.tolist() for b in _blocks(50, 50)] == [[50]]
    assert int(list(_blocks(10, 49))[-1][-1]) == 49


def test_blocks_of_an_empty_range_are_none():
    assert list(_blocks(5, 4)) == []


def test_blocks_cover_a_range_in_bounded_int64_blocks():
    blocks = list(_blocks(3, 20_000))
    assert np.array_equal(np.concatenate(blocks), np.arange(3, 20_001))
    assert max(len(b) for b in blocks) == _SCAN_BLOCK
    assert all(b.dtype == np.int64 for b in blocks)


def test_design_table_lists_every_index():
    design = design_binomial(0.9, 0.05, copies=1, max_duration=10)
    text = design_table(design)
    assert text.count("\n") == design.ell + 1
    assert "delta=0.05" in text


def test_run_length_model_from_design():
    # the channel draws one copy's run at index i straight from the design:
    # Binomial(t_i, p) for binomial designs, Poisson(rate_i) for Poisson ones
    for design in (
        design_binomial(0.8, 0.05, copies=2, max_duration=10),
        design_poisson(0.05, copies=2, ell_max=3),
    ):
        sched = random_schedule(
            uniform_graph(4, design.durations), "A", 3000, np.random.default_rng(1)
        )
        trace = synthesize(sched, design, seed=2)
        indices = sched.indices
        for i in range(1, design.ell + 1):
            runs = trace.copies[:, indices == i]
            if design.family == "binomial":
                t = design.durations[i - 1]
                mean, var = t * design.p, t * design.p * (1 - design.p)
                assert runs.max() <= t
            else:
                mean = var = design.rates[i - 1]
            assert abs(runs.mean() - mean) < 5 * math.sqrt(var / runs.size), (design.family, i)
