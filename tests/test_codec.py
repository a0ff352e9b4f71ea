"""Enumerative coding, redundancy sizing, letter framing, time bounds."""

import math
import random
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.special._ufuncs import _binom_isf

from prdna.codec import (
    _BLOCK_FAILURE_BOUND,
    _join_digits,
    _split_digits,
    BudgetTooSmall,
    InvalidSchedule,
    RedundancyPlan,
    Schedule,
    ZeroDifference,
    attach_redundancy,
    code_rate,
    decode_payload,
    encode_payload,
    make_schedule,
    max_payload_bits,
    plan_redundancy,
    rank_schedule,
    size_parity,
    strip_and_correct,
    synthesis_time_bound,
    time_bound_formula,
    unrank_schedule,
)
from prdna.ecc import digits_needed
from prdna.graph import (
    _count_table,
    _start_count,
    build_graph,
    capacity,
    count_schedules,
    default_alphabet,
    iter_schedules,
    uniform_graph,
)


# ---------------------------------------------------------------------------
# Rate formula
# ---------------------------------------------------------------------------

def test_code_rate_noiseless():
    assert code_rate(0.0, 2) == 1.0
    assert code_rate(0.0, 10) == 1.0


def test_code_rate_binary_matches_entropy():
    h2 = -(0.02 * math.log2(0.02) + 0.98 * math.log2(0.98))
    assert abs(code_rate(0.02, 2) - (1 - h2)) < 1e-12


def test_code_rate_quaternary_direct_formula():
    want = 1 + 0.02 * math.log(0.02 / 3, 4) + 0.98 * math.log(0.98, 4)
    assert abs(code_rate(0.02, 4) - want) < 1e-12
    assert abs(code_rate(0.02, 4) - 0.91343) < 5e-5


def test_code_rate_domain():
    with pytest.raises(ValueError):
        code_rate(0.5, 2)
    with pytest.raises(ValueError):
        code_rate(0.8, 4)
    assert code_rate(0.74, 4) > 0.0


def test_code_rate_refuses_nan():
    # nan fails both range comparisons, so only a chained check refuses it
    with pytest.raises(ValueError, match="delta must lie in"):
        code_rate(math.nan, 2)


# ---------------------------------------------------------------------------
# Enumerative coding
# ---------------------------------------------------------------------------

def test_rank_zero_is_lexicographically_first():
    g = uniform_graph(4, [1])
    sched = encode_payload("", g, "A", 3)
    assert sched.rounds == (("C", 1), ("A", 1), ("C", 1))
    assert sched.total_time == 3


def test_all_ranks_distinct_and_invertible():
    g = uniform_graph(4, [1, 2])
    seen = set()
    for value in range(count_schedules(g, "A", 2)):
        sched = unrank_schedule(g, "A", 2, value)
        seen.add(sched.rounds)
        assert rank_schedule(g, sched, 2) == value
    assert len(seen) == 12


def test_unrank_order_matches_enumeration_order():
    g = uniform_graph(4, [1, 2])
    for total in (3, 5):
        listed = list(iter_schedules(g, "G", total))
        for value, rounds in enumerate(listed):
            assert unrank_schedule(g, "G", total, value).rounds == rounds


def test_rank_refuses_real_durations():
    # rounds C 2, G 2 last 3 + 3 = 6; truncating 1.5 and 3 to 1 and 3
    # would rank them anyway
    graph = uniform_graph(4, [1.5, 3.0])
    schedule = make_schedule(graph, "A", [("C", 2), ("G", 2)])
    assert schedule.total_time == 6
    with pytest.raises(ValueError, match="integer durations"):
        rank_schedule(graph, schedule, 6)


def test_unrank_refuses_a_rank_that_is_no_integer():
    g = uniform_graph(4, [1, 2])
    with pytest.raises(ValueError, match="not an integer"):
        unrank_schedule(g, "A", 8, 2.5)
    with pytest.raises(ValueError, match="not an integer"):
        unrank_schedule(g, "A", 200, 2.0**100)
    assert unrank_schedule(g, "A", 8, np.int64(2)).rounds == unrank_schedule(g, "A", 8, 2).rounds
    big = unrank_schedule(g, "A", 200, 2**100)
    assert rank_schedule(g, big, 200) == 2**100


def test_codec_memory_stays_linear_in_the_budget():
    # q = 4, menu {1, 2} at T = 10**5 (192 269-bit counts): the count table
    # holds two int64 words per row, counting alone builds no walk rows, and
    # encode plus decode of a 192 000-bit payload, walk rows included, peak
    # under 48 MB (exact rows to the same total would hold about 1.2 GB)
    graph, total = uniform_graph(4, [1, 2]), 10**5
    bits = format(random.Random(total).getrandbits(192000), "0192000b")
    _count_table.cache_clear()
    try:
        assert max_payload_bits(graph, "A", total) == 192268
        counts = _count_table(graph)
        assert counts._walk is None and counts.mantissas.nbytes == counts.exponents.nbytes == 8 * (total + 1)
        tracemalloc.start()
        try:
            schedule = encode_payload(bits, graph, "A", total)
            assert decode_payload(schedule, graph, total, n_bits=len(bits)) == bits
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        _count_table.cache_clear()
    assert peak < 48 * 2**20


@pytest.mark.parametrize(
    "graph, total",
    [
        (uniform_graph(4, [1, 2]), 60),
        (uniform_graph(4, [1, 2]), 400),
        (uniform_graph(4, [1, 2]), 8522),
        (build_graph(default_alphabet(4), {"default": [1, 2], "A>C": [1, 3], "G>T": [2, 3]}), 4000),
        (uniform_graph(4, [2, 6]), 1172),
        (uniform_graph(4, [2, 6]), 9370),
        (uniform_graph(4, [2, 6]), 16000),
        (uniform_graph(4, [1, 4]), 9370),
    ],
    ids=["q4-12-60", "q4-12-400", "q4-12-8522", "three-classes-4000", "q4-26-1172", "q4-26-9370",
         "q4-26-16000", "q4-14-9370"],
)
def test_rounded_counts_lose_no_payload_bits(graph, total):
    # the budgets measured when the codec moved to 32-bit rounded counts
    assert max_payload_bits(graph, "A", total) == count_schedules(graph, "A", total).bit_length() - 1


@pytest.mark.parametrize(
    "positions, indices, message",
    [
        ([1, 1], [1, 2], "letter 'C' repeats consecutively"),
        ([1, 2], [1, 0], "duration index 0 outside 1..2"),
        ([1, 9], [1, 1], "letter position 9 outside 0..3"),
    ],
    ids=["repeated-letter", "index-0", "position-9"],
)
def test_hand_built_schedules_off_the_graph_have_no_total(positions, indices, message):
    # a fault code is no duration: the total, the running sums and the rank
    # refuse the round with one message
    g = uniform_graph(4, [1, 2])
    schedule = Schedule(g, "A", np.array(positions), np.array(indices))
    for read in (lambda: schedule.total_time, lambda: schedule.elapsed, lambda: rank_schedule(g, schedule, 3)):
        with pytest.raises(InvalidSchedule, match=re.escape(message)):
            read()


def test_make_schedule_raises_the_first_malformed_rounds_unpacking_error():
    g = uniform_graph(4, [1, 2])
    cases = [
        ([("C", 1), ("A",)], ValueError, r"not enough values to unpack \(expected 2, got 1\)"),
        ([("C", 1, 2), ("A",)], ValueError, r"too many values to unpack \(expected 2\)"),
        ([("C", 1), 5], TypeError, "cannot unpack non-iterable int object"),
        ([("C", 1), None, ("A",)], TypeError, "cannot unpack non-iterable NoneType object"),
    ]
    for rounds, error, message in cases:
        with pytest.raises(error, match=message):
            make_schedule(g, "A", rounds)
    assert make_schedule(g, "A", [["C", 2]]).rounds == (("C", 2),)
    assert make_schedule(g, "A", ()).num_rounds == 0


def test_payload_capacity_of_unit_menu():
    g = uniform_graph(4, [1])
    assert max_payload_bits(g, "A", 60) == 95
    bits = "1" * 95
    sched = encode_payload(bits, g, "A", 60)
    assert decode_payload(sched, g, 60) == bits
    with pytest.raises(BudgetTooSmall):
        encode_payload("0" * 96, g, "A", 60)


def test_out_of_budget_sizes_are_stated_in_bits():
    # a decimal rank, count or payload size past 4300 digits would raise
    # int's string-conversion error in place of BudgetTooSmall
    g = uniform_graph(4, [1, 2])
    count = _start_count(g, "A", 8522)[3]  # 16385 bits, 4933 decimal digits
    cases = [
        (lambda: unrank_schedule(g, "A", 100, 3**10000),
         "a rank of 15850 bits lies outside 0..count - 1 for a count of 192 bits (duration 100 from 'A')"),
        (lambda: unrank_schedule(g, "A", 8522, count),
         "a rank of 16385 bits lies outside 0..count - 1 for a count of 16385 bits"),
        (lambda: unrank_schedule(g, "A", 100, -(3**10000)), "a negative rank lies outside"),
        (lambda: encode_payload("1" * 20000, g, "A", 100),
         "20000 bits need 2**20000 schedules; duration 100 from 'A' offers fewer than 2**192"),
        (lambda: decode_payload(unrank_schedule(g, "A", 8522, count - 1), g, 8522, n_bits=16383),
         "a rank of 16385 bits does not fit in 16383 bits"),
    ]
    for call, message in cases:
        with pytest.raises(BudgetTooSmall, match=re.escape(message)):
            call()
    # the edges of each budget: the largest payload and the last rank still fit
    width = max_payload_bits(g, "A", 100)
    assert decode_payload(encode_payload("1" * width, g, "A", 100), g, 100) == "1" * width
    with pytest.raises(BudgetTooSmall):
        encode_payload("0" * (width + 1), g, "A", 100)
    count = _start_count(g, "A", 100)[3]
    last = unrank_schedule(g, "A", 100, count - 1)
    assert decode_payload(last, g, 100, n_bits=192) == format(count - 1, "0192b")
    with pytest.raises(BudgetTooSmall, match="a rank of 192 bits does not fit in 191 bits"):
        decode_payload(last, g, 100, n_bits=191)


def test_bits_roundtrip_random():
    g = uniform_graph(4, [1, 2])
    rng = random.Random(99)
    for total in (10, 17, 25):
        width = max_payload_bits(g, "A", total)
        for _ in range(20):
            bits = "".join(rng.choice("01") for _ in range(width))
            assert decode_payload(encode_payload(bits, g, "A", total), g, total) == bits


def test_decode_empty_schedule():
    g = uniform_graph(4, [1, 2])
    sched = make_schedule(g, "A", [])
    assert decode_payload(sched, g, 0) == ""


@pytest.mark.parametrize("n_bits", [-1, -2, -3])
def test_decode_refuses_a_negative_width(n_bits):
    g = uniform_graph(4, [1, 2])
    sched = encode_payload("101", g, "A", 10)
    with pytest.raises(ValueError, match=f"payload width {n_bits} is negative"):
        decode_payload(sched, g, 10, n_bits=n_bits)


def test_decode_refuses_a_wrong_total_before_counting_to_it():
    # the default width is read at the total the schedule proves to have:
    # a wrong total is refused before the count table grows to it
    g = uniform_graph(4, [1, 2])
    _count_table.cache_clear()
    try:
        sched = encode_payload("1011", g, "A", 8)
        assert len(_count_table(g).mantissas) == 9  # one letter class: one entry per row
        with pytest.raises(InvalidSchedule, match="schedule lasts 8, expected 12000"):
            decode_payload(sched, g, 12000)
        assert len(_count_table(g).mantissas) == 9
        assert decode_payload(sched, g, 8) == "1011".zfill(max_payload_bits(g, "A", 8))
    finally:
        _count_table.cache_clear()


def test_decode_rejects_tampered_schedules():
    g = uniform_graph(4, [1, 2])
    with pytest.raises(InvalidSchedule):
        make_schedule(g, "A", [("C", 1), ("C", 1)])
    with pytest.raises(InvalidSchedule):
        make_schedule(g, "A", [("A", 1)])
    with pytest.raises(InvalidSchedule):
        make_schedule(g, "A", [("C", 3)])
    ok = make_schedule(g, "A", [("C", 2), ("G", 1)])
    with pytest.raises(InvalidSchedule):
        decode_payload(ok, g, 5)  # lasts 3, not 5


def test_make_schedule_refuses_non_integer_indices():
    # a fractional index inside the menu, or a whole-valued float, is no index
    g = uniform_graph(4, [1, 2])
    for index in (1.5, 2.0):
        with pytest.raises(InvalidSchedule, match=f"duration index {index!r} is not an integer"):
            make_schedule(g, "A", [("C", 1), ("A", index)])
    # outside the menu it is reported as outside, as any index there is
    with pytest.raises(InvalidSchedule, match="duration index 0.5 outside 1..2"):
        make_schedule(g, "A", [("C", 0.5)])


def test_rate_achieved_at_long_budget():
    g = uniform_graph(4, [1])
    bits_per_time = max_payload_bits(g, "A", 200) / 200
    assert bits_per_time >= math.log2(3) - 0.05


# ---------------------------------------------------------------------------
# Redundancy sizing
# ---------------------------------------------------------------------------

def test_plan_noiseless_is_empty():
    plan = plan_redundancy(1000, 0.0, 2, 4)
    assert plan.parity_symbols == 0 and plan.redundancy_rounds == 0
    assert size_parity(1000, 0.0, 2, 4) == (plan, None)


def test_plan_formula_binary():
    plan = plan_redundancy(1000, 0.02, 2, 4)
    assert plan.parity_symbols_formula == 165
    assert plan.parity_symbols == 165
    assert plan.redundancy_rounds == 105


def test_plan_formula_quaternary():
    plan = plan_redundancy(100, 0.02, 4, 4)
    assert plan.parity_symbols_formula == 10
    assert plan.parity_symbols >= 10
    assert plan.redundancy_rounds == digits_needed(3, 4**plan.parity_symbols)


def test_plan_grows_for_concrete_code():
    plan, ecc = size_parity(1000, 0.02, 2, 4)
    r = plan.radius_target
    assert stats.binom.sf(r, 1000, 0.02) <= 1e-6 < stats.binom.sf(r - 1, 1000, 0.02)
    assert ecc.radius == r
    assert plan.parity_symbols == ecc.parity_len
    assert plan.parity_symbols > plan.parity_symbols_formula
    assert plan.redundancy_rounds == digits_needed(3, 2**plan.parity_symbols)


@pytest.mark.parametrize("s", [1, 20, 500, 4000, 10**6])
@pytest.mark.parametrize("delta", [1e-4, 0.01171875, 0.02, 0.1, 0.3])
def test_radius_is_the_exact_binomial_quantile(s, delta):
    # the smallest radius whose binomial tail is within the block-failure bound
    r = plan_redundancy(s, delta, 2, 4).radius_target
    assert stats.binom.sf(r, s, delta) <= 1e-6 < stats.binom.sf(r - 1, s, delta)


@pytest.mark.parametrize("s", [0, 1, 2, 20, 500, 4000, 10**6])
@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-4, 0.01171875, 0.02, 0.3, 0.5, 0.9, 1.0])
def test_radius_kernel_is_stats_binom_isf(s, delta):
    # plan_redundancy calls the Boost kernel behind stats.binom.isf, which
    # adds loc = 0 to it; the support's edges s = 0, delta = 0 and 1 included
    reference = stats.binom.isf(_BLOCK_FAILURE_BOUND, s, delta)
    assert _binom_isf(_BLOCK_FAILURE_BOUND, s, delta) + 0 == reference
    assert int(_binom_isf(_BLOCK_FAILURE_BOUND, s, delta)) == int(reference)
    if 0 < delta < 0.5:
        assert plan_redundancy(s, delta, 2, 4).radius_target == int(reference)


@pytest.mark.parametrize("s", [-1, 10.5, math.inf, math.nan])
@pytest.mark.parametrize("delta", [0.0, 0.02])
def test_plan_refuses_a_length_that_is_no_whole_count(s, delta):
    with pytest.raises(ValueError, match="is not a nonnegative whole number"):
        plan_redundancy(s, delta, 2, 4)


def test_standard_design_parity_sizes():
    # binomial p = 0.5, N = 5, budget 0.02: exact worst misread 3/256
    for s, radius, digits, rounds in ((500, 20, 364, 230), (4000, 83, 1997, 1260)):
        plan, ecc = size_parity(s, 0.01171875, 2, 4)
        assert (plan.radius_target, ecc.radius) == (radius, radius)
        assert (plan.parity_symbols, plan.redundancy_rounds) == (digits, rounds)


def test_negligible_misread_needs_no_code():
    plan, ecc = size_parity(10, 1e-9, 2, 4)
    assert plan.radius_target == 0 and ecc is None
    assert plan.parity_symbols == 0 and plan.redundancy_rounds == 0


def test_plan_single_duration_menu_needs_nothing():
    plan = plan_redundancy(500, 0.02, 1, 4)
    assert plan.parity_symbols == 0 and plan.redundancy_rounds == 0
    assert size_parity(500, 0.02, 1, 4) == (plan, None)


def test_binary_alphabet_without_parity_roundtrips():
    # q = 2 has a single nonzero increment; at delta = 0 none is needed
    g = uniform_graph(2, [1, 2])
    bits = "1011001"
    payload = encode_payload(bits, g, "A", 20)
    plan, ecc = size_parity(payload.num_rounds, 0.0, g.ell, g.q)
    assert ecc is None and plan.redundancy_rounds == 0
    full = attach_redundancy(g, payload, plan, ecc)
    assert decode_payload(strip_and_correct(g, full, plan, ecc), g, 20, n_bits=len(bits)) == bits


def test_binary_alphabet_refuses_appended_parity():
    with pytest.raises(ValueError, match="at least q = 3"):
        plan_redundancy(100, 0.02, 2, 2)
    with pytest.raises(ValueError, match="at least q = 3"):
        time_bound_formula(100, 1.0, 0.02, 2, 2)
    # one duration appends nothing, whatever delta says
    assert plan_redundancy(100, 0.02, 1, 2).redundancy_rounds == 0
    assert time_bound_formula(100, 1.0, 0.02, 1, 2) == 100.0


def test_overhead_rule_matches_the_explicit_formula():
    # the parity block and the time bound share one overhead, 1/rate - 1
    s, bits, cap, alpha = 4000, 1000, 1.9, 0.43
    for delta in (1e-4, 0.01171875, 0.02, 0.1, 0.3):
        for ell in (2, 3, 6):
            log_ell = math.log(ell)
            rate = (
                1.0
                + delta * (math.log(delta / (ell - 1)) / log_ell)
                + (1.0 - delta) * (math.log1p(-delta) / log_ell)
            )
            overhead = 1.0 / rate - 1.0
            assert plan_redundancy(s, delta, ell, 4).parity_symbols_formula == math.ceil(s * overhead)
            for q in (3, 4, 7):
                want = bits / cap * (1.0 + alpha * (overhead * (log_ell / math.log(q - 1))))
                assert time_bound_formula(bits, cap, delta, ell, q, alpha) == want, (delta, ell, q)


# ---------------------------------------------------------------------------
# Base conversion
# ---------------------------------------------------------------------------

def test_parity_integer_to_increments_worked_example():
    # base-4 parity digits (3, 1) spell 8; 16 values need three ternary
    # increments, and 8 = 0*9 + 2*3 + 2 spells (1, 3, 3) one-based
    assert _join_digits((3, 1), 4) == 8
    assert digits_needed(3, 4**2) == 3
    assert _split_digits(8, 3, 3).tolist() == [1, 3, 3]
    assert _join_digits((1, 3, 3), 3) == 8


def test_all_ones_maps_to_all_ones():
    # an all-index-1 payload is the zero message, so its parity integer is
    # 0 under any linear code: every increment is the lowest
    g = uniform_graph(5, [1, 2, 3])
    a, b, c = g.alphabet.letters[:3]
    payload = make_schedule(g, a, [(b, 1), (c, 1)])
    plan, ecc = size_parity(2, 0.3, 3, 5)
    full = attach_redundancy(g, payload, plan, ecc)
    assert plan.redundancy_rounds > 0 and full.num_rounds == 2 + plan.redundancy_rounds
    assert set(np.diff(full.positions[1:]) % 5) == {1}


def test_base_conversion_roundtrip_random():
    rng = random.Random(4)
    for _ in range(10_000):
        base = rng.choice([2, 3, 4, 9])
        q = rng.choice([3, 4, 5])
        width = rng.randint(1, 12)
        value = rng.randrange(base**width)
        barred = _split_digits(value, q - 1, digits_needed(q - 1, base**width))
        assert all(1 <= v <= q - 1 for v in barred)
        assert _join_digits(barred, q - 1) == value


def test_parity_framing_rejects_out_of_range():
    g = uniform_graph(4, [1, 2])
    plan, ecc = size_parity(20, 0.1, 2, 4)
    payload = make_schedule(g, "A", [("C" if k % 2 else "G", 1 + k % 3 // 2) for k in range(20)])
    full = attach_redundancy(g, payload, plan, ecc)
    # one round short, or one trailing round too many
    for received in (make_schedule(g, "A", full.rounds[:-1]), _append(g, full, [1])):
        with pytest.raises(
            ValueError, match=rf"{received.num_rounds} rounds read; the plan has 20 \+ {plan.redundancy_rounds}"
        ):
            strip_and_correct(g, received, plan, ecc)
    # every increment at its top value q-1 spells 3**w - 1, beyond 2**parity_symbols
    top = attach_redundancy(g, payload, plan, _fixed_parity(ecc.parity_len, 3**plan.redundancy_rounds - 1))
    assert (np.diff(top.positions[19:]) % 4).tolist() == [3] * plan.redundancy_rounds
    assert 3**plan.redundancy_rounds - 1 >= 2**plan.parity_symbols
    with pytest.raises(ValueError, match=rf"parity must lie in \[0, 2\*\*{ecc.parity_len}\)"):
        strip_and_correct(g, top, plan, ecc)
    narrow = replace(plan, parity_symbols=ecc.parity_len - 1)
    with pytest.raises(ValueError, match=f"plan holds {ecc.parity_len - 1} parity digits"):
        attach_redundancy(g, payload, narrow, ecc)
    with pytest.raises(ValueError, match=f"the code has {ecc.parity_len}"):
        strip_and_correct(g, full, narrow, ecc)
    with pytest.raises(ValueError, match="base must be at least 2"):  # q = 2 has no nonzero increment
        digits_needed(1, 4)


# ---------------------------------------------------------------------------
# Differential letters
# ---------------------------------------------------------------------------

def _fixed_parity(parity_len: int, parity: int):
    # a stand-in code whose parity is a chosen integer
    return SimpleNamespace(parity_len=parity_len, encode=lambda indices: parity)


def _append(graph, schedule, barred):
    # attach_redundancy with the parity that the increments `barred` spell: on
    # a plan with ell = q-1, w parity symbols take exactly w increments
    q, w = graph.q, len(barred)
    plan = RedundancyPlan(
        payload_rounds=schedule.num_rounds, delta=0.1, ell=q - 1, q=q,
        parity_symbols=w, parity_symbols_formula=w, radius_target=1,
    )
    assert plan.redundancy_rounds == w
    return attach_redundancy(graph, schedule, plan, _fixed_parity(w, _join_digits(barred, q - 1)))


def test_append_worked_example():
    g = uniform_graph(4, [1, 2])
    sched = make_schedule(g, "C", [("A", 1)])
    full = _append(g, sched, (1, 3, 2))
    assert full.rounds[1:] == (("C", 1), ("A", 1), ("G", 1))


def test_append_max_increment_cycles_backward():
    g = uniform_graph(4, [1])
    sched = make_schedule(g, "A", [("T", 1)])
    full = _append(g, sched, (3, 3, 3))
    assert [a for a, _ in full.rounds] == ["T", "G", "C", "A"]


def test_append_extract_roundtrip_random():
    g = uniform_graph(4, [1, 2])
    rng = random.Random(12)
    for _ in range(10_000):
        barred = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8)))
        first = rng.choice("CGT")
        sched = make_schedule(g, "A", [(first, 1)])
        full = _append(g, sched, barred)
        assert tuple((np.diff(full.positions) % 4).tolist()) == barred


def test_extract_rejects_repeats():
    # a parity letter that repeats its predecessor spells a zero increment
    g = uniform_graph(4, [1, 2])
    plan, ecc = size_parity(20, 0.1, 2, 4)
    payload = make_schedule(g, "A", [("C" if k % 2 else "G", 1 + k % 3 // 2) for k in range(20)])
    full = attach_redundancy(g, payload, plan, ecc)
    positions = full.positions.tolist()
    for k in (20, 21, len(positions) - 1):  # first, second and last parity round
        repeated = positions[:k] + [positions[k - 1]] + positions[k + 1 :]
        letter = g.alphabet.letters[positions[k - 1]]
        with pytest.raises(ZeroDifference, match=f"letter {letter!r} repeats"):
            strip_and_correct(g, replace(full, positions=np.array(repeated)), plan, ecc)


def test_append_increments_cover_duration_time():
    g = uniform_graph(4, [2, 5])
    sched = make_schedule(g, "A", [("C", 2)])
    full = _append(g, sched, (1, 1))
    assert full.total_time == 5 + 2 + 2  # appended rounds use the shortest duration


def test_replaced_indices_report_their_own_total():
    # the total is read off the graph, so replace never leaves it stale
    g = uniform_graph(4, [1, 2])
    plan, ecc = size_parity(20, 0.1, 2, 4)
    payload = make_schedule(g, "A", [("C" if k % 2 else "G", 1 + k % 3 // 2) for k in range(20)])
    full = attach_redundancy(g, payload, plan, ecc)
    flipped = 3 - full.indices
    rounds = [(a, int(i)) for (a, _), i in zip(full.rounds, flipped)]
    expected = make_schedule(g, full.start, rounds).total_time
    assert replace(full, indices=flipped).total_time == expected != full.total_time


# ---------------------------------------------------------------------------
# Time bounds
# ---------------------------------------------------------------------------

def test_bound_noiseless_equals_capacity_ratio():
    g = uniform_graph(4, [1, 2])
    cap = capacity(g).capacity
    assert abs(synthesis_time_bound(1000, g, 0.0, "worst") - 1000 / cap) < 1e-9
    assert abs(synthesis_time_bound(1000, g, 0.0, "expected") - 1000 / cap) < 1e-9


def test_bound_worked_example():
    g = uniform_graph(4, [1, 2])
    bound = synthesis_time_bound(1000, g, 0.02, "worst")
    cap = math.log2((3 + math.sqrt(21)) / 2)
    manual = 1000 / cap * (1 + (1 / code_rate(0.02, 2) - 1) * math.log(2, 3))
    assert abs(bound - manual) < 1e-9
    assert abs(bound - 574.2) <= 0.1


def test_bound_on_binary_alphabet_needs_no_increments():
    # q = 2 has no nonzero increment but one, so parity letters carry
    # nothing: the bound stands only when no parity is appended
    g = uniform_graph(2, [1, 2])
    cap = capacity(g).capacity
    assert abs(synthesis_time_bound(1000, g, 0.0, "worst") - 1000 / cap) < 1e-9
    for mode in ("worst", "expected"):
        with pytest.raises(ValueError, match="at least q = 3"):
            synthesis_time_bound(1000, g, 0.02, mode)


def test_bound_and_plan_check_delta_on_a_single_duration_menu():
    # one duration appends no parity, but a delta outside [0, 1) is still refused
    g = uniform_graph(4, [1])
    assert synthesis_time_bound(1000, g, 0.5) == 1000 / capacity(g).capacity
    for delta in (math.nan, -5.0, 7.0, 1.0):
        with pytest.raises(ValueError, match="delta"):
            synthesis_time_bound(1000, g, delta)
        with pytest.raises(ValueError, match="delta"):
            plan_redundancy(20, delta, 1, 4)


def test_expected_bound_never_exceeds_worst():
    for menu in ([1, 2], [1, 3], [2, 3, 7], [1, 2, 4, 8]):
        g = uniform_graph(4, menu)
        for delta in (0.01, 0.05, 0.1):
            worst = synthesis_time_bound(500, g, delta, "worst")
            expected = synthesis_time_bound(500, g, delta, "expected")
            assert expected <= worst + 1e-12


# ---------------------------------------------------------------------------
# Whole-message pipeline
# ---------------------------------------------------------------------------

def _pipeline_encode(graph, bits, start, total, delta):
    payload = encode_payload(bits, graph, start, total)
    plan, ecc = size_parity(payload.num_rounds, delta, graph.ell, graph.q)
    return attach_redundancy(graph, payload, plan, ecc), plan, ecc


def test_noiseless_pipeline_roundtrip():
    g = uniform_graph(4, [1, 2])
    rng = random.Random(7)
    for total in (10, 20, 30, 40):
        width = max_payload_bits(g, "A", total)
        bits = "".join(rng.choice("01") for _ in range(width))
        full, plan, ecc = _pipeline_encode(g, bits, "A", total, delta=0.02)
        payload = strip_and_correct(g, full, plan, ecc)
        assert decode_payload(payload, g, total, n_bits=width) == bits


def test_noisy_pipeline_recovers_at_design_fraction():
    g = uniform_graph(4, [1, 2])
    rng = random.Random(21)
    total = 60
    width = max_payload_bits(g, "A", total)
    bits = "".join(rng.choice("01") for _ in range(width))
    full, plan, ecc = _pipeline_encode(g, bits, "A", total, delta=0.05)
    s = plan.payload_rounds
    flips = int(0.05 * s)
    assert flips <= plan.radius_target
    indices = full.indices.copy()
    for pos in rng.sample(range(s), flips):
        indices[pos] = (indices[pos] % g.ell) + 1
    payload = strip_and_correct(g, replace(full, indices=indices), plan, ecc)
    assert decode_payload(payload, g, total, n_bits=width) == bits


def test_pipeline_time_stays_under_worst_case_bound():
    # Information-theoretic parity sizing (no code adjustment): every
    # appended round takes the shortest duration, so the synthesis time,
    # averaged over uniform payloads, stays below the worst-case bound
    # once budgets reach a hundred time units.
    g = uniform_graph(4, [1, 2])
    delta = 0.02
    rng = random.Random(123)
    for total in (100, 150, 200):
        width = max_payload_bits(g, "A", total)
        bound = synthesis_time_bound(width, g, delta, "worst")
        measured = []
        for _ in range(20):
            bits = "".join(rng.choice("01") for _ in range(width))
            payload = encode_payload(bits, g, "A", total)
            plan = plan_redundancy(payload.num_rounds, delta, g.ell, g.q)
            measured.append(payload.total_time + plan.redundancy_rounds * min(g.menus[0][1]))
        assert sum(measured) / len(measured) <= bound, total
