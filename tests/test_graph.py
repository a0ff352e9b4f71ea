"""Schedule-graph construction, capacity, expansion, counting, losslessness."""

import json
import math

import numpy as np
import pytest

from prdna.graph import (
    Alphabet,
    _count_table,
    build_graph,
    capacity,
    count_schedules,
    default_alphabet,
    graph_from_json,
    iter_schedules,
    max_entropic_chain,
    ordinary_expand,
    rounds_to_word,
    transfer_matrix,
    uniform_graph,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def power_iteration_radius(mat, iters=20000, tol=1e-13, seed=0):
    """Dominant eigenvalue magnitude via plain power iteration."""
    mat = np.asarray(mat, dtype=float)
    rng = np.random.default_rng(seed)
    x = rng.random(mat.shape[0]) + 0.5
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = mat @ x
        norm = np.linalg.norm(y)
        lam_new = float(x @ y)
        x = y / norm
        if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return lam


def brute_force_schedules(graph, start, total):
    """Recursive enumeration of duration-exact schedules, independent of iter_schedules."""
    letters = graph.alphabet.letters
    results = []

    def go(prev_idx, remaining, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        for ai, a in enumerate(letters):
            if ai == prev_idx:
                continue
            for i, t in enumerate(graph.menus[prev_idx][ai], start=1):
                if t <= remaining:
                    acc.append((a, i))
                    go(ai, remaining - int(t), acc)
                    acc.pop()

    go(graph.alphabet.index(start), total, [])
    return results


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_alphabet_defaults_and_validation():
    assert default_alphabet(4).letters == ("A", "C", "G", "T")
    assert default_alphabet(2).q == 2
    with pytest.raises(ValueError):
        Alphabet(("A",))
    with pytest.raises(ValueError):
        Alphabet(("A", "A"))


@pytest.mark.parametrize("letter", ["A C", "", "T\n", "G>", 3, None], ids=repr)
def test_alphabet_refuses_letters_a_schedule_file_cannot_carry(letter):
    # schedule file lines split on whitespace, and menu keys on ">"
    with pytest.raises(ValueError, match="free of whitespace and '>'"):
        Alphabet(("A", "C", letter))
    text = json.dumps({"letters": ["A", "C", letter], "menus": {"default": [1, 2]}})
    with pytest.raises(ValueError, match="free of whitespace and '>'"):
        graph_from_json(text)


def test_build_graph_edge_counts():
    g = uniform_graph(4, [1], max_duration=10)
    assert g.q == 4 and g.num_edges == 12 and g.ell == 1

    g2 = uniform_graph(2, [1])
    assert g2.num_edges == 2

    g3 = uniform_graph(4, [1, 2])
    assert g3.num_edges == 24 and g3.ell == 2


def test_build_graph_rejections():
    alpha = default_alphabet(4)
    with pytest.raises(ValueError):
        build_graph(alpha, {"A>A": [1]})
    with pytest.raises(ValueError):
        build_graph(alpha, {"default": [2, 1]})
    with pytest.raises(ValueError):
        build_graph(alpha, {"default": [1, 5]}, max_duration=3)
    with pytest.raises(ValueError):
        build_graph(alpha, {"default": [1], "C>A": [1, 2]})
    with pytest.raises(ValueError):
        build_graph(alpha, {"C>A": [1]})  # other pairs uncovered
    for key in (("C", "A"), "CA"):  # pair keys are "B>A" strings
        with pytest.raises(ValueError, match="must look like 'B>A'"):
            build_graph(alpha, {"default": [1], key: [2]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_durations_are_refused(bad):
    # NaN fails every comparison, so neither the "at least 1" nor the
    # increasing-order check would catch it, and infinity passes both
    alpha = default_alphabet(4)
    with pytest.raises(ValueError, match="durations must be finite"):
        uniform_graph(4, [bad])
    with pytest.raises(ValueError, match="durations must be finite"):
        uniform_graph(4, [1, bad])
    with pytest.raises(ValueError, match="durations must be finite"):
        build_graph(alpha, {"default": [1, 2], "C>A": [1, bad]})
    with pytest.raises(ValueError, match="durations must be finite"):
        graph_from_json(json.dumps({"q": 4, "menus": {"default": [1, bad]}}))
    # a NaN cap fails the "exceeds" comparison too, so it would check nothing
    with pytest.raises(ValueError, match=f"max duration {bad} is not finite"):
        uniform_graph(4, [1, 2], bad)
    with pytest.raises(ValueError, match=f"max duration {bad} is not finite"):
        graph_from_json(json.dumps({"q": 4, "M": bad, "menus": {"default": [1, 2]}}))


@pytest.mark.parametrize("q", ["4.7", '"4"', "true", "null", "Infinity"])
def test_json_letter_count_must_be_a_whole_number(q):
    with pytest.raises(ValueError, match="field q holds"):
        graph_from_json(f'{{"q": {q}, "menus": {{"default": [1, 2]}}}}')
    assert graph_from_json('{"q": 4.0, "menus": {"default": [1, 2]}}') == uniform_graph(4, [1, 2])


@pytest.mark.parametrize("menu", ['"12"', '["1", "2"]', '[1, "2"]', "[true, 2]"])
def test_json_menus_must_hold_numbers(menu):
    # a string menu once read as its digits, (1, 2), and a bool as 0 or 1
    with pytest.raises(ValueError, match="must be a list of numbers"):
        graph_from_json(f'{{"q": 4, "menus": {{"default": {menu}}}}}')
    with pytest.raises(ValueError, match="must be a list of numbers"):
        graph_from_json(f'{{"q": 4, "menus": {{"default": [1, 2], "C>A": {menu}}}}}')


@pytest.mark.parametrize("cap", ['"10"', "true"])
def test_json_duration_cap_must_be_a_number(cap):
    # true once read as a cap of 1
    with pytest.raises(ValueError, match="field M holds"):
        graph_from_json(f'{{"q": 4, "M": {cap}, "menus": {{"default": [1]}}}}')


def test_per_pair_menus_allowed():
    alpha = default_alphabet(4)
    g = build_graph(alpha, {"default": [1, 2], "C>A": [1, 3]})
    assert g.menu("C", "A") == (1, 3)
    assert g.menu("A", "C") == (1, 2)


# ---------------------------------------------------------------------------
# Capacity
# ---------------------------------------------------------------------------

def test_capacity_unit_menu_q4():
    # the root of (q-1)/z = 1, so the capacity is log2(q-1)
    for q in (3, 4, 5):
        res = capacity(uniform_graph(q, [1]))
        assert abs(res.capacity - math.log2(q - 1)) <= 2 * math.ulp(math.log2(q - 1))
        assert abs(res.perron_root - (q - 1)) < 1e-9


def test_capacity_q2_unit_menu_is_zero():
    res = capacity(uniform_graph(2, [1]))
    assert res.capacity == 0.0


def test_capacity_q4_two_durations_closed_form():
    # root of 3/z + 3/z^2 = 1, i.e. z^2 - 3z - 3 = 0
    res = capacity(uniform_graph(4, [1, 2]))
    assert abs(res.perron_root - (3 + math.sqrt(21)) / 2) < 1e-9
    assert abs(res.capacity - math.log2((3 + math.sqrt(21)) / 2)) < 1e-9


def test_capacity_matches_power_iteration_on_expansion():
    for menu in ([1], [1, 2], [1, 3], [2, 5], [1, 2, 4]):
        g = uniform_graph(4, menu)
        res = capacity(g)
        radius = power_iteration_radius(ordinary_expand(g))
        assert abs(res.capacity - math.log2(radius)) < 1e-9, menu


def test_capacity_heterogeneous_menus():
    alpha = default_alphabet(3)
    g = build_graph(alpha, {"default": [1, 2], "B>A": [1, 3], "C>B": [2, 3]})
    res = capacity(g)
    radius = power_iteration_radius(ordinary_expand(g))
    assert abs(res.capacity - math.log2(radius)) < 1e-9


def test_capacity_real_durations_match_rescaled_integer_graph():
    # doubling every duration halves the capacity per time unit
    res = capacity(uniform_graph(4, [1.0, 2.5]))
    res_scaled = capacity(uniform_graph(4, [2, 5]))
    assert abs(res.capacity - 2 * res_scaled.capacity) < 1e-9


def test_capacity_monotone_in_menu_growth():
    base = capacity(uniform_graph(4, [2])).capacity
    for extra in (3, 5, 9):
        grown = capacity(uniform_graph(4, [2, extra])).capacity
        assert grown >= base - 1e-12


def test_right_vector_fixed_point():
    g = uniform_graph(4, [1, 2])
    res = capacity(g)
    x = np.array(res.right_vector)
    assert np.all(x > 0)
    np.testing.assert_allclose(transfer_matrix(g, res.perron_root) @ x, x, atol=1e-9)


# ---------------------------------------------------------------------------
# Ordinary expansion
# ---------------------------------------------------------------------------

def test_expand_unit_menu_is_identity_shape():
    adj = ordinary_expand(uniform_graph(4, [1]))
    assert adj.shape == (4, 4)  # the letters alone, no auxiliary vertex
    assert adj.sum() == 12


def test_expand_counts_q4():
    adj = ordinary_expand(uniform_graph(4, [1, 2]))
    assert adj.shape == (16, 16)  # 4 letters, then 12 auxiliary vertices
    assert adj.sum() == 12 + 24
    # auxiliary vertices relay: one arc in, one arc out
    assert (adj[4:].sum(axis=1) == 1).all() and (adj[:, 4:].sum(axis=0) == 1).all()


def test_expand_counts_q2_duration3():
    adj = ordinary_expand(uniform_graph(2, [3]))
    assert adj.shape == (6, 6)  # 2 letters, then 4 auxiliary vertices


def test_expand_rejects_real_durations():
    with pytest.raises(ValueError):
        ordinary_expand(uniform_graph(4, [1.0, 2.5]))


# ---------------------------------------------------------------------------
# Max-entropic round process
# ---------------------------------------------------------------------------

def test_chain_unit_menu():
    chain = max_entropic_chain(uniform_graph(4, [1]))
    assert abs(chain.rounds_per_time - 1.0) < 1e-12
    assert abs(chain.mean_round_duration - 1.0) < 1e-12


def test_chain_fixed_duration_two():
    chain = max_entropic_chain(uniform_graph(2, [2]))
    assert abs(chain.rounds_per_time - 0.5) < 1e-12


def test_chain_probabilities_normalized():
    for menu in ([1, 2], [1, 3], [2, 3, 7]):
        chain = max_entropic_chain(uniform_graph(4, menu))
        for out in chain.edge_probabilities:
            assert abs(sum(p for _, _, p in out) - 1.0) < 1e-12
        assert abs(sum(chain.stationary) - 1.0) < 1e-12
        assert abs(chain.rounds_per_time * chain.mean_round_duration - 1.0) < 1e-12


def test_chain_matches_stationary_mass_of_expansion():
    # Fraction of non-auxiliary vertices in the stationary law of the
    # unit-step chain on the expansion equals rounds per time unit.
    g = uniform_graph(4, [1, 2])
    chain = max_entropic_chain(g)
    adj = ordinary_expand(g).astype(float)
    values, vectors = np.linalg.eig(adj)
    lead = int(np.argmax(values.real))
    lam = float(values[lead].real)
    x = np.abs(vectors[:, lead].real)
    values_l, vectors_l = np.linalg.eig(adj.T)
    lead_l = int(np.argmax(values_l.real))
    y = np.abs(vectors_l[:, lead_l].real)
    pi = x * y
    pi /= pi.sum()
    assert abs(lam - capacity(g).perron_root) < 1e-9
    assert abs(pi[: g.q].sum() - chain.rounds_per_time) < 1e-9


def test_chain_against_random_walk_on_expansion():
    # Long random walk over the unit-step chain of the expansion: the
    # fraction of steps landing on letter vertices estimates rounds per
    # time unit.
    g = uniform_graph(4, [1, 2])
    chain = max_entropic_chain(g)
    adj = ordinary_expand(g).astype(float)
    values, vectors = np.linalg.eig(adj)
    lead = int(np.argmax(values.real))
    lam = float(values[lead].real)
    x = np.abs(vectors[:, lead].real)
    probs = adj * x[None, :] / (lam * x[:, None])
    probs /= probs.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(20240817)
    steps = 1_000_000
    cumulative = probs.cumsum(axis=1)
    draws = rng.random(steps)
    state = 0
    hits = 0
    for u in range(steps):
        state = int(np.searchsorted(cumulative[state], draws[u], side="right"))
        if state < g.q:  # a letter vertex
            hits += 1
    frac = hits / steps
    sigma = math.sqrt(frac * (1 - frac) / steps)
    assert abs(frac - chain.rounds_per_time) < 3 * sigma + 1e-4


# ---------------------------------------------------------------------------
# Counting and losslessness
# ---------------------------------------------------------------------------

def test_count_unit_menu():
    g = uniform_graph(4, [1])
    assert count_schedules(g, "A", 3) == 27
    assert count_schedules(g, "G", 0) == 1


def test_count_two_durations_exhaustive():
    g = uniform_graph(4, [1, 2])
    assert count_schedules(g, "A", 2) == 12
    for total in range(0, 9):
        listed = brute_force_schedules(g, "C", total)
        assert count_schedules(g, "C", total) == len(listed)
        assert listed == list(iter_schedules(g, "C", total))


def test_letter_classes_of_uniform_and_per_pair_menus():
    # uniform menus make every letter alike; the demo's per-pair menus
    # leave A and G apart and C, T together
    uniform = _count_table(uniform_graph(4, [1, 2]))
    assert uniform.letter_class == (0, 0, 0, 0)
    demo = build_graph(default_alphabet(4), {"default": [1, 2], "A>C": [1, 3], "G>T": [2, 3]})
    table = _count_table(demo)
    assert table.letter_class == (0, 1, 2, 1)
    assert len(table.class_edges) == len(table.mantissas) == 3  # row 0: one count per class


def test_count_table_refuses_real_durations():
    graph = uniform_graph(4, [1.5, 3.0])
    with pytest.raises(ValueError, match="integer durations"):
        _count_table(graph)
    with pytest.raises(ValueError, match="integer durations"):
        count_schedules(graph, "A", 6)


def test_count_growth_approaches_capacity():
    g = uniform_graph(4, [1, 2])
    cap = capacity(g).capacity
    n = 60
    rate = math.log2(count_schedules(g, "A", n)) / n
    assert abs(rate - cap) < 0.02


def test_losslessness_by_exhaustion():
    # Distinct schedules from one start letter generate distinct words,
    # tracked per (start, end) vertex pair.
    for menu in ([1], [1, 2], [1, 3]):
        g = uniform_graph(4, menu)
        for start in g.alphabet.letters:
            seen = {}
            for total in range(1, 7):
                for rounds in iter_schedules(g, start, total):
                    end = rounds[-1][0]
                    word = rounds_to_word(g, start, rounds)
                    key = (end, word)
                    assert key not in seen, (menu, start, key)
                    seen[key] = rounds


# ---------------------------------------------------------------------------
# JSON profiles
# ---------------------------------------------------------------------------

def test_json_roundtrip_uniform():
    text = '{"q": 4, "letters": ["A", "C", "G", "T"], "M": 10, "menus": {"default": [1, 2]}}'
    assert graph_from_json(text) == uniform_graph(4, [1, 2], max_duration=10)


def test_json_roundtrip_per_pair():
    # every ordered pair spelled out, no default menu
    menus = {"A>B": [1, 2], "A>C": [1, 2], "B>A": [1, 3], "B>C": [1, 2], "C>A": [1, 2], "C>B": [1, 2]}
    text = json.dumps({"q": 3, "letters": ["A", "B", "C"], "M": 3, "menus": menus})
    alpha = default_alphabet(3)
    assert graph_from_json(text) == build_graph(alpha, {"default": [1, 2], "B>A": [1, 3]})


def test_json_reader_accepts_default_letters():
    g = graph_from_json('{"q": 4, "M": 10, "menus": {"default": [1, 2]}}')
    assert g.alphabet.letters == ("A", "C", "G", "T")


def test_duration_cap_is_checked_not_stored():
    # graphs with equal menus are equal whatever cap they were checked against,
    # so they share one cached count table
    capped = uniform_graph(4, [1, 2], 10)
    assert uniform_graph(4, [1, 2]) == capped
    assert hash(uniform_graph(4, [1, 2])) == hash(capped)
    assert _count_table(uniform_graph(4, [1, 2])) is _count_table(capped)
