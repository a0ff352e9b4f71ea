"""Reed-Solomon code over the duration-symbol alphabet."""

import random
import tracemalloc

import numpy as np
import pytest

from prdna.ecc import (
    EccError,
    ReedSolomonCode,
    _column_dots_mod,
    _int_mod,
    _leaf_width,
    _mat_vec_mod,
    _slice_width,
    digits_needed,
    primitive_root,
    smallest_prime_at_least,
)


def test_prime_helper():
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(660) == 661
    assert smallest_prime_at_least(813) == 821


@pytest.mark.parametrize("base", [*range(2, 11), 541, 4177])
def test_leaf_width_is_the_most_digits_below_two_to_the_63(base):
    width = _leaf_width(base)
    assert base**width < 2**63 <= base ** (width + 1)


def test_primitive_root_has_full_order():
    for p in (5, 7, 101, 661):
        g = primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1


def test_digits_needed():
    assert digits_needed(2, 79) == 7
    assert digits_needed(4, 4) == 1
    assert digits_needed(3, 28) == 4
    assert digits_needed(3, 27) == 3
    assert digits_needed(2, 1) == 0  # one value needs no digit
    assert digits_needed(1, 1) == 0  # not even in base 1
    assert digits_needed(3, 4**446) == 563  # a parity space far beyond float range


def test_encode_is_systematic_and_sized():
    code = ReedSolomonCode(payload_len=20, symbol_count=4, radius=3)
    payload = [((7 * i) % 4) + 1 for i in range(20)]
    parity = code.encode(payload)
    assert code.parity_len == digits_needed(4, code.prime**6)
    assert 0 <= parity < code.prime**6 <= 4**code.parity_len
    # clean word decodes to itself
    assert code.decode(payload, parity) == payload


def test_corrects_up_to_radius_anywhere():
    rng = random.Random(11)
    code = ReedSolomonCode(payload_len=40, symbol_count=2, radius=5)
    payload = [rng.randint(1, 2) for _ in range(40)]
    parity = code.encode(payload)
    for n_err in range(0, 6):
        corrupted = payload[:]
        for pos in rng.sample(range(40), n_err):
            corrupted[pos] = 3 - corrupted[pos]
        assert code.decode(corrupted, parity) == payload


def test_randomized_many_shapes():
    rng = random.Random(2024)
    for _ in range(60):
        s = rng.randint(1, 80)
        ell = rng.choice([2, 3, 4, 8])
        radius = rng.randint(0, 6)
        code = ReedSolomonCode(s, ell, radius)
        payload = [rng.randint(1, ell) for _ in range(s)]
        parity = code.encode(payload)
        corrupted = payload[:]
        for pos in rng.sample(range(s), rng.randint(0, min(radius, s))):
            corrupted[pos] = (corrupted[pos] % ell) + 1
        assert code.decode(corrupted, parity) == payload


def test_beyond_radius_is_detected():
    rng = random.Random(5)
    code = ReedSolomonCode(payload_len=50, symbol_count=2, radius=3)
    payload = [rng.randint(1, 2) for _ in range(50)]
    parity = code.encode(payload)
    corrupted = [3 - v for v in payload[:8]] + payload[8:]
    with pytest.raises(EccError):
        code.decode(corrupted, parity)


def test_zero_radius_code_is_transparent():
    code = ReedSolomonCode(payload_len=10, symbol_count=4, radius=0)
    payload = [1, 2, 3, 4] * 2 + [1, 2]
    assert code.parity_len == 0
    assert code.encode(payload) == 0
    assert code.decode(payload, 0) == payload


def test_payload_validation():
    code = ReedSolomonCode(payload_len=5, symbol_count=3, radius=1)
    with pytest.raises(ValueError):
        code.encode([1, 2, 3])
    with pytest.raises(ValueError):
        code.encode([0, 1, 2, 3, 1])
    for parity in (-1, 3**code.parity_len):
        with pytest.raises(ValueError, match="parity must lie"):
            code.decode([1, 2, 3, 1, 2], parity)
    # prime 11, two parity elements below 11**2 = 121 in five ternary
    # digits: 121..242 are parities that spell no pair of field elements
    assert (code.prime, code.parity_len) == (11, 5)
    for parity in (121, 3**5 - 1):
        with pytest.raises(EccError, match=r"parity lies outside \[0, 11\*\*2\)"):
            code.decode([1, 2, 3, 1, 2], parity)


def test_float_kernel_is_exact_at_the_largest_entries():
    # every entry at p - 1, against Python ints: at the s = 4000 code's
    # prime one slice holds every column; at 67108859 a slice is two
    # columns wide and the carried accumulator fills the rest of 2**53
    assert ReedSolomonCode(4000, 2, 270).prime == 4547
    for p, cols in ((4547, 4540), (67108859, 7)):
        matrix = np.full((3, cols), p - 1, dtype=np.float64)
        vector = np.full(cols, p - 1, dtype=np.int64)
        expected = sum((p - 1) * (p - 1) for _ in range(cols)) % p
        assert _mat_vec_mod(matrix, vector, p).tolist() == [expected] * 3
    assert _slice_width(67108859) == 2
    # a matrix on the right, as in the Chien search: every product entry
    # adds 7 products of p - 1 across four two-column slices
    p = 67108859
    right = np.full((7, 5), p - 1, dtype=np.float64)
    expected = 7 * (p - 1) * (p - 1) % p
    got = _mat_vec_mod(np.full((3, 7), p - 1, dtype=np.float64), right, p)
    assert got.dtype == np.int64 and got.tolist() == [[expected] * 5] * 3
    rng = random.Random(3)
    rows = [[rng.randrange(p) for _ in range(9)] for _ in range(4)]
    vector = [rng.randrange(p) for _ in range(9)]
    expected = [sum(a * b for a, b in zip(row, vector)) % p for row in rows]
    assert _mat_vec_mod(np.array(rows, dtype=np.float64), np.array(vector), p).tolist() == expected
    columns = [[rng.randrange(p) for _ in range(3)] for _ in range(9)]
    expected = [
        [sum(a * columns[k][j] for k, a in enumerate(row)) % p for j in range(3)] for row in rows
    ]
    got = _mat_vec_mod(np.array(rows, dtype=np.float64), np.array(columns), p)
    assert got.tolist() == expected


@pytest.mark.parametrize("p", [2, 541, 4177, 1000003, 67108859, 94906249])
def test_reduction_is_exact_at_multiples_of_p_and_just_below_two_to_the_53(p):
    # a float quotient x * (1/p) is off by one at exact multiples of p and,
    # at residue p - 1, near 2**53; the reduction must not be
    top = 2**53
    values = [0, p - 1, p, 2 * p - 1, top - 1, top - 2, top - p, top - p - 1]
    values += [k * p + d for k in (1, 2**20, top // p - 1, top // p) for d in (-1, 0, 1)]
    values = [v for v in values if 0 <= v < top]
    got = _int_mod(np.array(values, dtype=np.float64), p)
    assert got.dtype == np.int64 and got.tolist() == [v % p for v in values]


def test_column_dots_are_exact_at_the_largest_entries():
    # every entry at p - 1: at 67108859 a slice is two rows, so seven rows
    # take four slices and the carried accumulator fills the rest of 2**53
    p = 67108859
    left = np.full((7, 5), p - 1, dtype=np.float64)
    got = _column_dots_mod(left, left.astype(np.int64), p)
    assert got.dtype == np.int64 and got.tolist() == [7 * (p - 1) ** 2 % p] * 5
    rng = random.Random(4)
    rows = [[rng.randrange(p) for _ in range(3)] for _ in range(9)]
    other = [[rng.randrange(p) for _ in range(3)] for _ in range(9)]
    expected = [sum(a[j] * b[j] for a, b in zip(rows, other)) % p for j in range(3)]
    assert _column_dots_mod(np.array(rows, dtype=np.float64), np.array(other), p).tolist() == expected


def test_encode_and_decode_stay_within_a_memory_budget_at_s_20000():
    # no table holds a row per payload symbol: the largest is the 2r x 2r
    # interpolation, 3 MB at r = 310, where a 2r x k table would take 50 MB
    rng = random.Random(20000)
    payload = [rng.randint(1, 2) for _ in range(20000)]
    corrupted = payload[:]
    for pos in rng.sample(range(20000), 50):
        corrupted[pos] = 3 - corrupted[pos]
    tracemalloc.start()
    try:
        code = ReedSolomonCode(20000, 2, 310)
        assert code.decode(corrupted, code.encode(payload)) == payload
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_prime_beyond_exact_float64_is_refused():
    # 94906249 is the largest prime accepted; from 94906267 on, one
    # product of two field elements passes 2**53
    assert _slice_width(94906249) == 1 and _slice_width(94906297) == 0
    with pytest.raises(ValueError, match="too large"):
        ReedSolomonCode(payload_len=10, symbol_count=10**8, radius=1)


def test_non_integer_symbols_are_refused():
    # a float symbol is no symbol, even when it would truncate into range
    code = ReedSolomonCode(payload_len=5, symbol_count=3, radius=1)
    parity = code.encode([1, 2, 3, 1, 2])
    for payload in ([1.5, 2, 3, 1, 2.9], [1, 2, 3, 1, 2.0], np.array([1.0, 2, 3, 1, 2])):
        with pytest.raises(ValueError, match="payload symbols must lie in 1..3"):
            code.encode(payload)
        with pytest.raises(ValueError, match="payload symbols must lie in 1..3"):
            code.decode(payload, parity)
    assert code.encode(np.array([1, 2, 3, 1, 2])) == parity


def test_a_forney_value_off_by_one_fails_the_second_syndrome_pass(monkeypatch):
    # the corrected word, payload and parity elements, goes through the
    # syndromes again: one value off at one degree leaves them nonzero
    rng = random.Random(30)
    code = ReedSolomonCode(payload_len=30, symbol_count=4, radius=3)
    payload = [rng.randint(1, 4) for _ in range(30)]
    parity = code.encode(payload)
    corrupted = payload[:]
    for pos in (2, 11, 29):
        corrupted[pos] = corrupted[pos] % 4 + 1
    assert code.decode(corrupted, parity) == payload
    forney = ReedSolomonCode._error_values

    def off_by_one(self, *args):
        values = forney(self, *args)
        values[1] = (values[1] + 1) % self.prime
        return values

    monkeypatch.setattr(ReedSolomonCode, "_error_values", off_by_one)
    with pytest.raises(EccError, match="^correction left nonzero syndromes$"):
        code.decode(corrupted, parity)


@pytest.mark.parametrize("payload_len, ell, radius", [(1, 2, 1), (30, 4, 3), (200, 10, 7), (500, 2, 12)])
def test_corruption_confined_to_parity_elements_returns_the_payload(payload_len, ell, radius):
    # up to r parity elements replaced by other field elements: the payload
    # comes back unchanged, whether or not a payload symbol is off too
    rng = random.Random(payload_len)
    code = ReedSolomonCode(payload_len, ell, radius)
    p, count = code.prime, code.n_parity_field
    payload = [rng.randint(1, ell) for _ in range(payload_len)]
    parity = code.encode(payload)
    for n_wrong in range(1, radius + 1):
        elements = [parity // p ** (count - 1 - j) % p for j in range(count)]
        for j in rng.sample(range(count), n_wrong):
            elements[j] = (elements[j] + rng.randrange(1, p)) % p
        corrupted = 0
        for element in elements:
            corrupted = corrupted * p + element
        assert corrupted != parity
        assert code.decode(payload, corrupted) == payload
        if n_wrong < radius:
            misread = payload[:]
            misread[0] = misread[0] % ell + 1
            assert code.decode(misread, corrupted) == payload


def test_chien_search_on_a_locator_with_a_zero_top_coefficient():
    # the reversed locator of (1 - alpha^d x) padded to degree 2 is
    # x (x - alpha^d): its root at 0 is no power of alpha, so only d is found
    code = ReedSolomonCode(payload_len=20, symbol_count=4, radius=3)
    p = code.prime
    for degree in (0, 7, 25):
        root = pow(code.generator, degree, p)
        assert code._error_degrees([1, (p - root) % p, 0]).tolist() == [degree]
    assert code._error_degrees([1, 0]).tolist() == []
    assert code._error_degrees([1]).tolist() == []


def _reference_parity_matrix(code):
    # column j is x^(2r+k-1-j) mod g, one shift-register step per column
    p, k = code.prime, code.payload_len
    feedback = -np.array(code._gen_poly[1:], dtype=np.int64) % p
    matrix = np.empty((code.n_parity_field, k), dtype=np.int64)
    register = feedback
    for j in range(k - 1, -1, -1):
        matrix[:, j] = register
        register = (np.append(register[1:], 0) + register[0] * feedback) % p
    return matrix


@pytest.mark.parametrize(
    "payload_len, ell, radius",
    [(1, 2, 1), (2, 2, 3), (7, 3, 5), (50, 4, 2), (99, 10, 7),
     (500, 2, 78), (1000, 2, 30), (4000, 2, 270)],
)
def test_parity_matrix_equals_the_column_by_column_shift_register(payload_len, ell, radius):
    # encode acts as the shift register's parity matrix P: the parity is
    # -(P @ m) mod p, joined in base p; one payload symbol, and fewer and
    # more symbols than the 2r parity elements
    code = ReedSolomonCode(payload_len, ell, radius)
    p, matrix = code.prime, _reference_parity_matrix(code)
    rng = random.Random(payload_len)
    payloads = [[rng.randint(1, ell) for _ in range(payload_len)] for _ in range(3)]
    for payload in payloads + [[ell] * payload_len]:
        elements = -(matrix @ (np.array(payload) - 1)) % p
        expected = 0
        for element in elements.tolist():
            expected = expected * p + element
        assert code.encode(payload) == expected


@pytest.mark.parametrize("ell", [2, 3, 4, 8, 10])
def test_parity_is_the_base_p_number_of_the_field_elements(ell):
    # the fewest base-ell digits covering p**(2r), never more than
    # 2r * ceil(log_ell p), one group of digits per element; the parities
    # from p**(2r) up spell no field elements
    rng = random.Random(ell)
    for s in (1, 7, 60, 500):
        for radius in (1, 2, 5, 20):
            code = ReedSolomonCode(s, ell, radius)
            space = code.prime ** (2 * radius)
            assert code.parity_len == digits_needed(ell, space)
            assert code.parity_len <= 2 * radius * digits_needed(ell, code.prime)
            payload = [rng.randint(1, ell) for _ in range(s)]
            assert code.encode(payload) < space
            top = ell**code.parity_len
            message = rf"parity lies outside \[0, {code.prime}\*\*{2 * radius}\)"
            for parity in (space, rng.randrange(space, top), top - 1):
                with pytest.raises(EccError, match=message):
                    code.decode(payload, parity)
