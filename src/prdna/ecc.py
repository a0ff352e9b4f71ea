"""Systematic symbol code protecting duration-index sequences.

Payloads are sequences over the quantizer's symbols {1..ell}; the parity
comes back as one integer below ``ell**parity_len``, so the downstream
letter encoding never needs to know how the code works internally.  It
is a Reed-Solomon code over a prime field GF(p): the parity field
elements, read as base-p digits, most significant first, spell that
integer.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Sequence

import numpy as np


class EccError(Exception):
    """Decoding failed: more errors than the code can locate or repair."""


def smallest_prime_at_least(n: int) -> int:
    candidate = max(2, int(n))
    while True:
        if all(candidate % d for d in range(2, int(math.isqrt(candidate)) + 1)):
            return candidate
        candidate += 1


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p."""
    if p == 2:
        return 1
    order = p - 1
    checks = [order // f for f in _prime_factors(order)]
    for g in range(2, p):
        if all(pow(g, c, p) != 1 for c in checks):
            return g
    raise ValueError(f"{p} is not prime")


def digits_needed(base: int, space: int) -> int:
    """Fewest base-`base` digits covering `space` distinct values, exactly."""
    if space <= 1:  # no digit at all, in any base
        return 0
    if base < 2:
        raise ValueError("base must be at least 2")
    # a float estimate, then exact integer steps to the smallest width
    out = math.ceil(math.log(space) / math.log(base))
    while base**out < space:
        out += 1
    while out > 0 and base ** (out - 1) >= space:
        out -= 1
    return out


@lru_cache(maxsize=None)
def _leaf_width(base: int) -> int:
    """Most base-`base` digits whose values all fit int64: base**width < 2**63."""
    width = 1
    while base ** (width + 1) < 2**63:
        width += 1
    return width


def _join_digits(digits: Sequence[int], base: int) -> int:
    """The integer spelled by 1-based digits in `base`, most significant first.

    numpy joins int64 leaves of `_leaf_width` digits; the leaves are then
    joined in halves by powers of the base, so the cost is a few big
    multiplications instead of one per digit.
    """
    width = _leaf_width(base)
    digits = np.asarray(digits, dtype=np.int64) - 1
    pad = -len(digits) % width
    leaves = np.concatenate([np.zeros(pad, dtype=np.int64), digits]).reshape(-1, width)
    powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return _join_leaves((leaves @ powers).tolist(), base**width)


def _join_leaves(leaves: list[int], leaf_base: int) -> int:
    if len(leaves) <= 1:
        return leaves[0] if leaves else 0
    low = len(leaves) // 2
    high = _join_leaves(leaves[:-low], leaf_base)
    return high * leaf_base**low + _join_leaves(leaves[-low:], leaf_base)


def _split_digits(value: int, base: int, width: int) -> np.ndarray:
    """The low `width` digits of `value` in `base`, 1-based, most significant first.

    The value is split in halves by powers of the base down to leaves of
    `_leaf_width` digits, and numpy spells the int64 leaves.
    """
    size = _leaf_width(base)
    leaves: list[int] = []
    if width:
        _split_leaves(value, base**size, -(-width // size), leaves)
    powers = base ** np.arange(size - 1, -1, -1, dtype=np.int64)
    digits = np.array(leaves, dtype=np.int64).reshape(-1, 1) // powers % base + 1
    return digits.ravel()[digits.size - width :]


def _split_leaves(value: int, leaf_base: int, count: int, out: list[int]) -> None:
    # appends the low `count` leaves of value, most significant first
    if count == 1:
        out.append(value % leaf_base)
        return
    low = count // 2
    high, rest = divmod(value, leaf_base**low)
    _split_leaves(high, leaf_base, count - low, out)
    _split_leaves(rest, leaf_base, low, out)


class ReedSolomonCode:
    """Systematic Reed-Solomon code over GF(p) with one parity integer.

    ``encode`` maps a payload over symbols {1..symbol_count} to its parity
    integer; ``decode`` takes the (possibly corrupted) payload plus the
    parity integer and returns the corrected payload or raises
    :class:`EccError`.

    Payload symbols embed directly as field elements; the prime is chosen
    so the shortened codeword fits inside one block.  The ``2 * radius``
    parity field elements e_j are the base-p digits of the parity integer,
    sum e_j * p**(2*radius - 1 - j), which lies below p**(2*radius) and so
    below ``symbol_count**parity_len``, the fewest base-ell digits that
    cover it.
    """

    def __init__(self, payload_len: int, symbol_count: int, radius: int):
        if payload_len < 1 or radius < 0:
            raise ValueError("payload length must be positive and radius nonnegative")
        if symbol_count < 2:
            raise ValueError("need at least two symbol values")
        self.payload_len = payload_len
        self.symbol_count = symbol_count
        self.radius = radius
        self.n_parity_field = 2 * radius
        self.prime = smallest_prime_at_least(
            max(symbol_count, payload_len + self.n_parity_field + 1)
        )
        if _slice_width(self.prime) < 1:
            raise ValueError(f"field prime {self.prime} is too large: a product of two "
                             "field elements is not exact in float64")
        self.generator = primitive_root(self.prime)
        self.parity_len = digits_needed(symbol_count, self.prime**self.n_parity_field)
        self._gen_poly = self._generator_poly()

    # -- field helpers ------------------------------------------------------

    def _generator_poly(self) -> list[int]:
        # product of (x - alpha^i) for i = 1..2*radius, highest degree first
        p, g = self.prime, np.ones(1, dtype=np.int64)
        for i in range(1, self.n_parity_field + 1):
            g = (np.append(g, 0) - pow(self.generator, i, p) * np.append(0, g)) % p
        return g.tolist()

    # -- matrix kernels, built once per code on first use -------------------
    # a codeword has n = payload_len + 2 * radius coefficients, j of degree n-1-j

    @cached_property
    def _antilog(self) -> np.ndarray:
        # _antilog[e] = generator**e mod p, for e in 0..p-2, doubling each step
        p, out = self.prime, np.ones(1, dtype=np.int64)
        while len(out) < p - 1:
            out = np.concatenate([out, out * pow(self.generator, len(out), p) % p])
        return out[: p - 1]

    @cached_property
    def _inverses(self) -> np.ndarray:
        # _inverses[x] = x**(p-2) mod p, the inverse of x for x in 1..p-1
        out = np.zeros(self.prime, dtype=np.int64)
        out[self._antilog] = self._antilog[-np.arange(self.prime - 1) % (self.prime - 1)]
        return out

    @cached_property
    def _power_steps(self) -> tuple[np.ndarray, np.ndarray]:
        # degree a*m + b, m = ceil(sqrt(n)): the m x (2r+1) baby table
        # alpha^(k*b) and the ceil(n/m) x (2r+1) giant table alpha^(k*a*m),
        # k = 0..2r; syndromes read columns 1..2r, the Chien search 0..e
        n = self.payload_len + self.n_parity_field
        m, powers = math.isqrt(n - 1) + 1, np.arange(self.n_parity_field + 1)
        steps = (np.outer(np.arange(m), powers), np.outer(np.arange(0, n, m), powers))
        return tuple(self._antilog[e % (self.prime - 1)].astype(np.float64) for e in steps)

    @cached_property
    def _interpolation(self) -> np.ndarray:
        # -L, L the Lagrange matrix at alpha^1..alpha^(2r), rows highest degree
        # first: the parity e(x), degree below 2r, e(alpha^i) = -S_i, is -L @ S.
        # Column i of L is g(x) / ((x - alpha^i) g'(alpha^i)), from one synthetic
        # division of g by every (x - alpha^i); g'(alpha^i) is the quotient there
        p, count = self.prime, self.n_parity_field
        roots = self._power_steps[0][1, 1:].astype(np.int64)  # baby row 1: alpha^i
        rows, derivative = [np.ones(count, dtype=np.int64)], np.ones(count, dtype=np.int64)
        for coefficient in self._gen_poly[1:count]:
            rows.append((coefficient + roots * rows[-1]) % p)
            derivative = (derivative * roots + rows[-1]) % p
        return (np.array(rows) * (p - self._inverses[derivative]) % p).astype(np.float64)

    def _syndromes(self, word: np.ndarray) -> np.ndarray:
        # S_i = w(alpha^i), i = 1..2r, for the word w, payload then parity,
        # highest degree n-1 first (the payload alone is m(x) x^(2r)): the
        # coefficients, lowest degree first, as rows of m, times the baby
        # table, then each column against the giant table's
        baby, giant = (table[:, 1:] for table in self._power_steps)
        n = self.payload_len + self.n_parity_field
        padded = np.zeros(giant.shape[0] * baby.shape[0])
        padded[n - len(word) : n] = word[::-1]
        steps = _mat_vec_mod(padded.reshape(giant.shape[0], -1), baby, self.prime)
        return _column_dots_mod(giant, steps, self.prime)

    def _berlekamp_massey(self, syndromes: list[int]) -> list[int]:
        # minimal error-locator polynomial, lowest degree first
        p, inverses, count, backwards = self.prime, self._inverses, len(syndromes), syndromes[::-1]
        locator, previous, length, shift, prev_inverse = [1], [1], 0, 1, 1
        for i, syndrome in enumerate(syndromes):
            recent = backwards[count - i : count - i + length]  # S[i-1], ..., S[i-length]
            delta = (syndrome + sum(map(mul, locator[1:], recent))) % p
            if delta == 0:
                # every later discrepancy is a term of S(x) * locator(x):
                # once they are all zero, no later step changes the locator
                if 2 * length <= i and not (np.convolve(syndromes, locator)[i:count] % p).any():
                    break
                shift += 1
                continue
            scale = delta * prev_inverse % p
            lengthens = 2 * length <= i
            update = locator[:] if lengthens else locator  # the old locator becomes previous
            update.extend([0] * (len(previous) + shift - len(update)))
            update[shift : shift + len(previous)] = [
                (u - scale * c) % p for u, c in zip(update[shift:], previous)
            ]
            if lengthens:
                previous, prev_inverse, length, shift = locator, int(inverses[delta]), i + 1 - length, 1
            else:
                shift += 1
            locator = update
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        return locator

    def _error_degrees(self, locator: list[int]) -> np.ndarray:
        # Chien search on the power tables: the reversed locator x^e Lambda(1/x)
        # has the inverses of the locator's roots (and 0 if lambda_e = 0, no
        # power of alpha), so degree d = a*m + b is an error point when
        # sum_j (lambda_(e-j) alpha^(j*a*m)) alpha^(j*b) = 0, one product of
        # the scaled giant table and the baby table
        p, e = self.prime, len(locator) - 1
        baby, giant = (table[:, : e + 1] for table in self._power_steps)
        values = _mat_vec_mod(giant * np.array(locator[::-1]) % p, baby.T, p)
        return np.flatnonzero(values.ravel()[: self.payload_len + self.n_parity_field] == 0)

    def _error_values(self, syndromes: np.ndarray, locator: list[int], degrees: np.ndarray) -> np.ndarray:
        # Forney: e = -Omega(X^-1) / Lambda'(X^-1), Omega = S(x) Lambda(x) mod x^e;
        # row m of the gathered powers holds X_m^(-j), j = 0..e-1
        p, e = self.prime, len(degrees)
        omega = np.convolve(syndromes, np.array(locator, dtype=np.int64))[:e] % p
        derivative = np.arange(1, e + 1) * np.array(locator[1:], dtype=np.int64) % p
        powers = self._antilog[-np.outer(degrees, np.arange(e)) % (p - 1)].astype(np.float64)
        numerators, denominators = _mat_vec_mod(powers, np.stack([omega, derivative], axis=1), p).T
        if not denominators.all():
            raise EccError("singular error-location system")
        return -numerators * self._inverses[denominators] % p

    def _check_payload(self, payload: Sequence[int]) -> np.ndarray:
        """The payload as message coefficients, symbol minus one."""
        if len(payload) != self.payload_len:
            raise ValueError(f"expected payload of {self.payload_len} symbols")
        outside = f"payload symbols must lie in 1..{self.symbol_count}"
        values = np.asarray(payload)
        if values.dtype.kind not in "iu" and not all(
            isinstance(v, numbers.Integral) for v in values.ravel().tolist()
        ):
            raise ValueError(outside)  # a symbol that is no integer is no symbol
        if values.min() < 1 or values.max() > self.symbol_count:
            raise ValueError(outside)
        return values.astype(np.int64) - 1

    # -- public API ----------------------------------------------------------

    def encode(self, payload: Sequence[int]) -> int:
        message = self._check_payload(payload)
        if self.n_parity_field == 0:
            return 0
        syndromes = self._syndromes(message)
        return _join_digits(_mat_vec_mod(self._interpolation, syndromes, self.prime) + 1, self.prime)

    def decode(self, payload: Sequence[int], parity: int) -> list[int]:
        message = self._check_payload(payload)
        if not 0 <= parity < self.symbol_count**self.parity_len:
            raise ValueError(f"parity must lie in [0, {self.symbol_count}**{self.parity_len})")
        if self.n_parity_field == 0:
            return (message + 1).tolist()
        p = self.prime
        if parity >= p**self.n_parity_field:
            raise EccError(f"parity lies outside [0, {p}**{self.n_parity_field})")
        word = np.concatenate([message, _split_digits(parity, p, self.n_parity_field) - 1])
        syndromes = self._syndromes(word)
        if not syndromes.any():
            return (message + 1).tolist()
        locator = self._berlekamp_massey(syndromes.tolist())
        n_errors = len(locator) - 1
        if n_errors > self.radius:
            raise EccError(f"{n_errors} errors exceed the radius {self.radius}")
        degrees = self._error_degrees(locator)
        if len(degrees) != n_errors:
            raise EccError("error locator roots do not match its degree")
        positions = len(word) - 1 - degrees  # payload and parity elements alike
        word[positions] = (word[positions] - self._error_values(syndromes, locator, degrees)) % p
        if self._syndromes(word).any():
            raise EccError("correction left nonzero syndromes")
        if (word[: self.payload_len] >= self.symbol_count).any():
            raise EccError("corrected payload leaves the symbol alphabet")
        return (word[: self.payload_len] + 1).tolist()


def _slice_width(p: int) -> int:
    """Columns per mat-vec slice mod p that keep every sum exact.

    A slice adds at most this many products of two field elements, each
    at most p-1, to a carried value below p, and stays below 2**53, the
    float64 mantissa.
    """
    return (2**53 - p) // (p - 1) ** 2


def _int_mod(x: np.ndarray, p: int) -> np.ndarray:
    # x mod p as int64, exact, for integer-valued floats 0 <= x < 2**53: the
    # cast is exact there, and numpy divides int64 by a scalar faster than
    # float % divides each entry
    x = x.astype(np.int64)
    return x - x // p * p


def _mat_vec_mod(matrix: np.ndarray, vector: np.ndarray, p: int) -> np.ndarray:
    """matrix @ vector mod p, exact, as int64; the vector may be a matrix too.

    Both hold field elements, 0..p-1, the matrix as float64; each column
    slice is one float64 BLAS product.
    """
    vector = vector.astype(np.float64, copy=False)
    return _sum_slices_mod(lambda lo, hi: matrix[:, lo:hi] @ vector[lo:hi], matrix.shape[1], _slice_width(p), p)


def _column_dots_mod(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """Column i is left[:, i] . right[:, i] mod p, exact, as int64; entries in 0..p-1."""
    return _sum_slices_mod(
        lambda lo, hi: np.einsum("ai,ai->i", left[lo:hi], right[lo:hi]), len(left), _slice_width(p), p
    )


def _sum_slices_mod(product: Callable[[int, int], np.ndarray], total: int, step: int, p: int) -> np.ndarray:
    # the sum of product(lo, lo + step) over range(total) mod p; the slice
    # width counts the accumulator carried, reduced, from slice to slice
    acc = _int_mod(product(0, step), p)
    for lo in range(step, total, step):
        acc = _int_mod(acc + product(lo, lo + step), p)
    return acc
