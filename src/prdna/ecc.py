"""Systematic symbol code protecting duration-index sequences.

The code speaks the quantizer's symbol language: payloads are sequences
over {1..ell} and parity comes back as a sequence over {1..ell} too, so
the downstream letter encoding never needs to know how the code works
internally.  It is a Reed-Solomon code over a prime field whose parity
elements are spelled out in fixed-width base-ell digits.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

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
    """Fewest base-`base` digits covering `space` distinct values."""
    if base < 2:
        raise ValueError("base must be at least 2")
    d, reach = 1, base
    while reach < space:
        d += 1
        reach *= base
    return d


class ReedSolomonCode:
    """Systematic Reed-Solomon code over GF(p) with base-ell parity framing.

    ``encode`` maps a payload over symbols {1..symbol_count} to its parity
    block; ``decode`` takes the (possibly corrupted) payload plus the parity
    block and returns the corrected payload or raises :class:`EccError`.

    Payload symbols embed directly as field elements; the prime is chosen
    so the shortened codeword fits inside one block.  Each of the
    ``2 * radius`` parity field elements is emitted as ``digits_per_field``
    base-ell digits (shifted to 1-based symbols), so parity rides the same
    symbol alphabet as the payload.
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
        self.generator = primitive_root(self.prime)
        self.digits_per_field = digits_needed(symbol_count, self.prime)
        self.parity_len = self.n_parity_field * self.digits_per_field
        self._gen_poly = self._generator_poly()

    # -- field helpers ------------------------------------------------------

    def _generator_poly(self) -> list[int]:
        # product of (x - alpha^i) for i = 1..2*radius, highest degree first
        p = self.prime
        g = [1]
        root = 1
        for _ in range(self.n_parity_field):
            root = root * self.generator % p
            new = [0] * (len(g) + 1)
            for i, c in enumerate(g):
                new[i] = (new[i] + c) % p
                new[i + 1] = (new[i + 1] - c * root) % p
            g = new
        return g

    # -- matrix kernels, built once per code on first use -------------------
    # A codeword has n = payload_len + 2 * radius coefficients, entry j
    # holding degree n-1-j.  Every product of two field elements fits in
    # int64, and _mat_vec_mod splits sums so that they do too.

    @cached_property
    def _antilog(self) -> np.ndarray:
        # _antilog[e] = generator**e mod p, for e in 0..p-2
        p = self.prime
        out = np.empty(p - 1, dtype=np.int64)
        value = 1
        for e in range(p - 1):
            out[e] = value
            value = value * self.generator % p
        return out

    @cached_property
    def _parity_matrix(self) -> np.ndarray:
        # column j is x^(2r+k-1-j) mod g, highest degree first; parity is
        # then -(P @ message), the negated remainder of message(x) * x^(2r)
        p, k = self.prime, self.payload_len
        feedback = -np.array(self._gen_poly[1:], dtype=np.int64) % p  # x^(2r) mod g
        matrix = np.empty((self.n_parity_field, k), dtype=np.int64)
        register = feedback
        for j in range(k - 1, -1, -1):
            matrix[:, j] = register
            register = (np.append(register[1:], 0) + register[0] * feedback) % p
        return matrix

    @cached_property
    def _syndrome_matrix(self) -> np.ndarray:
        # row i-1 evaluates a word at alpha^i, i = 1..2r
        n = self.payload_len + self.n_parity_field
        exponents = np.arange(1, self.n_parity_field + 1, dtype=np.int64)[:, None]
        degrees = np.arange(n - 1, -1, -1, dtype=np.int64)
        return self._antilog[exponents * degrees % (self.prime - 1)]

    def _syndromes(self, word: np.ndarray) -> np.ndarray:
        return _mat_vec_mod(self._syndrome_matrix, word, self.prime)

    def _berlekamp_massey(self, syndromes: list[int]) -> list[int]:
        # minimal error-locator polynomial, lowest degree first
        p = self.prime
        locator = [1]
        previous = [1]
        length = 0
        shift = 1
        prev_delta = 1
        for i, s in enumerate(syndromes):
            delta = s
            for j in range(1, length + 1):
                if j < len(locator):
                    delta = (delta + locator[j] * syndromes[i - j]) % p
            if delta == 0:
                shift += 1
                continue
            scale = delta * pow(prev_delta, p - 2, p) % p
            update = locator[:]
            needed = len(previous) + shift
            if needed > len(update):
                update += [0] * (needed - len(update))
            for j, c in enumerate(previous):
                update[j + shift] = (update[j + shift] - scale * c) % p
            if 2 * length <= i:
                previous = locator
                prev_delta = delta
                length = i + 1 - length
                shift = 1
            else:
                shift += 1
            locator = update
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        return locator

    def _inverse_points(self, degrees: np.ndarray) -> np.ndarray:
        # alpha^(-degree)
        return self._antilog[-degrees % (self.prime - 1)]

    def _error_degrees(self, locator: list[int], n: int) -> np.ndarray:
        # Chien search: roots of the locator are inverse error locations
        values = _eval_poly(locator, self._inverse_points(np.arange(n)), self.prime)
        return np.flatnonzero(values == 0)

    def _error_values(self, syndromes: np.ndarray, locator: list[int], degrees: np.ndarray) -> np.ndarray:
        # Forney: e = -Omega(X^-1) / Lambda'(X^-1), Omega = S(x) Lambda(x) mod x^e
        p = self.prime
        omega = np.convolve(syndromes, np.array(locator, dtype=np.int64))[: len(degrees)] % p
        derivative = [j * c % p for j, c in enumerate(locator)][1:]
        points = self._inverse_points(degrees)
        numerators = _eval_poly(omega.tolist(), points, p)
        denominators = _eval_poly(derivative, points, p)
        if not denominators.all():
            raise EccError("singular error-location system")
        inverses = np.array([pow(int(d), p - 2, p) for d in denominators], dtype=np.int64)
        return -numerators * inverses % p

    # -- symbol framing ------------------------------------------------------

    def _field_to_symbols(self, elements: list[int]) -> list[int]:
        out = []
        for value in elements:
            digits = []
            for _ in range(self.digits_per_field):
                digits.append(value % self.symbol_count)
                value //= self.symbol_count
            out.extend(d + 1 for d in reversed(digits))
        return out

    def _symbols_to_field(self, symbols: Sequence[int]) -> list[int]:
        if len(symbols) != self.parity_len:
            raise ValueError(f"expected {self.parity_len} parity symbols")
        out = []
        for start in range(0, len(symbols), self.digits_per_field):
            value = 0
            for s in symbols[start : start + self.digits_per_field]:
                if not 1 <= s <= self.symbol_count:
                    raise ValueError("parity symbols out of range")
                value = value * self.symbol_count + (s - 1)
            if value >= self.prime:
                raise EccError("parity digits decode outside the field")
            out.append(value)
        return out

    def _check_payload(self, payload: Sequence[int]):
        if len(payload) != self.payload_len:
            raise ValueError(f"expected payload of {self.payload_len} symbols")
        if any(not 1 <= v <= self.symbol_count for v in payload):
            raise ValueError(f"payload symbols must lie in 1..{self.symbol_count}")

    # -- public API ----------------------------------------------------------

    def encode(self, payload: Sequence[int]) -> list[int]:
        self._check_payload(payload)
        if self.n_parity_field == 0:
            return []
        message = np.array(payload, dtype=np.int64) - 1
        parity = -_mat_vec_mod(self._parity_matrix, message, self.prime) % self.prime
        return self._field_to_symbols(parity.tolist())

    def decode(self, payload: Sequence[int], parity: Sequence[int]) -> list[int]:
        self._check_payload(payload)
        if self.n_parity_field == 0:
            return list(payload)
        word = np.array([v - 1 for v in payload] + self._symbols_to_field(parity), dtype=np.int64)
        syndromes = self._syndromes(word)
        if not syndromes.any():
            return list(payload)
        locator = self._berlekamp_massey(syndromes.tolist())
        n_errors = len(locator) - 1
        if n_errors > self.radius:
            raise EccError(f"{n_errors} errors exceed the radius {self.radius}")
        n = len(word)
        degrees = self._error_degrees(locator, n)
        if len(degrees) != n_errors:
            raise EccError("error locator roots do not match its degree")
        values = self._error_values(syndromes, locator, degrees)
        positions = n - 1 - degrees
        word[positions] = (word[positions] - values) % self.prime
        if self._syndromes(word).any():
            raise EccError("correction left nonzero syndromes")
        fixed = word[: self.payload_len]
        if (fixed >= self.symbol_count).any():
            raise EccError("corrected payload leaves the symbol alphabet")
        return (fixed + 1).tolist()


def _eval_poly(coeffs: Sequence[int], points: np.ndarray, p: int) -> np.ndarray:
    """Horner evaluation mod p of a polynomial given lowest degree first."""
    values = np.zeros(len(points), dtype=np.int64)
    for c in reversed(coeffs):
        values = (values * points + c) % p
    return values


def _mat_vec_mod(matrix: np.ndarray, vector: np.ndarray, p: int) -> np.ndarray:
    """matrix @ vector mod p, entries in 0..p-1, exact in int64.

    Columns are taken in slices short enough that no partial sum of
    products below p**2 reaches 2**62.
    """
    step = max(1, 2**62 // max(1, (p - 1) ** 2))
    acc = np.zeros(matrix.shape[0], dtype=np.int64)
    for lo in range(0, matrix.shape[1], step):
        acc = (acc + matrix[:, lo : lo + step] @ vector[lo : lo + step]) % p
    return acc
