"""Systematic symbol code protecting duration-index sequences.

The code speaks the quantizer's symbol language: payloads are sequences
over {1..ell} and parity comes back as a sequence over {1..ell} too, so
the downstream letter encoding never needs to know how the code works
internally.  It is a Reed-Solomon code over a prime field whose parity
elements are spelled out in fixed-width base-ell digits.
"""

from __future__ import annotations

import math
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

    def _parity_of(self, message: list[int]) -> list[int]:
        # remainder of message(x) * x^{2t} divided by the generator polynomial
        p = self.prime
        n_par = self.n_parity_field
        if n_par == 0:
            return []
        work = np.array(message + [0] * n_par, dtype=object)
        gen = np.array(self._gen_poly[1:], dtype=object)  # monic: skip lead 1
        for i in range(len(message)):
            coef = work[i] % p
            if coef:
                work[i + 1 : i + 1 + n_par] = (work[i + 1 : i + 1 + n_par] - coef * gen) % p
        return [(-int(c)) % p for c in work[len(message):]]

    def _syndromes(self, word: list[int]) -> list[int]:
        # S_i = word(alpha^i) with entry j holding the degree n-1-j coefficient
        p = self.prime
        n_par = self.n_parity_field
        powers = np.array(
            [pow(self.generator, i, p) for i in range(1, n_par + 1)], dtype=np.int64
        )
        acc = np.zeros(n_par, dtype=np.int64)
        for c in word:
            acc = (acc * powers + c) % p
        return [int(s) for s in acc]

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

    def _error_degrees(self, locator: list[int], n: int) -> list[int]:
        # roots of the locator give inverse error locations alpha^degree
        p = self.prime
        degrees = []
        coeffs = np.array(locator[::-1], dtype=np.int64)  # highest first for Horner
        inv_alpha = pow(self.generator, p - 2, p)
        points = np.array([pow(inv_alpha, d, p) for d in range(n)], dtype=np.int64)
        values = np.zeros(n, dtype=np.int64)
        for c in coeffs:
            values = (values * points + c) % p
        for d in range(n):
            if values[d] == 0:
                degrees.append(d)
        return degrees

    def _error_values(self, syndromes: list[int], degrees: list[int]) -> list[int]:
        # solve sum_m e_m * (alpha^{d_m})^i = S_i, Gaussian elimination mod p
        p = self.prime
        e = len(degrees)
        locs = [pow(self.generator, d, p) for d in degrees]
        rows = []
        for i in range(1, e + 1):
            rows.append([pow(x, i, p) for x in locs] + [syndromes[i - 1]])
        for col in range(e):
            pivot = next((r for r in range(col, e) if rows[r][col]), None)
            if pivot is None:
                raise EccError("singular error-location system")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = pow(rows[col][col], p - 2, p)
            rows[col] = [c * inv % p for c in rows[col]]
            for r in range(e):
                if r != col and rows[r][col]:
                    factor = rows[r][col]
                    rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
        return [rows[r][e] for r in range(e)]

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
        message = [v - 1 for v in payload]
        return self._field_to_symbols(self._parity_of(message))

    def decode(self, payload: Sequence[int], parity: Sequence[int]) -> list[int]:
        self._check_payload(payload)
        if self.n_parity_field == 0:
            return list(payload)
        word = [v - 1 for v in payload] + self._symbols_to_field(parity)
        syndromes = self._syndromes(word)
        if not any(syndromes):
            return list(payload)
        locator = self._berlekamp_massey(syndromes)
        n_errors = len(locator) - 1
        if n_errors > self.radius:
            raise EccError(f"{n_errors} errors exceed the radius {self.radius}")
        degrees = self._error_degrees(locator, len(word))
        if len(degrees) != n_errors:
            raise EccError("error locator roots do not match its degree")
        values = self._error_values(syndromes, degrees)
        corrected = list(word)
        n = len(word)
        for degree, value in zip(degrees, values):
            position = n - 1 - degree
            corrected[position] = (corrected[position] - value) % self.prime
        if any(self._syndromes(corrected)):
            raise EccError("correction left nonzero syndromes")
        fixed = corrected[: self.payload_len]
        if any(v >= self.symbol_count for v in fixed):
            raise EccError("corrected payload leaves the symbol alphabet")
        return [v + 1 for v in fixed]

