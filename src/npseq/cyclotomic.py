"""Exact integer arithmetic in Z[zeta_p] for prime p.

Elements are stored as length-p coefficient vectors over the powers
1, zeta, ..., zeta^(p-1) and kept in a canonical form with the last
coefficient forced to zero via the relation 1 + zeta + ... + zeta^(p-1) = 0.
Since {1, zeta, ..., zeta^(p-2)} is an integral basis for prime p, canonical
vectors are unique and equality/hashing are plain tuple comparisons.

p = 2 is allowed (zeta_2 = -1), which makes binary sequences usable as cheap
cross-checks. The input caps live here too, with _pair_counts, the one count of
R R^(-1) in Z_N x Z_p behind both a profile and a difference multiset.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Collection
from dataclasses import dataclass
from functools import lru_cache


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017). The first 12 alone
# pass the composite 318665857834031151167461.
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n < PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(
            f"{n} is at or above {PRIME_TEST_LIMIT}, the limit of the exact primality test"
        )
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


# Largest N * p accepted for the dense N x p count matrices (one int of N rows
# of 2p slots of 8, 16 or 32 bits each) and grids over Z_N x Z_p.
MAX_CELLS = 10**6


def _require_grid(N: int, p: int) -> None:
    """Refuse an N x p grid above MAX_CELLS, then a composite p: the cap comes
    first, so a huge p is refused before any primality work."""
    if N * p > MAX_CELLS:
        raise ValueError(
            f"N*p = {N}*{p} exceeds the limit of {MAX_CELLS} cells for dense N x p grids"
        )
    _require_prime(p)


# Largest k^2 accepted by _pair_counts: MAX_CELLS bounds the grids' memory, this its time.
MAX_PAIRS = 1 << 22


def _pair_counts(N: int, p: int, elements: Collection[tuple[int, int]]) -> list[list[int]]:
    """R R^(-1) for the k elements (h, g) of R in Z_N x Z_p, after refusing k^2
    above MAX_PAIRS: grid[d_h][d_g] counts the ordered pairs (h1 - h2, g1 - g2)."""
    k = len(elements)
    if k * k > MAX_PAIRS:
        raise ValueError(f"{k} elements form {k * k} ordered pairs, above the limit of {MAX_PAIRS}")
    grid = [[0] * p for _ in range(N)]
    for h1, g1 in elements:
        for h2, g2 in elements:
            grid[h1 - h2][g1 - g2] += 1  # a negative difference wraps
    return grid


def _canonicalize(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Subtract the last coefficient from every entry so coeffs[-1] == 0."""
    last = coeffs[-1]
    if last == 0:
        return coeffs
    return tuple([c - last for c in coeffs])


@dataclass(frozen=True)
class CyclotomicInt:
    """Canonical element of Z[zeta_p]; immutable value type."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.p:
            raise ValueError(f"expected {self.p} coefficients, got {len(self.coeffs)}")
        if self.coeffs[-1] != 0:
            raise ValueError("coefficient vector is not canonical")

    @classmethod
    def from_coeffs(cls, p: int, coeffs: tuple[int, ...] | list[int]) -> CyclotomicInt:
        """Build from an arbitrary length-p coefficient vector, canonicalizing."""
        _require_prime(p)
        coeffs = tuple(coeffs)
        if len(coeffs) != p:
            raise ValueError(f"expected {p} coefficients, got {len(coeffs)}")
        return cls(p, _canonicalize(coeffs))

    @classmethod
    def zero(cls, p: int) -> CyclotomicInt:
        _require_prime(p)
        return cls(p, (0,) * p)

    @classmethod
    def from_int(cls, p: int, c: int) -> CyclotomicInt:
        _require_prime(p)
        return cls(p, (c,) + (0,) * (p - 1))

    @classmethod
    def from_root_power(cls, p: int, b: int) -> CyclotomicInt:
        """The root of unity zeta_p^b, 0 <= b < p."""
        _require_prime(p)
        if not 0 <= b < p:
            raise ValueError(f"root exponent {b} out of range for p={p}")
        coeffs = [0] * p
        coeffs[b] = 1
        return cls(p, _canonicalize(tuple(coeffs)))

    def _check_compatible(self, other: CyclotomicInt) -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli: {self.p} vs {other.p}")

    def __add__(self, other: CyclotomicInt) -> CyclotomicInt:
        self._check_compatible(other)
        return CyclotomicInt(
            self.p,
            _canonicalize(tuple(a + b for a, b in zip(self.coeffs, other.coeffs))),
        )

    def __neg__(self) -> CyclotomicInt:
        return CyclotomicInt(self.p, tuple(-c for c in self.coeffs))

    def __sub__(self, other: CyclotomicInt) -> CyclotomicInt:
        return self + (-other)

    def __mul__(self, other: CyclotomicInt) -> CyclotomicInt:
        self._check_compatible(other)
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                out[(i + j) % p] += a * b
        return CyclotomicInt(p, _canonicalize(tuple(out)))

    def conjugate(self) -> CyclotomicInt:
        """Complex conjugation: zeta^j maps to zeta^(p-j)."""
        p = self.p
        out = [0] * p
        for j, c in enumerate(self.coeffs):
            out[(p - j) % p] = c
        return CyclotomicInt(p, _canonicalize(tuple(out)))

    def as_int(self) -> int | None:
        """The rational integer this value equals, or None if it is not one."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_complex(self) -> complex:
        """Floating-point evaluation at exp(2*pi*i/p); for cross-checks only."""
        roots = _float_roots(self.p)
        return sum(c * roots[j] for j, c in enumerate(self.coeffs) if c != 0)

    def __repr__(self) -> str:
        return f"CyclotomicInt(p={self.p}, coeffs={list(self.coeffs)})"


@lru_cache(maxsize=None)
def _float_roots(p: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * j / p) for j in range(p))
