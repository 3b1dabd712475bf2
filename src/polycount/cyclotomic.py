"""Exact arithmetic in rings of roots of unity.

`CycInt` holds an element of Z[zeta_L] as a length-L integer vector in
Z[x]/(x^L - 1); equality and integer extraction reduce modulo the L-th
cyclotomic polynomial.  Working modulo x^L - 1 keeps the hot path (adding
histograms of character values) to plain vector addition; the reduction
only happens at comparison time.  A power packs the vector once into one
integer modulo 2^{BL} - 1 with B = n * bitlen(sum |c_i|) + 2 bits a coefficient,
enough for every coefficient of the power (at most (sum |c_i|)^n <= 2^{B-2}),
squares and multiplies there, and unpacks once.

Every character value is a `CycInt`: Z[i] is `CycInt(4)` and Z[zeta_3] is
`CycInt(3)`, which is where the quartic and cubic Jacobi-sum parameters and
the closed Jacobi sums live.  `sqrt_minus` places sqrt(-D) in Z[zeta_L]
for the catalog's index-2 Gauss sums u + v sqrt(-D).

No floating point anywhere; magnitude checks compare squared moduli.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvariantError, OrderMismatch
from .intmath import cyclotomic_poly, legendre, poly_divmod_z


class CycInt:
    """Element of Z[zeta_L] stored as coefficients of 1, zeta, ..., zeta^{L-1}."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 1:
            raise ValueError("root-of-unity order must be >= 1")
        self.order = order
        if coeffs is None:
            self.coeffs = (0,) * order
        else:
            coeffs = tuple(int(c) for c in coeffs)
            if len(coeffs) != order:
                raise ValueError("coefficient vector must have length L")
            self.coeffs = coeffs

    @classmethod
    def integer(cls, order: int, n: int) -> "CycInt":
        return cls(order, (int(n),) + (0,) * (order - 1))

    @classmethod
    def root(cls, order: int, exponent: int) -> "CycInt":
        """zeta_L^exponent."""
        v = [0] * order
        v[exponent % order] = 1
        return cls(order, v)

    @classmethod
    def from_counts(cls, order: int, counts) -> "CycInt":
        """Histogram of exponents -> sum of roots (counts indexed by exponent)."""
        v = [0] * order
        for e, c in enumerate(counts):
            v[e % order] += int(c)
        return cls(order, v)

    def _check(self, other: "CycInt") -> None:
        if self.order != other.order:
            raise OrderMismatch(
                f"cyclotomic orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.order, other)
        self._check(other)
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.order, tuple(a * other for a in self.coeffs))
        self._check(other)
        L = self.order
        out = [0] * L
        # a root of unity has one nonzero term: multiplying by it is a rotation
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    k = i + j
                    out[k - L if k >= L else k] += a * b
        return CycInt(L, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative cyclotomic powers are not defined here")
        # One packed integer: x -> 2^B maps Z[x]/(x^L - 1) onto Z/(2^{BL} - 1).
        # With S = sum |c_i|, every coefficient of self^n is at most S^n <= 2^{B-2}
        # in magnitude, so the packed value lies within M/2 of 0 and its balanced
        # base-2^B digits are exactly repeated __mul__'s coefficients.
        L = self.order
        B = n * sum(map(abs, self.coeffs)).bit_length() + 2
        BL = B * L
        M = (1 << BL) - 1
        base = 0
        for c in reversed(self.coeffs):
            base = (base << B) + c
        base %= M
        acc = 1
        while n:
            if n & 1:
                acc = _fold(acc * base, BL, M)
            n >>= 1
            if n:
                base = _fold(base * base, BL, M)
        if acc > M >> 1:
            acc -= M
        mask, coeffs = (1 << B) - 1, []
        for _ in range(L):
            d = acc & mask
            acc >>= B
            if d >> (B - 1):  # a negative digit borrows one from the digit above
                d -= 1 << B
                acc += 1
            coeffs.append(d)
        return CycInt(L, coeffs)

    def galois(self, k: int) -> "CycInt":
        """sigma_k: zeta -> zeta^k, moving coefficient e to e k mod L.

        A ring automorphism of Z[x]/(x^L - 1) when gcd(k, L) = 1, so it maps
        sums, products and powers coefficient for coefficient; a Gauss or
        Jacobi sum of chi^k is sigma_k of the sum of chi.
        """
        L = self.order
        if math.gcd(k, L) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism of Z[zeta_{L}]")
        v = [0] * L
        for e, c in enumerate(self.coeffs):
            v[e * k % L] = c
        return CycInt(L, v)

    def conjugate(self) -> "CycInt":
        """Complex conjugation, sigma_{-1}."""
        return self.galois(-1)

    def twice_real(self) -> int:
        """z + conj(z), which must reduce to a rational integer."""
        return (self + self.conjugate()).expect_integer("twice the real part")

    def reduced(self) -> tuple[int, ...]:
        """Canonical representative: remainder mod Phi_L, low degree first."""
        phi = list(cyclotomic_poly(self.order))
        _, rem = poly_divmod_z(list(self.coeffs), phi)
        return tuple(rem)

    def is_zero(self) -> bool:
        return self.reduced() == (0,)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.order, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.order, self.reduced()))

    def as_integer(self):
        """The rational integer this value equals, or None if it is not one."""
        rem = self.reduced()
        if len(rem) == 1:
            return rem[0]
        return None

    def expect_integer(self, what: str = "value") -> int:
        n = self.as_integer()
        if n is None:
            raise InvariantError(f"{what} did not reduce to a rational integer")
        return n

    def embed(self, new_order: int) -> "CycInt":
        """Reinterpret in Z[zeta_{L'}] for L | L' via zeta_L -> zeta_{L'}^{L'/L}."""
        if new_order % self.order != 0:
            raise OrderMismatch(f"{self.order} does not divide {new_order}")
        step = new_order // self.order
        v = [0] * new_order
        for k, c in enumerate(self.coeffs):
            v[(k * step) % new_order] += c
        return CycInt(new_order, v)

    def serialize(self) -> list[int]:
        return list(self.coeffs)

    def __repr__(self):
        return f"CycInt({self.order}, {list(self.coeffs)})"


def _fold(v: int, bl: int, m: int) -> int:
    """v mod m for m = 2^bl - 1 and 0 <= v <= m^2, by 2^bl = 1 mod m: no division."""
    v = (v & m) + (v >> bl)
    return v - m if v >= m else v


def integer_from_counts(counts: list[int], what: str = "value") -> int:
    """sum_tau counts[tau] zeta_p^tau, p = len(counts) prime, as an integer; InvariantError if it is none.

    The p powers summing to 0 is their one relation, so it is one exactly when
    counts[1] = ... = counts[p - 1], and then it is counts[0] - counts[1]."""
    c0, c1, *rest = counts
    if rest.count(c1) != len(rest):
        raise InvariantError(f"{what} did not reduce to a rational integer")
    return c0 - c1


@lru_cache(maxsize=64)
def quadratic_gauss_sum(ell: int) -> CycInt:
    """sum_k (k|ell) zeta_ell^k: sqrt(ell) if ell = 1 mod 4, sqrt(-ell) if 3 mod 4."""
    v = [0] * ell
    for k in range(1, ell):
        v[k] = legendre(k, ell)
    return CycInt(ell, v)


def sqrt_minus(d: int, order: int) -> CycInt:
    """sqrt(-d) as an element of Z[zeta_order] for d in {3, 7, 15, 23}."""
    if d in (3, 7, 23):
        return quadratic_gauss_sum(d).embed(order)
    if d == 15:
        # sqrt(-15) = sqrt(-3) * sqrt(5)
        s3 = quadratic_gauss_sum(3).embed(15)
        s5 = quadratic_gauss_sum(5).embed(15)
        return (s3 * s5).embed(order)
    raise ValueError(f"no construction for sqrt(-{d})")
