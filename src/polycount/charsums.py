"""Multiplicative characters and exact evaluation of their sums.

Three sum species: monomial exponential sums over F_{q^t}, Gauss sums,
and Jacobi sums.  A monomial or Gauss sum over F_{q^t} depends on an
element gamma_t^j only through j mod g and its absolute trace: a Gauss sum
is a Fourier coefficient of TowerCtx.trace_hist(t, g), a monomial sum counts
one class from the walk TowerCtx.trace_blocks.  Jacobi sums histogram their
character exponents directly.  Counts become a CycInt once at the end, so
the intermediate work is plain integer vector addition.

For p = 2 the Davenport-Hasse identity lifts a Gauss sum from the small
field carrying the character to any extension by sign-twisted exact
powering; norm compatibility of the two character pinnings is automatic
when both levels live in one tower.

The sums in Z[zeta_N] (gauss_sum_folded, gauss_sum_lifted, jacobi_brute)
are Galois-equivariant: at chi^k, gcd(k, N) = 1, each is sigma_k (zeta_N ->
zeta_N^k, `CycInt.galois`) of its value at chi, the same coefficients
permuted.  So a caller that needs every character of order N computes one
sum per order, at k = 1, and permutes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt
from .errors import ValidationError
from .fields import FieldCtx, FieldElement, TowerCtx, _index_add, check_cap


@dataclass(frozen=True)
class MultChar:
    """Character of F_{q^t}* pinned to the tower generators.

    The canonical order-n character sends gamma_t to zeta_n; this object
    is its k-th power.  Values are exponent indices into zeta_n, with
    lambda(0) = 0 for nontrivial characters and lambda_0(0) = 1.
    """

    level: int
    order: int
    k: int = 1

    def exponent_of_log(self, j: int) -> int:
        return (self.k * j) % self.order

    @property
    def is_trivial(self) -> bool:
        return self.k % self.order == 0

    def value_exponent(self, tower: TowerCtx, x: FieldElement):
        """Exponent e with lambda(x) = zeta_order^e, or None when lambda(x) = 0."""
        if x.is_zero():
            return 0 if self.is_trivial else None
        return self.exponent_of_log(tower.dlog_gamma(x, self.level))


def monomial_sum(tower: TowerCtx, t: int, i: int, n: int, cap: int | None = None) -> CycInt:
    """sum over x in F_{q^t}* of e_t(gamma_t^i * x^n), exactly, in Z[zeta_p].

    n need not divide q^t - 1: with g = gcd(n, q^t - 1) the exponents
    i + k*n mod (q^t - 1) run g times over the class of i mod g, so the
    sum is g times the trace counts of that class, at offset (i - start) mod g
    in each block; the cap is tested on that read, q^t/g + p, and the orbit.
    """
    if n <= 0:
        raise ValidationError("monomial exponent must be positive")
    g = math.gcd(n, tower.q**t - 1)
    check_cap(tower.q**t // g + tower.p, cap, f"class {i % g} mod {g} of F_{{q^{t}}}*")
    row = np.zeros(tower.p, dtype=np.int64)
    for start, traces in tower.trace_blocks(t, cap):
        row += np.bincount(traces[(i - start) % g :: g], minlength=tower.p)
    return CycInt.from_counts(tower.p, (g * row).tolist())


def gauss_sum(tower: TowerCtx, t: int, chi: MultChar, cap: int | None = None) -> CycInt:
    """G_t(chi) = sum over F_{q^t}* of e_t(x) chi(x), in Z[zeta_{pN}].

    chi(gamma_t^j) = zeta_N^{k c} for j in class c mod N, so the trace
    histogram by N classes counts zeta_p^tau zeta_N^{k c} at [c, tau].
    """
    if chi.level != t:
        raise ValidationError("character level does not match the field")
    p, n = tower.p, chi.order
    hist = tower.trace_hist(t, n, cap)
    order = p * n
    exps = (np.arange(p) * n + (chi.k * np.arange(n) % n * p)[:, None]) % order
    coeffs = np.zeros(order, dtype=np.int64)
    np.add.at(coeffs, exps, hist)
    return CycInt(order, coeffs.tolist())


def gauss_sum_folded(tower: TowerCtx, t: int, chi: MultChar, cap: int | None = None) -> CycInt:
    """Same Gauss sum for p = 2, folded into Z[zeta_N] via zeta_2 = -1."""
    if tower.p != 2:
        raise ValidationError("sign folding needs characteristic 2")
    if chi.level != t:
        raise ValidationError("character level does not match the field")
    n = chi.order
    hist = tower.trace_hist(t, n, cap)
    coeffs = np.zeros(n, dtype=np.int64)
    np.add.at(coeffs, chi.k * np.arange(n) % n, hist[:, 0] - hist[:, 1])
    return CycInt(n, coeffs.tolist())


def gauss_sum_lifted(tower: TowerCtx, chi: MultChar, t_prime: int, cap: int | None = None) -> CycInt:
    """Gauss sum over the degree-t' extension of level chi.level, by lifting.

    Characteristic 2 only: equals -(-F(chi))^{t'} where F is the Gauss sum
    over the subfield at level chi.level, per the Davenport-Hasse identity.
    The result lives in Z[zeta_N] and matches the direct Gauss sum at level
    chi.level * t_prime with the norm-compatible character.
    """
    f = gauss_sum_folded(tower, chi.level, chi, cap)
    return -((-f) ** t_prime)


# the trailing coordinates of jacobi_brute are enumerated together, this many at most (or q)
_JACOBI_BLOCK = 1 << 12


def jacobi_brute(field: FieldCtx, n: int, k: int, t: int, cap: int | None = None) -> CycInt:
    """J_t(lambda) = sum over x_1 + ... + x_t = 1 of lambda(x_1 ... x_t).

    lambda is the k-th power of the canonical order-n character of F_q*
    (sending field.generator to zeta_n).  Iterates the t - 1 free
    coordinates directly, the trailing ones as numpy blocks of element
    indices, in O(q) memory; exact in Z[zeta_n].
    """
    q, p, r = field.order, field.p, field.r
    if n < 1 or (q - 1) % n != 0:
        raise ValidationError("character order must be a positive divisor of q - 1")
    if t < 1:
        raise ValidationError("a Jacobi sum needs t >= 1 variables")
    check_cap(q ** max(t - 1, 0), cap, f"the Jacobi sum with {t} variables")
    if t == 1:
        return CycInt.integer(n, 1)  # lambda(1)

    # exponent of lambda at each nonzero index (entry 0 is never read unmasked)
    exps = field.log_table().astype(np.int64) * k % n
    exps_list = exps.tolist()
    # all w-tuples of the trailing coordinates: index of their sum, exponent, any zero
    width = 1
    while width < t - 1 and q ** (width + 1) <= max(q, _JACOBI_BLOCK):
        width += 1
    xs = np.arange(q, dtype=np.int64)
    tail_sum, tail_exp, tail_zero = np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, bool)
    for _ in range(width):
        tail_sum = _index_add(tail_sum[:, None], xs[None, :], p, r).ravel()
        tail_exp = ((tail_exp[:, None] + exps[None, :]) % n).ravel()
        tail_zero = (tail_zero[:, None] | (xs == 0)[None, :]).ravel()

    one_idx = field.one.index
    coeffs = np.zeros(n, dtype=np.int64)
    with_zero = 0  # tuples with a zero coordinate: lambda_0 takes value 1 there
    for head in itertools.product(range(q), repeat=t - 1 - width):
        if 0 in head:
            with_zero += len(tail_sum)
            continue
        s, e = 0, 0
        for i in head:
            s = _index_add(s, i, p, r)
            e += exps_list[i]
        last = _index_add(one_idx, _index_add(s, tail_sum, p, r), p, r, sign=-1)
        dead = tail_zero | (last == 0)
        live = ~dead
        coeffs += np.bincount((e + tail_exp[live] + exps[last[live]]) % n, minlength=n)
        with_zero += int(np.count_nonzero(dead))
    if k % n == 0:
        coeffs[0] += with_zero
    return CycInt(n, coeffs.tolist())


def semiprimitive_shift(p: int, e: int, nt: int, v: int) -> int:
    """The shift k_v of the semiprimitive monomial sum for v | p^e + 1 at degree nt over F_{p^{2e}}.

    k_v = v/2 exactly when p > 2, nt is odd and (p^e + 1)/v is odd, else 0.
    """
    if p > 2 and nt % 2 == 1 and v % 2 == 0 and ((p**e + 1) // v) % 2 == 1:
        return v // 2
    return 0


def monomial_closed_semiprimitive(p: int, e: int, n: int, t: int, s: int, i: int) -> int:
    """Closed value of sum_{x != 0} e_t(gamma_t^i x^s) when s | p^e + 1, r = 2en.

    Two values only, split by i mod s against the shift k_s (semiprimitive_shift).
    """
    if (p**e + 1) % s != 0:
        raise ValidationError("semiprimitive closed form needs s | p^e + 1")
    k_s = semiprimitive_shift(p, e, n * t, s)
    root = p ** (e * n * t)  # sqrt(q^t) for q = p^{2en}
    sign = -1 if (n * t) % 2 else 1
    if i % s == k_s % s:
        return -sign * (s - 1) * root - 1
    return sign * root - 1


def monomial_closed_char2(r: int, t: int, big_n: int, i: int) -> int:
    """Closed value of sum over ALL x in F_{2^{rt}} of e_t(gamma_t^i x^N).

    Needs -1 to be a power of 2 mod N (semiprimitive N); the sum is
    (-1)^{N'} sqrt(q^t) off the zero class and (-1)^{N'-1}(N-1) sqrt(q^t)
    on it, with N' = rt / ord_N(2).
    """
    from .intmath import multiplicative_order

    if big_n <= 1:
        raise ValidationError("N must exceed 1")
    ord2 = multiplicative_order(2, big_n)
    if not (ord2 % 2 == 0 and pow(2, ord2 // 2, big_n) == big_n - 1):
        raise ValidationError(f"-1 is not a power of 2 modulo {big_n}")
    if (r * t) % ord2 != 0:
        raise ValidationError("ord_N(2) must divide rt")
    n_prime = (r * t) // ord2
    root = 2 ** ((r * t) // 2)
    sign = -1 if n_prime % 2 else 1
    if i % big_n == 0:
        return -sign * (big_n - 1) * root
    return sign * root
