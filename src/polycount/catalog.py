"""Characteristic-2 closed forms: P_m(0, q-1, h) for every m <= 30.

For q = 2^r and b fixed (s = q - 1), each m <= 30 falls into the
semiprimitive machinery (powers of two, semiprimitive primes and their
composites) or one of three square-free index-2 classes (7 and 23; 15;
21).  The index-2 branches involve Gauss sums over the small field
F_{2^{ord_N 2}} that are pinned only up to a sign c; the sign is resolved
here by computing those Gauss sums directly, with the character tied to
delta = Norm(g) for the canonical generator g of F_q, and never assumed.

All branch arithmetic is exact: rationals as Fractions, and each index-2
constant (u + v sqrt(-D)) / sqrt(2)^k as the integers (D, u, v, k).  A
branch reads a constant only as Re(omega^e mu) sqrt(2)^j (`_re`, `_tr`),
from the integer pair (u + v sqrt(-D))^e mu and the sqrt(2) exponent
j - k e, which must be even unless the real part is 0: `_re` raises
ValueError on an odd one, and a branch total that is not a nonnegative
integer raises InvariantError.

The general route (`p2_general_pm`) evaluates the same counts through
Gauss sums lifted by the Davenport-Hasse identity, with no closed-form
table, and works for any m; catalog/general equality is a core test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .charsums import gauss_sum_folded
from .counting import CountSpec, p_m
from .cyclotomic import CycInt, sqrt_minus
from .errors import (
    InvalidInput,
    InvariantError,
    NoCandidateMatch,
    OutOfCatalog,
    ValidationError,
)
from .fields import DEFAULT_ENUM_CAP, FieldElement, build_field, build_tower
from .intmath import factorize, multiplicative_order, sqrt_q_power


@dataclass(frozen=True)
class Index2Class:
    """Classification of an odd modulus N for the characteristic-2 theory."""

    n: int
    kind: str  # semiprimitive | case1 | case2 | case3 | other
    ord2: int
    witnesses: tuple[int, ...] = ()


def classify(n: int) -> Index2Class:
    """Semiprimitive / index-2 classification of odd N > 1."""
    if n <= 1 or n % 2 == 0:
        raise InvalidInput(f"classification needs odd N > 1, got {n}")
    ord2 = multiplicative_order(2, n)
    minus_one = ord2 % 2 == 0 and pow(2, ord2 // 2, n) == n - 1
    if minus_one:
        return Index2Class(n=n, kind="semiprimitive", ord2=ord2)
    from .intmath import euler_phi

    if 2 * ord2 != euler_phi(n):
        return Index2Class(n=n, kind="other", ord2=ord2)
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return Index2Class(n=n, kind="other", ord2=ord2)
    primes = sorted(fac)
    if len(primes) == 1:
        p2 = primes[0]
        if p2 % 8 == 7:
            return Index2Class(n=n, kind="case1", ord2=ord2, witnesses=(p2,))
        return Index2Class(n=n, kind="other", ord2=ord2)
    if len(primes) == 2:
        for p1, p2 in (primes, primes[::-1]):
            if (
                p1 % 8 == 5
                and p2 % 8 == 3
                and multiplicative_order(2, p1) == p1 - 1
                and multiplicative_order(2, p2) == p2 - 1
            ):
                return Index2Class(n=n, kind="case2", ord2=ord2, witnesses=(p1, p2))
            o2 = multiplicative_order(2, p2)
            if (
                p1 % 8 in (3, 5)
                and p2 % 8 == 7
                and multiplicative_order(2, p1) == p1 - 1
                and o2 == (p2 - 1) // 2
                and not (o2 % 2 == 0 and pow(2, o2 // 2, p2) == p2 - 1)
            ):
                return Index2Class(n=n, kind="case3", ord2=ord2, witnesses=(p1, p2))
    return Index2Class(n=n, kind="other", ord2=ord2)


def coset2(n: int, i: int) -> tuple[int, ...]:
    """The 2-cyclotomic coset modulo n containing i (orbit under doubling)."""
    i %= n
    out = set()
    while i not in out:
        out.add(i)
        i = 2 * i % n
    return tuple(sorted(out))


# candidate shapes (D, u, v) of the small-field Gauss sums u + v sqrt(-D), per modulus
_GAUSS_CANDIDATES = {
    7: lambda c: (7, -1, c),  # -1 + c sqrt(-7)
    15: lambda c: (15, 1, c),  # 1 + c sqrt(-15)
    21: lambda c: (7, -6, -2 * c),  # -2(3 + c sqrt(-7))
    23: lambda c: (23, -24, 8 * c),  # 8(-3 + c sqrt(-23))
}

# The four index-2 constants (u + v sqrt(-D)) / sqrt(2)^k used by the p=2 closed forms, as (D, u, v, k).
OMEGA_7 = (7, 1, 1, 3)  # (1 + sqrt(-7)) / sqrt(8)
OMEGA_15 = (15, -1, -1, 4)  # -(1 + sqrt(-15)) / 4
OMEGA_21 = (7, 3, 1, 0)  # 3 + sqrt(-7)
OMEGA_23 = (23, 3, -1, 0)  # 3 - sqrt(-23)


class P2Context:
    """Everything the catalog needs for one field F_{2^r}."""

    def __init__(self, r: int):
        self.r = r
        self.q = 2**r
        self._signs: dict[int, tuple[tuple[int, int, int], int]] = {}

    @property
    def field(self):
        """F_{2^r} as build_field currently serves it (never a stale copy)."""
        return build_field(2, self.r)

    def ind(self, b) -> int:
        """dlog of b relative to the canonical generator of F_{2^r}."""
        field = self.field
        if isinstance(b, int):
            b = field.from_index(b)
        if not isinstance(b, FieldElement) or b.ctx is not field:
            raise ValidationError("b must be an element of F_{2^r}")
        if b.is_zero():
            raise ValidationError("b must be nonzero")
        return field.dlog(b)

    def resolve_gauss(self, n: int) -> tuple[tuple[int, int, int], int]:
        """The small-field Gauss sum (D, u, v), u + v sqrt(-D), for modulus n and its resolved sign c.

        The character chi has order n over F_{2^{r'}}, r' = ord_n 2, and is
        pinned by chi(delta) = zeta_n with delta the norm of the canonical
        generator of F_q down to that subfield; so c is a function of the
        serialized field data only.  Requires r' | r.
        """
        if n in self._signs:
            return self._signs[n]
        if n not in _GAUSS_CANDIDATES:
            raise ValidationError(f"no two-candidate form is known for N = {n}")
        r_small = multiplicative_order(2, n)
        if self.r % r_small != 0:
            raise ValidationError(f"F_{{2^{self.r}}} has no subgroup of order {n}")
        sub = build_tower(2, r_small, self.r // r_small)
        val = gauss_sum_folded(sub, 1, n)
        for c in (1, -1):
            d, u, v = cand = _GAUSS_CANDIDATES[n](c)
            if val == CycInt.integer(n, u) + sqrt_minus(d, n) * v:
                norm = u * u + d * v * v
                if norm != 2**r_small:
                    raise InvariantError(f"Gauss sum candidate for N = {n} has norm {norm}")
                if n == 21:
                    # the same sum at chi^3 must be the negative (and carries
                    # the same c as the order-7 resolution by the lift)
                    val3 = gauss_sum_folded(sub, 1, n, 3)
                    if not val3 == -val:
                        raise InvariantError("F(chi^3) != -F(chi) for N = 21")
                    c7 = self.resolve_gauss(7)[1]
                    if c7 != c:
                        raise InvariantError("N = 21 sign disagrees with the N = 7 sign")
                self._signs[n] = (cand, c)
                return self._signs[n]
        raise NoCandidateMatch(f"Gauss sum for N = {n} matched neither sign candidate")


@lru_cache(maxsize=64)
def p2_context(r: int) -> P2Context:
    return P2Context(r)


@dataclass
class CatalogValue:
    value: int
    branch: str
    signs: dict[int, int]


def _tr(w: tuple[int, int, int, int], e: int, sqrt2_extra: int) -> Fraction:
    """(w^e + conj(w^e)) * sqrt(2)^sqrt2_extra; ValueError if it is not rational."""
    return 2 * _re(w, e, (1, 0), sqrt2_extra)


def _re(w: tuple[int, int, int, int], e: int, mult: tuple[int, int], sqrt2_extra: int) -> Fraction:
    """Re(w^e * mult) * sqrt(2)^sqrt2_extra for w = (D, u, v, k) and mult = (x, y), x + y sqrt(-D).

    With w^e * mult = (x' + y' sqrt(-D)) / sqrt(2)^(k e), that is x' sqrt(2)^(sqrt2_extra - k e);
    ValueError if x' != 0 and that exponent is odd."""
    d, u, v, k = w
    x, y = mult
    j = sqrt2_extra - k * e
    while e:
        if e & 1:
            x, y = x * u - d * y * v, x * v + y * u
        u, v = u * u - d * v * v, 2 * u * v
        e >>= 1
    if x == 0:
        return Fraction(0)
    if j % 2:
        raise ValueError("real part with odd residual sqrt(2) grading")
    return Fraction(x << j // 2) if j >= 0 else Fraction(x, 1 << -j // 2)


def p2_closed_detail(r: int, m: int, b) -> CatalogValue:
    """P_m(0, q-1, ind b) from the closed catalog, with provenance."""
    if m < 2:
        raise ValidationError("m must be >= 2")
    if m > 30:
        raise OutOfCatalog(f"the closed catalog stops at m = 30 (got {m}); "
                           f"the general route still applies")
    ctx = p2_context(r)
    q = ctx.q
    ind = ctx.ind(b)
    qf = Fraction(q)
    signs: dict[int, int] = {}

    def done(base: Fraction, delta: Fraction, branch: str) -> CatalogValue:
        total = base + delta
        if total.denominator != 1 or total < 0:
            raise InvariantError(f"catalog branch {branch} gave non-integer {total}")
        return CatalogValue(value=int(total), branch=branch, signs=signs)

    if m in (2, 4, 8, 16):
        base = Fraction(q ** (m - 1) - q ** (m // 2), m * (q - 1))
        return done(base, Fraction(0), f"m=2^k")

    if m in (3, 5, 11, 13, 17, 19, 29):
        v = m
        base = Fraction(q ** (v - 1) - 1, v * (q - 1))
        ordv = multiplicative_order(2, v)
        if r % ordv != 0:
            return done(base, Fraction(0), "prime:inert")
        pm = (-1) ** (r // ordv)
        root = sqrt_q_power(2, r, v - 2)
        if ind % v != 0:
            return done(base, Fraction(pm, v) * root, "prime:v!|ind")
        return done(base, Fraction(-pm * (v - 1), v) * root, "prime:v|ind")

    if m in (6, 10, 22, 26):
        v = m // 2
        base = Fraction(q ** (2 * v - 1) - q**v, 2 * v * (q - 1))
        ordv = multiplicative_order(2, v)
        if r % ordv != 0:
            return done(base, Fraction(0), "2v:inert")
        if ind % v != 0:
            return done(base, Fraction(q ** (v - 1), 2 * v), "2v:v!|ind")
        return done(base, Fraction(-(v - 1) * q ** (v - 1), 2 * v), "2v:v|ind")

    if m in (12, 20):
        v = m // 4
        base = Fraction(q ** (2 * v) * (q ** (2 * v - 1) - 1), 4 * v * (q - 1))
        ordv = multiplicative_order(2, v)
        if r % ordv != 0:
            return done(base, Fraction(-(q**2), 4 * v), "4v:inert")
        if ind % v != 0:
            return done(base, Fraction(q ** (2 * v - 1), 4 * v), "4v:v!|ind")
        return done(
            base,
            Fraction(-(v - 1) * q ** (2 * v - 1), 4 * v) - (qf / 2) ** 2,
            "4v:v|ind",
        )

    if m == 24:
        base = Fraction(q**12 * (q**11 - 1), 24 * (q - 1))
        if r % 2 != 0:
            return done(base, Fraction(-(q**4) * (q**3 - 1), 24 * (q - 1)), "24:odd r")
        if ind % 3 != 0:
            return done(base, Fraction(q**11, 24), "24:3!|ind")
        return done(
            base,
            Fraction(-(q**11), 12) - Fraction(q**4 * (q**3 - 1), 8 * (q - 1)),
            "24:3|ind",
        )

    if m in (9, 25):
        v = 3 if m == 9 else 5
        base = Fraction(q ** (v * v - 1) - 1, v * v * (q - 1))
        ord1 = multiplicative_order(2, v)
        ord2 = multiplicative_order(2, v * v)
        if r % ord1 != 0:
            # sign corrected: the printed display
            # adds this term, but P = (N_{v^2} - N_v)/v^2 subtracts it
            return done(base, -Fraction(q ** (v - 1) - 1, v * v * (q - 1)), "v^2:inert")
        pm1 = (-1) ** (r // ord1)
        big_root = sqrt_q_power(2, r, v * v - 2)
        if r % ord2 != 0:
            if ind % v != 0:
                return done(base, Fraction(pm1, v * v) * big_root, "v^2:mid,v!|ind")
            return done(
                base,
                -Fraction(q ** (v - 1) - 1, v * (q - 1)) - Fraction(pm1 * (v - 1), v * v) * big_root,
                "v^2:mid,v|ind",
            )
        pm2 = (-1) ** (r // ord2)
        small_root = sqrt_q_power(2, r, v - 2)
        if ind % v != 0:
            return done(base, Fraction(pm2, v * v) * big_root, "v^2:split,v!|ind")
        if ind % (v * v) != 0:
            return done(
                base,
                Fraction(pm2, v * v) * big_root
                - Fraction(1, v) * (Fraction(q ** (v - 1) - 1, q - 1) + pm1 * small_root),
                "v^2:split,v|ind",
            )
        return done(
            base,
            -Fraction(pm2 * (v * v - 1), v * v) * big_root
            - Fraction(1, v) * (Fraction(q ** (v - 1) - 1, q - 1) - pm1 * (v - 1) * small_root),
            "v^2:split,v^2|ind",
        )

    if m == 18:
        base = Fraction(q**9 * (q**8 - 1), 18 * (q - 1))
        if r % 2 != 0:
            return done(base, Fraction(-(q**3) * (q + 1), 18), "18:odd r")
        if r % 6 != 0:
            if ind % 3 != 0:
                return done(base, Fraction(q**8, 18), "18:mid,3!|ind")
            return done(
                base, -qf**3 / 3 * (qf**5 / 3 + (qf + 1) / 2), "18:mid,3|ind"
            )
        if ind % 3 != 0:
            return done(base, Fraction(q**8, 18), "18:split,3!|ind")
        if ind % 9 != 0:
            return done(
                base,
                Fraction(q**8, 18) - Fraction(q**2 * (q**3 - 1), 6 * (q - 1)),
                "18:split,3|ind",
            )
        return done(
            base,
            -Fraction(q**2 * (8 * q**6 + 3 * q * (q + 1) - 6), 18),
            "18:split,9|ind",
        )

    if m == 27:
        base = Fraction(q**26 - 1, 27 * (q - 1))
        if r % 2 != 0:
            return done(base, -Fraction(q**8 - 1, 27 * (q - 1)), "27:odd r")
        pm = (-1) ** (r // 2)
        r25 = sqrt_q_power(2, r, 25)
        r7 = sqrt_q_power(2, r, 7)
        if ind % 3 != 0:
            return done(base, Fraction(pm, 27) * r25, "27:3!|ind")
        if r % 6 != 0:
            return done(
                base,
                -Fraction(1, 27) * (3 * Fraction(q**8 - 1, q - 1) + pm * 2 * r25),
                "27:mid,3|ind",
            )
        mid9 = -Fraction(q**8 - 1, 9 * (q - 1))
        if r % 18 != 0:
            if ind % 9 != 0:
                return done(base, mid9 + Fraction(pm, 27) * (r25 - 3 * r7), "27:6|r,3|ind")
            return done(
                base, mid9 - Fraction(2 * pm, 27) * (4 * r25 - 3 * r7), "27:6|r,9|ind"
            )
        if ind % 27 != 0:
            return done(base, mid9 + Fraction(pm, 27) * (r25 - 3 * r7), "27:18|r,3|ind")
        return done(
            base, mid9 - Fraction(2 * pm, 27) * (13 * r25 - 12 * r7), "27:18|r,27|ind"
        )

    if m in (7, 14, 28):
        return _family7(ctx, m, ind, signs, done)
    if m == 23:
        return _family23(ctx, ind, signs, done)
    if m in (15, 30):
        return _family15(ctx, m, ind, signs, done)
    if m == 21:
        return _family21(ctx, ind, signs, done)
    raise InvariantError(f"m = {m} fell through the catalog")  # pragma: no cover


def _family7(ctx: P2Context, m: int, ind: int, signs, done) -> CatalogValue:
    q, r = ctx.q, ctx.r
    if m == 7:
        base = Fraction(q**6 - 1, 7 * (q - 1))
    elif m == 14:
        base = Fraction(q**7 * (q**6 - 1), 14 * (q - 1))
    else:
        base = Fraction(q**14 * (q**13 - 1), 28 * (q - 1))
    if r % 3 != 0:
        if m == 28:
            return done(base, Fraction(-(q**2), 28), "28:inert")
        return done(base, Fraction(0), f"{m}:inert")
    _, c = ctx.resolve_gauss(7)
    signs[7] = c
    e = m * r // 3
    # sqrt(q^5) sqrt(2)^j multipliers per m: 7 -> sqrt(q^5), 14 -> q^6, 28 -> q^13
    tail = {7: 5 * r, 14: 12 * r, 28: 26 * r}[m]
    coef = Fraction(1, m)
    if ind % 7 == 0:
        delta = -3 * coef * _tr(OMEGA_7, e, tail)
        if m == 28:
            delta -= (Fraction(q) / 2) ** 2
        return done(base, delta, f"{m}:7|ind")
    cos_c = coset2(7, c)
    if ind % 7 in cos_c:
        return done(base, coef * _tr(OMEGA_7, e - 1, tail + 1), f"{m}:ind in C_c")
    return done(base, coef * _tr(OMEGA_7, e + 1, tail + 1), f"{m}:ind in C_-c")


def _family23(ctx: P2Context, ind: int, signs, done) -> CatalogValue:
    q, r = ctx.q, ctx.r
    base = Fraction(q**22 - 1, 23 * (q - 1))
    if r % 11 != 0:
        return done(base, Fraction(0), "23:inert")
    _, c = ctx.resolve_gauss(23)
    signs[23] = c
    e = 23 * r // 11
    # the prefactor is 8^{t'} / q = q^{58/11}: the printed display keeps the
    # 8^{t'} pulled out of F^{t'} but drops the 1/q from the N_t normalization
    big = Fraction(2 ** (58 * r // 11))
    if ind % 23 == 0:
        return done(base, -Fraction(11, 23) * _tr(OMEGA_23, e, 0) * big, "23:23|ind")
    plus, minus = (1, 1), (1, -1)  # 1 +- sqrt(-23)
    if ind % 23 in coset2(23, c):
        return done(base, big / 23 * _re(OMEGA_23, e, plus, 0), "23:ind in C_c")
    return done(base, big / 23 * _re(OMEGA_23, e, minus, 0), "23:ind in C_-c")


def _family15(ctx: P2Context, m: int, ind: int, signs, done) -> CatalogValue:
    q, r = ctx.q, ctx.r
    qf = Fraction(q)
    if m == 15:
        base = Fraction(q**14 - 1, 15 * (q - 1))
        if r % 2 != 0:
            return done(base, -Fraction(q**4 + q**2 - 2, 15 * (q - 1)), "15:odd r")
        if r % 4 != 0:
            if ind % 3 != 0:
                return done(
                    base,
                    -Fraction(1, 15) * (qf + 1 + sqrt_q_power(2, r, 13) - sqrt_q_power(2, r, 1)),
                    "15:mid,3!|ind",
                )
            return done(
                base,
                -Fraction(1, 15)
                * (3 * Fraction(q**4 - 1, q - 1) - 2 * sqrt_q_power(2, r, 13) + (sqrt_q_power(2, r, 1) + 1) ** 2),
                "15:mid,3|ind",
            )
        _, c = ctx.resolve_gauss(15)
        signs[15] = c
        pm = (-1) ** (r // 4)
        e = 15 * r // 4
        root13 = sqrt_q_power(2, r, 13)
        if ind % 15 == 0:
            delta = (
                -Fraction(2, 15) * (2 * _tr(OMEGA_15, e, 0) + 1 + 2 * pm) * root13
                - Fraction(1, 5) * (Fraction(q**4 - 1, q - 1) - pm * 4 * sqrt_q_power(2, r, 3))
                - Fraction(1, 3) * (sqrt_q_power(2, r, 1) - 1) ** 2
            )
            return done(base, delta, "15:15|ind")
        res = ind % 15
        if res in coset2(15, 3):
            delta = (
                Fraction(1, 15) * (_tr(OMEGA_15, e, 0) - 2 + pm) * root13
                - Fraction(1, 5) * (Fraction(q**4 - 1, q - 1) + pm * sqrt_q_power(2, r, 3))
            )
            return done(base, delta, "15:ind in C_3")
        if res in coset2(15, 5):
            delta = (
                Fraction(1, 15) * (2 * _tr(OMEGA_15, e, 0) + 1 - 4 * pm) * root13
                - Fraction(1, 3) * (qf + 1 + sqrt_q_power(2, r, 1))
            )
            return done(base, delta, "15:ind in C_5")
        # the pairing of the exponent shift with C_c vs C_-c is resolved
        # empirically against the lifted general route (the printed display
        # pairs them the other way around for our character pinning)
        if res in coset2(15, c):
            delta = Fraction(1, 15) * (2 * _tr(OMEGA_15, e - 1, 0) + 1 + pm) * root13
            return done(base, delta, "15:ind in C_c")
        delta = Fraction(1, 15) * (2 * _tr(OMEGA_15, e + 1, 0) + 1 + pm) * root13
        return done(base, delta, "15:ind in C_-c")
    # m == 30
    base = Fraction(q**15 * (q**14 - 1), 30 * (q - 1))
    if r % 2 != 0:
        return done(base, -Fraction(q**3 * (q**6 - 1), 30 * (q - 1)), "30:odd r")
    if r % 4 != 0:
        if ind % 3 != 0:
            return done(
                base,
                -Fraction(q**3 * (q**2 - 1), 30 * (q - 1)) + Fraction(q**2 * (q**12 - 1), 30),
                "30:mid,3!|ind",
            )
        return done(
            base,
            -Fraction(q**3 * (3 * q**6 - 2 * q**2 - 1), 30 * (q - 1))
            - Fraction(q**2 * (q**12 - 1), 15),
            "30:mid,3|ind",
        )
    _, c = ctx.resolve_gauss(15)
    signs[15] = c
    e = 15 * r // 2
    q14 = Fraction(q**14)
    if ind % 15 == 0:
        delta = (
            -Fraction(1, 15) * (2 * _tr(OMEGA_15, e, 0) + 3) * q14
            - Fraction(q**5 * (q**4 - 1), 10 * (q - 1))
            - Fraction(q**3, 6) * (qf + 1)
            + Fraction(q**2, 15) * (6 * q**2 + 5)
        )
        return done(base, delta, "30:15|ind")
    res = ind % 15
    if res in coset2(15, 3):
        delta = Fraction(1, 30) * (_tr(OMEGA_15, e, 0) - 1) * q14 - Fraction(
            q**4 * (q**5 - 1), 10 * (q - 1)
        )
        return done(base, delta, "30:ind in C_3")
    if res in coset2(15, 5):
        delta = Fraction(1, 30) * (2 * _tr(OMEGA_15, e, 0) - 3) * q14 - Fraction(
            q**2 * (q**3 - 1), 6 * (q - 1)
        )
        return done(base, delta, "30:ind in C_5")
    # same empirical C_c / C_-c pairing as in the m = 15 branch
    if res in coset2(15, c):
        return done(base, Fraction(1, 15) * (_tr(OMEGA_15, e - 1, 0) + 1) * q14, "30:ind in C_c")
    return done(base, Fraction(1, 15) * (_tr(OMEGA_15, e + 1, 0) + 1) * q14, "30:ind in C_-c")


def _family21(ctx: P2Context, ind: int, signs, done) -> CatalogValue:
    q, r = ctx.q, ctx.r
    qf = Fraction(q)
    base = Fraction(q**20 - 1, 21 * (q - 1))
    if r % 2 != 0 and r % 3 != 0:
        return done(base, -Fraction(q**6 + q**2 - 2, 21 * (q - 1)), "21:inert")
    if r % 2 == 0 and r % 3 != 0:
        pm = (-1) ** (r // 2)
        sq = sqrt_q_power(2, r, 1)
        if ind % 3 != 0:
            return done(
                base, -Fraction(1, 21) * (qf + 1 - pm * (q**9 - 1) * sq), "21:2|r,3!|ind"
            )
        return done(
            base,
            -Fraction(1, 21) * (Fraction(3 * q**6 + q**2 - 4, q - 1) + pm * 2 * (q**9 - 1) * sq),
            "21:2|r,3|ind",
        )
    if r % 2 != 0 and r % 3 == 0:
        _, c = ctx.resolve_gauss(7)
        signs[7] = c
        e7 = 7 * r // 3
        if ind % 7 == 0:
            # the omega_7^{7r/3} term carries a minus (it enters through the
            # subtracted t = 7 piece of the Moebius sum, like the coset
            # branches below); the printed display has a sign slip here
            delta = -(
                Fraction(q**6 + 7 * q**2 - 8, 21 * (q - 1))
                + Fraction(1, 7) * (_tr(OMEGA_7, 7 * r, 5 * r) * q**7 - _tr(OMEGA_7, e7, 5 * r))
            )
            return done(base, delta, "21:3|r,7|ind")
        head = -Fraction(q**6 - 1, 21 * (q - 1))
        if ind % 7 in coset2(7, c):
            delta = head + Fraction(1, 21) * (
                _tr(OMEGA_7, 7 * r - 1, 5 * r + 1) * q**7 - _tr(OMEGA_7, e7 + 1, 5 * r + 1)
            )
            return done(base, delta, "21:3|r,ind in C_c")
        delta = head + Fraction(1, 21) * (
            _tr(OMEGA_7, 7 * r + 1, 5 * r + 1) * q**7 - _tr(OMEGA_7, e7 - 1, 5 * r + 1)
        )
        return done(base, delta, "21:3|r,ind in C_-c")
    # 6 | r
    _, c = ctx.resolve_gauss(7)
    f21, c21 = ctx.resolve_gauss(21)
    signs[7] = c
    signs[21] = c21
    pm = (-1) ** (r // 2)
    e21 = 7 * r // 2
    e7 = 7 * r // 3
    root5 = sqrt_q_power(2, r, 5)
    plus, minus = (1, 1), (1, -1)  # 1 +- sqrt(-7)
    res = ind % 21
    if res == 0:
        delta = -(
            Fraction(1, 21) * (3 * (2 + pm) * _tr(OMEGA_21, e21, 0) + pm * 2 * q**7) * root5
            + Fraction(1, 7) * (Fraction(q**6 - 1, q - 1) - 3 * _tr(OMEGA_7, e7, 5 * r))
            + Fraction(1, 3) * (1 - pm * sqrt_q_power(2, r, 1)) ** 2
        )
        return done(base, delta, "21:6|r,21|ind")
    if res in coset2(21, 7):
        delta = Fraction(1, 21) * (
            3 * (1 - pm) * _tr(OMEGA_21, e21, 0) + pm * qf**7
        ) * root5 - Fraction(1, 3) * (qf + 1 + pm * sqrt_q_power(2, r, 1))
        return done(base, delta, "21:6|r,ind in C_7")
    if res in coset2(21, 3 * c):
        delta = root5 / 21 * (
            2 * _re(OMEGA_21, e21, plus, 0) + pm * _re(OMEGA_21, e21, minus, 0) - pm * 2 * q**7
        ) - Fraction(1, 7) * (
            Fraction(q**6 - 1, q - 1) + _tr(OMEGA_7, e7 - 1, 5 * r + 1)
        )
        return done(base, delta, "21:6|r,ind in C_3c")
    if res in coset2(21, -3 * c):
        delta = root5 / 21 * (
            2 * _re(OMEGA_21, e21, minus, 0) + pm * _re(OMEGA_21, e21, plus, 0) - pm * 2 * q**7
        ) - Fraction(1, 7) * (
            Fraction(q**6 - 1, q - 1) + _tr(OMEGA_7, e7 + 1, 5 * r + 1)
        )
        return done(base, delta, "21:6|r,ind in C_-3c")
    if res in coset2(21, c):
        delta = root5 / 21 * (
            -_re(OMEGA_21, e21, minus, 0) + pm * _re(OMEGA_21, e21, plus, 0) + pm * q**7
        )
        return done(base, delta, "21:6|r,ind in C_c")
    if res in coset2(21, -c):
        delta = root5 / 21 * (
            -_re(OMEGA_21, e21, plus, 0) + pm * _re(OMEGA_21, e21, minus, 0) + pm * q**7
        )
        return done(base, delta, "21:6|r,ind in C_-c")
    raise InvariantError(f"ind {ind} matched no coset mod 21")  # pragma: no cover


def p2_closed_pm(r: int, m: int, b) -> int:
    """P_m(0, q-1, ind b) for q = 2^r from the closed catalog."""
    return p2_closed_detail(r, m, b).value


def p2_general_pm(r: int, m: int, b, cap: int = DEFAULT_ENUM_CAP) -> int:
    """The same count through Davenport-Hasse-lifted Gauss sums (no tables)."""
    field = build_field(2, r)
    if isinstance(b, int):
        b = field.from_index(b)
    spec = CountSpec.make(2, r, m, field.order - 1, a=0, b=b)
    return p_m(spec, "closed", cap)
