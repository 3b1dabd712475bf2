"""Polynomials over F_p, as the field code builds its fields from them.

An element index is a coefficient vector read as base-p digits, the
coefficient of x^i digit i.  Over F_2 a polynomial is one int, bit i the
coefficient of x^i, multiplied carry-less.  _PackedRing computes in
F_p[x]/(f) on packed integers; _rootless_codes sieves candidate moduli for
roots in F_p; poly_is_irreducible is Ben-Or's test, which decides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fields import FieldCtx


def _ptrim(a):
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n]


# -- F_2[x] as ints, bit i the coefficient of x^i --


def _clmul(a: int, b: int) -> int:
    """Carry-less product: a shifted to each set bit of b, xored together."""
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out


def _clsquare(a: int) -> int:
    """a^2 = sum of x^(2i) over the bits i of a: the binary digits read in base 4."""
    return int(format(a, "b"), 4)


def _clmod(a: int, n: int, low: int) -> int:
    """a mod x^n + low (low of degree below n): fold the bits from n up onto low."""
    mask = (1 << n) - 1
    while a >> n:
        a = (a & mask) ^ _clmul(a >> n, low)
    return a


def _clgcd(a: int, b: int) -> int:
    while b:
        n = b.bit_length() - 1
        a, b = b, _clmod(a, n, b ^ (1 << n))
    return a


def _cl_is_irreducible(f: int) -> bool:
    """Ben-Or test for f in F_2[x] of degree >= 2, by repeated squaring of x (see poly_is_irreducible)."""
    n = f.bit_length() - 1
    low = f ^ (1 << n)
    xp = 2  # x, then x^(2^k) mod f
    for _ in range(n // 2):
        xp = _clmod(_clsquare(xp), n, low)
        if _clgcd(xp ^ 2, f) != 1:
            return False
    return True


# -- indices: the coordinates of an element as base-p digits, coordinate 0 least significant --


def _digits(idx: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        idx, d = divmod(idx, p)
        out.append(d)
    return out


def _undigits(coords, p: int) -> int:
    v = 0
    for c in reversed(coords):
        v = v * p + c
    return v


def _index_add(a, b, p: int, r: int, sign: int = 1):
    """Index of x + sign*y from the indices of x and y, for ints or numpy arrays.

    Field addition is digit-wise addition mod p (xor when p = 2) and needs
    no table."""
    if p == 2:
        return a ^ b
    out, place = 0, 1
    for _ in range(r):
        out = out + (a // place + sign * (b // place)) % p * place
        place *= p
    return out


def _rootless_codes(p: int, r: int, cells: int):
    """Yield in index order the codes of the monic degree-r polynomials over F_p, r >= 2, with no root in F_p.

    Code c = c_0 + p h is x^r + sum of c's digit i times x^i, that is
    c_0 + x R(x) with R the monic polynomial of code h, so it has a root iff
    c_0 = -x R(x) for some x.  A chunk of rows h takes x R(x) at every x as
    one int64 product of the digits of h with the powers of x, and each row
    marks its p rooted codes.  A chunk holds r rows first, since about one
    code in r is irreducible, then doubles up to cells // p rows, so no
    array exceeds `cells` cells (FieldCtx passes _ORBIT_CHUNK).  The rest
    can only be reducible, so Ben-Or still decides.  When p alone exceeds
    `cells` every code is yielded: Ben-Or's first step is the same root test.
    """
    max_rows = cells // p
    if not max_rows:
        yield from range(p**r)
        return
    xs = np.arange(p, dtype=np.int64)
    powers = np.ones((r, p), dtype=np.int64)  # x^i mod p
    for i in range(1, r):
        powers[i] = powers[i - 1] * xs % p
    # digit i of h is h // p^i mod p; a place past 2^62 exceeds every code searched, so reads 0
    places = np.array([min(p**i, 1 << 62) for i in range(r - 1)], dtype=np.int64)
    start, rows = 0, min(r, max_rows)
    while start < p ** (r - 1):
        high = np.arange(start, min(start + rows, p ** (r - 1)), dtype=np.int64)
        acc = (high[:, None] // places % p @ powers[:-1] + powers[-1]) % p * xs % p
        rooted = np.zeros(acc.shape, dtype=bool)
        np.put_along_axis(rooted, -acc % p, True, axis=1)
        yield from (np.flatnonzero(~rooted) + start * p).tolist()
        start += len(acc)
        rows = min(2 * rows, max_rows)


class _PackedRing:
    """F_p[x]/(f), p odd and f monic of degree r > 1, on packed integers (Kronecker substitution).

    An index's base-p digits go to slots of w bits of one int, digit i in
    bits [iw, (i + 1)w), so a product is one integer multiply; reduced folds
    it back below x^r.  f need not be irreducible: Ben-Or's test over F_p
    takes its powers of x here.
    """

    __slots__ = ("p", "r", "_w", "_slot", "_shifts", "_fold", "_barrett")

    def __init__(self, p: int, modulus):
        r = len(modulus) - 1
        self.p, self.r = p, r
        # x_pow[j] = x^(r + j) mod f, j < r: x^(r - 1 + j) shifted up a digit, less its top digit times f
        x_pow, xk = [], [0] * (r - 1) + [1]
        for _ in range(r):
            xk = [(c - xk[-1] * fj) % p for c, fj in zip([0] + xk[:-1], modulus)]
            x_pow.append(xk)
        # slot i of reduced peaks at (p - 1)^2 times i + 1 products plus, from each high slot j
        # of r - 1 - j products, that many times digit i of x_pow[j]; two elements whose digits
        # are all p - 1 reach it
        top = max(i + 1 + sum((r - 1 - j) * x_pow[j][i] for j in range(r - 1)) for i in range(r)) * (p - 1) ** 2
        # v // p = v mp >> k for every v <= top (Barrett); a slot of sw bits holds v mp, and the
        # quotient, its bits from k up, ends where the next slot's bits begin once shifted down
        k = top.bit_length() + p.bit_length()
        mp = -(-(1 << k) // p)
        sw = (top * mp).bit_length()
        self._w, self._slot = sw, (1 << sw) - 1
        self._barrett = (mp, k, sum(((1 << sw - k) - 1) << i * sw for i in range(r)))
        self._shifts = range((r - 1) * sw, -1, -sw)  # the slots of an element, highest first
        self._fold = [self.packed(_undigits(x_pow[j], p)) for j in range(r - 1)]

    def packed(self, idx: int) -> int:
        """The base-p digits of idx, digit i in bits [iw, (i + 1)w) (Kronecker substitution)."""
        out, s = 0, 0
        while idx:
            idx, d = divmod(idx, self.p)
            out |= d << s
            s += self._w
        return out

    def unpacked(self, v: int) -> int:
        """The index of a packed element whose r slots hold digits below p."""
        p, slot, idx = self.p, self._slot, 0
        for s in self._shifts:
            idx = idx * p + (v >> s & slot)
        return idx

    def reduced(self, c: int) -> int:
        """The packed element c mod f, for c the product of two packed elements.

        c has 2r - 1 slots.  Slot r + j folds back, unreduced, as that
        multiple of x^(r + j) mod f; w leaves room for the sum, so no slot
        carries.  Then every slot is taken mod p at once: v - p (v mp >> k),
        slot by slot, is one multiply, shift and mask.
        """
        p, w, slot = self.p, self._w, self._slot
        mp, k, quotients = self._barrett
        hi, c = c >> self.r * w, c & ((1 << self.r * w) - 1)
        for t in self._fold:
            c += (hi & slot) * t
            hi >>= w
        return c - (c * mp >> k & quotients) * p

    def pow(self, a: int, e: int) -> int:
        """The index of a^e, for a an index."""
        reduced, out, a = self.reduced, 1, self.packed(a)
        for bit in format(e, "b"):
            out = reduced(out * out)
            if bit == "1":
                out = reduced(out * a)
        return self.unpacked(out)


def poly_is_irreducible(coeffs, field: FieldCtx) -> bool:
    """Ben-Or test for a monic polynomial over F_q, q = field.order.

    coeffs are F_q indices, low degree first.  f of degree t is irreducible
    iff gcd(x^{q^k} - x, f) = 1 for every k <= t/2: x^{q^k} - x is the
    product of the monic irreducibles of degree dividing k, and a reducible
    f has an irreducible factor of degree at most t/2, so no x^{q^t} = x
    check is needed.  Works on F_q arithmetic alone; over F_2 it runs
    carry-less on one int, and over odd F_p each x^{p^k} mod f is a packed
    power (_PackedRing).
    """
    f = list(coeffs)
    t = len(f) - 1
    if t < 1 or f[-1] != 1:
        return False
    if t == 1:
        return True
    p, r, q, mul = field.p, field.r, field.order, field._mul
    if q == 2:
        return _cl_is_irreducible(_undigits(f, 2))

    def muladd(acc, x, y, sign=1):
        # acc + sign x y in F_q, on plain residues over F_p
        return (acc + sign * x * y) % p if r == 1 else _index_add(acc, mul(x, y), p, r, sign)

    def rem(a, g):
        # a mod monic g, in place; a has at least deg g entries
        d = len(g) - 1
        taps = [(j, gj) for j, gj in enumerate(g[:-1]) if gj]
        for k in range(len(a) - 1, d - 1, -1):
            c = a[k]
            if c:
                for j, gj in taps:
                    a[k - d + j] = muladd(a[k - d + j], c, gj, -1)
        return a[:d]

    def mulmod(a, b):
        out = [0] * (2 * t - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = muladd(out[i + j], ai, bj)
        return rem(out, f)

    def powq(a):
        out = a
        for bit in format(q, "b")[1:]:
            out = mulmod(out, out)
            if bit == "1":
                out = mulmod(out, a)
        return out

    def coprime_to_f(a):
        a, b = f, _ptrim(a)
        while any(b):
            inv = field._pow(b[-1], q - 2)
            b = [mul(c, inv) for c in b]
            a, b = b, _ptrim(rem(list(a), b))
        return len(a) == 1

    ring = _PackedRing(p, f) if r == 1 else None  # over F_p, x^(p^k) mod f is a packed power
    xq = [0, 1] + [0] * (t - 2)  # x
    for k in range(1, t // 2 + 1):
        xq = _digits(ring.pow(_undigits(xq, p), p), p, t) if ring else powq(xq)  # x^{q^k} mod f
        diff = list(xq)
        diff[1] = _index_add(diff[1], 1, p, r, -1)
        if not coprime_to_f(diff):
            return False
    return True
