"""The counting pipeline: from a (p, r, m, s, coset, a) query to P_m.

P_m(a, s, h) counts monic irreducibles x^m - a x^{m-1} + ... + (-1)^m b
over F_q with the trace coefficient a fixed and the norm coefficient b
restricted to a coset of the index-s subgroup of F_q*.  Moebius inversion
reduces it to subfield element counts N_t, and each N_t comes from the
character sum M_t by one of several routes:

  * special cases that need no sums at all,
  * closed tables, one isolated expression per (d, l) row (s = 2 any odd
    q; s = 3, 4 at q = p; s | p^e + 1 semiprimitive),
  * Jacobi-sum routes using the order 2/3/4 closed forms or a brute
    Jacobi sum,
  * (p = 2, a = 0) Gauss sums lifted from small subfields by the
    Davenport-Hasse identity, and
  * the double character sum over F_q* x F_{q^t}*, read from the trace
    histogram of F_{q^t} (TowerCtx.trace_hist): q^t + p q elements, whose
    p counts c_tau of zeta_p^tau give M_t = c_0 - c_1.

`plan` picks the route of every N_t up front, from the spec alone, and
refuses a method or cap it cannot serve before any work; `n_t` and
`run_plan` (which `p_m` calls) run what it picks.

All routes return the same integer; disagreement is a test failure, never
something to smooth over.  Internally every route keys the coset by an
explicit representative b, so labels stay consistent under different
generator choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .charsums import gauss_sum_lifted, jacobi_class_counts
from .cyclotomic import CycInt, integer_from_counts
from .errors import (
    EnumerationCapExceeded,
    InvariantError,
    NotApplicable,
    TableNotApplicable,
    ValidationError,
)
from .fields import (
    _ORBIT_CHUNK,
    DEFAULT_ENUM_CAP,
    FieldElement,
    TowerCtx,
    build_field,
    build_tower,
    check_cap,
)
from .intmath import divisors, is_prime, mobius, multiplicative_order, sqrt_q_power
from .jacobi import CubicParams, QuarticParams, cubic_params, jacobi_closed, quartic_params, rho_minus_one

TABLE_NAMES = ("s2", "s3", "s4", "semiprimitive")


@dataclass(frozen=True)
class CountSpec:
    """A counting query.  The coset is held as an explicit b and its label h.

    h = dlog(b) mod s for the canonical generator of F_q, computed once when
    the spec is built, so it always agrees with b; s = 1 takes no log.
    """

    p: int
    r: int
    m: int
    s: int
    a: FieldElement
    b: FieldElement
    h: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", self.base.dlog(self.b) % self.s if self.s > 1 else 0)

    @classmethod
    def make(cls, p, r, m, s, a=0, b=None, h=None) -> "CountSpec":
        base = build_field(p, r)
        q = base.order
        if m < 2:
            raise ValidationError("m must be >= 2")
        if s < 1 or (q - 1) % s != 0:
            raise ValidationError(f"s must divide q - 1 = {q - 1}")
        if isinstance(a, int):
            a = base.from_int(a) if r == 1 else base.from_index(a)
        if b is not None and h is not None:
            raise ValidationError("give the coset as b or as h, not both")
        if b is None:
            h = 0 if h is None else h % s
            b = base.generator**h if q > 2 else base.one
        else:
            if isinstance(b, int):
                b = base.from_int(b) if r == 1 else base.from_index(b)
            if b.is_zero():
                raise ValidationError("b must be nonzero")
        return cls(p=p, r=r, m=m, s=s, a=a, b=b)

    @property
    def q(self) -> int:
        return self.p**self.r

    @property
    def base(self):
        return build_field(self.p, self.r)

    def a0(self, t: int) -> FieldElement:
        """a0 = -(m/t mod p) * a^{-1}; needs a != 0 and p not dividing m/t."""
        if self.a.is_zero():
            raise ValidationError("a0 is only defined for a != 0")
        mt = (self.m // t) % self.p
        if mt == 0:
            raise ValidationError("a0 needs p not dividing m/t")
        return -(self.a.inverse() * mt)

    def describe(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "m": self.m,
            "s": self.s,
            "a_index": self.a.index,
            "b_index": self.b.index,
            "h": self.h,
            "field": self.base.to_json(),
        }


@dataclass(frozen=True)
class TParams:
    """Per-divisor parameters for the congruence (m/t) i = h (mod s)."""

    t: int
    d: int
    l: int
    u: int
    t0: int
    i0: int | None  # None iff d does not divide h


def derive_params(spec: CountSpec, t: int, h: int | None = None) -> TParams:
    """d, l, u, t0 and the congruence solution i0 for a divisor t of m.

    h defaults to the canonical label of spec.b; a path using different
    generator labels passes its own h.
    """
    if spec.m % t != 0:
        raise ValidationError(f"{t} does not divide m = {spec.m}")
    s, m, q = spec.s, spec.m, spec.q
    d = math.gcd(m // t, s)
    sd = s // d
    l = math.gcd(t, sd)
    u = sd // l
    t0 = (q**t - 1) // (q - 1)
    if l != math.gcd(t0, sd):
        raise InvariantError("gcd(t, s/d) must agree with gcd(t0, s/d)")
    if h is None:
        h = spec.h
    if h % d != 0:
        i0 = None
    else:
        mdt = (m // t) // d
        i0 = (h // d) * pow(mdt, -1, sd) % sd if sd > 1 else 0
    return TParams(t=t, d=d, l=l, u=u, t0=t0, i0=i0)


def n_t_special(spec: CountSpec, t: int):
    """The N_t values that need no character sums; None when inapplicable.

    N_t = 0 when d does not divide h, or when p | m/t with a != 0;
    N_t = (d/s)(q^t - 1) when p | m/t with a = 0 and d | h.
    """
    params = derive_params(spec, t)
    if params.i0 is None:
        return 0
    if (spec.m // t) % spec.p == 0:
        if not spec.a.is_zero():
            return 0
        val = params.d * (spec.q**t - 1)
        if val % spec.s != 0:
            raise InvariantError("d (q^t - 1) must be divisible by s")
        return val // spec.s
    return None


def _restpd(spec: CountSpec, t: int) -> bool:
    return (spec.m // t) % spec.p != 0 and spec.h % math.gcd(spec.m // t, spec.s) == 0


# -- M_t routes --


def _general_size(q: int, p: int, t: int) -> int:
    """Work of m_t_general: the orbit of F_{q^t}*, or its (q - 1) p-cell trace histogram when larger (t = 1)."""
    return max(q**t, p * q)


def m_t_general(tower: TowerCtx, spec: CountSpec, t: int, cap: int | None = None) -> int:
    """The double sum over c in F_q* and x in F_{q^t}*, read from one trace histogram.

    Requires restpd.  With G = gcd(s/d, q^t - 1), the inner sum at c = g^w
    is G times row (i0 + t0 w) mod G of the trace histogram by G classes,
    shifted by the trace rho_w of the outer term (0 when a = 0); so the work
    is q^t + p q elements, where the literal sum has (q - 1)(q^t - 1).  M_t
    is read off the p counts c_tau of zeta_p^tau as c_0 - c_1 (integer_from_counts).
    """
    if not _restpd(spec, t):
        raise ValidationError("the double sum requires p not dividing m/t and d | h")
    q, p, s = spec.q, spec.p, spec.s
    check_cap(_general_size(q, p, t), cap, f"the double sum over F_q* x F_{{q^{t}}}*")
    params = derive_params(spec, t, h=tower.dlog_g(spec.b) % s)
    big_g = math.gcd(s // params.d, q**t - 1)
    hist = tower.trace_hist(t, q - 1, cap)
    if spec.a.is_zero():
        # rho_w = 0, and as w runs over F_q* the rows (i0 + t0 w) mod G are the residues of i0
        # mod e = gcd(t0, G), each (q - 1) e / G times; e | G | q - 1, so they are rows of hist
        e = math.gcd(params.t0, big_g)
        return (q - 1) * e * integer_from_counts(hist[params.i0 % e :: e].sum(axis=0).tolist(), "M_t general sum")
    # G | s | q - 1, so the histogram by q - 1 classes folds onto G classes (read in place at G = q - 1)
    folded = hist if big_g == q - 1 else hist.reshape(-1, big_g, p).sum(axis=0)
    rows = np.arange(params.i0, params.i0 + (q - 1) * params.t0, params.t0) % big_g
    shift = tower.dlog_g(spec.a * -pow((spec.m // t) % p, -1, p))  # -(t/m) a
    rot = tower.base_traces[shift : shift + q - 1]  # rho_w, the trace of -(t/m) a g^w
    # the summand at c = g^w lands on zeta_p^tau when its inner trace is tau - rho_w, and a negative
    # column counts from the end, so tau - rho_w needs no mod p; one gather per block of w, each
    # within _ORBIT_CHUNK cells
    taus, block = np.arange(p), max(1, _ORBIT_CHUNK // p)
    counts = sum(
        folded[rows[b : b + block, None], taus - rot[b : b + block, None]].sum(axis=0) for b in range(0, q - 1, block)
    )
    return big_g * integer_from_counts(counts.tolist(), "M_t general sum")


def _canonical_char_decompose(j: int, modn: int):
    """Write zeta_modn^j as a power of the canonical character of exact order."""
    g = math.gcd(j, modn)
    order = modn // g
    return order, (j // g) % order if order > 1 else 0


def _character_sum(n: int, x: int, value, const: int = 0) -> CycInt:
    """const + sum over c = 1..n-1 of V(lambda^c) zeta_n^{-c x}, as one CycInt(n).

    lambda is the canonical order-n character, and lambda^c is the k-th power
    of the canonical character of exact order d = n / gcd(c, n), gcd(k, d) = 1.
    value(d) is V at k = 1 in Z[zeta_d], asked once per order d; V(lambda^c)
    is its Galois conjugate sigma_k.  sigma_k, the embedding into Z[zeta_n]
    and the twist fold into one index map e -> (e k n/d - c x) mod n.
    """
    acc = [const] + [0] * (n - 1)
    base = {}
    for c in range(1, n):
        d, k = _canonical_char_decompose(c, n)
        if d not in base:
            base[d] = [(e, v) for e, v in enumerate(value(d).coeffs) if v]
        step, shift = k * (n // d), -c * x
        for e, v in base[d]:
            acc[(e * step + shift) % n] += v
    return CycInt(n, acc)


def _jacobi_value(spec: CountSpec, t: int, order: int) -> CycInt:
    """J_t of the canonical order-`order` character of F_q (order > 1), in Z[zeta_order].

    Only the closed 2/3/4 forms (q = p for 3, 4); TableNotApplicable otherwise."""
    q, p = spec.q, spec.p
    if order == 2:
        return CycInt.integer(2, jacobi_closed(2, t, q))
    if order in (3, 4) and spec.r == 1:
        g = spec.base.generator_index
        if order == 4:
            return jacobi_closed(4, t, p, _quartic(p, g))
        return jacobi_closed(3, t, p, _cubic(p, g))
    raise TableNotApplicable(f"no closed Jacobi form for character order {order} at q = {q}")


@lru_cache(maxsize=64)
def _quartic(p, g) -> QuarticParams:
    return quartic_params(p, g)


@lru_cache(maxsize=64)
def _cubic(p, g) -> CubicParams:
    return cubic_params(p, g)


def m_t_jacobi(spec: CountSpec, t: int, allow_brute: bool = False, cap: int = DEFAULT_ENUM_CAP) -> int:
    """M_t through Jacobi sums over F_q (no extension-field enumeration).

    a = 0:  M_t = (q-1) (-1 + (-1)^t q sum_{lambda in H_l*} J_t(lambda) conj(lambda)(g^{i0}))
    a != 0: M_t = 1 + (-1)^{t-1} q sum_{lambda in H_{s/d}*} J_t(conj lambda) lambda((-a0)^t g^{i0}))

    Both inner sums are S = sum_{c=1}^{n-1} J_t(lambda^c) zeta_n^{-cx}, lambda canonical of order n,
    (n, x) = (l, i0) or (s/d, log of the argument); the closed route takes each J_t in closed form.
    With allow_brute, J_t(lambda^c) = sum_e A[e] zeta_n^{ce} (A from jacobi_class_counts), and
    sum_{c=0}^{n-1} zeta_n^{c(e-x)} = n [e = x mod n], so S = n A[x mod n] - sum_e A[e].
    """
    if not _restpd(spec, t):
        raise ValidationError("Jacobi route requires p not dividing m/t and d | h")
    q = spec.q
    params = derive_params(spec, t)
    sign_t = -1 if t % 2 == 0 else 1  # (-1)^{t-1} = -(-1)^t
    if spec.a.is_zero():
        n, x = params.l, params.i0
    else:
        n = spec.s // params.d
        # lambda_j(g^e) = zeta_{s/d}^{j e}, and the argument is (-a0)^t g^{i0}; n = 1 needs no log
        x = (t * spec.base.dlog(-spec.a0(t)) + params.i0) % (q - 1) if n > 1 else 0
    if allow_brute:
        check_cap(q ** (t - 1), cap, f"the Jacobi sum with {t} variables")
        counts = jacobi_class_counts(spec.base, n, t)
        inner = n * int(counts[x % n]) - int(counts.sum())
    else:
        inner = _character_sum(n, x, lambda order: _jacobi_value(spec, t, order)).expect_integer("Jacobi inner sum")
    if spec.a.is_zero():
        return (q - 1) * (-1 + (-sign_t) * q * inner)
    return 1 + sign_t * q * inner


def m_t_lifted(spec: CountSpec, t: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """M_t for p = 2, a = 0 via Gauss sums lifted from small subfields.

    M_t = (q-1) sum_{lambda in H_l} G_t(conj lambda) lambda(g^{i0}).  One G_t
    per character order d | l, d > 1, at k = 1, comes by the Davenport-Hasse
    identity from the subfield F_{2^{ord_d 2}} that carries the character,
    so no extension-field enumeration happens; G_t(chi^k) = sigma_k(G_t(chi))
    gives the other characters of order d by a coefficient permutation.
    """
    if spec.p != 2 or not spec.a.is_zero():
        raise ValidationError("the lift route needs p = 2 and a = 0")
    if not _restpd(spec, t):
        raise ValidationError("the lift route requires p not dividing m/t and d | h")
    q, r = spec.q, spec.r
    params = derive_params(spec, t)
    l = params.l
    if l == 1:
        return 1 - q

    def lift(order):
        r_small = multiplicative_order(2, order)
        if r % r_small != 0:
            raise InvariantError(f"a character of order {order} needs F_{{2^{r_small}}} inside F_q")
        sub = build_tower(2, r_small, r // r_small)
        return gauss_sum_lifted(sub, (r * t) // r_small, order, cap=cap)

    # const: the trivial-character term G_t(lambda_0) = -1
    inner = _character_sum(l, params.i0, lift, -1).expect_integer("lifted Gauss sum combination")
    return (q - 1) * inner


# -- closed N_t tables --


def _rho_of_log(e: int) -> int:
    return -1 if e % 2 else 1


def n_t_table(spec: CountSpec, t: int, table: str) -> int:
    """N_t from one of the declarative closed tables.

    Defers to the special cases when restpd fails; raises
    TableNotApplicable outside the table's hypotheses.
    """
    if table not in TABLE_NAMES:
        raise ValidationError(f"unknown table {table!r}")
    special = n_t_special(spec, t)
    if special is not None:
        return special
    if table == "s2":
        return _table_s2(spec, t)
    if table == "s3":
        return _table_s34(spec, t, 3)
    if table == "s4":
        return _table_s34(spec, t, 4)
    return _table_semiprimitive(spec, t)


def _table_s2(spec: CountSpec, t: int) -> int:
    q, p, s = spec.q, spec.p, spec.s
    if s != 2 or q % 2 == 0:
        raise TableNotApplicable("the s = 2 table needs odd q and s = 2")
    params = derive_params(spec, t)
    d, l = params.d, params.l
    h = spec.h
    rho_m1 = rho_minus_one(q)
    if spec.a.is_zero():
        if (d, l) == (1, 1):
            val = Fraction(q ** (t - 1) - 1, 2)
        elif (d, l) == (1, 2):
            rho = rho_m1 ** ((t // 2) % 2)
            val = Fraction(
                q ** (t - 1) - 1 - (q - 1) * (-1) ** h * q ** ((t - 2) // 2) * rho, 2
            )
        else:  # (2, 1)
            val = Fraction(q ** (t - 1) - 1)
    else:
        if (d, l) == (1, 1):
            w = spec.a0(t) * -1  # (m/t) a^{-1} = -a0
            log_w = spec.base.dlog(w)
            rho = _rho_of_log(log_w) * (rho_m1 ** (((t - 1) // 2) % 2))
            val = Fraction(q ** (t - 1) + (-1) ** h * q ** ((t - 1) // 2) * rho, 2)
        elif (d, l) == (1, 2):
            rho = rho_m1 ** ((t // 2) % 2)
            val = Fraction(q ** (t - 1) + (-1) ** h * q ** ((t - 2) // 2) * rho, 2)
        else:  # (2, 1)
            val = Fraction(q ** (t - 1))
    if val.denominator != 1 or val < 0:
        raise InvariantError("s=2 table produced a non-integer or negative N_t")
    return int(val)


def _table_s34(spec: CountSpec, t: int, s: int) -> int:
    q, p = spec.q, spec.p
    if spec.s != s or spec.r != 1 or (p - 1) % s != 0:
        raise TableNotApplicable(f"the s = {s} table needs q = p = 1 mod {s}")
    params = derive_params(spec, t)
    d, l, i0 = params.d, params.l, params.i0
    g = spec.base.generator_index
    sign_i0 = (-1) ** (i0 % 2)
    if s == 4:
        par = _quartic(p, g)
        pi = par.pi
        if spec.a.is_zero():
            if (d, l) == (1, 1):
                val = Fraction(p ** (t - 1) - 1, 4)
            elif (d, l) == (1, 2):
                val = Fraction(p ** (t - 1) - 1 - sign_i0 * p ** ((t - 2) // 2) * (p - 1), 4)
            elif (d, l) == (1, 4):
                re2 = (pi ** (t // 2) * CycInt.root(4, i0)).twice_real()
                val = Fraction(
                    p ** (t - 1) - 1 - sign_i0 * p ** ((t - 4) // 4) * (p - 1) * (p ** (t // 4) + re2),
                    4,
                )
            elif (d, l) == (2, 1):
                val = Fraction(p ** (t - 1) - 1, 2)
            elif (d, l) == (2, 2):
                val = Fraction(p ** (t - 1) - 1 - sign_i0 * p ** ((t - 2) // 2) * (p - 1), 2)
            else:  # (4, 1)
                val = Fraction(p ** (t - 1) - 1)
        else:
            log_a0 = spec.base.dlog(spec.a0(t))
            rho_a0 = _rho_of_log(log_a0)
            if (d, l) == (1, 1):
                qt4 = _q_t4(spec, t, par, i0)
                val = Fraction(
                    p ** (t - 1) + sign_i0 * (p ** ((t - 1) // 2) * rho_a0 + qt4.twice_real()),
                    4,
                )
            elif (d, l) == (1, 2):
                re2 = (pi ** (t // 2) * CycInt.root(4, i0)).twice_real()
                val = Fraction(
                    p ** (t - 1)
                    + sign_i0 * p ** ((t - 2) // 4) * (p ** ((t - 2) // 4) - rho_a0 * re2),
                    4,
                )
            elif (d, l) == (1, 4):
                re2 = (pi ** (t // 2) * CycInt.root(4, i0)).twice_real()
                val = Fraction(
                    p ** (t - 1) + sign_i0 * p ** ((t - 4) // 4) * (p ** (t // 4) + re2), 4
                )
            elif (d, l) == (2, 1):
                val = Fraction(p ** (t - 1) + sign_i0 * p ** ((t - 1) // 2) * rho_a0, 2)
            elif (d, l) == (2, 2):
                val = Fraction(p ** (t - 1) + sign_i0 * p ** ((t - 2) // 2), 2)
            else:  # (4, 1)
                val = Fraction(p ** (t - 1))
    else:
        par = _cubic(p, g)
        pi = par.pi
        sign_t = (-1) ** (t % 2)  # (-1)^t
        if spec.a.is_zero():
            if (d, l) == (1, 1):
                val = Fraction(p ** (t - 1) - 1, 3)
            elif (d, l) == (1, 3):
                re2 = (pi ** (t // 3) * CycInt.root(3, 2 * i0)).twice_real()
                val = Fraction(
                    p ** (t - 1) - 1 - 2 * sign_t * p ** ((t - 3) // 3) * (p - 1) * Fraction(re2, 2),
                    3,
                )
            else:  # (3, 1)
                val = Fraction(p ** (t - 1) - 1)
        else:
            if (d, l) == (1, 1):
                qt3 = _q_t3(spec, t, par, i0)
                val = Fraction(p ** (t - 1) - sign_t * qt3.twice_real(), 3)
            elif (d, l) == (1, 3):
                re2 = (pi ** (t // 3) * CycInt.root(3, 2 * i0)).twice_real()
                val = Fraction(p ** (t - 1) + sign_t * p ** ((t - 3) // 3) * re2, 3)
            else:  # (3, 1)
                val = Fraction(p ** (t - 1))
    if val.denominator != 1 or val < 0:
        raise InvariantError(f"s={s} table produced a non-integer or negative N_t")
    return int(val)


def _q_t4(spec: CountSpec, t: int, par: QuarticParams, i0: int) -> CycInt:
    p = spec.p
    log_neg_a0 = spec.base.dlog(-spec.a0(t))
    if t % 4 == 1:
        chi_bar = CycInt.root(4, -log_neg_a0)
        return p ** ((t - 1) // 4) * par.pi ** ((t - 1) // 2) * chi_bar * CycInt.root(4, i0)
    if t % 4 == 3:
        chi = CycInt.root(4, log_neg_a0)
        sign = -1 if par.f % 2 else 1
        return sign * p ** ((t - 3) // 4) * par.pi ** ((t + 1) // 2) * chi * CycInt.root(4, i0)
    raise InvariantError("Q_{t,4} needs odd t")  # (1,1) rows always have odd t


def _q_t3(spec: CountSpec, t: int, par: CubicParams, i0: int) -> CycInt:
    p = spec.p
    log_a0 = spec.base.dlog(spec.a0(t))
    if t % 3 == 1:
        chi_bar = CycInt.root(3, -log_a0)
        return p ** ((t - 1) // 3) * par.pi ** ((t - 1) // 3) * chi_bar * CycInt.root(3, 2 * i0)
    if t % 3 == 2:
        chi = CycInt.root(3, log_a0)
        return p ** ((t - 2) // 3) * par.pi ** ((t + 1) // 3) * chi * CycInt.root(3, 2 * i0)
    raise InvariantError("Q_{t,3} needs t not divisible by 3")


def semiprimitive_setup(p: int, r: int, s: int):
    """Minimal e with s | p^e + 1 and 2e | r, plus n = r / 2e; None if none."""
    if r % 2 != 0:
        return None
    for e in divisors(r // 2):
        if (p**e + 1) % s == 0:
            return e, r // (2 * e)
    return None


def _table_semiprimitive(spec: CountSpec, t: int) -> int:
    q, p, r, s = spec.q, spec.p, spec.r, spec.s
    setup = semiprimitive_setup(p, r, s)
    if setup is None:
        raise TableNotApplicable("s does not divide p^e + 1 for any e with r = 2en")
    _, n = setup
    params = derive_params(spec, t)
    d, l, u, i0 = params.d, params.l, params.u, params.i0
    sd = s // d
    sign_nt = (-1) ** ((n * t) % 2)
    ds = Fraction(d, s)
    root = sqrt_q_power(p, r, t - 2)
    if spec.a.is_zero():
        if l > 1 and i0 % l != 0:
            val = ds * (q ** (t - 1) - 1 + sign_nt * (q - 1) * root)
        else:
            val = ds * (q ** (t - 1) - 1 - sign_nt * (q - 1) * (l - 1) * root)
    else:
        ind_a0 = params.t0 % sd * spec.base.dlog(spec.a0(t)) % sd if sd > 1 else 0
        kk = (-i0 - ind_a0) % sd if sd > 1 else 0
        if sd > 1 and kk % l != 0:
            val = ds * (q ** (t - 1) - sign_nt * root)
        else:
            sqrt_q = sqrt_q_power(p, r, 1)
            sign_n = (-1) ** (n % 2)
            if u > 1:
                t0l = (params.t0 % (l * u)) // l
                j0 = kk // l * pow(t0l, -1, u) % u
            else:
                j0 = 0
            if u > 1 and j0 % u != 0:
                inner = (sign_n * sqrt_q - 1) * l + 1
            else:
                inner = (-sign_n * (u - 1) * sqrt_q - 1) * l + 1
            val = ds * (q ** (t - 1) - sign_nt * inner * root)
    if val.denominator != 1 or val < 0:
        raise InvariantError("semiprimitive table produced a non-integer or negative N_t")
    return int(val)


def applicable_tables(spec: CountSpec) -> list[str]:
    out = []
    if spec.s == 2 and spec.q % 2 == 1:
        out.append("s2")
    if spec.s in (3, 4) and spec.r == 1 and (spec.p - 1) % spec.s == 0:
        out.append(f"s{spec.s}")
    if spec.s >= 1 and semiprimitive_setup(spec.p, spec.r, spec.s) is not None:
        out.append("semiprimitive")
    return out


# -- the route planner --

METHODS = ("auto", "closed", "general", "table")


def plan(spec: CountSpec, method: str = "auto", cap: int = DEFAULT_ENUM_CAP) -> list[tuple[int, int, str]]:
    """[(t, mu(m/t), route)] for every N_t that P_m needs, decided up front.

    The route of each N_t is chosen from the spec alone, by integer
    arithmetic, before any tower is built or any orbit is walked, so a
    method or cap that cannot be served refuses here (TableNotApplicable
    or EnumerationCapExceeded) instead of part way through the work.
    """
    tables = _tables_for(spec, method)
    out = []
    for t in divisors(spec.m):
        mu = mobius(spec.m // t)
        if mu:
            out.append((t, mu, _route(spec, t, method, cap, tables)))
    return out


def _tables_for(spec: CountSpec, method: str) -> list[str]:
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    return applicable_tables(spec) if method in ("auto", "table") else []


def _route(spec: CountSpec, t: int, method: str, cap: int, tables: list[str]) -> str:
    """The route of N_t under `method`.

    N_t is special when d = gcd(m/t, s) does not divide h or p divides m/t;
    otherwise its characters have orders dividing n = gcd(t, s/d) (a = 0) or
    s/d (a != 0).  'auto' tries Jacobi when n = 1, a table, the closed route,
    then general and brute Jacobi while max(q^t, p q) and q^{t-1} fit the cap.
    """
    q, s = spec.q, spec.s
    mt = spec.m // t
    d = math.gcd(mt, s)
    if spec.h % d or mt % spec.p == 0:
        return "special"
    n = math.gcd(t, s // d) if spec.a.is_zero() else s // d
    general_size = _general_size(q, spec.p, t)
    if method == "general":
        if general_size > cap:
            raise EnumerationCapExceeded(f"the double sum needs {general_size} elements, beyond cap {cap}; use a closed route")
        return "general"
    if method == "table":
        if not tables:
            raise TableNotApplicable(f"no closed table applies to s={s}, q={q}")
        return tables[0]
    if method == "auto":
        if n == 1:
            return "jacobi"
        if tables:
            return tables[0]
    closed, refusal = _closed_route(spec, n, cap)
    if method == "closed" and refusal:
        raise refusal
    if not refusal:
        return closed
    if general_size <= cap:
        return "general"
    if q ** (t - 1) <= cap:
        return "jacobi_brute"
    raise EnumerationCapExceeded(
        f"N_{t} needs a Jacobi sum over q^(t-1) = {q ** (t - 1)} tuples, beyond cap {cap}"
    )


def _closed_route(spec: CountSpec, n: int, cap: int):
    """The closed route for characters of order dividing n, and its refusal (or None)."""
    if spec.p == 2 and spec.a.is_zero():
        # the lifted Gauss sums read trace histograms of F_{2^{ord_n 2}}, a
        # subfield of F_q, by at most n < q classes of 2 traces
        size = 1 if n == 1 or 2 * spec.q <= cap else max(2 ** multiplicative_order(2, n), 2 * n)
        if size > cap:
            return "lifted", EnumerationCapExceeded(f"the lifted Gauss sums need {size} elements, beyond cap {cap}")
        return "lifted", None
    if n in (1, 2) or (spec.r == 1 and n in (3, 4)):
        return "jacobi", None
    return "jacobi", TableNotApplicable(f"no closed Jacobi form for character order {n} at q = {spec.q}")


# -- N_t and P_m --


def _n_from_m(spec: CountSpec, t: int, m_t: int) -> int:
    num = math.gcd(spec.m // t, spec.s) * (spec.q**t - 1 + m_t)
    den = spec.s * spec.q
    if num % den != 0:
        raise InvariantError("d (q^t - 1 + M_t) must be divisible by s q")
    n = num // den
    if n < 0:
        raise InvariantError("negative N_t")
    return n


def _run_route(spec: CountSpec, t: int, route: str, cap: int) -> int:
    """N_t along one planned route; general reads the cached tower."""
    if route == "special":
        return n_t_special(spec, t)
    if route in TABLE_NAMES:
        return n_t_table(spec, t, route)
    if route == "lifted":
        m_t = m_t_lifted(spec, t, cap)
    elif route in ("jacobi", "jacobi_brute"):
        m_t = m_t_jacobi(spec, t, allow_brute=route == "jacobi_brute", cap=cap)
    else:
        m_t = m_t_general(build_tower(spec.p, spec.r, spec.m), spec, t, cap)
    return _n_from_m(spec, t, m_t)


def n_t(spec: CountSpec, t: int, method: str = "auto", cap: int = DEFAULT_ENUM_CAP) -> int:
    """N_t = |S_t| along the route the planner picks for t (see plan)."""
    if spec.m % t != 0:
        raise ValidationError(f"{t} does not divide m = {spec.m}")
    route = _route(spec, t, method, cap, _tables_for(spec, method))
    return _run_route(spec, t, route, cap)


def p_m(spec: CountSpec, method: str = "auto", cap: int = DEFAULT_ENUM_CAP) -> int:
    """P_m(a, s, h) via Moebius inversion over the N_t, along plan(spec, method, cap)."""
    return run_plan(spec, plan(spec, method, cap), cap)


def run_plan(spec: CountSpec, steps: list[tuple[int, int, str]], cap: int = DEFAULT_ENUM_CAP) -> int:
    """P_m from the (t, mu, route) steps that plan made for spec: the Moebius sum of their N_t over m."""
    total = sum(mu * _run_route(spec, t, route, cap) for t, mu, route in steps)
    if total % spec.m != 0:
        raise InvariantError("Moebius sum must be divisible by m")
    out = total // spec.m
    if out < 0:
        raise InvariantError("negative polynomial count")
    return out


def p_m_prime_closed(spec: CountSpec) -> int:
    """The displayed closed forms for prime m and s in {2, 3, 4}."""
    m, s, q, p = spec.m, spec.s, spec.q, spec.p
    if not is_prime(m):
        raise NotApplicable("the prime-m closed forms need m prime")
    h = spec.h
    if s == 2:
        if q % 2 == 0 or m <= 2:
            raise NotApplicable("s = 2 closed form needs odd q and prime m > 2")
        rho_m1 = rho_minus_one(q)
        if spec.a.is_zero():
            val = Fraction(q ** (m - 1) - q, 2 * m) if m == p else Fraction(q ** (m - 1) - 1, 2 * m)
        else:
            log_a = spec.base.dlog(spec.a)
            rho_arg = _rho_of_log(log_a) * rho_m1 ** ((((m - 1) // 2)) % 2)
            big_s = (-1) ** h * q ** ((m - 1) // 2) * rho_arg
            if m == p:
                val = Fraction(q ** (m - 1) + big_s, 2 * m)
            else:
                ma = spec.a * (m % p)
                rho_ma = _rho_of_log(spec.base.dlog(ma)) if not ma.is_zero() else 0
                val = Fraction(q ** (m - 1) + big_s - (-1) ** h * rho_ma - 1, 2 * m)
    elif s == 4:
        if spec.r != 1 or (p - 1) % 4 != 0 or m <= 2:
            raise NotApplicable("s = 4 closed form needs q = p = 1 mod 4 and m > 2")
        par = _quartic(p, spec.base.generator_index)
        pi = par.pi
        if spec.a.is_zero():
            val = Fraction(p ** (p - 2) - 1, 4) if m == p else Fraction(p ** (m - 1) - 1, 4 * m)
        else:
            log_a = spec.base.dlog(spec.a)
            rho_a = _rho_of_log(log_a)
            chi_a = CycInt.root(4, log_a)
            if m == p:
                inner = pi ** ((p - 1) // 2) * chi_a * CycInt.root(4, h)
                val = Fraction(
                    p ** (p - 1)
                    + (-1) ** h * (p ** ((p - 1) // 2) * rho_a + 2 * p ** ((p - 1) // 4) * Fraction(inner.twice_real(), 2)),
                    4 * p,
                )
            else:
                log_m = spec.base.dlog(spec.base.from_int(m))
                rho_m = _rho_of_log(log_m)
                chi_m3a = CycInt.root(4, 3 * log_m + log_a)
                if m % 4 == 1:
                    r_m = (
                        p ** ((m - 1) // 4) * pi ** ((m - 1) // 2) * chi_a * CycInt.root(4, h)
                        - chi_m3a * CycInt.root(4, h)
                    )
                else:
                    sign = -1 if par.f % 2 else 1
                    r_m = (
                        sign * p ** ((m - 3) // 4) * pi ** ((m + 1) // 2) * chi_a.conjugate() * CycInt.root(4, h)
                        - chi_m3a * CycInt.root(4, 3 * h)
                    )
                val = Fraction(
                    p ** (m - 1) - 1 + (-1) ** h * (rho_a * (p ** ((m - 1) // 2) - rho_m) + r_m.twice_real()),
                    4 * m,
                )
    elif s == 3:
        if spec.r != 1 or (p - 1) % 3 != 0 or m <= 3:
            raise NotApplicable("s = 3 closed form needs q = p = 1 mod 3 and prime m > 3")
        par = _cubic(p, spec.base.generator_index)
        pi = par.pi
        if spec.a.is_zero():
            val = Fraction(p ** (p - 2) - 1, 3) if m == p else Fraction(p ** (m - 1) - 1, 3 * m)
        else:
            log_a = spec.base.dlog(spec.a)
            chi_a = CycInt.root(3, log_a)
            if m == p:
                inner = pi ** ((p - 1) // 3) * chi_a * CycInt.root(3, 2 * h)
                val = Fraction(p ** (p - 1) + 2 * p ** ((p - 1) // 3) * Fraction(inner.twice_real(), 2), 3 * p)
            else:
                log_m = spec.base.dlog(spec.base.from_int(m))
                chi_m_bar = CycInt.root(3, -log_m)
                if m % 3 == 1:
                    l_m = ((p * pi) ** ((m - 1) // 3) - chi_m_bar) * chi_a * CycInt.root(3, 2 * h)
                else:
                    l_m = (
                        p ** ((m - 2) // 3) * pi ** ((m + 1) // 3) * chi_a * CycInt.root(3, h)
                        - chi_m_bar
                    ) * chi_a * CycInt.root(3, h)
                val = Fraction(p ** (m - 1) - 1 + l_m.twice_real(), 3 * m)
    else:
        raise NotApplicable(f"no prime-m closed form for s = {s}")
    if val.denominator != 1 or val < 0:
        raise InvariantError("prime-m closed form produced a non-integer or negative count")
    return int(val)
