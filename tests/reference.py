"""Test-only references and checks.

Nothing in the package imports this module.  The whole-array functions
recompute an oracle value, a trace histogram or a log table the simplest
way, over whole-orbit arrays, so the streamed code in polycount.oracle and
polycount.fields can be compared with it.  The character sum checks
compare two independent routes to the same sum.  The Jacobi tuple walk
visits every one of the q^{t-1} tuples with sum 1 that the package counts
by classes instead.  The schoolbook products and powers are what the
package's packed-integer arithmetic must reproduce digit for digit.  The
paper's closed monomial-sum lemmas live here too, checked against the
package's monomial sums; no count route reads them.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from polycount.charsums import gauss_sum, gauss_sum_folded, gauss_sum_lifted, monomial_sum
from polycount.counting import CountSpec
from polycount.cyclotomic import CycInt
from polycount.errors import InvariantError, ValidationError
from polycount.fields import (
    FieldCtx,
    FieldElement,
    TowerCtx,
    _digits,
    _index_add,
    build_field,
    build_tower,
    min_poly,
    poly_is_irreducible,
)
from polycount.intmath import divisors, factor_prime_power_order, factorize, mobius, multiplicative_order
from polycount.oracle import DEFAULT_ORACLE_CAP, _check_oracle_cap, brute_scan


def _h(spec: CountSpec, tower: TowerCtx) -> int:
    return tower.dlog_g(spec.b) % spec.s if spec.s > 1 else 0


def brute_t_t(spec: CountSpec, t: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """|T_t|: elements of F_{q^t} of exact degree t meeting the (a, coset) cell."""
    tower = build_tower(spec.p, spec.r, spec.m)
    scan = brute_scan(tower, t, cap)
    return scan.cell(t, spec.a.index, _h(spec, tower), spec.s)


def brute_n_t(spec: CountSpec, t: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """|S_t|: all x in F_{q^t} with Tr_m(x) = a and Norm_m(x) in the coset."""
    _check_oracle_cap(spec.p, spec.r, t, cap)
    tower = build_tower(spec.p, spec.r, spec.m)
    scan = brute_scan(tower, t, cap)
    h = _h(spec, tower)
    return sum(scan.cell(tt, spec.a.index, h, spec.s) for tt in divisors(t))


def necklace_count(q: int, m: int) -> int:
    """Number of monic irreducible polynomials of degree m over F_q."""
    total = sum(mobius(m // t) * q**t for t in divisors(m))
    if total % m != 0:
        raise InvariantError("the necklace sum must be divisible by m")
    return total // m


def schoolbook_mulmod(a: list[int], b: list[int], modulus, p: int) -> list[int]:
    """a b mod the monic modulus over F_p, on coordinate lists low degree first.

    Long multiplication summed exactly, then long division from the top
    coefficient down, each reduced mod p as it is read.
    """
    r = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for k in range(len(out) - 1, r - 1, -1):
        c = out[k] % p
        for j in range(r):
            out[k - r + j] -= c * modulus[j]
    return [c % p for c in out[:r]]


def schoolbook_powmod(a: list[int], e: int, modulus, p: int) -> list[int]:
    """a^e mod the monic modulus over F_p by right-to-left square and multiply on schoolbook_mulmod."""
    out = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            out = schoolbook_mulmod(out, a, modulus, p)
        a = schoolbook_mulmod(a, a, modulus, p)
        e >>= 1
    return out


def schoolbook_cyc_pow(x: CycInt, n: int) -> CycInt:
    """x^n by right-to-left square and multiply on CycInt's schoolbook product mod x^L - 1."""
    result = CycInt.integer(x.order, 1)
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


def element_order(field: FieldCtx, x: FieldElement) -> int:
    """The multiplicative order of nonzero x: q - 1 less every prime factor l with x^(order / l) = 1."""
    if x.is_zero():
        raise ValueError("zero has no multiplicative order")
    order = field.group_order
    for q, e in factor_prime_power_order(field.p, field.r):
        for _ in range(e):
            if x ** (order // q) == field.one:
                order //= q
            else:
                break
    return order


def naive_generator_index(field: FieldCtx) -> int:
    """The first index from 1 whose element has order q - 1, each order by repeated products."""
    for idx in range(1, field.order):
        x = field.from_index(idx)
        power, order = x, 1
        while power != field.one:
            power, order = power * x, order + 1
        if order == field.group_order:
            return idx
    raise ValidationError("no element of full order")


def index_order_modulus(p: int, r: int) -> tuple[int, ...]:
    """The first monic irreducible of degree r over F_p in index order, by Ben-Or on every code in turn."""
    for code in range(p**r):
        coeffs = _digits(code, p, r) + [1]
        if poly_is_irreducible(coeffs, build_field(p, 1)):
            return tuple(coeffs)
    raise ValidationError(f"no irreducible polynomial of degree {r} over F_{p}")


def first_root_exponent(tower: TowerCtx) -> int:
    """The least j with g^j a root of the base modulus, scanning every g^j, j < q - 1, at once.

    The powers come from one walk of g's orbit; f(g^j) is then the sum of
    c_k times the digits of g^(jk mod q - 1), taken mod p.
    """
    p, n, rm = tower.p, tower.q - 1, tower.top.r
    powers = tower.top.linear_orbit(tower.g, np.eye(rm, dtype=np.int64), n)
    digits = powers[:, None] // p ** np.arange(rm, dtype=np.int64) % p
    j = np.arange(n, dtype=np.int64)
    acc = np.zeros((n, rm), dtype=np.int64)
    for k, c in enumerate(tower.base.modulus):
        acc += c * digits[j * k % n]
    roots = np.flatnonzero(~(acc % p).any(axis=1))
    if not len(roots):
        raise ValidationError("the base modulus has no root among the powers of g")
    return int(roots[0])


def whole_orbit_counts(tower: TowerCtx, t: int) -> np.ndarray:
    """brute_scan's bucket table from whole-orbit arrays and one bincount."""
    q, m = tower.q, tower.m
    big_q = q**t - 1
    labels = tower.top.linear_orbit(tower.gamma[t], tower.base_trace_form(), big_q)
    # exact degree: the smallest subfield is written last
    divs = divisors(t)
    deg_pos = np.full(big_q, len(divs) - 1, dtype=np.int64)
    for di in range(len(divs) - 2, -1, -1):
        deg_pos[:: big_q // (q ** divs[di] - 1)] = di
    # norm log: dlog_g Norm_m(gamma_t^e) = e * (m/t) mod (q - 1)
    wnorm = np.arange(big_q, dtype=np.int64) * (m // t) % (q - 1)
    combined = (deg_pos * q + labels) * (q - 1) + wnorm
    return np.bincount(combined, minlength=len(divs) * q * (q - 1)).reshape(len(divs), q, q - 1)


def whole_orbit_trace_hist(tower: TowerCtx, t: int, g: int) -> np.ndarray:
    """TowerCtx.trace_hist from the whole orbit's traces and one bincount."""
    traces = tower.top.linear_orbit(tower.gamma[t], tower.abs_trace_column(t), tower.q**t - 1)
    traces = traces.astype(np.min_scalar_type(tower.p - 1)).reshape(-1, g)
    labels = traces + np.arange(0, g * tower.p, tower.p, dtype=np.int64)
    hist = np.bincount(labels.ravel(), minlength=g * tower.p).reshape(g, tower.p)
    hist.flags.writeable = False
    return hist


def whole_orbit_log_table(field: FieldCtx) -> np.ndarray:
    """FieldCtx.log_table from the whole orbit of the generator and one scatter."""
    n = field.group_order
    powers = field.linear_orbit(field.generator, np.eye(field.r, dtype=np.int64), n)
    table = np.full(field.order, -1, dtype=np.int32)
    table[powers] = np.arange(n, dtype=np.int32)
    table.flags.writeable = False
    return table


def whole_orbit_listing(spec: CountSpec) -> list[tuple[int, ...]]:
    """list_polys' output from one whole-orbit mask: the minimal polynomial of every match."""
    tower = build_tower(spec.p, spec.r, spec.m)
    q, m = tower.q, spec.m
    big_q = q**m - 1
    gamma = tower.gamma[m]
    labels = tower.top.linear_orbit(gamma, tower.base_trace_form(), big_q)
    mask = labels == spec.a.index
    for ell in factorize(m):
        mask[:: big_q // (q ** (m // ell) - 1)] = False
    exps = np.flatnonzero(mask)
    if q > 2:
        exps = exps[exps % (q - 1) % spec.s == _h(spec, tower)]
    return sorted({tuple(c.index for c in min_poly(tower, gamma**e)[0]) for e in exps.tolist()})


# the trailing coordinates of the Jacobi tuple walk are enumerated together, this many at most (or q)
_JACOBI_BLOCK = 1 << 12


def jacobi_tuples(field: FieldCtx, n: int, k: int, t: int) -> tuple[np.ndarray, int]:
    """Walk every x in F_q^t with x_1 + ... + x_t = 1.

    Returns the histogram of k log(x_1 ... x_t) mod n over the tuples with no
    zero coordinate, and the number of tuples with one.  The t - 1 free
    coordinates are iterated directly, the trailing ones as numpy blocks of
    element indices, in O(q) memory.
    """
    q, p, r = field.order, field.p, field.r
    coeffs = np.zeros(n, dtype=np.int64)
    if t == 1:
        coeffs[0] = 1  # the one tuple (1), log 0
        return coeffs, 0
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
    with_zero = 0
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
    return coeffs, with_zero


def jacobi_tuple_walk(field: FieldCtx, n: int, k: int, t: int) -> CycInt:
    """J_t(lambda^k) for the canonical order-n character, summed over all q^{t-1} tuples.

    The trivial character takes value 1 at 0, so it also counts the tuples
    with a zero coordinate.
    """
    coeffs, with_zero = jacobi_tuples(field, n, k, t)
    if k % n == 0:
        coeffs[0] += with_zero
    return CycInt(n, coeffs.tolist())


def norm_class_count(q: int, m: int, s: int, h: int) -> int:
    """(1/m) sum_{t | m} mu(m/t) (q^t - 1)/(q - 1) #{e mod q - 1 : (m/t) e = h mod s}.

    The number of monic irreducibles of degree m over F_q whose norm lies in
    the class h mod s, whatever their trace (test_identities proves it).
    """
    total = 0
    for t in divisors(m):
        hits = sum(1 for e in range(q - 1) if ((m // t) * e - h) % s == 0)
        total += mobius(m // t) * (q**t - 1) // (q - 1) * hits
    if total % m:
        raise ValueError("the Moebius sum is not divisible by m")
    return total // m


def carlitz_count(p: int, r: int, m: int) -> int:
    """(1/(qm)) sum_{d | m, p not dividing d} mu(d) q^{m/d}, q = p^r.

    The number of monic irreducibles of degree m over F_q with a given nonzero
    trace coefficient and any norm (Carlitz 1952; test_identities proves it).
    """
    q = p**r
    total = sum(mobius(d) * q ** (m // d) for d in divisors(m) if d % p)
    if total % (q * m):
        raise ValueError("the Moebius sum is not divisible by qm")
    return total // (q * m)


@dataclass
class ConnectReport:
    """Both sides of the monomial-to-Gauss-sum identity, compared exactly."""

    lhs: CycInt
    rhs: CycInt
    equal: bool


def char_connect_check(tower: TowerCtx, t: int, alpha: FieldElement, n: int) -> ConnectReport:
    """Check sum_x e_t(alpha x^n) = sum_{lambda in H_n} G_t(conj lambda) lambda(Norm_t alpha).

    n must divide q - 1; both sides are computed independently.
    """
    q = tower.q
    if (q - 1) % n != 0:
        raise ValidationError("n must divide q - 1")
    i = tower.dlog_gamma(alpha, t)
    lhs = monomial_sum(tower, t, i, n)
    p = tower.p
    order = p * n
    norm_log = tower.dlog_g(tower.norm_rel(alpha, t))
    rhs = CycInt(order)
    for j in range(n):
        # lambda_j sends g to zeta_n^j, so lambda_j . Norm_t is the level-t
        # character sending gamma_t to zeta_n^j
        g_val = gauss_sum(tower, t, n, (-j) % n)
        lam_val = CycInt.root(order, (j * norm_log % n) * p)
        rhs = rhs + g_val.embed(order) * lam_val
    lhs_e = lhs.embed(order)
    return ConnectReport(lhs=lhs_e, rhs=rhs, equal=lhs_e == rhs)

def dh_consistency_check(r_small: int, t_prime: int, n: int, k: int) -> bool:
    """Davenport-Hasse lift vs the direct Gauss sum, in one shared tower."""
    tower = build_tower(2, r_small, t_prime)
    lifted = gauss_sum_lifted(tower, t_prime, n, k)
    direct = gauss_sum_folded(tower, t_prime, n, k)
    return lifted == direct


def monomial_closed_semiprimitive(p: int, e: int, n: int, t: int, s: int, i: int) -> int:
    """Closed value of sum_{x != 0} e_t(gamma_t^i x^s) when s | p^e + 1, r = 2en.

    Two values only, split by i mod s against the shift k_s, which is s/2
    exactly when p > 2, nt is odd and (p^e + 1)/s is odd, and 0 otherwise.
    """
    if (p**e + 1) % s != 0:
        raise ValidationError("semiprimitive closed form needs s | p^e + 1")
    odd_nt = (n * t) % 2
    k_s = s // 2 if p > 2 and odd_nt and s % 2 == 0 and (p**e + 1) // s % 2 else 0
    root = p ** (e * n * t)  # sqrt(q^t) for q = p^{2en}
    sign = -1 if odd_nt else 1
    if i % s == k_s:
        return -sign * (s - 1) * root - 1
    return sign * root - 1


def monomial_closed_char2(r: int, t: int, big_n: int, i: int) -> int:
    """Closed value of sum over ALL x in F_{2^{rt}} of e_t(gamma_t^i x^N).

    Needs -1 to be a power of 2 mod N (semiprimitive N); the sum is
    (-1)^{N'} sqrt(q^t) off the zero class and (-1)^{N'-1}(N-1) sqrt(q^t)
    on it, with N' = rt / ord_N(2).
    """
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
