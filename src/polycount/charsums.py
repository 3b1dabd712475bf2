"""Multiplicative characters and exact evaluation of their sums.

A character is named by two integers (n, k): the k-th power of the order-n
character of F_{q^t}* that sends gamma_t to zeta_n (for the Jacobi sums over
F_q, field.generator to zeta_n).  The field level t is the sum's own argument,
so nothing repeats it.

Three sum species: monomial exponential sums over F_{q^t}, Gauss sums,
and Jacobi sums.  A monomial or Gauss sum over F_{q^t} depends on an
element gamma_t^j only through j mod g and its absolute trace: a Gauss sum
is a Fourier coefficient of TowerCtx.trace_hist(t, g), a monomial sum counts
one class from the walk TowerCtx.trace_blocks.  Jacobi sums over F_q read
class counts by log mod n, built from cyclotomic numbers, not from tuples.
Counts become a CycInt once at the end, so the work is integer vectors.

For p = 2 the Davenport-Hasse identity lifts a Gauss sum from the small
field carrying the character to any extension by sign-twisted exact
powering; norm compatibility of the two character pinnings is automatic
when both levels live in one tower.

The sums in Z[zeta_N] (gauss_sum_folded, gauss_sum_lifted, jacobi_brute)
are Galois-equivariant: at (N, k), gcd(k, N) = 1, each is sigma_k (zeta_N ->
zeta_N^k, `CycInt.galois`) of its value at (N, 1), the same coefficients
permuted.  So a caller that needs every character of order N computes one
sum per order, at k = 1, and permutes it.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import CycInt
from .errors import CapExceeded, InvariantError, ValidationError
from .fields import FieldCtx, TowerCtx, _index_add, check_cap


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


def gauss_sum(tower: TowerCtx, t: int, n: int, k: int = 1, cap: int | None = None) -> CycInt:
    """G_t(lambda^k) = sum over F_{q^t}* of e_t(x) lambda^k(x), in Z[zeta_{pn}].

    lambda is the order-n character of F_{q^t}* sending gamma_t to zeta_n, so
    lambda^k(gamma_t^j) = zeta_n^{k c} for j in class c mod n, and the trace
    histogram by n classes counts zeta_p^tau zeta_n^{k c} at [c, tau].
    """
    p = tower.p
    hist = tower.trace_hist(t, n, cap)
    order = p * n
    exps = (np.arange(p) * n + (k * np.arange(n) % n * p)[:, None]) % order
    coeffs = np.zeros(order, dtype=np.int64)
    np.add.at(coeffs, exps, hist)
    return CycInt(order, coeffs.tolist())


def gauss_sum_folded(tower: TowerCtx, t: int, n: int, k: int = 1, cap: int | None = None) -> CycInt:
    """Same Gauss sum for p = 2, folded into Z[zeta_n] via zeta_2 = -1."""
    if tower.p != 2:
        raise ValidationError("sign folding needs characteristic 2")
    hist = tower.trace_hist(t, n, cap)
    coeffs = np.zeros(n, dtype=np.int64)
    np.add.at(coeffs, k * np.arange(n) % n, hist[:, 0] - hist[:, 1])
    return CycInt(n, coeffs.tolist())


def gauss_sum_lifted(tower: TowerCtx, t_prime: int, n: int, k: int = 1, cap: int | None = None) -> CycInt:
    """The Gauss sum of (n, k) over F_q, lifted to the degree-t' extension.

    Characteristic 2 only: equals -(-F)^{t'} where F = gauss_sum_folded(tower,
    1, n, k), per the Davenport-Hasse identity.  The result lives in Z[zeta_n]
    and matches the direct Gauss sum over F_{q^t'} with the norm-compatible
    character, gauss_sum_folded(tower, t', n, k) when t' | m.
    """
    f = gauss_sum_folded(tower, 1, n, k, cap)
    return -((-f) ** t_prime)


def jacobi_class_counts(field: FieldCtx, n: int, t: int) -> np.ndarray:
    """A[c] = #{x in (F_q*)^t : x_1 + ... + x_t = 1, log(x_1 ... x_t) = c mod n}, as int64.

    Logs are to field.generator and n | q - 1, so J_t(lambda^k) = sum_c A[c] zeta_n^{kc}
    for every nontrivial power of the canonical order-n character.

    Let A_k count k variables, and B_k the same with sum 0.  For u != 0, x -> u x
    maps sum 1 onto sum u and the product to u^k times it, so sum u counts
    A_k[c - k log u].  Split on the last coordinate y.  In A_{k+1}, y = 1 leaves
    sum 0 and y not in {0, 1} leaves sum 1 - y, so A_{k+1} = B_k + A_k (*) H_k, a
    cyclic convolution with H_k[u] = #{y not in {0, 1} : log y + k log(1 - y) = u}.
    In B_{k+1}, y in F_q* leaves sum -y, with log(-y) = log(-1) + log y, and each
    class of log y mod n holds (q - 1)/n elements, so B_{k+1}[c] = ((q - 1)/n)
    sum_i A_k[c - (k + 1) i - k log(-1)]; (k + 1) i runs g times over the multiples
    of g = gcd(k + 1, n), a sum over one class mod g.  A_1 = delta_0 and B_1 = 0.
    Each entry counts at most q^{t-1} tuples, exact in int64 below 2^62; the total
    is checked against ((q - 1)^t - (-1)^t)/q.  O(q + n^2) per step.
    """
    q = field.order
    if n < 1 or (q - 1) % n != 0:
        raise ValidationError("character order must be a positive divisor of q - 1")
    if t < 1:
        raise ValidationError("a Jacobi sum needs t >= 1 variables")
    if q ** (t - 1) >= 1 << 62:
        raise CapExceeded(f"class counts of {t} variables over F_{q} overflow int64")
    a, b = (np.arange(n) == 0).astype(np.int64), 0  # A_1, B_1
    if t == 1:
        return a  # no recurrence, so no table
    logs = field.log_table().astype(np.int64)
    one_minus = logs[_index_add(field.one.index, np.arange(q), field.p, field.r, sign=-1)]
    live = (logs >= 0) & (one_minus >= 0)  # y not in {0, 1}
    log_y, log_1my = logs[live], one_minus[live]
    log_m1 = (q - 1) // 2 if q % 2 else 0
    for k in range(1, t):
        g = math.gcd(k + 1, n)
        h = np.bincount((log_y + k * log_1my) % n, minlength=n)
        full = np.convolve(a, h) if k > 1 else h  # A_1 (*) H_1 = H_1
        folded = np.pad(full, (0, -len(full) % n)).reshape(-1, n).sum(axis=0)  # indices mod n
        a, b = b + folded, (q - 1) // n * g * a.reshape(-1, g).sum(axis=0)[(np.arange(n) - k * log_m1) % g]
    if int(a.sum()) != ((q - 1) ** t - (-1) ** t) // q:
        raise InvariantError("class counts do not add up to the tuples with sum 1")
    return a


def jacobi_brute(field: FieldCtx, n: int, k: int, t: int, cap: int | None = None) -> CycInt:
    """J_t(lambda) = sum over x_1 + ... + x_t = 1 of lambda(x_1 ... x_t), exact in Z[zeta_n].

    lambda is the k-th power of the canonical order-n character of F_q*
    (sending field.generator to zeta_n), read off jacobi_class_counts; the
    trivial character also counts the tuples with a zero coordinate.  The
    cap is compared with the q^{t-1} tuples with sum 1, not with the work.
    """
    q = field.order
    if n < 1 or (q - 1) % n != 0:
        raise ValidationError("character order must be a positive divisor of q - 1")
    if t < 1:
        raise ValidationError("a Jacobi sum needs t >= 1 variables")
    check_cap(q ** (t - 1), cap, f"the Jacobi sum with {t} variables")
    counts = jacobi_class_counts(field, n, t)
    coeffs = np.zeros(n, dtype=np.int64)
    np.add.at(coeffs, k * np.arange(n) % n, counts)
    if k % n == 0:
        coeffs[0] += q ** (t - 1) - int(counts.sum())
    return CycInt(n, coeffs.tolist())

