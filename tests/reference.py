"""Test-only references and checks.

Nothing in the package imports this module.  The whole-array functions
recompute an oracle value, a trace histogram or a log table the simplest
way, over whole-orbit arrays, so the streamed code in polycount.oracle and
polycount.fields can be compared with it.  The character sum checks
compare two independent routes to the same sum.
"""

from dataclasses import dataclass

import numpy as np

from polycount.charsums import MultChar, gauss_sum, gauss_sum_folded, gauss_sum_lifted, monomial_sum
from polycount.counting import CountSpec
from polycount.cyclotomic import CycInt
from polycount.errors import ValidationError
from polycount.fields import FieldCtx, FieldElement, TowerCtx, build_tower, min_poly
from polycount.intmath import divisors, factorize
from polycount.oracle import DEFAULT_ORACLE_CAP, brute_scan


def _h(spec: CountSpec, tower: TowerCtx) -> int:
    return tower.dlog_g(spec.b) % spec.s if spec.s > 1 else 0


def brute_t_t(spec: CountSpec, t: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """|T_t|: elements of F_{q^t} of exact degree t meeting the (a, coset) cell."""
    tower = build_tower(spec.p, spec.r, spec.m)
    scan = brute_scan(tower, t, cap)
    return scan.cell(t, spec.a.index, _h(spec, tower), spec.s)


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
        chi_bar = MultChar(level=t, order=n, k=(-j) % n)
        g_val = gauss_sum(tower, t, chi_bar)
        lam_val = CycInt.root(order, (j * norm_log % n) * p)
        rhs = rhs + g_val.embed(order) * lam_val
    lhs_e = lhs.embed(order)
    return ConnectReport(lhs=lhs_e, rhs=rhs, equal=lhs_e == rhs)

def dh_consistency_check(r_small: int, t_prime: int, n: int, k: int) -> bool:
    """Davenport-Hasse lift vs the direct Gauss sum, in one shared tower."""
    tower = build_tower(2, r_small, t_prime)
    chi = MultChar(level=1, order=n, k=k)
    lifted = gauss_sum_lifted(tower, chi, t_prime)
    direct = gauss_sum_folded(tower, t_prime, MultChar(level=t_prime, order=n, k=k))
    return lifted == direct
