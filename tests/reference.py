"""Test-only references: whole-array forms of the oracle's streamed passes.

Nothing in the package imports this module.  Each function recomputes an
oracle value the simplest way, over whole-orbit arrays, so the streamed
code in polycount.oracle can be compared with it.
"""

import numpy as np

from polycount.counting import CountSpec
from polycount.fields import TowerCtx, build_tower, min_poly
from polycount.intmath import divisors, factorize
from polycount.oracle import DEFAULT_ORACLE_CAP, brute_scan


def _h(spec: CountSpec, tower: TowerCtx) -> int:
    return tower.dlog_g(spec.b) % spec.s if spec.s > 1 else 0


def brute_t_t(spec: CountSpec, t: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """|T_t|: elements of F_{q^t} of exact degree t meeting the (a, coset) cell."""
    tower = build_tower(spec.p, spec.r, spec.m)
    scan = brute_scan(tower, t, cap)
    return scan.cell(t, spec.a.index, _h(spec, tower), spec.s)


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
