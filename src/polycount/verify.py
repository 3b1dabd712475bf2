"""Cross-path verification grids.

Every cell of a grid evaluates P_m by all routes that apply to it (brute
oracle, the general double sum, a closed table, the Jacobi/lifted closed
route, and the prime-m closed form) and reports whether they agree
exactly.  This is both the CLI `verify` implementation and the engine
behind the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .counting import CountSpec, p_m_prime_closed, plan, run_plan
from .errors import CapExceeded, NotApplicable
from .fields import DEFAULT_ENUM_CAP, build_field
from .intmath import divisors, is_prime
from .oracle import brute_p_m


@dataclass
class VerifyRow:
    spec: CountSpec
    values: dict[str, int] = field(default_factory=dict)
    ok: bool = True

    def label(self) -> str:
        s = self.spec
        return f"p={s.p} r={s.r} m={s.m} s={s.s} a={s.a.index} b={s.b.index}"


def verify_cell(spec: CountSpec, cap: int = DEFAULT_ENUM_CAP) -> VerifyRow:
    """Evaluate one cell by every applicable route and compare exactly."""
    row = VerifyRow(spec=spec)
    row.values["brute"] = brute_p_m(spec)
    for method in ("general", "table", "closed"):
        try:
            steps = plan(spec, method, cap)
        except (NotApplicable, CapExceeded):
            continue
        row.values[method] = run_plan(spec, steps, cap)
    if is_prime(spec.m):
        try:
            row.values["prime_closed"] = p_m_prime_closed(spec)
        except NotApplicable:
            pass
    row.ok = len(set(row.values.values())) == 1
    return row


def _cells_s2():
    for q, (p, r) in ((3, (3, 1)), (5, (5, 1)), (7, (7, 1)), (9, (3, 2)), (13, (13, 1))):
        for m in range(2, 9):
            if q * q**m > 1 << 22:
                continue
            yield p, r, m, 2


def _cells_s34():
    for s, ps in ((3, (7, 13)), (4, (5, 13))):
        for p in ps:
            top = 6 if s == 3 else 5
            for m in range(2, top + 1):
                if p * p**m > 1 << 22:
                    continue
                yield p, 1, m, s


def _cells_semiprimitive():
    for p, e, n in ((2, 1, 1), (2, 2, 1), (3, 1, 1)):
        r = 2 * e * n
        q = p**r
        for s in divisors(p**e + 1):
            if s == 1:
                continue
            for m in range(2, 7):
                if q * q**m > 1 << 22:
                    continue
                yield p, r, m, s


def grid_cells(full: bool = True):
    """(p, r, m, s, a, h) tuples of the cross-path grid."""
    groups = list(_cells_s2()) + list(_cells_s34()) + list(_cells_semiprimitive())
    for p, r, m, s in groups:
        base = build_field(p, r)
        q = base.order
        a_range = range(q) if full else range(min(q, 2))
        h_range = range(s) if full else range(min(s, 2))
        for ai in a_range:
            for h in h_range:
                yield CountSpec.make(p, r, m, s, a=base.from_index(ai), h=h)


def run_grid(full: bool = True, cap: int = DEFAULT_ENUM_CAP):
    """Run the whole grid; yields VerifyRow objects."""
    seen = set()
    for spec in grid_cells(full):
        key = (spec.p, spec.r, spec.m, spec.s, spec.a.index, spec.b.index)
        if key in seen:
            continue
        seen.add(key)
        yield verify_cell(spec, cap)
