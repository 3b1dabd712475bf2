"""The workloads: seeded inputs, one timed call per query, and the answer check.

A generator uses only `random.Random(seed)` and plain integers, so the
library receives nothing but the generated inputs; field elements are built
inside the timed query, as the CLI builds them.  Every query's answer is
checked only after the timed loop, so a check never warms a cache that a
timed query used.

Cost does not depend on the seed: the towers and cells are fixed per
workload and the seed draws the trace, the subgroup index and the coset
(and the catalog cosets), which change answers and routes but not the
amount of enumeration.  That keeps run-to-run spread small enough to
compare commits.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# calls go through the modules, so the tracer's wrappers and injected faults are seen
from polycount import catalog, cli, counting, fields, verify

# scan: one tower per query, q^m from 2^18 to the 2^22 oracle cap, p = 2 and odd p
SCAN_TOWERS = [(2, 1, 22), (2, 1, 18), (3, 1, 12), (7, 1, 7), (5, 2, 4), (13, 1, 5), (2, 6, 3), (2, 9, 2)]

# catalog: cosets drawn per (r, m) cell for q = 2^r, m = 2..30, plus the deep-branch cells
CATALOG_COSETS = {1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 4}
CATALOG_DEEP = [(11, 23), (18, 27), (20, 25)]

# verify: towers with q^m <= 2^16 and q large next to m, so that the general route's
# per-w loop over F_q* leads; every s | q - 1, two (a, h) draws per s.  The odd towers'
# queries cost a similar 10-40 ms, so the median lies among them whatever the seed; the
# 16 (2, 8, 2) queries cost ~200 ms each and hold the 90th percentile.
VERIFY_TOWERS = [(11, 2, 2), (5, 3, 2), (37, 1, 3), (31, 1, 3), (23, 1, 3), (2, 8, 2)]
VERIFY_DRAWS = 2


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _draw_spec(rng, p, r, m, s=None):
    q = p**r
    s = rng.choice(_divisors(q - 1)) if s is None else s
    return (p, r, m, s, rng.randrange(q), rng.randrange(s))


def _spec(query) -> counting.CountSpec:
    """The CountSpec the CLI builds from --p --r --m --s --a --h."""
    p, r, m, s, a, h = query
    base = fields.build_field(p, r)
    return counting.CountSpec.make(p, r, m, s, a=base.from_int(a) if r == 1 else base.from_index(a), h=h)


def _cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"polycount {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _spec_argv(query) -> list[str]:
    p, r, m, s, a, h = query
    return ["--p", str(p), "--r", str(r), "--m", str(m), "--s", str(s), "--a", str(a), "--h", str(h)]


class Scan:
    name = "scan"
    inject = ("oracle", "brute_p_m")

    def generate(self, seed):
        rng = random.Random(seed)
        return [_draw_spec(rng, p, r, m) for p, r, m in SCAN_TOWERS]

    def run(self, query):
        return _cli(["count", *_spec_argv(query), "--method", "brute", "--format", "json"])["count"]

    def check(self, query, answer):
        return answer == counting.p_m(_spec(query), "auto")


class Catalog:
    name = "catalog"
    inject = ("catalog", "p2_general_pm")

    def generate(self, seed):
        rng = random.Random(seed)
        cells = []
        for r, k in CATALOG_COSETS.items():
            for m in range(2, 31):
                cells += [(r, m, ind) for ind in sorted(rng.sample(range(max(2**r - 1, 1)), k))]
        cells += [(r, m, rng.randrange(2**r - 1)) for r, m in CATALOG_DEEP]
        return cells

    def run(self, query):
        r, m, ind = query
        field = fields.build_field(2, r)
        b = field.generator**ind if r > 1 else field.one
        return catalog.p2_closed_detail(r, m, b).value, catalog.p2_general_pm(r, m, b)

    def check(self, query, answer):
        closed, general = answer
        return closed == general


class Verify:
    name = "verify"
    inject = ("verify", "brute_p_m")

    def generate(self, seed):
        rng = random.Random(seed)
        cells = []
        for p, r, m in VERIFY_TOWERS:
            for s in _divisors(p**r - 1):
                cells += [_draw_spec(rng, p, r, m, s) for _ in range(VERIFY_DRAWS)]
        return cells

    def run(self, query):
        return verify.verify_cell(_spec(query))

    def check(self, query, answer):
        return answer.ok and len(answer.values) >= 2


WORKLOADS = {w.name: w for w in (Scan(), Catalog(), Verify())}
