"""Golden outputs: `verify --full`, `table5` and three `list` cells must stay byte-identical.

The files in tests/golden were written by `polycount verify --full` and
`polycount table5` before the character sums were rebuilt on one trace
histogram.  Several routes now share that histogram, so a bug in it could
make them agree on a wrong value; these files pin every value as it was.
The `list_*.tsv` files were written before both Rabin tests became one
over F_q, and pin every listed polynomial of their cell.  `jacobi.txt` was
written before the closed quartic and cubic Jacobi sums moved from their own
Z[i] and Z[zeta_3] classes to `CycInt`, and pins their TSV and JSON output.
`sum_jacobi.txt` was written while `sum --kind jacobi` still walked all
q^{t-1} tuples, before it read class counts of cyclotomic numbers, and pins
its TSV and JSON output.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from polycount.cli import main
from polycount.intmath import divisors

GOLDEN = Path(__file__).parent / "golden"

# (p, r, m, s, a, h) of the pinned `list` cells
LIST_CELLS = [(5, 2, 3, 6, 2, 5), (2, 3, 4, 7, 1, 3), (7, 1, 4, 3, 2, 1)]

# character order -> (primes, largest t) of the pinned `jacobi` queries
JACOBI_QUERIES = {
    4: ((5, 13, 17, 29, 37, 41), 8),
    3: ((7, 13, 19, 31, 37, 43), 8),
    2: ((3, 5, 7, 11), 4),
}

# (p, r) of the pinned `sum --kind jacobi` fields: every n | q - 1, k in {0, 1, n - 1}
# and t <= 4 with q^{t-1} <= 2^16; then F_{2^12} at n = q - 1, t = 2, 3
SUM_JACOBI_FIELDS = [(5, 1), (13, 1), (3, 2), (5, 2), (2, 4), (2, 6)]


def sum_jacobi_queries():
    """(p, r, n, k, t) of every pinned `sum --kind jacobi` query, in file order."""
    out = []
    for p, r in SUM_JACOBI_FIELDS:
        q = p**r
        for n in divisors(q - 1):
            for k in sorted({0, 1 % n, n - 1}):
                out += [(p, r, n, k, t) for t in range(1, 5) if q ** (t - 1) <= 1 << 16]
    out += [(2, 12, 4095, k, t) for k in (0, 1, 4094) for t in (2, 3)]
    return out


@pytest.mark.parametrize(
    "argv, name",
    [(["verify", "--full"], "verify_full.tsv"), (["table5"], "table5.tsv")]
    + [
        (
            "list --p {} --r {} --m {} --s {} --a {} --h {}".format(*cell).split(),
            "list_p{}_r{}_m{}_s{}_a{}_h{}.tsv".format(*cell),
        )
        for cell in LIST_CELLS
    ],
)
def test_output_matches_golden_file(argv, name):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()


def test_jacobi_output_matches_golden_file():
    out = io.StringIO()
    with redirect_stdout(out):
        for order, (primes, t_max) in JACOBI_QUERIES.items():
            for p in primes:
                for t in range(1, t_max + 1):
                    for fmt in ("tsv", "json"):
                        argv = f"jacobi --p {p} --order {order} --t {t} --format {fmt}".split()
                        assert main(argv) == 0
    assert out.getvalue().encode() == (GOLDEN / "jacobi.txt").read_bytes()


def test_sum_jacobi_output_matches_golden_file():
    out = io.StringIO()
    with redirect_stdout(out):
        for p, r, n, k, t in sum_jacobi_queries():
            for fmt in ("tsv", "json"):
                argv = f"sum --kind jacobi --p {p} --r {r} --n {n} --k {k} --t {t} --format {fmt}".split()
                assert main(argv) == 0
    assert out.getvalue().encode() == (GOLDEN / "sum_jacobi.txt").read_bytes()
