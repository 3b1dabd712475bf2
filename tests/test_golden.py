"""Golden outputs: `verify --full`, `table5` and three `list` cells must stay byte-identical.

The files in tests/golden were written by `polycount verify --full` and
`polycount table5` before the character sums were rebuilt on one trace
histogram.  Several routes now share that histogram, so a bug in it could
make them agree on a wrong value; these files pin every value as it was.
The `list_*.tsv` files were written before both Rabin tests became one
over F_q, and pin every listed polynomial of their cell.  `jacobi.txt` was
written before the closed quartic and cubic Jacobi sums moved from their own
Z[i] and Z[zeta_3] classes to `CycInt`, and pins their TSV and JSON output.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from polycount.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (p, r, m, s, a, h) of the pinned `list` cells
LIST_CELLS = [(5, 2, 3, 6, 2, 5), (2, 3, 4, 7, 1, 3), (7, 1, 4, 3, 2, 1)]

# character order -> (primes, largest t) of the pinned `jacobi` queries
JACOBI_QUERIES = {
    4: ((5, 13, 17, 29, 37, 41), 8),
    3: ((7, 13, 19, 31, 37, 43), 8),
    2: ((3, 5, 7, 11), 4),
}


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
