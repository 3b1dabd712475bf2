"""Golden outputs: `verify --full` and `table5` must stay byte-identical.

The files in tests/golden were written by `polycount verify --full` and
`polycount table5` before the character sums were rebuilt on one trace
histogram.  Several routes now share that histogram, so a bug in it could
make them agree on a wrong value; these files pin every value as it was.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from polycount.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [(["verify", "--full"], "verify_full.tsv"), (["table5"], "table5.tsv")],
)
def test_output_matches_golden_file(argv, name):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()
