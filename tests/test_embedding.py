"""The base-field embedding F_q -> F_{q^m} of a tower, pinned and checked.

`tests/golden/embedding.tsv` records, for every tower with q <= 2^10, r > 1
and m <= 4, and for a few towers with r = 1, the index of embed(X) for the
base element X of index p (for r = 1, of the base generator instead), and
the index of to_base(g).  The embedding sends X to beta, the first root of
F_q's modulus along the powers of g, so this file pins that choice and every
label that rests on it.  The properties that make embed a field embedding
with to_base its inverse are checked on every element and on random pairs.
beta, which the package reads from F_q's logs, is checked against a scan of
every power of g on every tower with q <= 2^16, r > 1 and q^m <= 2^22, and on
two towers past the log-table bound, where F_q's log table is built afresh.
Past the enumeration cap the search refuses before it builds any table.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from reference import first_root_exponent

from polycount import fields
from polycount.errors import EnumerationCapExceeded
from polycount.fields import FieldElement, TowerCtx, build_tower
from polycount.intmath import is_prime
from polycount.oracle import brute_scan

GOLDEN = Path(__file__).parent / "golden" / "embedding.tsv"

_R1_TOWERS = [(2, 1, 4), (3, 1, 3), (5, 1, 2), (13, 1, 4), (101, 1, 2)]


def _towers():
    out = []
    for p in (p for p in range(2, 32) if is_prime(p)):
        for r in range(2, 11):
            if p**r <= 1 << 10:
                out += [(p, r, m) for m in range(1, 5)]
    return sorted(out) + _R1_TOWERS


def _check_embedding(tower, rng):
    """embed lands in the top field, preserves sums and products, and to_base inverts it."""
    base = tower.base
    elems = [base.from_index(i) for i in range(base.order)]
    images = [tower.embed(x) for x in elems]
    assert all(y.ctx is tower.top for y in images)
    assert [tower.to_base(y) for y in images] == elems
    for _ in range(24):
        i, j = rng.randrange(base.order), rng.randrange(base.order)
        assert tower.embed(elems[i] + elems[j]) == images[i] + images[j]
        assert tower.embed(elems[i] * elems[j]) == images[i] * images[j]


def embedding_rows(check=False):
    """One line `p r m embed(X) to_base(g)` per tower, as written to the golden file."""
    rng = random.Random(1)
    rows = []
    for p, r, m in _towers():
        tower = build_tower(p, r, m)
        if check:
            _check_embedding(tower, rng)
        x = tower.base.from_index(p) if r > 1 else tower.base.generator
        rows.append(f"{p}\t{r}\t{m}\t{tower.embed(x).index}\t{tower.to_base(tower.g).index}")
    return rows


def test_embedding_matches_the_golden_file_and_is_a_field_embedding():
    assert embedding_rows(check=True) == GOLDEN.read_text().splitlines()


def _beta(tower):
    """beta = embed(X), read off row 1 of the embedding matrix E."""
    return FieldElement(tower.top, int(tower._embedding[0][1] @ tower.p ** np.arange(tower.top.r)))


def test_beta_is_the_first_root_along_the_powers_of_g():
    primes = [p for p in range(2, 1 << 8) if is_prime(p)]
    towers = [(p, r, m) for p in primes for r in range(2, 17) for m in range(1, 23) if p**r <= 1 << 16 and p ** (r * m) <= 1 << 22]
    assert len(towers) == 157
    for p, r, m in towers:
        tower = build_tower(p, r, m)
        # at m = 1 embed is the identity, so beta is X itself
        want = tower.top.from_index(p) if m == 1 else tower.g ** first_root_exponent(tower)
        assert _beta(tower) == want, (p, r, m)


def test_the_scan_past_the_log_table_bound_finds_the_same_beta(monkeypatch):
    towers = [(2, 8, 2), (5, 3, 2), (2, 6, 3), (3, 2, 4), (11, 2, 2)]
    want = [_beta(build_tower(*t)) for t in towers]
    monkeypatch.setattr(fields, "LOG_TABLE_MAX_ORDER", 1)
    assert [_beta(TowerCtx(*t)) for t in towers] == want


def test_beta_past_the_log_table_bound_is_the_first_root(monkeypatch):
    # the log table is built for this search alone, so the search writes its zero block into it, not into a copy
    tables = []
    log_table = fields.FieldCtx.log_table
    monkeypatch.setattr(fields.FieldCtx, "log_table", lambda field: tables.append(log_table(field)) or tables[-1])
    for p, r, m in [(2, 17, 2), (3, 11, 2)]:
        tower, tables[:] = build_tower(p, r, m), []
        j = tower._beta_exponent()
        assert len(tables) == 1 and int(tables[0][0]) == 2 * (tower.q - 1), (p, r, m)
        assert j == first_root_exponent(tower), (p, r, m)
        assert _beta(tower) == tower.g**j, (p, r, m)


def test_beta_past_the_enumeration_cap_is_refused_before_any_work(monkeypatch):
    # q = 257^3 is just past 2^24, and 65537^2 far past it
    towers = [build_tower(257, 3, 2), build_tower(65537, 2, 2)]

    def no_work(*args, **kwargs):
        raise AssertionError("the beta search started past the enumeration cap")

    monkeypatch.setattr(fields.FieldCtx, "log_table", no_work)
    monkeypatch.setattr(fields.FieldCtx, "orbit_blocks", no_work)
    for tower in towers:
        with pytest.raises(EnumerationCapExceeded):
            tower.g_log_inv
        with pytest.raises(EnumerationCapExceeded):  # the oracle, its own cap raised, relabels F_q's logs by g
            brute_scan(tower, 1, cap=1 << 70)
