import tracemalloc

import numpy as np
import pytest
from reference import (
    brute_n_t,
    brute_t_t,
    fq_is_irreducible,
    necklace_count,
    norm_rel,
    trace_rel,
    whole_orbit_counts,
    whole_orbit_listing,
)

from polycount import fields
from polycount.cli import main
from polycount.counting import CountSpec
from polycount.errors import InvariantError, ListingCapExceeded, OracleCapExceeded
from polycount.fields import build_field, build_tower, min_poly
from polycount.intmath import divisors
from polycount import oracle
from polycount.oracle import brute_p_m, brute_scan, list_polys


def test_brute_p_m_reference_values():
    assert brute_p_m(CountSpec.make(2, 1, 7, 1, a=0)) == 9
    assert brute_p_m(CountSpec.make(2, 1, 2, 1, a=0)) == 0
    assert brute_p_m(CountSpec.make(2, 2, 5, 3, a=0, b=1)) == 17


def test_brute_n_t_special_cross_checks():
    # d does not divide h -> 0
    spec = CountSpec.make(5, 1, 4, 2, a=0, h=1)
    assert brute_n_t(spec, 2) == 0
    # q=5, m=5, t=1, a=0, s=2, h=0 -> (q-1)/2
    spec = CountSpec.make(5, 1, 5, 2, a=0, h=0)
    assert brute_n_t(spec, 1) == 2


def test_t_t_partition():
    # N_m = sum over t | m of |T_t| for several fields
    for p, r, m in [(2, 1, 6), (3, 1, 4), (5, 1, 3), (2, 2, 4)]:
        q = p**r
        base = build_field(p, r)
        for s in divisors(q - 1)[:2]:
            for ai in (0, 1):
                spec = CountSpec.make(p, r, m, s, a=base.from_index(ai), h=0)
                total = sum(brute_t_t(spec, t) for t in divisors(m))
                assert total == brute_n_t(spec, m)


def test_degree_count_divisibility():
    # the degree-exactly-m count is divisible by m in every cell
    for p, r, m in [(2, 1, 6), (3, 1, 4), (2, 2, 3)]:
        base = build_field(p, r)
        q = p**r
        for ai in range(q):
            for h in range(q - 1 if q > 2 else 1):
                spec = CountSpec.make(
                    p, r, m, q - 1 if q > 2 else 1, a=base.from_index(ai), h=h
                )
                assert brute_t_t(spec, m) % m == 0


@pytest.mark.parametrize("p, r, m", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 9, 1), (3, 3, 1)])
def test_base_trace_form_gives_the_base_index_of_the_trace(p, r, m):
    # at m = 1 the trace is the identity, and the form must read y's own coordinates, not a
    # Frobenius conjugate's: on (2, 9, 1) the first root of the modulus along the powers of g
    # is not X
    tower = build_tower(p, r, m)
    form = tower.base_trace_form()
    for x in tower.top.elements():
        digits = (np.array(x.coords, dtype=np.int64) @ form) % p
        assert tower.base.elem(digits.tolist()) == tower.to_base(trace_rel(tower, x, m))


@pytest.mark.parametrize("p, r, m", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 1, 6), (3, 1, 4)])
def test_brute_scan_matches_naive_buckets(p, r, m):
    # one element of F_{q^t}* at a time, not by powers of gamma_t: trace,
    # log of the norm, and exact degree (m = 6 and 4 give t with two
    # proper divisors, so the order of the degree writes matters)
    tower = build_tower(p, r, m)
    q = p**r
    for t in divisors(m):
        oracle._scan_cache.pop((p, r, m, t), None)
        scan = brute_scan(tower, t)
        assert scan.divs == divisors(t)
        want = np.zeros((len(scan.divs), q, q - 1), dtype=np.int64)
        for x in tower.top.elements():
            if x.is_zero() or not tower.subfield_contains(x, t):
                continue
            a = tower.to_base(trace_rel(tower, x, m)).index
            w = tower.dlog_g(norm_rel(tower, x, m))
            degree = next(d for d in scan.divs if tower.subfield_contains(x, d))
            want[scan.divs.index(degree), a, w] += 1
        assert np.array_equal(scan.counts, want)
        # cell reads its window of the per-coset sums, not the table above
        for di, degree in enumerate(scan.divs):
            for a in range(q):
                for s in divisors(q - 1):
                    for residue in range(s):
                        assert scan.cell(degree, a, residue, s) == want[di, a, residue::s].sum()


# block sizes: 1 and 7 give one giant-step row (about sqrt(q^t) elements) per block,
# 4096 a few rows, then the default
_CHUNKS = [1, 7, 4096, fields._ORBIT_CHUNK]

# (p, r, m, t): p = 2 and odd p, each with r = 1 and r > 1; t < m, so m/t > 1 in
# the norm log; t = 12 with five proper divisors; (2, 9, 2, 2) has a 523k-cell
# table, and (2, 6, 3, 3) an 8064-cell one.  The walk covers one element per
# F_q*-coset: t = 1 walks one element; gcd(m, q - 1) = 1 at (13, 1, 5, 5) and
# (7, 1, 7, 7), and 3 at (37, 1, 3, 3), in the trace-0 row; q > 100 with odd p
# and r > 1 at (11, 2, 2, 2) and (5, 3, 2, 2)
_BLOCK_CELLS = [
    (2, 1, 12, 12),
    (2, 1, 12, 4),
    (2, 2, 6, 6),
    (2, 2, 6, 3),
    (2, 6, 3, 3),
    (2, 9, 2, 2),
    (2, 8, 2, 2),
    (3, 1, 12, 12),
    (3, 1, 12, 6),
    (7, 1, 6, 2),
    (5, 2, 4, 4),
    (5, 2, 4, 2),
    (5, 2, 4, 1),
    (3, 2, 6, 3),
    (13, 1, 5, 5),
    (7, 1, 7, 7),
    (37, 1, 3, 3),
    (11, 2, 2, 2),
    (5, 3, 2, 2),
]


@pytest.mark.parametrize("p, r, m, t", _BLOCK_CELLS)
def test_brute_scan_is_independent_of_the_block_size(monkeypatch, p, r, m, t):
    tower = build_tower(p, r, m)
    want = whole_orbit_counts(tower, t)
    for chunk in _CHUNKS:
        monkeypatch.setattr(fields, "_ORBIT_CHUNK", chunk)
        oracle._scan_cache.pop((p, r, m, t), None)
        assert np.array_equal(brute_scan(tower, t).counts, want), chunk


@pytest.mark.parametrize("m", range(1, 19))
def test_trace_bit_scan_matches_the_whole_orbit(monkeypatch, m):
    # q = 2 counts packed trace bits: every (2, 1, m), m <= 18, and every t | m.  The odd
    # length 2^t - 1 never fills its last giant row (a multiple of 64 babies) or its last
    # word, and up to t = 6 the whole walk is one partial row
    tower = build_tower(2, 1, m)
    for t in divisors(m):
        want = whole_orbit_counts(tower, t)
        for chunk in _CHUNKS:
            monkeypatch.setattr(fields, "_ORBIT_CHUNK", chunk)
            oracle._scan_cache.pop((2, 1, m, t), None)
            scan = brute_scan(tower, t)
            assert np.array_equal(scan.counts, want), (t, chunk)
            assert scan.elements == 2**t - 1
            cells = [scan.cell(degree, a, 0, 1) for degree in scan.divs for a in (0, 1)]
            assert cells == want[:, :, 0].ravel().tolist()


@pytest.mark.parametrize("p, r, m, t", _BLOCK_CELLS)
def test_brute_scan_walks_one_element_per_coset(p, r, m, t):
    q = p**r
    oracle._scan_cache.pop((p, r, m, t), None)
    scan = brute_scan(build_tower(p, r, m), t)
    assert scan.elements == (q**t - 1) // (q - 1)
    assert int(scan.counts.sum()) == q**t - 1


def test_cached_tables_are_read_only():
    # a caller's in-place write must not reach the next answer
    spec = CountSpec.make(2, 2, 5, 3, a=0, b=1)
    tower = build_tower(2, 2, 5)
    brute_p_m(spec)
    scan = brute_scan(tower, 5)
    tables = [
        scan.counts,
        scan.source,
        scan.cols,
        tower.top.log_table(),
        tower.top.frob_matrix(),
        tower.top.frob_matrix(0),
        tower.trace_hist(5, 3),
    ]
    for table in tables:
        with pytest.raises(ValueError):
            table[...] = 0
    assert brute_p_m(spec) == 17


@pytest.mark.parametrize(
    "p, r, m, s, ai, h",
    [(2, 3, 4, 7, 1, 3), (5, 2, 3, 6, 2, 5), (7, 1, 4, 3, 2, 1), (2, 1, 8, 1, 1, 0), (3, 1, 6, 2, 0, 1)],
)
def test_list_polys_is_independent_of_the_block_size(monkeypatch, p, r, m, s, ai, h):
    spec = CountSpec.make(p, r, m, s, a=build_field(p, r).from_index(ai), h=h)
    want = whole_orbit_listing(spec)
    assert want
    for chunk in _CHUNKS:
        monkeypatch.setattr(fields, "_ORBIT_CHUNK", chunk)
        assert list_polys(spec) == want, chunk


def test_brute_scan_memory_does_not_grow_with_the_orbit():
    # one whole-orbit int64 array at F_{2^22} is 32 MB; the streamed pass
    # holds a few 2^16-element blocks and a 4 x 2 table
    tower = build_tower(2, 1, 22)
    tower.base_trace_form()  # fills the tower's lazy Frobenius and embedding caches
    oracle._scan_cache.pop((2, 1, 22, 22), None)
    tracemalloc.start()
    try:
        scan = brute_scan(tower, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert int(scan.counts.sum()) == (1 << 22) - 1


def test_brute_scan_memory_does_not_grow_with_the_cells():
    # F_{2^11}: q(q - 1) = 4.2M cells per degree, a 64 MB table over t = 2; the scan
    # keeps 3(q - 1) sums per degree and q window starts
    tower = build_tower(2, 11, 2)
    tower.base_trace_form()
    tower.base.log_table()
    oracle._scan_cache.pop((2, 11, 2, 2), None)
    tracemalloc.start()
    try:
        scan = brute_scan(tower, 2)
        cells = [scan.cell(2, a, 0, 1) for a in range(1 << 11)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert scan.source.nbytes + scan.cols.nbytes < 256 << 10
    assert sum(cells) == (1 << 22) - (1 << 11)


def test_scan_cache_keeps_the_last_eight_scans():
    oracle._scan_cache.clear()
    keys = [(2, 1, m, m) for m in range(2, 11)]
    first = {key: brute_scan(build_tower(*key[:3]), key[3]).counts.copy() for key in keys[:8]}
    assert list(oracle._scan_cache) == keys[:8]
    brute_scan(build_tower(*keys[8][:3]), keys[8][3])
    assert list(oracle._scan_cache) == keys[1:]
    for key, counts in first.items():
        assert np.array_equal(brute_scan(build_tower(*key[:3]), key[3]).counts, counts)
    assert len(oracle._scan_cache) == 8


def test_oracle_cap():
    spec = CountSpec.make(2, 1, 8, 1, a=0)
    with pytest.raises(OracleCapExceeded):
        brute_p_m(spec, cap=100)
    # F_{2^12} is within the cap, but its q(q-1) bucket table is not
    with pytest.raises(OracleCapExceeded):
        brute_n_t(CountSpec.make(2, 12, 2, 1, a=0), 1)


def test_oracle_cap_refuses_before_the_tower_is_built(monkeypatch):
    # the cap needs only p, r and t; building F_{100003^4} alone takes seconds
    def forbidden(*args):
        raise AssertionError("build_tower ran before the oracle cap refused")

    monkeypatch.setattr(oracle, "build_tower", forbidden)
    spec = CountSpec.make(100003, 1, 4, 2, a=1, h=0)
    for call in (brute_p_m, list_polys, lambda spec: brute_n_t(spec, 2), lambda spec: brute_n_t(spec, 1)):
        with pytest.raises(OracleCapExceeded):
            call(spec)
    assert main(["count", "--p", "100003", "--m", "4", "--s", "2", "--a", "1", "--h", "0", "--method", "brute"]) == 3


def test_listing_examples():
    assert list_polys(CountSpec.make(2, 1, 3, 1, a=0)) == [(1, 1, 0, 1)]
    assert list_polys(CountSpec.make(2, 1, 2, 1, a=0)) == []


def test_listing_cap():
    with pytest.raises(ListingCapExceeded):
        list_polys(CountSpec.make(2, 1, 12, 1, a=0), listing_cap=10)


def test_listing_full_verification():
    # every listed polynomial is monic, irreducible, has trace coefficient a,
    # and its norm coefficient lies in the coset (checked again here, against
    # the polynomial itself rather than the generating element)
    base = build_field(2, 2)
    spec = CountSpec.make(2, 2, 3, 3, a=base.from_index(2), b=1)
    polys = list_polys(spec)
    assert len(polys) == brute_p_m(spec)
    tower = build_tower(2, 2, 3)
    for coeffs in polys:
        elems = [base.from_index(c) for c in coeffs]
        assert elems[-1] == base.one
        assert fq_is_irreducible(list(coeffs), base)
        assert elems[len(elems) - 2] == -spec.a  # coefficient of x^{m-1} is -a
        const = elems[0]
        sign = base.one if spec.m % 2 == 0 else -base.one
        b_val = sign * const  # constant term is (-1)^m b
        hb = tower.dlog_g(tower.embed(b_val)) % spec.s
        assert hb == tower.dlog_g(spec.b) % spec.s


def test_listing_refuses_a_wrong_coefficient_the_rabin_test_accepts(monkeypatch):
    # the first F_9 listing's x^2 coefficient bumped by one stays irreducible with the right
    # x^4 and x^0 coefficients, so only f(root) = 0 refuses it
    spec = CountSpec.make(3, 2, 5, 4, a=1, h=1)
    verify, calls = oracle._verify_listed, []
    monkeypatch.setattr(oracle, "_verify_listed", lambda *args: calls.append(args))
    polys = list_polys(spec)
    _, tower, root, coeffs, h = next(args for args in calls if args[3] == polys[0])
    verify(spec, tower, root, coeffs, h)
    planted = list(coeffs)
    planted[2] = (planted[2] + 1) % 9
    with pytest.raises(InvariantError, match="does not vanish"):
        verify(spec, tower, root, tuple(planted), h)


def test_listing_refuses_a_minimal_polynomial_from_another_cell(monkeypatch):
    # the true minimal polynomial of a listed F_9 root, under a spec with another a and under one
    # with another coset; its trace and norm are read off its coefficients
    spec = CountSpec.make(3, 2, 5, 4, a=1, h=1)
    verify, calls = oracle._verify_listed, []
    monkeypatch.setattr(oracle, "_verify_listed", lambda *args: calls.append(args))
    list_polys(spec)
    _, tower, root, coeffs, h = calls[0]
    verify(spec, tower, root, coeffs, h)
    for other in (CountSpec.make(3, 2, 5, 4, a=2, h=1), CountSpec.make(3, 2, 5, 4, a=1, h=2)):
        with pytest.raises(InvariantError):
            verify(other, tower, root, coeffs, oracle._h_for_tower(other, tower))


def test_listing_refuses_a_zero_in_a_proper_subfield():
    # over the (2, 2, 6) tower, a power of the minimal polynomial of gamma_t, t in {2, 3}, is
    # monic of degree 6, vanishes at gamma_t and has the Vieta coefficients of gamma_t's trace
    # and norm, yet is reducible
    tower = build_tower(2, 2, 6)
    base = tower.base
    for t in (2, 3):
        root = tower.gamma[t]
        factor, f = min_poly(tower, root)[0], [base.one]
        for _ in range(6 // t):
            prod = [base.zero] * (len(f) + t)
            for i, x in enumerate(f):
                for j, y in enumerate(factor):
                    prod[i + j] = prod[i + j] + x * y
            f = prod
        spec = CountSpec.make(2, 2, 6, 1, a=tower.to_base(trace_rel(tower, root, 6)))
        with pytest.raises(InvariantError, match="proper subfield"):
            oracle._verify_listed(spec, tower, root, tuple(c.index for c in f), 0)


def test_listing_is_sorted_and_counts_match():
    spec = CountSpec.make(3, 1, 3, 2, a=1, h=0)
    polys = list_polys(spec)
    assert polys == sorted(polys)
    assert len(polys) == brute_p_m(spec)


def test_listing_partitions_all_irreducibles():
    # summing the listing sizes over all (a, b) cells recovers every monic
    # irreducible of degree m
    p, r, m = 3, 1, 3
    base = build_field(p, r)
    q = p**r
    all_polys = set()
    for ai in range(q):
        for h in range(q - 1):
            spec = CountSpec.make(p, r, m, q - 1, a=base.from_index(ai), h=h)
            for poly in list_polys(spec):
                assert poly not in all_polys
                all_polys.add(poly)
    assert len(all_polys) == necklace_count(q, m) - _linear_norm_zero(q, m)


def _linear_norm_zero(q, m):
    # cells with b = 0 (norm coefficient zero) are not reachable by any coset;
    # the only monic irreducible of degree m >= 2 with zero constant term
    # does not exist, so nothing is excluded
    return 0
