import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    abs_trace,
    element_order,
    fq_is_irreducible,
    index_order_modulus,
    naive_generator_index,
    norm_rel,
    trace_rel,
    whole_orbit_log_table,
    whole_orbit_trace_hist,
)

import polycount
from polycount.errors import (
    InvalidDegree,
    InvalidPrime,
    InvariantError,
    SubfieldViolation,
    ValidationError,
    ZeroHasNoLog,
)
from polycount import fields, intmath
from polycount.fields import (
    FieldCtx,
    TowerCtx,
    build_field,
    build_tower,
    min_poly,
    poly_is_irreducible,
)
from polycount.intmath import divisors, is_prime
from polycount.polyfp import _rootless_codes


def test_build_field_prime_fields():
    f2 = build_field(2, 1)
    assert f2.modulus == (0, 1)
    assert f2.generator_index == 1
    f5 = build_field(5, 1)
    assert f5.generator_index == 2  # first generator in order 1, 2, ...


def test_build_field_canonical_moduli():
    assert build_field(2, 2).modulus == (1, 1, 1)  # only irreducible quadratic
    assert build_field(2, 3).modulus == (1, 1, 0, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)


def test_build_field_validation():
    with pytest.raises(InvalidPrime):
        build_field.__wrapped__(4, 1)
    with pytest.raises(InvalidDegree):
        build_field.__wrapped__(2, 0)


def test_modulus_is_smallest_irreducible():
    # integer-encoding order: everything below the canonical code is reducible
    for p, r in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        ctx = build_field(p, r)
        code = sum(c * p**i for i, c in enumerate(ctx.modulus[:-1]))
        assert poly_is_irreducible(list(ctx.modulus), p)
        for smaller in range(code):
            coeffs = []
            v = smaller
            for _ in range(r):
                coeffs.append(v % p)
                v //= p
            coeffs.append(1)
            assert not poly_is_irreducible(coeffs, p)


def test_fp_ben_or_matches_the_reference_at_large_p():
    # random monic polynomials, and products of two of degree 2 or 3, some reducible with no root
    # in F_p; past 2^16 the modulus search sieves no roots, so the gcd refuses every rooted candidate
    rng = random.Random(1)
    for p in (101, 257, 1021, 65537, 100003):
        base = build_field(p, 1)
        for _ in range(20):
            f = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
            g = [rng.randrange(p) for _ in range(rng.randint(2, 3))] + [1]
            h = [rng.randrange(p) for _ in range(rng.randint(2, 3))] + [1]
            gh = [sum(g[j] * h[i - j] for j in range(len(g)) if 0 <= i - j < len(h)) % p for i in range(len(g) + len(h) - 1)]
            for poly in (f, gh):
                assert poly_is_irreducible(poly, p) == fq_is_irreducible(poly, base), (p, poly)


def test_modulus_matches_the_index_order_search():
    # the root sieve drops only candidates with a root in F_p; 65537 is past its bound
    cases = [(p, r) for p in range(3, 1 << 10) if is_prime(p) for r in range(2, 21) if p**r <= 1 << 20]
    assert {(13, 5), (7, 7), (3, 12)} <= set(cases)
    for p, r in cases + [(65537, 2)]:
        assert FieldCtx(p, r).modulus == index_order_modulus(p, r), (p, r)


@pytest.mark.parametrize("rows", [0, 1, 2, 3])
def test_modulus_search_across_sieve_chunks(monkeypatch, rows):
    # chunks of at most `rows` rows of p codes each (0: no sieve), so the moduli sit past many chunk starts
    for p, r in [(3, 2), (3, 5), (5, 4), (7, 3), (13, 5), (31, 2)]:
        monkeypatch.setattr(fields, "_ORBIT_CHUNK", rows * p + p - 1)
        assert FieldCtx(p, r).modulus == index_order_modulus(p, r), (p, r, rows)


def test_the_root_sieve_builds_at_most_orbit_chunk_cells():
    # F_257: 255 rows of 257 codes fill a chunk; F_65521: one row; 65537 alone is past the bound
    for p, r, codes in [(257, 4, 60_000), (65521, 2, 40_000)]:
        sieve = _rootless_codes(p, r, fields._ORBIT_CHUNK)
        tracemalloc.start()
        try:
            last = max(next(sieve) for _ in range(codes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a chunk of _ORBIT_CHUNK int64 cells is 0.5 MB; its survivors are a list of Python ints
        assert last > fields._ORBIT_CHUNK and peak < 8 * 8 * fields._ORBIT_CHUNK, (p, peak)
    sieve = _rootless_codes(65537, 2, fields._ORBIT_CHUNK)
    assert [next(sieve) for _ in range(3)] == [0, 1, 2]  # x^2 has the root 0, but no sieve runs


def test_element_arithmetic():
    ctx = build_field(3, 2)
    x = ctx.from_index(4)
    y = ctx.from_index(7)
    assert (x + y - y) == x
    assert (x * y) == (y * x)
    assert (x * x.inverse()) == ctx.one
    assert x ** ctx.group_order == ctx.one
    assert (x / y) * y == x


def test_generator_order_is_exact():
    for p, r in [(2, 4), (3, 2), (5, 1), (7, 1), (2, 6)]:
        ctx = build_field(p, r)
        g = ctx.generator
        assert element_order(ctx, g) == ctx.group_order
        # no earlier element has full order
        for idx in range(1, g.index):
            assert element_order(ctx, ctx.from_index(idx)) < ctx.group_order


def test_generator_matches_the_naive_search():
    # the search skips F_p (indices below p) when r > 1; the naive one starts at 1
    cases = [(p, r) for p in range(2, 1 << 10) if is_prime(p) for r in range(1, 11) if p**r <= 1 << 10]
    for p, r in cases:
        field = build_field(p, r)
        assert field.generator.index == naive_generator_index(field), (p, r)


def test_a_group_order_is_factored_along_its_cyclotomic_values(monkeypatch):
    # 2^122 - 1 = 3 (2^61 - 1) (2^61 + 1)/3: factored whole, Pollard rho would face the product of two
    # 61-bit primes for hours; the values Phi_d(2), d | 122, are 1, 3 and two primes, so rho never runs
    def no_rho(n):
        raise AssertionError(f"Pollard rho ran on {n}")

    monkeypatch.setattr(intmath, "_pollard_rho", no_rho)
    field = FieldCtx(2, 122)
    assert field._order_factors == {3: 1, 2**61 - 1: 1, (2**61 + 1) // 3: 1}
    assert field.generator.index == 2


def test_tower_examples():
    tw = build_tower(2, 1, 2)
    assert tw.g == tw.top.one  # F_2* = {1}

    tw = build_tower(2, 2, 3)
    assert tw.top.dlog(tw.g) == 21  # (4^3-1)/(4-1)
    assert element_order(tw.top, tw.g) == 3

    tw = build_tower(3, 1, 2)
    assert tw.to_base(tw.g).index == 2  # the only order-2 element of F_3*


def test_trace_norm_examples():
    # constants: Tr_t(c) = t c, Norm_t(c) = c^t
    tw = build_tower(3, 1, 3)
    c = tw.embed(tw.base.from_int(2))
    assert trace_rel(tw, c, 3) == c * 3
    assert norm_rel(tw, c, 3) == c**3

    # F_4 over F_2: Tr(omega) = 1
    tw = build_tower(2, 1, 2)
    om = tw.gamma[2]
    assert tw.to_base(trace_rel(tw, om, 2)) == tw.base.one

    # F_9 over F_3: Norm(gamma_2) = 2
    tw = build_tower(3, 1, 2)
    assert tw.to_base(norm_rel(tw, tw.gamma[2], 2)).index == 2


def test_trace_norm_tower_consistency():
    # Tr_m(x) = (m/t) Tr_t(x) and Norm_m(x) = Norm_t(x^{m/t}) for x in F_{q^t},
    # quantified over every element of every subfield while q^m <= 2^14
    for p, r, m in [(2, 1, 6), (2, 2, 4), (3, 1, 4), (5, 1, 4), (3, 2, 3)]:
        tw = build_tower(p, r, m)
        if tw.q**m > 2**14:
            continue
        for t in divisors(m):
            gt = tw.gamma[t]
            for e in range(tw.q**t - 1):
                x = gt**e
                lhs_tr = trace_rel(tw, x, t) * (m // t)
                assert lhs_tr == _trace_direct(tw, x, m)
                assert norm_rel(tw, x ** (m // t), t) == _norm_direct(tw, x, m)


def _trace_direct(tw, x, m):
    acc = tw.top.zero
    cur = x
    for _ in range(m):
        acc = acc + cur
        cur = cur**tw.q
    return acc


def _norm_direct(tw, x, m):
    acc = tw.top.one
    cur = x
    for _ in range(m):
        acc = acc * cur
        cur = cur**tw.q
    return acc


def test_trace_linear_norm_multiplicative_surjective():
    tw = build_tower(3, 1, 2)
    g2 = tw.gamma[2]
    elems = [g2**e for e in range(8)] + [tw.top.zero]
    tr_image = set()
    for x in elems:
        tr_image.add(tw.to_base(trace_rel(tw, x, 2)).index)
        for y in elems:
            assert trace_rel(tw, x + y, 2) == trace_rel(tw, x, 2) + trace_rel(tw, y, 2)
            if not x.is_zero() and not y.is_zero():
                assert norm_rel(tw, x * y, 2) == norm_rel(tw, x, 2) * norm_rel(tw, y, 2)
    assert tr_image == set(range(3))
    norm_image = {tw.to_base(norm_rel(tw, g2**e, 2)).index for e in range(8)}
    assert norm_image == {1, 2}  # all of F_3*


def test_subfield_membership_and_violation():
    tw = build_tower(2, 1, 4)
    assert tw.subfield_contains(tw.gamma[2], 2)
    assert not tw.subfield_contains(tw.gamma[4], 2)
    with pytest.raises(SubfieldViolation):
        trace_rel(tw, tw.gamma[4], 2)
    with pytest.raises(SubfieldViolation):
        tw.to_base(tw.gamma[4])
    with pytest.raises(SubfieldViolation):
        tw.dlog_g(tw.gamma[4])


def test_dlog_examples_and_round_trip():
    # a log to gamma_t is the top field's log over k = (q^m - 1)/(q^t - 1), as gamma_t = gamma_m^k
    tw = build_tower(5, 1, 2)
    g2 = tw.gamma[2]
    assert tw.top.dlog(tw.top.one) == 0
    assert tw.top.dlog(g2) == 1
    assert tw.top.dlog(tw.g) == (5**2 - 1) // (5 - 1)
    for e in range(0, 24, 5):
        assert tw.top.dlog(g2**e) == e
    with pytest.raises(ZeroHasNoLog):
        tw.top.dlog(tw.top.zero)
    # above LOG_TABLE_MAX_ORDER, where Pohlig-Hellman runs
    tw = build_tower(2, 1, 18)
    g9, k = tw.gamma[9], (2**18 - 1) // (2**9 - 1)
    assert tw.top.dlog(g9**5) == 5 * k
    assert tw.top.dlog(tw.gamma[18]) % k != 0  # gamma_18 is no power of gamma_9


def test_dlog_exp_identity_many():
    # (2, 2, 9), (2, 1, 18) and (3, 1, 12) lie above LOG_TABLE_MAX_ORDER: Pohlig-Hellman.
    # mod q - 1 = 7 and 120, (2, 3, 2) and (11, 2, 2) have units that are not their own
    # inverses, so a relabel to g by log g instead of its inverse shows; (13, 1, 2) adds q - 1 = 12
    towers = [(2, 2, 2), (3, 1, 3), (7, 1, 2), (5, 2, 2), (2, 2, 9), (2, 1, 18), (3, 1, 12)]
    for p, r, m in towers + [(2, 3, 2), (13, 1, 2), (11, 2, 2)]:
        tw = build_tower(p, r, m)
        n = tw.q**m - 1
        g = tw.gamma[m]
        for e in range(0, n, max(1, n // 50)):
            assert tw.top.dlog(g**e) == e
        # dlog_g is a log in F_q, for x given in F_q or in the top field
        for e in range(tw.q - 1):
            x = tw.g**e
            assert tw.dlog_g(x) == tw.dlog_g(tw.to_base(x)) == e


def test_log_table_matches_pohlig_hellman():
    for p, r in [(2, 9), (3, 5), (5, 4)]:
        ctx = build_field(p, r)
        for idx in range(1, ctx.order):
            x = ctx.from_index(idx)
            assert ctx.dlog(x) == ctx._pohlig_hellman(x)
    ctx = build_field(2, 16)
    for idx in random.Random(16).sample(range(1, ctx.order), 200):
        x = ctx.from_index(idx)
        assert ctx.dlog(x) == ctx._pohlig_hellman(x)


def test_forged_generator_fails_the_table_check():
    ctx = FieldCtx(2, 4)
    ctx._gen = ctx.generator**3  # order 5, not 15
    with pytest.raises(InvariantError):
        ctx.dlog(ctx.one)


def test_tower_checks_catch_a_generator_of_each_smaller_order(monkeypatch):
    # in F_16, gm^k has order 15 / gcd(15, k); every prime of 15 has its own check
    for k, order in [(3, 5), (5, 3), (15, 1)]:
        top = build_field(2, 4)
        monkeypatch.setattr(top, "_gen", top.generator**k)
        with pytest.raises(InvariantError):
            TowerCtx(2, 1, 4)
        monkeypatch.undo()
        assert element_order(top, top.generator**k) == order


def test_broken_tower_invariant_raises_under_optimize():
    # python -O strips assert statements; the tower checks must survive it
    code = "\n".join([
        "import sys",
        "from polycount.errors import InvariantError",
        "from polycount.fields import TowerCtx, build_field",
        "assert sys.flags.optimize",
        "top = build_field(2, 4)",
        "top._gen = top.generator**3",  # gamma_4 of order 5
        "try:",
        "    TowerCtx(2, 1, 4)",
        "except InvariantError as exc:",
        "    print('InvariantError:', exc)",
    ])
    src = str(Path(polycount.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError:"), proc.stdout


@pytest.mark.parametrize("p, r", [(2, 7), (3, 4), (5, 3), (257, 2)])
def test_linear_orbit_matches_naive_powers(p, r):
    ctx = build_field(p, r)
    gamma = ctx.generator**5
    eye = np.eye(r, dtype=np.int64)
    for length in (1, 36, 37):
        indices = np.array([(gamma**j).index for j in range(length)], dtype=np.int64)
        for block in (None, 1, 3, 5, 4096):
            assert np.array_equal(ctx.linear_orbit(gamma, eye, length, block=block), indices)


_NAIVE_POWERS = {}


def _naive_coords(ctx, count):
    """Coordinates of (generator^5)^j for j < count, by repeated multiplication."""
    key = (ctx.p, ctx.r)
    if len(_NAIVE_POWERS.get(key, ())) < count:
        gamma, cur, rows = ctx.generator**5, ctx.one, []
        for _ in range(count):
            rows.append(cur.coords)
            cur = cur * gamma
        _NAIVE_POWERS[key] = rows
    return _NAIVE_POWERS[key][:count]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize(
    "p, r", [(2, 1), (2, 9), (2, 70), (3, 1), (3, 5), (5, 3), (257, 2), (7, 8), (181, 2), (131, 4)]
)
def test_linear_orbit_matches_naive_powers_at_square_boundaries(p, r, data):
    # lengths on either side of a square B^2 change the baby/giant split; block 1 is
    # one baby step, block >= length one giant step; odd p with k > 1 digits and p = 2
    # on two words (r = 70) are both drawn.  A dot product is at most r (p - 1)^2: 288 at
    # F_7^8 (the first uint16 field), 64800 at F_181^2 (the last), 67600 at F_131^4 and
    # 2^17 at F_257^2 (int64); long walks fill blocks of _NARROW_CELLS and more, so both
    # odd-p kernels are drawn
    ctx = build_field(p, r)
    root = data.draw(st.integers(1, 12), label="B") + data.draw(st.sampled_from([0, 64]), label="long")
    length = data.draw(st.sampled_from(sorted({1, max(1, root * root - 1), root * root, root * root + 1})))
    k = data.draw(st.integers(1, min(r, 63)), label="k")  # p^k <= 2^63 for every case
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    out_map = np.random.default_rng(seed).integers(0, 3 * p, (r, k))  # reduced mod p inside
    block = data.draw(st.sampled_from([None, 1, length, length + 7, root]), label="block")
    digits = np.array(_naive_coords(ctx, length), dtype=np.int64) @ out_map % p
    want = [sum(int(d) * p**c for c, d in enumerate(row)) for row in digits.tolist()]
    got = ctx.linear_orbit(ctx.generator**5, out_map, length, block=block)
    assert got.tolist() == want


@pytest.mark.parametrize("p, r", [(7, 7), (17, 1), (7, 8), (181, 2), (257, 1), (131, 4)])
def test_orbit_digits_reach_the_dot_product_bound(p, r):
    # gamma and every column of the form have all coordinates p - 1, so at odd j (j = 1 at
    # r > 1) a digit's dot product is r (p - 1)^2, the most its dtype must hold: 252 in
    # uint8 at F_7^7, 256 and 288 in uint16 at F_17 and F_7^8, 64800 in uint16 at F_181^2,
    # 65536 and 67600 in int64 at F_257 and F_131^4.  Block 1 makes every gamma^j a giant
    # row, and the walk is long enough for the narrow kernel
    ctx = build_field(p, r)
    gamma = ctx.elem([p - 1] * r)
    length = fields._NARROW_CELLS + 1
    k = min(r, 2)
    out_map = np.full((r, k), p - 1, dtype=np.int64)
    cur, want = ctx.one, []
    for _ in range(length):
        want.append(sum(int(d) * p**c for c, d in enumerate(np.array(cur.coords) @ out_map % p)))
        cur = cur * gamma
    for block in (1, None):
        assert ctx.linear_orbit(gamma, out_map, length, block=block).tolist() == want


def test_linear_orbit_refuses_int64_overflow():
    # (p - 1)^2 >= 2^63: a single product of residues would wrap in int64
    big = build_field(4294967311, 1)
    with pytest.raises(ValidationError, match="overflows int64"):
        big.linear_orbit(big.generator**123456789, np.eye(1, dtype=np.int64), 40)
    # just below the bound every product is exact
    ctx = build_field(2**31 - 1, 1)
    gamma = ctx.generator**123456789
    want = [(gamma**j).index for j in range(40)]
    for block in (None, 1, 40):
        assert ctx.linear_orbit(gamma, np.eye(1, dtype=np.int64), 40, block=block).tolist() == want


def test_f_p_linear_maps_refuse_past_the_int64_bound():
    # p = 2^32 + 61: one product of residues passes 2^63, so x^(p^2 + 1), which lies in
    # F_{p^2}, would read as degree 4 through a wrapped Frobenius matrix; the tower's own
    # subfield checks are the first to refuse
    p = 4294967357
    assert build_field(p, 4).order == p**4  # closed tables at this p build no tower
    with pytest.raises(ValidationError, match="2\\^63"):
        build_field(p, 4).frob_matrix()
    with pytest.raises(ValidationError, match="2\\^63"):
        tower = build_tower(p, 1, 4)
        min_poly(tower, tower.gamma[4] ** (p**2 + 1))
    # p = 2^31 - 1, m = 2: 2 (p - 1)^2 is just below the bound, and every product is exact
    p = 2**31 - 1
    tower = build_tower(p, 1, 2)
    for e in (1, 12345, p + 2):
        coeffs, t = min_poly(tower, tower.gamma[2] ** e)
        assert t == 2 and len(coeffs) == 3
        assert poly_is_irreducible([c.index for c in coeffs], p)
    assert min_poly(tower, tower.gamma[2] ** (p + 1))[1] == 1  # a norm to F_p


@pytest.mark.parametrize("r", [1, 7, 13, 33, 70])
def test_packed_orbit_matches_naive_powers(r):
    # characteristic 2 on packed words: n below 8, n not a multiple of 8,
    # more than 32 bits, and two words
    ctx = build_field(2, r)
    gamma = ctx.generator**5
    naive, cur = [], ctx.one
    for _ in range(4097):
        naive.append(cur)
        cur = cur * gamma
    coords = np.array([x.coords for x in naive], dtype=np.int64)
    rng = np.random.default_rng(r)
    k = min(r, 63)
    maps = [np.eye(r, dtype=np.int64)[:, :k]]  # r = 70 keeps the low 63 coordinates
    maps += [np.eye(r, dtype=np.int64)[:, [r - 1]], rng.integers(0, 2, (r, 1))]
    maps += [rng.integers(0, 2, (r, k)), rng.integers(0, 5, (r, k))]  # reduced mod 2
    for out_map in maps:
        digits = (coords @ out_map) % 2
        want = digits @ (1 << np.arange(out_map.shape[1], dtype=np.int64))
        for length in (1, 2, 37, 4097):
            assert np.array_equal(ctx.linear_orbit(gamma, out_map, length), want[:length])
    if r < 63:
        want = np.array([x.index for x in naive], dtype=np.int64)
        assert np.array_equal(ctx.linear_orbit(gamma, np.eye(r, dtype=np.int64), 4097), want)
    else:
        # a 64-bit index does not fit in int64
        with pytest.raises(ValidationError):
            ctx.linear_orbit(gamma, np.eye(r, dtype=np.int64)[:, :64], 3)
    assert ctx.linear_orbit(gamma, maps[0], 0).shape == (0,)


def test_orbit_blocks_refuses_an_index_past_int64():
    # p^k > 2^63: an index of k base-p digits would wrap in int64, a bad input (exit code 2)
    for p, r, k in [(2, 1, 64), (3, 2, 40), (257, 2, 8)]:
        ctx = build_field(p, r)
        with pytest.raises(ValidationError, match="does not fit in int64") as info:
            ctx.linear_orbit(ctx.generator, np.ones((r, k), dtype=np.int64), 5)
        assert info.value.exit_code == 2
    # 63 binary digits fit: at 1 every digit is 1
    ctx = build_field(2, 1)
    assert ctx.linear_orbit(ctx.one, np.ones((1, 63), dtype=np.int64), 2).tolist() == [2**63 - 1] * 2


@pytest.mark.parametrize("head", [1, polycount.fields._WORD_HEAD])
@pytest.mark.parametrize("r", [1, 8, 22, 32, 33, 64, 65, 70])
def test_word_powers_match_repeated_products(monkeypatch, r, head):
    # one word up to r = 64 and two above it, with a product of 33-bit elements past 64 bits; counts
    # within the one-at-a-time head, at and past 64, and a last doubling step that is partial
    monkeypatch.setattr(polycount.fields, "_WORD_HEAD", head)
    ctx = build_field(2, r)
    x = ctx.generator**5 if r > 1 else ctx.one
    want = [(x**j).index for j in range(100)]
    for count in (1, 31, 32, 33, 63, 64, 65, 100):
        rows = ctx._word_powers(x, count)
        assert rows.shape == (count, -(-r // 64))
        assert [sum(int(word) << 64 * i for i, word in enumerate(row)) for row in rows] == want[:count]


@pytest.mark.parametrize("r", [1, 7, 13, 33, 70])
def test_parity_blocks_match_the_packed_orbit(monkeypatch, r):
    # giant coordinates in one byte (1, 7), two (13), five (33) and nine (70), the last one
    # partial; lengths below, at and past one word and one 64-baby row, so the last row and
    # word are partial or full; every block size
    ctx = build_field(2, r)
    gamma = ctx.generator**5
    rng = np.random.default_rng(r)
    forms = [np.eye(r, dtype=np.int64)[:, [r - 1]], rng.integers(0, 2, (r, 1)), rng.integers(0, 5, (r, 1))]
    for form in forms:
        want = ctx.linear_orbit(gamma, form, 4161)
        for chunk in (1, 7, 4096, polycount.fields._ORBIT_CHUNK):
            monkeypatch.setattr(polycount.fields, "_ORBIT_CHUNK", chunk)
            for length in (1, 63, 64, 65, 4095, 4161):
                covered = 0
                for start, words in ctx.parity_blocks(gamma, form, length):
                    assert start == covered
                    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
                    covered += len(bits)
                    assert bits[: length - start].tolist() == want[start : min(covered, length)].tolist()
                    assert not bits[length - start :].any()  # bits from length on are 0
                assert 0 <= covered - length < 64
    assert list(ctx.parity_blocks(gamma, forms[0], 0)) == []


# (p, r, k): p = 2 with one digit, with many, and on two words (r = 70); odd p with the
# residue lookup (r (p - 1)^2 below the chunk) with one digit and with many; odd p with % p
_KERNEL_CASES = [(2, 9, 1), (2, 9, 9), (2, 70, 1), (2, 70, 63), (3, 1, 1), (3, 5, 5), (5, 3, 1), (5, 3, 3)]
_KERNEL_CASES += [(257, 2, 1), (257, 2, 2)]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("p, r, k", _KERNEL_CASES)
def test_multi_block_walks_match_naive_powers(monkeypatch, p, r, k, chunk):
    monkeypatch.setattr(polycount.fields, "_ORBIT_CHUNK", chunk)
    ctx = build_field(p, r)
    out_map = np.random.default_rng(p * r * k).integers(0, 3 * p, (r, k))  # reduced mod p inside
    length = 200
    coords = _naive_coords(ctx, length)
    want = [sum(int(d) * p**c for c, d in enumerate(np.array(x) @ out_map % p)) for x in coords]
    for block in (None, 3):
        # a yielded block is only valid until the walk resumes
        blocks = [(start, v.copy()) for start, v in ctx.orbit_blocks(ctx.generator**5, out_map, length, block)]
        sizes = [len(values) for _, values in blocks]
        # several blocks, the last one partial, each starting where the one before ended
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
        assert [start for start, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
        assert np.concatenate([values for _, values in blocks]).tolist() == want
        assert ctx.linear_orbit(ctx.generator**5, out_map, length, block).tolist() == want
    # odd p reduces by lookup when r (p - 1)^2 is below the chunk
    lookup = p > 2 and r * (p - 1) ** 2 < chunk
    assert lookup == ((p, r, chunk) in {(3, 1, 7), (3, 1, 64), (3, 5, 64), (5, 3, 64)})


def test_a_walk_fills_one_buffer_in_place(monkeypatch):
    monkeypatch.setattr(polycount.fields, "_ORBIT_CHUNK", 7)
    ctx = build_field(3, 5)
    walk = ctx.orbit_blocks(ctx.generator, np.eye(5, dtype=np.int64), 200)
    (_, first), (_, second) = next(walk), next(walk)
    assert np.shares_memory(first, second)


def test_walk_results_are_unchanged_by_a_later_walk(monkeypatch):
    monkeypatch.setattr(polycount.fields, "_ORBIT_CHUNK", 7)
    ctx = build_field(2, 9)
    eye = np.eye(9, dtype=np.int64)
    orbit = ctx.linear_orbit(ctx.generator, eye, 300)
    kept = orbit.copy()
    tower = build_tower(2, 3, 4)
    cached = [tower.base.log_table(), tower.top.log_table(), tower.trace_hist(4, 5)]
    copies = [a.copy() for a in cached]
    # later walks in the same fields, one stopped half way
    ctx.linear_orbit(ctx.generator**3, eye, 300)
    for _, values in ctx.orbit_blocks(ctx.generator**7, eye, 300):
        values[:] = -1
        break
    for _, values in tower.top.orbit_blocks(tower.gamma[4], tower.abs_trace_column(4), 4095):
        values[:] = -1
    tower.base.linear_orbit(tower.base.generator, np.eye(3, dtype=np.int64), 7)
    assert np.array_equal(orbit, kept)
    for a, c in zip(cached, copies):
        assert not a.flags.writeable and np.array_equal(a, c)


def test_orbit_abs_traces_on_two_words():
    # F_{2^14} inside F_{2^70}: every orbit element takes two packed words
    tw = build_tower(2, 7, 10)
    tr = tw.orbit_abs_traces(2)
    assert tr.shape == (2**14 - 1,) and int(tr.sum()) == 2**13  # half of F_{2^14} has trace 1
    step = tw.gamma[2] ** 61
    x = tw.top.one
    for e in range(0, 2**14 - 1, 61):
        assert int(tr[e]) == abs_trace(tw, x, 2)
        x = x * step


def test_min_poly_examples():
    tw = build_tower(3, 1, 2)
    c = tw.embed(tw.base.from_int(2))
    coeffs, t = min_poly(tw, c)
    assert t == 1 and list(x.index for x in coeffs) == [1, 1]  # x - 2 = x + 1

    tw = build_tower(2, 1, 2)
    coeffs, t = min_poly(tw, tw.gamma[2])
    assert t == 2 and [c.index for c in coeffs] == [1, 1, 1]

    tw = build_tower(2, 1, 3)
    coeffs, t = min_poly(tw, tw.gamma[3])
    assert t == 3 and tuple(c.index for c in coeffs) == tw.top.modulus


def test_min_poly_root_and_irreducibility():
    tw = build_tower(2, 2, 3)
    for e in (0, 1, 5, 9, 21):
        x = tw.gamma[3] ** e
        coeffs, t = min_poly(tw, x)
        assert tw.m % t == 0
        assert fq_is_irreducible([c.index for c in coeffs], tw.base)
        acc = tw.top.zero
        for c in reversed(coeffs):
            acc = acc * x + tw.embed(c)
        assert acc.is_zero()


def test_field_serialization():
    ctx = build_field(3, 2)
    js = ctx.to_json()
    assert js == {"p": 3, "r": 2, "modulus": [1, 0, 1], "generator_index": 4}


def test_orbit_values_matches_elementwise():
    tw = build_tower(3, 1, 3)
    tr = tw.orbit_abs_traces(3)
    for e in range(0, 26, 3):
        assert int(tr[e]) == abs_trace(tw, tw.gamma[3] ** e, 3)


def test_construction_is_not_capped():
    # building a tower beyond the enumeration cap succeeds; only operations
    # that iterate the field refuse
    from polycount.errors import EnumerationCapExceeded
    from polycount.fields import TowerCtx

    tw = TowerCtx(2, 1, 26)
    assert tw.top.order == 2**26
    with pytest.raises(EnumerationCapExceeded):
        tw.orbit_abs_traces(26, cap=1 << 10)
    # the cap is per-operation: smaller subfields still enumerate
    assert tw.orbit_abs_traces(2, cap=1 << 10).shape == (3,)


def test_orbit_abs_traces_hold_traces_beyond_255():
    # p = 257: over F_p the trace is the element itself, so the orbit of g
    # takes every trace 1..256 once; an 8-bit store would turn 256 into 0
    tw = build_tower(257, 1, 2)
    tr = tw.orbit_abs_traces(1)
    assert sorted(tr.tolist()) == list(range(1, 257))
    tr2 = tw.orbit_abs_traces(2)
    for e in range(0, 257**2 - 1, 997):
        assert int(tr2[e]) == abs_trace(tw, tw.gamma[2] ** e, 2)


def _same_array(a, b):
    return (a.dtype, a.shape, a.flags.writeable, a.tobytes()) == (b.dtype, b.shape, b.flags.writeable, b.tobytes())


# (p, r, m, t, chunk): two packed words (F_{2^14} inside F_{2^70}); traces beyond 255
# over F_257; blocks of 64 at F_{8^4} and of 25 at F_{25^2}, which q - 1 = 7 and 24 do
# not divide, and which q^t - 1 classes (or 24 classes of 5 traces) outnumber
_STREAMED_CASES = [(2, 7, 10, 2, None), (257, 1, 2, 1, None), (257, 1, 2, 2, None), (2, 3, 4, 4, 7), (5, 2, 2, 2, 7)]


@pytest.mark.parametrize("p, r, m, t, chunk", _STREAMED_CASES)
def test_streamed_tables_match_whole_orbit_ones(monkeypatch, p, r, m, t, chunk):
    if chunk:
        monkeypatch.setattr(polycount.fields, "_ORBIT_CHUNK", chunk)
    tower = TowerCtx(p, r, m)  # a fresh tower, so no histogram is cached
    q = p**r
    # F_{257^2} by q^2 - 1 classes would be a 17M-cell table
    classes = [g for g in sorted({1, q - 1, q**t - 1}) if g * p <= 1 << 20]
    for g in classes:
        assert _same_array(tower.trace_hist(t, g), whole_orbit_trace_hist(tower, t, g)), g
    field = FieldCtx(p, r * t)  # a fresh field, so no log table is cached
    assert _same_array(field.log_table(), whole_orbit_log_table(field))


def test_trace_hist_memory_does_not_grow_with_the_orbit():
    # the whole orbit of F_{2^20} as int64 is 8 MB; the streamed histogram holds a
    # few 2^16-element blocks and a 3 x 2 table
    tower = build_tower(2, 20, 1)
    tower.abs_trace_column(1)  # fills the tower's lazy Frobenius cache
    tower._trace_hists.pop((1, 3), None)
    tracemalloc.start()
    try:
        hist = tower.trace_hist(1, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak
    assert int(hist.sum()) == (1 << 20) - 1


def test_trace_hist_validates_and_caps():
    from polycount.errors import EnumerationCapExceeded, InvalidDegree, ValidationError

    tw = build_tower(257, 1, 1)
    with pytest.raises(ValidationError):
        tw.trace_hist(1, 5)  # 5 does not divide 256
    with pytest.raises(InvalidDegree):
        build_tower(2, 1, 4).trace_hist(3, 1)  # F_8 is not inside F_16
    # the table has g p cells: 256 * 257 is over the cap although q = 257 is not
    with pytest.raises(EnumerationCapExceeded):
        tw.trace_hist(1, 256, cap=1000)
    hist = tw.trace_hist(1, 4, cap=2000)
    assert hist.shape == (4, 257) and hist.sum() == 256 and not hist.flags.writeable
    assert all(hist[tw.dlog_g(tw.base.from_int(x)) % 4, x] == 1 for x in range(1, 257))


def test_base_traces_read_a_cached_histogram_without_a_walk(monkeypatch):
    # trace_hist(1, q - 1) has one element per row, so its argmax is the trace the walk would give
    def no_walk(*args, **kwargs):
        raise AssertionError("base_traces walked F_q* again")

    for p, r, m in [(2, 1, 4), (2, 8, 2), (3, 2, 3), (5, 3, 2), (257, 1, 2)]:
        want = TowerCtx(p, r, m).base_traces
        tower = TowerCtx(p, r, m)
        tower.trace_hist(1, tower.q - 1)
        with monkeypatch.context() as patch:
            patch.setattr(FieldCtx, "orbit_blocks", no_walk)
            got = tower.base_traces
        assert _same_array(got, want), (p, r, m)
