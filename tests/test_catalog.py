from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycount.catalog import (
    OMEGA_7,
    _re,
    _tr,
    classify,
    coset2,
    p2_closed_detail,
    p2_closed_pm,
    p2_context,
    p2_general_pm,
)
from polycount.counting import CountSpec, p_m
from polycount.cyclotomic import CycInt, sqrt_minus
from polycount.errors import InvalidInput, OutOfCatalog, ValidationError
from polycount.fields import build_field, build_tower
from polycount.oracle import brute_p_m


def test_classify_examples():
    assert classify(7).kind == "case1"
    assert classify(3).kind == "semiprimitive"
    assert classify(5).kind == "semiprimitive"
    assert classify(15).kind == "case2"
    assert classify(21).kind == "case3"
    assert classify(23).kind == "case1"
    assert classify(9).kind == "semiprimitive"
    with pytest.raises(InvalidInput):
        classify(6)


def test_classify_witnesses():
    c = classify(15)
    assert c.witnesses == (5, 3)
    c = classify(21)
    assert c.witnesses == (3, 7)
    assert classify(7).ord2 == 3
    assert classify(23).ord2 == 11


def test_coset2_examples():
    assert coset2(7, 1) == (1, 2, 4)
    assert coset2(7, 3) == (3, 5, 6)
    assert coset2(15, 5) == (5, 10)
    # cosets partition Z/N
    for n in (7, 15, 21, 23):
        seen = set()
        for i in range(n):
            seen.update(coset2(n, i))
        assert seen == set(range(n))


def test_resolve_gauss_candidates():
    # each family matches one of its two sign candidates, |F|^2 = 2^{r'}
    for r, n, norm in [(3, 7, 8), (4, 15, 16), (6, 21, 64), (11, 23, 2**11)]:
        ctx = p2_context(r)
        (d, u, v), c = ctx.resolve_gauss(n)
        assert c in (1, -1)
        assert u * u + d * v * v == norm


_SMALL = st.integers(-6, 6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(d=st.sampled_from([3, 7, 15, 23]), u=_SMALL, v=_SMALL, x=_SMALL, y=_SMALL, e=st.integers(0, 8), k=st.integers(0, 4), s=st.integers(-3, 3))
def test_pair_powers_match_the_cyclotomic_ring(d, u, v, x, y, e, k, s):
    # (u + v sqrt(-D))^e (x + y sqrt(-D)) on integer pairs against the same product in Z[zeta_D]
    z = CycInt.integer(d, u) + sqrt_minus(d, d) * v
    mu = CycInt.integer(d, x) + sqrt_minus(d, d) * y
    assert _tr((d, u, v, 0), e, 0) == (z**e).twice_real()
    assert 2 * _re((d, u, v, 0), e, (x, y), 0) == (z**e * mu).twice_real()
    # a 1/sqrt(2)^k in the constant is a 1/sqrt(2)^(k e) in its power, which sqrt(2)^(k e + 2 s) leaves as 2^s
    assert 2 * _re((d, u, v, k), e, (x, y), k * e + 2 * s) == (z**e * mu).twice_real() * Fraction(2) ** s


def test_an_odd_sqrt2_grading_is_refused_unless_the_real_part_is_0():
    # omega_7^2 = (-6 + 2 sqrt(-7)) / sqrt(2)^6: its trace times sqrt(2) is -12 / sqrt(2)^5
    with pytest.raises(ValueError):
        _tr(OMEGA_7, 2, 1)
    assert _tr(OMEGA_7, 2, 6) == -12
    # (sqrt(-7) / sqrt(2)) * 1 has real part 0, rational at every grading
    assert _re((7, 0, 1, 1), 1, (1, 0), 0) == 0


def test_resolve_gauss_is_cached_and_deterministic():
    ctx = p2_context(3)
    a = ctx.resolve_gauss(7)
    b = ctx.resolve_gauss(7)
    assert a == b
    ctx2 = p2_context(3)
    assert ctx2.resolve_gauss(7) == a


def test_catalog_spec_examples():
    assert p2_closed_pm(1, 8, 1) == 14
    assert p2_closed_pm(1, 7, 1) == 9
    assert p2_closed_pm(2, 6, 1) == 48
    f4 = build_field(2, 2)
    assert p2_closed_pm(2, 6, f4.generator) == 56


def test_general_spec_examples():
    assert p2_general_pm(1, 9, 1) == 28
    assert p2_general_pm(1, 13, 1) == 315
    for ind in range(7):
        b = build_field(2, 3).generator**ind
        assert p2_general_pm(3, 3, b) == 3


def test_out_of_catalog():
    with pytest.raises(OutOfCatalog):
        p2_closed_pm(1, 31, 1)


def test_catalog_vs_general_small_grid():
    for r in (1, 2, 3):
        f = build_field(2, r)
        q = 2**r
        for m in range(2, 31):
            for ind in range(max(q - 1, 1)):
                b = f.generator**ind if q > 2 else f.one
                assert p2_closed_pm(r, m, b) == p2_general_pm(r, m, b), (r, m, ind)


def test_catalog_vs_oracle_where_reachable():
    for r, m_top in [(1, 14), (2, 8), (3, 5)]:
        f = build_field(2, r)
        q = 2**r
        for m in range(2, m_top + 1):
            for ind in range(max(q - 1, 1)):
                b = f.generator**ind if q > 2 else f.one
                spec = CountSpec.make(2, r, m, q - 1, a=0, b=b)
                assert p2_closed_pm(r, m, b) == brute_p_m(spec), (r, m, ind)


def test_coset_sum_matches_unrestricted():
    for r, m in [(2, 9), (3, 14), (4, 21), (2, 15), (6, 7)]:
        f = build_field(2, r)
        q = 2**r
        total = sum(p2_closed_pm(r, m, f.generator**ind) for ind in range(q - 1))
        assert total == p_m(CountSpec.make(2, r, m, 1, a=0), method="closed")


def test_branch_provenance():
    detail = p2_closed_detail(3, 7, 1)
    assert detail.branch == "7:7|ind"
    assert detail.signs.get(7) in (1, -1)
    detail = p2_closed_detail(1, 12, 1)
    assert detail.branch == "4v:inert"
    assert detail.value == 165


def test_sign_coherence_7_14_28():
    # one resolved c makes the whole m = 7 family agree with the oracle
    r = 3
    f = build_field(2, r)
    spec_cells = [(7, ind) for ind in range(7)]
    for m, ind in spec_cells:
        b = f.generator**ind
        spec = CountSpec.make(2, r, m, 7, a=0, b=b)
        assert p2_closed_pm(r, m, b) == brute_p_m(spec)
    # 14 and 28 are beyond the oracle at r=3; the lifted route arbitrates
    for m in (14, 28):
        for ind in range(7):
            b = f.generator**ind
            assert p2_closed_pm(r, m, b) == p2_general_pm(r, m, b)


def test_catalog_rejects_bad_b():
    with pytest.raises(ValidationError):
        p2_closed_pm(2, 6, build_field(2, 2).zero)


def test_deep_semiprimitive_prime_branches():
    # the ord_v(2) | r branches of v = 17, 11, 13, 19 (and their doubles)
    # open up only at r = 8, 10, 12, 18; the lifted route arbitrates there
    cells = [(8, 17), (10, 11), (10, 22), (12, 13), (12, 26), (18, 19)]
    for r, m in cells:
        f = build_field(2, r)
        v = m if m % 2 else m // 2
        for ind in (0, 1, v):
            b = f.generator**ind
            assert p2_closed_pm(r, m, b) == p2_general_pm(r, m, b), (r, m, ind)


def test_catalog_context_survives_a_field_cache_clear():
    # the cached context reads F_{2^r} from build_field, so a rebuilt field
    # is accepted after the field cache is cleared
    assert p2_closed_detail(3, 5, build_field(2, 3).generator).value == 117
    build_field.cache_clear()
    build_tower.cache_clear()  # towers hold fields too
    assert p2_closed_detail(3, 5, build_field(2, 3).generator).value == 117
