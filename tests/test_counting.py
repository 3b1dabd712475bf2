import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import abs_trace, brute_n_t, element_order, necklace_count

from polycount import counting
from polycount.counting import (
    CountSpec,
    applicable_tables,
    derive_params,
    m_t_general,
    m_t_jacobi,
    m_t_lifted,
    n_t_special,
    n_t_table,
    p_m,
    p_m_prime_closed,
    plan,
)
from polycount.errors import (
    CapExceeded,
    EnumerationCapExceeded,
    InvariantError,
    NotApplicable,
    TableNotApplicable,
    ValidationError,
)
from polycount.fields import build_field, build_tower
from polycount.intmath import divisors
from polycount.oracle import brute_p_m


def naive_m_t(tower, spec, t):
    """Independent oracle for M_t: the literal double sum, element by element."""
    from polycount.cyclotomic import CycInt

    q, p, s = spec.q, spec.p, spec.s
    h = tower.dlog_g(spec.b) % s
    params = derive_params(spec, t, h=h)
    gt = tower.gamma[t]
    counts = [0] * p
    for w in range(q - 1):
        c = tower.g**w
        if spec.a.is_zero():
            outer = 0
        else:
            mt_inv = pow((spec.m // t) % p, -1, p)
            u = tower.embed(-(spec.a * mt_inv)) * c
            outer = abs_trace(tower, u, 1)
        for e in range(q**t - 1):
            x = gt**e
            inner = abs_trace(tower, c * gt**params.i0 * x ** (s // params.d), t)
            counts[(outer + inner) % p] += 1
    return CycInt.from_counts(p, counts).expect_integer("naive M_t")


def test_spec_validation():
    with pytest.raises(ValidationError):
        CountSpec.make(5, 1, 1, 2)  # m < 2
    with pytest.raises(ValidationError):
        CountSpec.make(5, 1, 3, 3)  # 3 does not divide 4
    with pytest.raises(ValidationError):
        CountSpec.make(5, 1, 3, 2, b=0)
    # h is derived from b, also when the spec is built directly
    base = build_field(13, 1)
    direct = CountSpec(13, 1, 3, 4, a=base.one, b=base.generator**6)
    assert direct.h == 2 == CountSpec.make(13, 1, 3, 4, a=1, h=6).h
    with pytest.raises(TypeError):
        CountSpec(13, 1, 3, 4, a=base.one, b=base.one, h=1)


def test_derive_params_examples():
    spec = CountSpec.make(13, 1, 12, 4, a=0, h=0)
    pr = derive_params(spec, 6)
    assert (pr.d, pr.l) == (2, 2)

    spec = CountSpec.make(13, 1, 3, 4, a=1, h=2)
    assert derive_params(spec, 3).i0 == 2  # i0 = h when m = t
    assert derive_params(spec, 1).i0 == (3 * 2) % 4  # i0 = 3h for m = 3 mod 4


def test_derive_params_l_consistency():
    # l = gcd(t, s/d) must equal gcd(t0, s/d); exercised across a sweep
    for p, r, m, s in [(5, 1, 6, 4), (3, 2, 6, 8), (13, 1, 4, 12), (2, 4, 6, 15)]:
        spec = CountSpec.make(p, r, m, s, a=0, h=0)
        for t in divisors(m):
            derive_params(spec, t)  # asserts internally


def test_n_t_special_cases():
    # d does not divide h -> 0
    spec = CountSpec.make(5, 1, 4, 2, a=0, h=1)
    assert n_t_special(spec, 2) == 0  # d = gcd(2, 2) = 2, h = 1
    # p | m/t with a != 0 -> 0
    spec = CountSpec.make(5, 1, 5, 2, a=1, h=0)
    assert n_t_special(spec, 1) == 0
    # p | m/t, a = 0, d | h -> (d/s)(q^t - 1)
    spec = CountSpec.make(5, 1, 5, 2, a=0, h=0)
    assert n_t_special(spec, 1) == 2  # (1/2)(5 - 1)
    assert brute_n_t(spec, 1) == 2
    # restpd -> None
    spec = CountSpec.make(5, 1, 3, 2, a=0, h=0)
    assert n_t_special(spec, 3) is None


def test_m_t_general_examples():
    # a = 0, l = 1 -> 1 - q; a != 0, s/d = 1 -> 1
    tw = build_tower(5, 1, 3)
    spec = CountSpec.make(5, 1, 3, 1, a=0)
    assert m_t_general(tw, spec, 3) == 1 - 5
    spec = CountSpec.make(5, 1, 6, 2, a=1, h=0)
    tw6 = build_tower(5, 1, 6)
    assert m_t_general(tw6, spec, 3) == 1  # d = gcd(2,2) = 2, s/d = 1

    # q=4, m=t=3, s=3, h=0, a=0: M_3 = 45, N_3 = 9, P_3 = 3
    spec = CountSpec.make(2, 2, 3, 3, a=0, b=1)
    tw43 = build_tower(2, 2, 3)
    assert m_t_general(tw43, spec, 3) == 45
    assert naive_m_t(tw43, spec, 3) == 45
    route = next(route for t, _, route in plan(spec) if t == 3)
    assert counting._run_route(spec, 3, route, counting.DEFAULT_ENUM_CAP) == 9
    assert p_m(spec) == 3


def test_m_t_routes_agree_with_naive():
    # the independent per-element double sum arbitrates all routes
    cases = [
        (5, 1, 3, 2, 1, 0, 3),
        (5, 1, 3, 2, 0, 1, 3),
        (2, 2, 3, 3, 0, 0, 3),
        (7, 1, 2, 3, 3, 1, 2),
        (13, 1, 2, 4, 5, 2, 2),
        (3, 2, 2, 4, 4, 3, 2),
    ]
    for p, r, m, s, ai, h, t in cases:
        base = build_field(p, r)
        spec = CountSpec.make(p, r, m, s, a=base.from_index(ai), h=h)
        tower = build_tower(p, r, m)
        want = naive_m_t(tower, spec, t)
        assert m_t_general(tower, spec, t) == want
        assert m_t_jacobi(spec, t, allow_brute=True) == want
        if p == 2 and ai == 0:
            assert m_t_lifted(spec, t) == want


def lifted_per_character(spec, t):
    """Reference for m_t_lifted: one Davenport-Hasse lift per nontrivial character, none shared."""
    from polycount.charsums import gauss_sum_lifted
    from polycount.cyclotomic import CycInt
    from polycount.intmath import multiplicative_order

    params = derive_params(spec, t)
    l = params.l
    acc = CycInt.integer(l, -1)
    for j in range(1, l):
        g = math.gcd(j, l)
        order, k = l // g, (-j // g) % (l // g)
        r_small = multiplicative_order(2, order)
        sub = build_tower(2, r_small, spec.r // r_small)
        g_val = gauss_sum_lifted(sub, spec.r * t // r_small, order, k)
        acc = acc + g_val.embed(l) * CycInt.root(l, j * params.i0)
    return (spec.q - 1) * acc.expect_integer("per-character lift")


def test_m_t_lifted_matches_per_character_lifts():
    # seeded grid of p = 2 cells, q = 2^r with r <= 6 and m <= 30, every restpd t | m
    import random

    rng = random.Random(2007)
    nontrivial = 0
    for r in range(1, 7):
        q = 2**r
        for m in range(2, 31):
            for s in (q - 1, rng.choice(divisors(q - 1))):
                spec = CountSpec.make(2, r, m, s, a=0, h=rng.randrange(s))
                for t in divisors(m):
                    if (m // t) % 2 and spec.h % math.gcd(m // t, s) == 0:
                        assert m_t_lifted(spec, t) == lifted_per_character(spec, t), (r, m, s, spec.h, t)
                        nontrivial += derive_params(spec, t).l > 1
    assert nontrivial > 50


def test_m_t_lifted_lifts_once_per_character_order(monkeypatch):
    import polycount.counting as counting

    calls = []
    real = counting.gauss_sum_lifted

    def spy(tower, t_prime, n, k=1, cap=None):
        calls.append((n, k))
        return real(tower, t_prime, n, k, cap)

    monkeypatch.setattr(counting, "gauss_sum_lifted", spy)
    # (r, m, t) = (20, 25, 25): l = 25, so 24 characters of orders 5 and 25
    spec = CountSpec.make(2, 20, 25, 2**20 - 1, a=0, h=12345)
    assert derive_params(spec, 25).l == 25
    got = m_t_lifted(spec, 25)
    assert sorted(calls) == [(5, 1), (25, 1)]
    monkeypatch.undo()
    assert got == lifted_per_character(spec, 25)


def test_m_t_jacobi_reads_one_class_count(monkeypatch):
    import polycount.counting as counting

    calls = []
    real = counting.jacobi_class_counts

    def spy(field, n, t):
        calls.append((n, t))
        return real(field, n, t)

    monkeypatch.setattr(counting, "jacobi_class_counts", spy)
    # n = s/d = 30: all 29 nontrivial characters, of orders 2, 3, 5, 6, 10, 15 and 30, read one vector
    spec = CountSpec.make(31, 1, 3, 30, a=1, h=7)
    got = m_t_jacobi(spec, 3, allow_brute=True)
    assert calls == [(30, 3)]
    assert got == m_t_general(build_tower(31, 1, 3), spec, 3)


# (p, r, m, t) with q^{t+1} <= 2^10 and p not dividing m/t, where naive_m_t is quick
_NAIVE_CASES = [
    (p, r, m, t)
    for p, r in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1), (31, 1))
    for m in range(2, 10)
    for t in divisors(m)
    if (p**r) ** (t + 1) <= 1 << 10 and (m // t) % p
]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=st.sampled_from(_NAIVE_CASES), data=st.data())
def test_m_t_general_matches_naive(case, data):
    p, r, m, t = case
    q = p**r
    s = data.draw(st.sampled_from(divisors(q - 1)), label="s")
    d = math.gcd(m // t, s)
    h = d * data.draw(st.integers(0, s // d - 1), label="h / d")  # d | h
    a = build_field(p, r).from_index(data.draw(st.integers(0, q - 1), label="a"))
    spec = CountSpec.make(p, r, m, s, a=a, h=h)
    tower = build_tower(p, r, m)
    assert m_t_general(tower, spec, t) == naive_m_t(tower, spec, t)


def test_general_sum_holds_no_more_than_one_block_beyond_its_tables():
    # F_2039^2 at G = q - 1: the (q - 1) x p histogram of 33 MB is read in place, and the
    # gather over (w, tau) runs in blocks of _ORBIT_CHUNK cells; a = 1 reads rho_w off the
    # 33 MB t = 1 table as one product with the column labels, without copying the table
    tower = build_tower(2039, 1, 2)
    for a in (0, 1):
        spec = CountSpec.make(2039, 1, 2, 2038, a=a, h=0)
        want = m_t_general(tower, spec, 2)
        tracemalloc.start()
        try:
            assert [m_t_general(tower, spec, 2) for _ in range(2)] == [want, want]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (a, peak)


@pytest.mark.parametrize("a", [0, 3])
def test_general_sum_refuses_counts_that_are_not_an_integer(monkeypatch, a):
    # one more element on trace 1 in every class leaves c_1, ..., c_{p-1} unequal, so the
    # counts are no rational integer: the read must refuse, not return c_0 - c_1
    from polycount import fields

    tower = build_tower(7, 1, 3)
    spec = CountSpec.make(7, 1, 3, 3, a=a, h=1)
    real = fields.TowerCtx.trace_hist
    assert m_t_general(tower, spec, 3) == naive_m_t(tower, spec, 3)

    def perturbed(self, t, g, cap=None):
        hist = real(self, t, g, cap).copy()
        hist[:, 1] += 1
        return hist

    monkeypatch.setattr(fields.TowerCtx, "trace_hist", perturbed)
    with pytest.raises(InvariantError):
        m_t_general(tower, spec, 3)


def test_m_t_closed_paths_surface():
    # q=4, t=2, s=3, a != 0: brute Jacobi sums equal the double sum
    spec = CountSpec.make(2, 2, 2, 3, a=2, h=1)
    tower = build_tower(2, 2, 2)
    want = m_t_general(tower, spec, 2)
    assert m_t_jacobi(spec, 2, allow_brute=True) == want
    # without brute Jacobi the order-3 sum at r = 2 has no closed form
    with pytest.raises(TableNotApplicable):
        m_t_jacobi(spec, 2, allow_brute=False)


def test_general_route_beyond_catalog():
    # the lifted route has no m cap: a degree-31 count over F_2
    from polycount.catalog import p2_general_pm

    assert p2_general_pm(1, 31, 1) == (2**30 - 1) // 31


def test_s2_nonzero_a_worked_example():
    # q=5, m=t=3, a=1, h=0: the closed formula gives
    # 1 + (-1)^h q^{(t+1)/2} rho((-1)^{(t-1)/2} (m/t) a^{-1}) = 1 + 25 rho(-1) = 26
    # (arbitrated by the brute oracle: N_3 = (124 + 26)/10 = 15)
    spec = CountSpec.make(5, 1, 3, 2, a=1, h=0)
    tw = build_tower(5, 1, 3)
    assert m_t_general(tw, spec, 3) == 26
    assert m_t_jacobi(spec, 3) == 26
    assert brute_n_t(spec, 3) == 15
    assert n_t_table(spec, 3, "s2") == 15


def test_table_s2_rows():
    # (1,1) a=0 at q=5, t=3: N_t = (q^{t-1} - 1)/2 = 12
    spec = CountSpec.make(5, 1, 3, 2, a=0, h=0)
    assert n_t_table(spec, 3, "s2") == 12 == brute_n_t(spec, 3)
    # (2,1) rows
    spec = CountSpec.make(5, 1, 6, 2, a=0, h=0)
    assert n_t_table(spec, 3, "s2") == 5**2 - 1 == brute_n_t(spec, 3)
    spec = CountSpec.make(5, 1, 6, 2, a=2, h=0)
    assert n_t_table(spec, 3, "s2") == 5**2 == brute_n_t(spec, 3)


def test_table_s4_row_example():
    # s4, a=0, (d,l) = (2,2), q=13, t=2, i0=0 -> 0
    spec = CountSpec.make(13, 1, 4, 4, a=0, h=0)
    assert derive_params(spec, 2).d == 2 and derive_params(spec, 2).l == 2
    assert n_t_table(spec, 2, "s4") == 0
    assert brute_n_t(spec, 2) == 0


def test_table_semiprimitive_example():
    # q=4 (p=2,e=1,n=1), s=3, t=3, a=0, h=0: N_3 = 9
    spec = CountSpec.make(2, 2, 3, 3, a=0, b=1)
    assert n_t_table(spec, 3, "semiprimitive") == 9


def test_table_semiprimitive_nonzero_a_note():
    # a != 0 and d = s -> N_t = q^{t-1}
    spec = CountSpec.make(3, 2, 4, 2, a=1, h=0)
    assert derive_params(spec, 2).d == 2
    assert n_t_table(spec, 2, "semiprimitive") == 9**1
    assert brute_n_t(spec, 2) == 9


def test_overlapping_tables_agree():
    # q = 9, s = 2 satisfies both the s = 2 and the semiprimitive hypotheses;
    # every row of both tables must give the same N_t
    base = build_field(3, 2)
    for m in (2, 3, 4, 5, 6):
        for ai in range(9):
            for h in (0, 1):
                spec = CountSpec.make(3, 2, m, 2, a=base.from_index(ai), h=h)
                for t in divisors(m):
                    v1 = n_t_table(spec, t, "s2")
                    v2 = n_t_table(spec, t, "semiprimitive")
                    assert v1 == v2, (m, ai, h, t)


def test_table_not_applicable():
    spec = CountSpec.make(5, 1, 4, 4, a=0, h=0)
    with pytest.raises(TableNotApplicable):
        n_t_table(spec, 4, "s3")
    spec2 = CountSpec.make(2, 3, 4, 7, a=0, h=0)
    assert applicable_tables(spec2) == []


def test_p_m_examples():
    assert p_m(CountSpec.make(2, 1, 12, 1, a=0)) == 165
    assert p_m(CountSpec.make(2, 2, 5, 3, a=0, b=1)) == 17
    assert p_m(CountSpec.make(2, 3, 3, 7, a=0, b=1)) == 3


def test_p_m_prime_closed_examples():
    assert p_m_prime_closed(CountSpec.make(5, 1, 3, 2, a=0)) == 4
    assert p_m_prime_closed(CountSpec.make(5, 1, 5, 2, a=0)) == 62
    assert p_m_prime_closed(CountSpec.make(7, 1, 5, 3, a=0)) == 160
    with pytest.raises(NotApplicable):
        p_m_prime_closed(CountSpec.make(5, 1, 4, 2, a=0))


def test_p_m_prime_closed_vs_brute():
    for p, s, m, ai, h in [
        (5, 2, 3, 2, 1),
        (5, 2, 5, 1, 0),
        (13, 2, 3, 7, 1),
        (5, 4, 3, 2, 3),
        (13, 4, 3, 3, 2),
        (7, 3, 5, 4, 1),
        (13, 3, 5, 6, 2),
        (7, 3, 7, 2, 0),
        (5, 4, 5, 3, 1),
    ]:
        if p**m > 2**22:
            continue
        base = build_field(p, 1)
        spec = CountSpec.make(p, 1, m, s, a=base.from_index(ai), h=h)
        assert p_m_prime_closed(spec) == brute_p_m(spec), (p, s, m, ai, h)


def test_p_m_prime_closed_all_cells_beyond_grid():
    # prime-m cells the equivalence grid cannot reach: m = 7 at s = 3 (both
    # residues of m mod 3 between m = 5 and 7) and m = 5 at s = 4, p = 13
    for p, s, m in [(7, 3, 7), (13, 4, 5), (13, 3, 5)]:
        base = build_field(p, 1)
        for ai in range(p):
            for h in range(s):
                spec = CountSpec.make(p, 1, m, s, a=base.from_index(ai), h=h)
                assert p_m_prime_closed(spec) == brute_p_m(spec), (p, s, m, ai, h)


def test_coset_partition():
    # sum over h of P_m(a, s, h) = P_m(a, 1, 0)
    for p, r, m, s, ai in [(5, 1, 4, 2, 2), (2, 2, 4, 3, 0), (13, 1, 3, 4, 1)]:
        base = build_field(p, r)
        a = base.from_index(ai)
        total = sum(p_m(CountSpec.make(p, r, m, s, a=a, h=h)) for h in range(s))
        assert total == p_m(CountSpec.make(p, r, m, 1, a=a))


def test_global_partition():
    # sum over a of P_m(a, 1, 0) = necklace count
    for p, r, m in [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3)]:
        base = build_field(p, r)
        q = p**r
        total = sum(p_m(CountSpec.make(p, r, m, 1, a=base.from_index(ai))) for ai in range(q))
        assert total == necklace_count(q, m)


def test_coset_representative_invariance():
    # the coset as a set, not its representative or the generator label,
    # determines the count
    base = build_field(13, 1)
    g = base.generator
    spec0 = CountSpec.make(13, 1, 3, 4, a=1, h=2)
    want = p_m(spec0)
    for k in range(3):
        b2 = spec0.b * (g**4) ** k  # same coset of <g^4>
        assert p_m(CountSpec.make(13, 1, 3, 4, a=base.from_int(1), b=b2)) == want
    # labels relative to an alternative generator pick out the same cosets:
    # g' = g^7 also generates, and the coset g'^h <g'^4> equals g^{7h} <g^4>
    g2 = g**7
    assert element_order(base, g2) == 12
    for h in range(4):
        via_alt = p_m(CountSpec.make(13, 1, 3, 4, a=1, b=g2**h))
        via_canon = p_m(CountSpec.make(13, 1, 3, 4, a=1, h=(7 * h) % 4))
        assert via_alt == via_canon


def test_auto_falls_back_when_general_is_over_cap():
    # q = 32, s = 31: no table and no closed Jacobi order; the literal
    # double sum at t = 4 has q^5 = 2^25 summands, but read from the trace
    # histogram of F_{q^4} it fits the cap, and auto must still answer
    base = build_field(2, 5)
    spec = CountSpec.make(2, 5, 4, 31, a=base.from_index(3), h=5)
    assert p_m(spec, cap=1 << 24) == brute_p_m(spec)


def test_auto_matches_brute_random_sweep():
    import random

    rng = random.Random(20260809)
    cases = [(2, 1, 6), (2, 2, 4), (3, 1, 5), (5, 1, 4), (7, 1, 3), (3, 2, 3), (13, 1, 2)]
    for p, r, m in cases:
        base = build_field(p, r)
        q = p**r
        for s in divisors(q - 1):
            for _ in range(2):
                ai = rng.randrange(q)
                h = rng.randrange(s) if s > 1 else 0
                spec = CountSpec.make(p, r, m, s, a=base.from_index(ai), h=h)
                assert p_m(spec) == brute_p_m(spec), (p, r, m, s, ai, h)


def test_plan_routes():
    # q = 13, s = 4, m = 4: t = 1 drops out (mu(4) = 0), t = 2 and t = 4
    # take the s = 4 table; 'closed' uses Jacobi sums
    spec = CountSpec.make(13, 1, 4, 4, a=0, h=2)
    assert plan(spec) == [(2, -1, "s4"), (4, 1, "s4")]
    assert plan(spec, "closed") == [(2, -1, "jacobi"), (4, 1, "jacobi")]
    assert plan(spec, "general") == [(2, -1, "general"), (4, 1, "general")]
    # q = 32, s = 31: no table and no closed Jacobi form, so auto walks down
    # the enumerations as the cap shrinks
    spec = CountSpec.make(2, 5, 4, 31, a=3, h=5)
    assert plan(spec) == [(2, -1, "special"), (4, 1, "general")]
    assert plan(spec, cap=1 << 15) == [(2, -1, "special"), (4, 1, "jacobi_brute")]
    # at t = 1 the double sum gathers p times over F_q*, and p q = 4111^2 > 2^24
    spec = CountSpec.make(4111, 1, 2, 5, a=1, h=2)
    assert plan(spec) == [(1, -1, "jacobi_brute"), (2, 1, "jacobi_brute")]
    assert sum(p_m(CountSpec.make(4111, 1, 2, 5, a=1, h=h)) for h in range(5)) == (4111 - 1) // 2
    # p = 2, a = 0: the closed route is the lifted one; n = 1 takes Jacobi
    spec = CountSpec.make(2, 4, 3, 15, a=0, h=0)
    assert plan(spec, "closed") == [(1, -1, "lifted"), (3, 1, "lifted")]
    assert plan(spec)[0] == (1, -1, "jacobi")
    with pytest.raises(ValidationError):
        plan(spec, "brute")


def test_jacobi_brute_route_matches_brute():
    # p | m makes N_1 special; N_m has characters of order s with no closed form,
    # and the cap admits only the q^(m-1) Jacobi tuples
    for p, r, m, s, cap in [(2, 3, 2, 7, 16), (3, 2, 3, 8, 100), (2, 6, 2, 63, 64)]:
        base = build_field(p, r)
        total = 0
        for h in range(0, s, max(1, s // 8)):
            spec = CountSpec.make(p, r, m, s, a=base.one, h=h)
            assert plan(spec, cap=cap)[-1][2] == "jacobi_brute"
            got = p_m(spec, cap=cap)
            assert got == brute_p_m(spec), (p, r, m, s, h)
            total += got
        assert total > 0, (p, r, m, s)


@pytest.mark.parametrize(
    "args, method, cap, error",
    [
        ((7, 1, 3, 6, 1, 0), "general", 100, EnumerationCapExceeded),  # t = 1 fits, t = 3 does not
        ((7, 1, 3, 6, 1, 0), "table", 1 << 24, TableNotApplicable),
        ((7, 1, 3, 6, 1, 0), "closed", 1 << 24, TableNotApplicable),  # order 2 at t = 1, 6 at t = 3
        ((7, 1, 3, 6, 1, 0), "auto", 16, EnumerationCapExceeded),
        ((2, 4, 3, 15, 0, 0), "closed", 2, EnumerationCapExceeded),  # lifted from F_4 at t = 3
    ],
)
def test_unservable_method_refuses_before_any_work(monkeypatch, args, method, cap, error):
    import polycount.counting as counting
    from polycount import fields

    p, r, m, s, ai, h = args
    spec = CountSpec.make(p, r, m, s, a=build_field(p, r).from_index(ai), h=h)
    ran = []

    def forbidden(name):
        def call(*a, **k):
            ran.append(name)
            raise AssertionError(f"{name} ran before the plan refused")

        return call

    for name in ("linear_orbit", "orbit_blocks"):
        monkeypatch.setattr(fields.FieldCtx, name, forbidden(name))
    for name in ("build_tower", "n_t_special", "n_t_table", "m_t_general", "m_t_jacobi", "m_t_lifted"):
        monkeypatch.setattr(counting, name, forbidden(name))
    with pytest.raises(error):
        p_m(spec, method, cap=cap)
    assert ran == []


def test_verify_cell_raises_when_a_planned_route_fails(monkeypatch):
    # the plan accepts 'closed' here, so a failure inside the route must surface
    import polycount.counting as counting
    from polycount.verify import verify_cell

    spec = CountSpec.make(13, 1, 4, 4, a=0, h=2)

    def broken(*args, **kwargs):
        raise TableNotApplicable("injected")

    monkeypatch.setattr(counting, "m_t_jacobi", broken)
    with pytest.raises(TableNotApplicable):
        verify_cell(spec)


def test_verify_cell_plans_each_method_once(monkeypatch):
    # verify_cell hands each plan it made to run_plan, which does not plan again
    import polycount.counting as counting
    import polycount.verify as verify

    calls = []
    real = counting.plan

    def spy(spec, method="auto", cap=counting.DEFAULT_ENUM_CAP):
        calls.append(method)
        return real(spec, method, cap)

    monkeypatch.setattr(counting, "plan", spy)
    monkeypatch.setattr(verify, "plan", spy)
    spec = CountSpec.make(13, 1, 4, 4, a=1, h=2)  # general, table and closed all plan here
    row = verify.verify_cell(spec)
    assert sorted(calls) == ["closed", "general", "table"]
    assert row.ok and {"general", "table", "closed"} <= set(row.values)


# (p, r, m) with q^{m+1} <= 2^12, where the brute oracle is quick
_SMALL_TOWERS = [
    (p, r, m)
    for p, r in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
    for m in range(2, 12)
    if (p**r) ** (m + 1) <= 1 << 12
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    tower=st.sampled_from(_SMALL_TOWERS),
    cap=st.sampled_from([1 << 24, 1 << 12, 1 << 8, 1 << 4]),
    data=st.data(),
)
def test_every_planned_method_matches_brute(tower, cap, data):
    p, r, m = tower
    base = build_field(p, r)
    q = p**r
    s = data.draw(st.sampled_from(divisors(q - 1)), label="s")
    a = base.from_index(data.draw(st.integers(0, q - 1), label="a"))
    h = data.draw(st.integers(0, s - 1), label="h")
    spec = CountSpec.make(p, r, m, s, a=a, h=h)
    want = brute_p_m(spec)
    for method in ("auto", "closed", "general", "table"):
        try:
            plan(spec, method, cap)
        except (NotApplicable, CapExceeded):
            continue
        assert p_m(spec, method, cap=cap) == want, method
    # the cosets of the index-s subgroup partition the norms
    total = sum(p_m(CountSpec.make(p, r, m, s, a=a, h=hh)) for hh in range(s))
    assert total == brute_p_m(CountSpec.make(p, r, m, 1, a=a))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(tower=st.sampled_from(_SMALL_TOWERS))
def test_global_partition_on_drawn_towers(tower):
    # shrinking version of test_global_partition
    p, r, m = tower
    base = build_field(p, r)
    q = p**r
    total = sum(p_m(CountSpec.make(p, r, m, 1, a=base.from_index(ai))) for ai in range(q))
    assert total == necklace_count(q, m)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tower=st.sampled_from([t for t in _SMALL_TOWERS if t[0] ** t[1] > 2]), data=st.data())
def test_coset_representative_invariance_on_drawn_specs(tower, data):
    # shrinking version of test_coset_representative_invariance
    p, r, m = tower
    base = build_field(p, r)
    q = p**r
    g = base.generator
    s = data.draw(st.sampled_from(divisors(q - 1)), label="s")
    a = base.from_index(data.draw(st.integers(0, q - 1), label="a"))
    h = data.draw(st.integers(0, s - 1), label="h")
    k = data.draw(st.integers(0, (q - 1) // s - 1), label="k")
    want = p_m(CountSpec.make(p, r, m, s, a=a, h=h))
    assert p_m(CountSpec.make(p, r, m, s, a=a, b=g**h * (g**s) ** k)) == want
    # g' = g^u generates when gcd(u, q - 1) = 1, and g'^h <g'^s> = g^{uh} <g^s>
    u = data.draw(st.sampled_from([u for u in range(1, q - 1) if math.gcd(u, q - 1) == 1]), label="u")
    via_alt = p_m(CountSpec.make(p, r, m, s, a=a, b=(g**u) ** h))
    assert via_alt == p_m(CountSpec.make(p, r, m, s, a=a, h=u * h % s))
