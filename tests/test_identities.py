"""Identities that check counts past the brute-force oracle.

1. The sum over every trace coefficient counts the irreducibles by norm class.
2. Carlitz's count: with s = 1 and a != 0 the count is a closed sum.
3. Scaling: P_m(c a, s, (h + m k) mod s) = P_m(a, s, h) for c = g^k.
4. Frobenius: P_m(a^p, s, p h mod s) = P_m(a, s, h).

Each test's docstring proves its identity.  The towers lie past the oracle's
2^22 cap, up to q^m = 2^40, where the table, Jacobi and class-count routes are
otherwise checked only against one another.  A draw that `auto` refuses is
skipped, and each test prints how many were.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import carlitz_count, necklace_count, norm_class_count

from polycount.counting import CountSpec, p_m
from polycount.errors import CapExceeded
from polycount.fields import build_field
from polycount.intmath import divisors

# (p, r, m) with q^m > 2^22.  (101, 1, 4) sends N_4 to the class counts when s/d > 4;
# (3, 4, 5) refuses some cells; q = p = 1 mod 4 with 4 | m reaches the s = 4 table's (1, 4) row
_TOWERS = [(101, 1, 4), (53, 1, 4), (13, 1, 8), (5, 1, 12), (17, 1, 6), (5, 2, 5), (2, 6, 4), (3, 3, 5)]
_TOWERS += [(3, 4, 5), (7, 1, 9), (2, 4, 6)]
# (p, r, m) with 2^32 < q^m <= 2^40
_WIDE = [(2, 10, 4), (3, 5, 5), (13, 1, 9), (7, 2, 6), (2, 12, 3), (5, 2, 8), (2, 8, 5), (3, 3, 8), (17, 1, 8)]
_WIDE += [(2, 5, 8), (31, 1, 7)]


def _count(p, r, m, s, a, h, draws):
    """P_m(a, s, h) with a an element or an index, or None, counted as refused, when `auto` refuses."""
    try:
        return p_m(CountSpec.make(p, r, m, s, a=a, h=h))
    except CapExceeded:
        draws["refused"] += 1
        return None


def _report(name, draws, least):
    print(f"\n{name}: {draws['served']} draws served, {draws['refused']} skipped as refused")
    assert draws["served"] >= least


def test_sum_over_a_counts_the_norm_class():
    """For every spec,

        sum_{a in F_q} P_m(a, s, h)
            = (1/m) sum_{t | m} mu(m/t) (q^t - 1)/(q - 1) #{e mod q - 1 : (m/t) e = h mod s}.

    Proof.  Summing P_m(a, s, h) over a drops the trace condition, so the left
    side counts the monic irreducibles of degree m over F_q whose norm
    coefficient b lies in the class C_h = {g^e : e = h mod s}.  Each has m
    distinct roots, each of exact degree m over F_q, and b is the norm N_m(x)
    of every one of them.  So m times the left side is #{x in F_{q^m} of degree
    m : N_m(x) in C_h}.  By Moebius inversion over the subfields F_{q^t}, t | m,
    that is sum_{t | m} mu(m/t) #{x in F_{q^t} : N_m(x) in C_h}.  For x in
    F_{q^t}, N_m(x) = N_t(x)^{m/t}; 0 is not in C_h; and N_t maps F_{q^t}* onto
    F_q* with every fibre of size (q^t - 1)/(q - 1).  With N_t(x) = g^e the
    condition reads (m/t) e = h mod s, since s | q - 1.  This extends
    test_global_partition from s = 1 to every s.
    """
    draws = {"served": 0, "refused": 0}

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(tower=st.sampled_from(_TOWERS), data=st.data())
    def check(tower, data):
        p, r, m = tower
        q = p**r
        s = data.draw(st.sampled_from(divisors(q - 1)), label="s")
        h = data.draw(st.integers(0, s - 1), label="h")
        try:
            total = sum(p_m(CountSpec.make(p, r, m, s, a=a, h=h)) for a in range(q))
        except CapExceeded:
            draws["refused"] += 1
            return
        draws["served"] += 1
        assert total == norm_class_count(q, m, s, h)

    check()
    _report("sum over a", draws, 40)


def test_carlitz_count_for_s_1_and_a_nonzero():
    """For a != 0, P_m(a, 1, 0) = (1/(qm)) sum_{d | m, p not dividing d} mu(d) q^{m/d}.

    Proof.  With s = 1 the norm is free, and the trace coefficient of an
    irreducible of degree m is Tr(x) = Tr_{q^m/q}(x) of each of its m roots, all
    of exact degree m.  So m P_m(a, 1, 0) = #{x of degree m : Tr(x) = a}.  For
    e | m and x in F_{q^e}, Tr(x) = (m/e) Tr_{q^e/q}(x).  If p divides m/e that
    is 0 != a; otherwise m/e is a unit of F_p and Tr_{q^e/q} maps F_{q^e} onto
    F_q with fibres of size q^{e-1}, so #{x in F_{q^e} : Tr(x) = a} = q^{e-1}.
    Moebius inversion over the subfields F_{q^e}, e | m, with d = m/e, gives
    #{x of degree m : Tr(x) = a} = sum_{d | m, p not dividing d} mu(d) q^{m/d - 1}.
    The F_{2^61} cells take no discrete log; 2^61 - 1 is prime, so one would
    need 1.5e9 baby steps.
    """
    draws = {"served": 0, "refused": 0}

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(tower=st.sampled_from(_TOWERS + _WIDE), data=st.data())
    def check(tower, data):
        p, r, m = tower
        a = data.draw(st.integers(1, p**r - 1), label="a")
        count = _count(p, r, m, 1, a, 0, draws)
        if count is not None:
            draws["served"] += 1
            assert count == carlitz_count(p, r, m)

    check()
    for a in (1, 2, 2**61 - 1):
        assert _count(2, 61, 2, 1, a, 0, draws) == carlitz_count(2, 61, 2) == 2**60
        draws["served"] += 1
    _report("Carlitz", draws, 100)


def test_scaling_by_a_power_of_g():
    """For c = g^k in F_q*, P_m(c a, s, (h + m k) mod s) = P_m(a, s, h).

    Proof.  For a monic irreducible f of degree m with roots x_1, ..., x_m, the
    polynomial c^m f(x / c) is monic and irreducible of degree m, with roots
    c x_i.  Its trace coefficient is sum c x_i = c a, and its norm coefficient
    is prod c x_i = c^m b.  If b = g^e with e = h mod s, then c^m b = g^{e + mk}
    and e + mk = h + mk mod s.  The map has the inverse f -> c^{-m} f(c x), so it
    is a bijection between the two sets counted.
    """
    draws = {"served": 0, "refused": 0}

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(tower=st.sampled_from(_TOWERS + _WIDE), data=st.data())
    def check(tower, data):
        p, r, m = tower
        q = p**r
        s = data.draw(st.sampled_from(divisors(q - 1)), label="s")
        h = data.draw(st.integers(0, s - 1), label="h")
        base = build_field(p, r)
        a = base.from_index(data.draw(st.integers(0, q - 1), label="a"))
        k = data.draw(st.integers(0, q - 2), label="k")
        c = base.generator**k
        before = _count(p, r, m, s, a, h, draws)
        after = _count(p, r, m, s, c * a, (h + m * k) % s, draws) if before is not None else None
        if after is not None:
            draws["served"] += 1
            assert after == before

    check()
    _report("scaling", draws, 100)


def test_frobenius_on_the_coefficients():
    """P_m(a^p, s, p h mod s) = P_m(a, s, h).

    Proof.  u -> u^p is an automorphism of F_q, and applied to every
    coefficient it is a ring automorphism of F_q[x] that keeps degree, monic
    and irreducible, with inverse its r - 1-th power.  It sends the
    coefficients -a and (-1)^m b of f to -a^p and (-1)^m b^p.  If b = g^e with
    e = h mod s, then b^p = g^{pe} and pe = ph mod s.  So it is a bijection
    between the two sets counted.
    """
    draws = {"served": 0, "refused": 0}

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(tower=st.sampled_from(_TOWERS + _WIDE), data=st.data())
    def check(tower, data):
        p, r, m = tower
        q = p**r
        s = data.draw(st.sampled_from(divisors(q - 1)), label="s")
        h = data.draw(st.integers(0, s - 1), label="h")
        a = build_field(p, r).from_index(data.draw(st.integers(0, q - 1), label="a"))
        before = _count(p, r, m, s, a, h, draws)
        after = _count(p, r, m, s, a**p, p * h % s, draws) if before is not None else None
        if after is not None:
            draws["served"] += 1
            assert after == before

    check()
    _report("Frobenius", draws, 100)


@pytest.mark.parametrize("q, m", [(3, 4), (4, 6), (5, 5), (101, 4)])
def test_norm_class_count_sums_to_the_irreducibles(q, m):
    # over every class h mod q - 1 the identity counts all monic irreducibles of degree m
    assert sum(norm_class_count(q, m, q - 1, h) for h in range(q - 1)) == necklace_count(q, m)
