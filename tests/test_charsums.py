import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    abs_trace,
    char_connect_check,
    dh_consistency_check,
    jacobi_tuple_walk,
    jacobi_tuples,
    monomial_closed_char2,
    monomial_closed_semiprimitive,
)

from polycount import fields
from polycount.charsums import (
    gauss_sum,
    gauss_sum_folded,
    gauss_sum_lifted,
    jacobi_brute,
    jacobi_class_counts,
    monomial_sum,
)
from polycount.cyclotomic import CycInt, sqrt_minus
from polycount.errors import CapExceeded, EnumerationCapExceeded, InvalidDegree, ValidationError
from polycount.fields import build_field, build_tower
from polycount.intmath import divisors


def naive_monomial_sum(tower, t, i, n):
    """Independent oracle: literal per-element summation."""
    p = tower.p
    counts = [0] * p
    gt = tower.gamma[t]
    alpha = gt**i
    for e in range(tower.q**t - 1):
        x = gt**e
        counts[abs_trace(tower, alpha * x**n, t)] += 1
    return CycInt.from_counts(p, counts)


def naive_gauss_sum(tower, t, n, k, fold=False):
    """Independent oracle: zeta_p^Tr(x) lambda^k(x) summed element by element.

    lambda sends gamma_t to zeta_n.  With fold (p = 2) zeta_2 = -1 and the sum
    lives in Z[zeta_n]."""
    p = tower.p
    order = n if fold else p * n
    coeffs = [0] * order
    gt = tower.gamma[t]
    x = tower.top.one
    for e in range(tower.q**t - 1):
        tr, b = abs_trace(tower, x, t), k * e % n
        if fold:
            coeffs[b] += 1 - 2 * tr
        else:
            coeffs[(tr * n + b * p) % order] += 1
        x = x * gt
    return CycInt(order, coeffs)


# (p, r, m) with q^m <= 2^10, small enough for per-element sums
_SMALL_TOWERS = [
    (p, r, m)
    for p, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1))
    for m in range(1, 11)
    if (p**r) ** m <= 1 << 10
]


def test_monomial_orthogonality():
    # n = 1: the full additive character sum minus the x = 0 term
    tw = build_tower(5, 1, 2)
    for i in (0, 3, 11):
        assert monomial_sum(tw, 2, i, 1).as_integer() == -1


def test_monomial_q4_t3_cubes():
    # computed by the naive oracle; the all-x values 16 / -8 match the
    # two-value semiprimitive pattern ((-1)^{N'-1}(N-1) sqrt(q^t), N'=3)
    tw = build_tower(2, 2, 3)
    for i in range(6):
        got = monomial_sum(tw, 3, i, 3)
        assert got == naive_monomial_sum(tw, 3, i, 3)
        val = got.as_integer()
        assert val == (15 if i % 3 == 0 else -9)
        assert val + 1 == monomial_closed_char2(2, 3, 3, i)


def test_monomial_semiprimitive_q9_quartics():
    # p=3, e=1, n=1 (r=2), s=4, t=1: the k_s = s/2 branch is active
    tw = build_tower(3, 2, 1)
    vals = [monomial_sum(tw, 1, i, 4).as_integer() for i in range(4)]
    closed = [monomial_closed_semiprimitive(3, 1, 1, 1, 4, i) for i in range(4)]
    assert vals == closed
    assert vals == [-4, -4, 8, -4]  # two-value pattern, shifted by k_4 = 2


def test_monomial_cap():
    tw = build_tower(2, 1, 8)
    with pytest.raises(EnumerationCapExceeded):
        monomial_sum(tw, 8, 0, 3, cap=100)
    # the orbit (256) fits the cap, but reading its one class costs 256 + p
    with pytest.raises(EnumerationCapExceeded):
        monomial_sum(tw, 8, 0, 1, cap=257)
    assert monomial_sum(tw, 8, 0, 1, cap=258).as_integer() == -1
    with pytest.raises(InvalidDegree):
        monomial_sum(build_tower(2, 1, 4), 3, 0, 1)  # F_8 is not inside F_16


def test_monomial_sum_reads_its_class_across_blocks(monkeypatch):
    # F_{4^5}* walked in blocks of 32, which none of the classes mod 33, 93 or 341 divides
    monkeypatch.setattr(fields, "_ORBIT_CHUNK", 7)
    tw = build_tower(2, 2, 5)
    for i, n in ((0, 1), (5, 33), (40, 93), (700, 341)):
        assert monomial_sum(tw, 5, i, n) == naive_monomial_sum(tw, 5, i, n)


def test_gauss_trivial_character():
    tw = build_tower(5, 1, 2)
    assert gauss_sum(tw, 2, 1, 0).as_integer() == -1


def test_gauss_f8_order7():
    tw = build_tower(2, 3, 1)
    g = gauss_sum(tw, 1, 7)
    cand = {
        c: (CycInt.integer(7, -1) + sqrt_minus(7, 7) * c).embed(14) for c in (1, -1)
    }
    assert g == cand[1] or g == cand[-1]
    assert (g * g.conjugate()).as_integer() == 8


def test_gauss_f16_order15():
    tw = build_tower(2, 4, 1)
    g = gauss_sum(tw, 1, 15)
    cand = {
        c: (CycInt.integer(15, 1) + sqrt_minus(15, 15) * c).embed(30) for c in (1, -1)
    }
    assert g == cand[1] or g == cand[-1]
    assert (g * g.conjugate()).as_integer() == 16


def test_gauss_modulus_invariant():
    # |G|^2 = q^t for every nontrivial character computed
    for p, r, t in [(3, 1, 2), (5, 1, 1), (2, 2, 2), (7, 1, 1)]:
        tw = build_tower(p, r, t)
        n_max = tw.q**t - 1
        for n in divisors(n_max):
            if n == 1:
                continue
            for k in range(1, n):
                g = gauss_sum(tw, t, n, k)
                want = tw.q**t if k % n else -1
                assert (g * g.conjugate()).as_integer() == tw.q**t


def test_gauss_folded_matches_unfolded():
    tw = build_tower(2, 2, 2)
    folded = gauss_sum_folded(tw, 2, 5)
    full = gauss_sum(tw, 2, 5)
    assert folded.embed(10) == full


def test_dh_identity_t_prime_one():
    tw = build_tower(2, 3, 1)
    assert gauss_sum_lifted(tw, 1, 7) == gauss_sum_folded(tw, 1, 7)


def test_dh_f8_to_f64():
    # G over F_64 equals -F_3(chi)^2 with the norm-compatible character
    tower = build_tower(2, 3, 2)
    f3 = gauss_sum_folded(tower, 1, 7)
    lifted = gauss_sum_lifted(tower, 2, 7)
    assert lifted == -(f3 * f3) + CycInt.integer(7, 0)
    direct = gauss_sum_folded(tower, 2, 7)
    assert lifted == direct


def test_dh_consistency_grid():
    # all character orders N | 2^{r'} - 1, r' <= 4, t' <= 3
    for r_small in (1, 2, 3, 4):
        for n in divisors(2**r_small - 1):
            if n == 1:
                continue
            for t_prime in (1, 2, 3):
                for k in range(1, n):
                    assert dh_consistency_check(r_small, t_prime, n, k), (
                        r_small,
                        n,
                        t_prime,
                        k,
                    )


def test_dh_modulus():
    tower = build_tower(2, 4, 3)
    g = gauss_sum_lifted(tower, 3, 15, 2)
    assert (g * g.conjugate()).as_integer() == 2**12


def naive_jacobi(field, n, k, t):
    """Independent oracle: direct iteration over all t-tuples summing to 1."""
    import itertools

    q = field.order
    elems = [field.from_index(i) for i in range(q)]
    dlog = {}
    cur = field.one
    for e in range(q - 1):
        dlog[cur.index] = e
        cur = cur * field.generator
    coeffs = [0] * n
    const = 0
    for tup in itertools.product(range(q), repeat=t - 1):
        total = field.zero
        prod_ok = True
        logsum = 0
        for i in tup:
            total = total + elems[i]
            if i == 0:
                prod_ok = False
            else:
                logsum += dlog[i]
        last = field.one - total
        if not prod_ok or last.is_zero():
            if k % n == 0:
                const += 1
            continue
        coeffs[(logsum + dlog[last.index]) * k % n] += 1
    coeffs[0] += const
    return CycInt(n, coeffs)


def test_jacobi_t1():
    f5 = build_field(5, 1)
    assert jacobi_brute(f5, 2, 1, 1).as_integer() == 1


def test_jacobi_p5_quadratic():
    f5 = build_field(5, 1)
    val = jacobi_brute(f5, 2, 1, 2)
    assert val == naive_jacobi(f5, 2, 1, 2)
    assert val.as_integer() == -1


def test_jacobi_trivial_counts_solutions():
    f5 = build_field(5, 1)
    for t in (2, 3):
        val = jacobi_brute(f5, 4, 0, t)
        assert val.as_integer() == 5 ** (t - 1)
        assert val == naive_jacobi(f5, 4, 0, t)


def test_jacobi_extension_field():
    f9 = build_field(3, 2)
    for n, k, t in [(2, 1, 2), (4, 1, 2), (8, 3, 2), (2, 1, 3)]:
        assert jacobi_brute(f9, n, k, t) == naive_jacobi(f9, n, k, t)
    # characteristic 2, where indices add by xor; F_{2^12} is 4096 elements
    for r, n, k, t in [(4, 15, 1, 2), (4, 5, 2, 3), (4, 3, 0, 2), (8, 17, 3, 2), (8, 255, 1, 2), (12, 13, 1, 2), (12, 4095, 7, 2)]:
        f = build_field(2, r)
        assert jacobi_brute(f, n, k, t) == naive_jacobi(f, n, k, t), (r, n, k, t)


def test_jacobi_hermitian_symmetry():
    # J_t(conj lambda) = conj(J_t(lambda))
    for p, n, t in [(7, 3, 2), (13, 4, 3), (5, 4, 2), (13, 3, 4)]:
        f = build_field(p, 1)
        for k in range(1, n):
            a = jacobi_brute(f, n, n - k, t)
            b = jacobi_brute(f, n, k, t).conjugate()
            assert a == b


# (p, r): p = 2 and odd r > 1 included; each is checked at every t <= 4 with q^{t-1} <= 2^16
_CLASS_COUNT_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 12), (3, 1), (3, 2), (3, 3)]
_CLASS_COUNT_FIELDS += [(3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 1), (31, 1), (37, 1)]


@settings(derandomize=True, max_examples=4, deadline=None)
@given(data=st.data())
def test_class_counts_match_the_tuple_walk(data):
    # one walk by q - 1 classes folds onto the class counts of every n | q - 1; then the
    # Jacobi sum at a drawn (n, k) against its own walk
    for p, r in _CLASS_COUNT_FIELDS:
        field, q = build_field(p, r), p**r
        for t in range(1, 5):
            if q ** (t - 1) > 1 << 16:
                break
            walked, _ = jacobi_tuples(field, q - 1, 1, t)
            for n in divisors(q - 1):
                assert jacobi_class_counts(field, n, t).tolist() == walked.reshape(-1, n).sum(axis=0).tolist(), (q, n, t)
            n = data.draw(st.sampled_from(divisors(q - 1)), label=f"n at q = {q}, t = {t}")
            k = data.draw(st.integers(0, n - 1), label=f"k at q = {q}, n = {n}, t = {t}")
            assert jacobi_brute(field, n, k, t) == jacobi_tuple_walk(field, n, k, t), (q, n, k, t)


def test_class_counts_refuse_bad_orders_and_int64_overflow():
    # q^{t-1} = 2^64 tuples could overflow; refused before any table is read
    with pytest.raises(CapExceeded):
        jacobi_class_counts(build_field(2, 16), 3, 5)
    with pytest.raises(ValidationError):
        jacobi_class_counts(build_field(5, 1), 3, 2)


def test_class_counts_of_one_variable_build_no_table(monkeypatch):
    # A_1 = delta_0 needs no log table, however large q; the cap's q^0 = 1 bounds nothing
    field = build_field(2, 40)

    def no_table(self):
        raise AssertionError("a log table was built for t = 1")

    monkeypatch.setattr(fields.FieldCtx, "log_table", no_table)
    assert jacobi_class_counts(field, 3, 1).tolist() == [1, 0, 0]
    assert jacobi_brute(field, 3, 1, 1) == CycInt(3, [1, 0, 0])


@pytest.mark.parametrize("p,r", [(2, 4), (2, 6), (3, 2), (7, 1), (13, 1)])
def test_sums_at_chi_k_are_galois_conjugates(p, r):
    # the sum at chi^k is sigma_k of the sum at chi, coefficient for coefficient
    q = p**r
    field, tower = build_field(p, r), build_tower(p, r, 2)
    for n in divisors(q - 1)[1:]:
        for k in range(1, n):
            if math.gcd(k, n) != 1:
                continue
            for t in (2, 3):
                base = jacobi_brute(field, n, 1, t).galois(k)
                assert jacobi_brute(field, n, k, t).coeffs == base.coeffs, (n, k, t)
            if p != 2:
                continue
            for t in (1, 2):
                base = gauss_sum_folded(tower, t, n).galois(k)
                assert gauss_sum_folded(tower, t, n, k).coeffs == base.coeffs
            for t_prime in (1, 2, 3):
                base = gauss_sum_lifted(tower, t_prime, n).galois(k)
                assert gauss_sum_lifted(tower, t_prime, n, k).coeffs == base.coeffs


def test_gauss_power_jacobi_relation():
    # G_1(lambda)^t = -q J_t(lambda) for lambda != lambda_0 of order dividing t
    for p in (5, 7, 13):
        for t in (2, 3, 4):
            for n in divisors(t):
                if n == 1 or (p - 1) % n != 0:
                    continue
                tw = build_tower(p, 1, 1)
                f = build_field(p, 1)
                for k in range(1, n):
                    g1 = gauss_sum(tw, 1, n, k)
                    jt = jacobi_brute(f, n, k, t)
                    lhs = g1**t
                    rhs = (jt * (-p)).embed(p * n)
                    assert lhs == rhs, (p, t, n, k)


def test_char_connect_examples():
    # n = 1 reduces to the G(lambda_0) = -1 identity
    tw = build_tower(3, 1, 2)
    rep = char_connect_check(tw, 2, tw.gamma[2], 1)
    assert rep.equal

    tw = build_tower(5, 1, 2)
    assert char_connect_check(tw, 2, tw.gamma[2], 2).equal

    tw = build_tower(2, 2, 2)
    for i in range(3):
        alpha = tw.gamma[2] ** i
        assert char_connect_check(tw, 2, alpha, 3).equal


def test_prop1_closed_vs_direct_grid():
    # (p, e, n) with q^t small: every residue class i mod s
    for p, e, n in [(2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1)]:
        r = 2 * e * n
        q = p**r
        for s in divisors(p**e + 1):
            for t in (1, 2, 3):
                if q**t > 2**16:
                    continue
                tw = build_tower(p, r, t)
                for i in range(s):
                    direct = monomial_sum(tw, t, i, s).as_integer()
                    assert direct == monomial_closed_semiprimitive(p, e, n, t, s, i)


def test_gauss_folded_rejects_an_order_not_dividing_the_group():
    # 7 does not divide 2^4 - 1; the folded sum must refuse as gauss_sum does
    tw = build_tower(2, 4, 2)
    with pytest.raises(ValidationError):
        gauss_sum(tw, 1, 7)
    with pytest.raises(ValidationError):
        gauss_sum_folded(tw, 1, 7)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(tower=st.sampled_from(_SMALL_TOWERS), data=st.data())
def test_histogram_sums_match_per_element_sums(tower, data):
    tw = build_tower(*tower)
    t = data.draw(st.sampled_from(divisors(tw.m)), label="t")
    big_q = tw.q**t - 1
    i = data.draw(st.integers(0, 2 * big_q), label="i")
    n = data.draw(st.integers(1, 2 * big_q), label="n")  # need not divide q^t - 1
    assert monomial_sum(tw, t, i, n) == naive_monomial_sum(tw, t, i, n)
    order = data.draw(st.sampled_from(divisors(big_q)), label="order")
    k = data.draw(st.integers(0, 2 * order), label="k")
    assert gauss_sum(tw, t, order, k) == naive_gauss_sum(tw, t, order, k)
    if tw.p == 2:
        assert gauss_sum_folded(tw, t, order, k) == naive_gauss_sum(tw, t, order, k, fold=True)
