import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import schoolbook_cyc_pow

from polycount.catalog import _GAUSS_CANDIDATES, OMEGA_7, OMEGA_15, OMEGA_21, OMEGA_23, _re, _tr
from polycount.cyclotomic import (
    CycInt,
    integer_from_counts,
    quadratic_gauss_sum,
    sqrt_minus,
)
from polycount.errors import InvariantError, OrderMismatch


def test_root_sum_vanishes():
    z = CycInt.root(3, 1) + CycInt.root(3, 2) + 1
    assert z.as_integer() == 0


def test_zeta4_squared():
    assert (CycInt.root(4, 1) * CycInt.root(4, 1)).as_integer() == -1


def test_embed_minus_one():
    assert CycInt.root(2, 1).embed(6) == CycInt.root(6, 3)


def test_as_integer():
    assert CycInt(5, (2, 0, 0, 0, 0)).as_integer() == 2
    full = sum((CycInt.root(5, k) for k in range(1, 5)), CycInt.integer(5, 0))
    assert full.as_integer() == -1
    assert (CycInt.integer(5, 1) + CycInt.root(5, 1)).as_integer() is None


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        CycInt.root(3, 1) + CycInt.root(4, 1)


def test_reduction_idempotent():
    v = CycInt(12, tuple(range(12)))
    assert CycInt(12, v.reduced() + (0,) * (12 - len(v.reduced()))).reduced() == v.reduced()


def test_conjugate_is_index_negation():
    v = CycInt(7, (1, 2, 0, 0, 5, 0, 0))
    w = v.conjugate()
    assert w.coeffs == (1, 0, 0, 5, 0, 0, 2)


def test_sqrt_constructions():
    for d in (3, 7, 23):
        s = sqrt_minus(d, d)
        assert (s * s).as_integer() == -d
    s15 = sqrt_minus(15, 15)
    assert (s15 * s15).as_integer() == -15


def test_quadratic_gauss_sum_squares():
    # g_ell^2 = (-1|ell) * ell
    assert (quadratic_gauss_sum(5) * quadratic_gauss_sum(5)).as_integer() == 5
    assert (quadratic_gauss_sum(7) * quadratic_gauss_sum(7)).as_integer() == -7


# the catalog's index-2 constants (u + v sqrt(-D)) / sqrt(2)^k are integer tuples (D, u, v, k),
# read through catalog._re and _tr


def test_quadpow_norms():
    for (d, u, v, k), norm in zip((OMEGA_7, OMEGA_15, OMEGA_21, OMEGA_23), (1, 1, 16, 32)):
        assert Fraction(u * u + d * v * v, 2**k) == norm
        # w times conj(w) = (u - v sqrt(-D)) / sqrt(2)^k, so the sqrt(2) exponent is -2k
        assert _re((d, u, v, k), 1, (u, -v), -k) == norm


def test_quadpow_pow_and_grading():
    # omega_7^3 = (1 + sqrt(-7))^3 / sqrt(2)^9 = (-20 - 4 sqrt(-7)) / sqrt(2)^9
    assert _tr(OMEGA_7, 3, 9) == -40
    assert _tr(OMEGA_7, 3, 5) == -10
    assert _tr(OMEGA_7, 1, 1) == 1  # 2 Re((1 + sqrt(-7)) / sqrt(8)) = 1 / sqrt(2)
    assert _tr(OMEGA_21, 2, 0) == 4  # (3 + sqrt(-7))^2 = 2 + 6 sqrt(-7)
    # trace * sqrt2^odd parity mismatch raises
    with pytest.raises(ValueError):
        _tr(OMEGA_7, 2, 1)


def test_quadpow_to_cyc_round_trip():
    d, u, v = _GAUSS_CANDIDATES[7](1)  # -1 + sqrt(-7)
    c = CycInt.integer(7, u) + sqrt_minus(d, 7) * v
    conj = CycInt.integer(7, u) - sqrt_minus(d, 7) * v
    assert (c * conj).as_integer() == 8  # norm 1 + 7


def test_gaussian_int():
    i = CycInt.root(4, 1)
    assert i * i == -1
    z = CycInt(4, (1, 2, 0, 0))
    assert z * z.conjugate() == 5
    assert z.conjugate() == CycInt(4, (1, -2, 0, 0))
    assert (z**2).twice_real() == -6
    assert z.embed(12) * z.conjugate().embed(12) == CycInt.integer(12, 5)


def test_eisenstein_int():
    z = CycInt.root(3, 1)
    assert z * z == CycInt.root(3, 2)
    assert z * z * z == 1
    w = CycInt(3, (2 + 1, 2 * 1, 0))  # 2 + sqrt(-3), with sqrt(-3) = 1 + 2 zeta_3
    assert w * w.conjugate() == 7
    assert w.twice_real() == 4
    assert w == 2 + sqrt_minus(3, 3)


def test_twice_real_refuses_a_non_real_trace():
    # zeta_5 + zeta_5^4 = (sqrt(5) - 1) / 2 is not a rational integer
    with pytest.raises(InvariantError):
        CycInt.root(5, 1).twice_real()
    assert (CycInt.root(5, 1) + CycInt.root(5, 2) + CycInt.root(5, 3) + CycInt.root(5, 4)).twice_real() == -2


def test_serialization():
    v = CycInt.root(6, 2) * 3
    assert v.serialize() == [0, 0, 3, 0, 0, 0]


def test_cycint_ring_axioms_random():
    import random

    rng = random.Random(97)
    for order in (5, 6, 12):
        vals = [
            CycInt(order, [rng.randrange(-9, 10) for _ in range(order)]) for _ in range(4)
        ]
        a, b, c, _ = vals
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * CycInt.integer(order, 1) == a
        assert (a - a).is_zero()
        assert a**3 == a * a * a
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@st.composite
def _cyc_vectors(draw):
    """An order L and three random coefficient vectors of length L."""
    order = draw(st.sampled_from([1, 2, 5, 7, 12, 15, 21, 25, 63]))
    vec = st.lists(st.integers(-20, 20), min_size=order, max_size=order)
    return order, [CycInt(order, draw(vec)) for _ in range(3)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_cyc_vectors(), data=st.data())
def test_galois_is_a_ring_automorphism_coefficientwise(case, data):
    order, (a, b, c) = case
    units = [k for k in range(-order, 2 * order) if math.gcd(k, order) == 1]
    k = data.draw(st.sampled_from(units))
    k2 = data.draw(st.sampled_from(units))
    n = data.draw(st.integers(0, 6))
    ga, gb, gc = a.galois(k), b.galois(k), c.galois(k)
    # coefficient vectors, not only their reductions mod Phi_L
    assert (a + b).galois(k).coeffs == (ga + gb).coeffs
    assert (a * b).galois(k).coeffs == (ga * gb).coeffs
    assert (a * b + c).galois(k).coeffs == (ga * gb + gc).coeffs
    assert (a**n).galois(k).coeffs == (ga**n).coeffs
    assert (-a).galois(k).coeffs == (-ga).coeffs
    assert a.galois(k2).galois(k).coeffs == a.galois(k * k2).coeffs
    assert a.galois(1).coeffs == a.coeffs
    assert a.galois(k + order).coeffs == ga.coeffs
    assert a.conjugate().coeffs == a.galois(-1).coeffs
    assert sorted(ga.coeffs) == sorted(a.coeffs)


@pytest.mark.parametrize("order", [2, 4, 6, 12, 15, 25, 63])
def test_galois_refuses_a_non_unit(order):
    a = CycInt.root(order, 1)
    for k in range(-order, 2 * order):
        if math.gcd(k, order) != 1:
            with pytest.raises(ValueError):
                a.galois(k)
        else:
            assert a.galois(k).coeffs == CycInt.root(order, k).coeffs


_PRIMES_TO_37 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@st.composite
def _count_vectors(draw):
    """(p, counts) for a prime p <= 37; about half the vectors have counts[1] = ... = counts[p - 1]."""
    p = draw(st.sampled_from(_PRIMES_TO_37), label="p")
    entries = st.integers(-(10**12), 10**12)
    if draw(st.booleans(), label="integer"):
        c0, c1 = draw(entries, label="c0"), draw(entries, label="c1")
        return p, [c0] + [c1] * (p - 1)
    return p, draw(st.lists(entries, min_size=p, max_size=p), label="counts")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_count_vectors())
def test_integer_read_matches_the_cyclotomic_reduction(case):
    # the direct read c_0 - c_1 against the reduction modulo the p-th cyclotomic polynomial
    p, counts = case
    want = CycInt.from_counts(p, counts).as_integer()
    if want is None:
        with pytest.raises(InvariantError):
            integer_from_counts(counts)
    else:
        assert integer_from_counts(counts) == want


@st.composite
def _power_cases(draw):
    """(L, coefficients, n): L <= 64, a sparse or dense vector with entries up to 2^80, n <= 130."""
    order = draw(st.integers(1, 64), label="L")
    bits = draw(st.integers(0, 80), label="bits")
    entry = st.integers(-(1 << bits), 1 << bits)
    if draw(st.booleans(), label="sparse"):
        terms = draw(st.dictionaries(st.integers(0, order - 1), entry, max_size=3), label="terms")
        coeffs = [terms.get(e, 0) for e in range(order)]
    else:
        coeffs = draw(st.lists(entry, min_size=order, max_size=order), label="coeffs")
    return order, coeffs, draw(st.integers(0, 130), label="n")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_power_cases())
@example(case=(6, [0] * 6, 9))  # zero
@example(case=(6, [0] * 6, 0))  # 0^0 = 1
@example(case=(3, [4, -2, 7], 0))
@example(case=(1, [-3], 11))
# one coefficient -(2^k - 1): |coefficient of x^n| = (sum |c_i|)^n, where the packing bound is tight
@example(case=(1, [-(2**13 - 1)], 5))
@example(case=(4, [0, -(2**13 - 1), 0, 0], 5))
@example(case=(7, [0, 0, 0, 0, 0, 0, -(2**40 - 1)], 3))
def test_power_matches_the_schoolbook_power(case):
    order, coeffs, n = case
    x = CycInt(order, coeffs)
    # coefficient vectors, not only their reductions mod Phi_L
    assert (x**n).coeffs == schoolbook_cyc_pow(x, n).coeffs
