import pytest
from reference import jacobi_tuple_walk

from polycount.charsums import jacobi_brute
from polycount.errors import BadResidue, UnsupportedGeneralQ
from polycount.fields import build_field
from polycount.jacobi import (
    cubic_params,
    jacobi_closed,
    quartic_params,
)


def exhaustive_quartic(p, g):
    """Independent oracle: try every (a, b) with a^2 + b^2 = p."""
    from polycount.intmath import legendre

    want_a = (-legendre(2, p)) % 4
    gp = pow(g, (p - 1) // 4, p)
    out = []
    for a in range(-p, p + 1):
        for b in range(-p, p + 1):
            if a * a + b * b == p and a % 4 == want_a and (b - a * gp) % p == 0:
                out.append((a, b))
    return out


def exhaustive_cubic(p, g):
    out = []
    gp = pow(g, (p - 1) // 3, p)
    for a in range(-p, p + 1):
        for b in range(-p, p + 1):
            if a * a + 3 * b * b == p and a % 3 == 2 and (3 * b - (2 * gp + 1) * a) % p == 0:
                out.append((a, b))
    return out


def test_quartic_params_examples():
    qp = quartic_params(5, 2)
    assert (qp.a4, qp.b4) == (1, 2)
    qp = quartic_params(13, 2)
    assert (qp.a4, qp.b4) == (-3, 2)


def test_quartic_params_match_exhaustive_and_unique():
    for p, g in [(5, 2), (13, 2), (17, 3), (29, 2), (37, 2)]:
        found = exhaustive_quartic(p, g)
        assert len(found) == 1
        qp = quartic_params(p, g)
        assert (qp.a4, qp.b4) == found[0]
        pi = qp.pi
        assert pi * pi.conjugate() == p


def test_cubic_params_examples():
    cp = cubic_params(7, 3)
    assert (cp.a3, cp.b3) == (2, 1)
    cp = cubic_params(13, 2)
    assert (cp.a3, cp.b3) == (-1, 2)


def test_cubic_params_match_exhaustive_and_unique():
    for p, g in [(7, 3), (13, 2), (19, 2), (31, 3), (37, 2)]:
        found = exhaustive_cubic(p, g)
        assert len(found) == 1
        cp = cubic_params(p, g)
        assert (cp.a3, cp.b3) == found[0]
        assert cp.pi * cp.pi.conjugate() == p


def test_bad_residue():
    with pytest.raises(BadResidue):
        quartic_params(7, 3)  # 7 = 3 mod 4
    with pytest.raises(BadResidue):
        cubic_params(5, 2)  # 5 = 2 mod 3


def test_closed_order2_examples():
    # p = 1 mod 4 so rho(-1) = 1: J_2(rho) = -1
    assert jacobi_closed(2, 2, 5) == -1
    assert jacobi_closed(2, 2, 5) == jacobi_brute(build_field(5, 1), 2, 1, 2).as_integer()


def test_closed_order4_t1():
    qp = quartic_params(5, 2)
    assert jacobi_closed(4, 1, 5, qp) == 1


def test_closed_order3_t3():
    cp = cubic_params(7, 3)
    got = jacobi_closed(3, 3, 7, cp)
    assert got == -cp.pi
    assert got == jacobi_brute(build_field(7, 1), 3, 1, 3)


def test_unsupported_general_q():
    qp = quartic_params(5, 2)
    with pytest.raises(UnsupportedGeneralQ):
        jacobi_closed(4, 2, 25, qp)


def test_closed_vs_brute_full_grid():
    # all p <= 37 with the right residue, t <= 4, exact CycInt equality with the tuple walk
    for p in (5, 13, 17, 29, 37):
        f = build_field(p, 1)
        qp = quartic_params(p, f.generator_index)
        for t in range(1, 5):
            assert jacobi_closed(4, t, p, qp) == jacobi_tuple_walk(f, 4, 1, t)
    for p in (7, 13, 19, 31, 37):
        f = build_field(p, 1)
        cp = cubic_params(p, f.generator_index)
        for t in range(1, 5):
            assert jacobi_closed(3, t, p, cp) == jacobi_tuple_walk(f, 3, 1, t)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        f = build_field(p, 1)
        for t in range(1, 5):
            assert jacobi_closed(2, t, p) == jacobi_tuple_walk(f, 2, 1, t).as_integer()


def test_closed_order2_general_q():
    # odd prime powers, not just primes
    for p, r in [(3, 2), (5, 2), (3, 3)]:
        f = build_field(p, r)
        q = p**r
        for t in range(1, 4):
            assert jacobi_closed(2, t, q) == jacobi_brute(f, 2, 1, t).as_integer()


def test_jacobi_modulus_invariant():
    # |J_t(lambda)|^2 = q^{t-1} when lambda and lambda^t are nontrivial
    for p, n, t in [(5, 4, 2), (5, 4, 3), (7, 3, 2), (13, 4, 2), (13, 3, 2)]:
        f = build_field(p, 1)
        for k in range(1, n):
            if (k * t) % n == 0:
                continue
            j = jacobi_brute(f, n, k, t)
            assert (j * j.conjugate()).as_integer() == p ** (t - 1)


def test_primitive_root_check_matches_enumeration():
    from polycount.errors import ValidationError
    from polycount.jacobi import _check_primitive_root

    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 97):
        for g in range(-p, 2 * p):
            want = {pow(g, k, p) for k in range(1, p)} == set(range(1, p))
            try:
                _check_primitive_root(g, p)
                got = True
            except ValidationError:
                got = False
            assert got == want, (g, p)


def test_primitive_root_check_near_a_billion():
    import time

    from polycount.errors import ValidationError
    from polycount.jacobi import _check_primitive_root

    p = 1_000_000_007  # p - 1 = 2 * 500000003
    start = time.perf_counter()
    _check_primitive_root(5, p)
    with pytest.raises(ValidationError):
        _check_primitive_root(4, p)  # a square
    with pytest.raises(ValidationError):
        _check_primitive_root(p, p)
    assert time.perf_counter() - start < 1
