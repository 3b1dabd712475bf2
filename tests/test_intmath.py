from reference import necklace_count

from polycount.fields import build_field
from polycount.intmath import (
    cyclotomic_poly,
    divisors,
    factor_prime_power_order,
    factorize,
    is_prime,
    legendre,
    mobius,
    multiplicative_order,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 8191, 2**13 - 1]
    for p in primes:
        assert is_prime(p)
    for n in [0, 1, 4, 9, 15, 2**11 - 1, 10**6]:
        assert not is_prime(n)


def test_factorize_roundtrip():
    for n in [2, 12, 360, 2**20 - 1, 3**10 - 1, 97 * 89, 2**22 - 1]:
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_divisors_and_mobius():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert [mobius(k) for k in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_orders():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 23) == 11
    assert multiplicative_order(2, 9) == 6
    assert multiplicative_order(2, 27) == 18


def test_primitive_root_and_legendre():
    # the smallest primitive root mod p is F_p's canonical generator
    assert build_field(5, 1).generator_index == 2
    assert build_field(13, 1).generator_index == 2
    assert legendre(2, 5) == -1
    assert legendre(4, 5) == 1
    assert legendre(0, 7) == 0


def test_necklace_counts():
    # brute necklace oracle: count monic irreducible degree-m over F_q by
    # explicit polynomial iteration; the Rabin test must reject every other one
    from polycount.fields import build_field, poly_is_irreducible

    for p, r, top in [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 3), (2, 3, 3), (3, 2, 3)]:
        field = build_field(p, r)
        q = field.order
        for m in range(1, top + 1):
            direct = 0
            for code in range(q**m):
                coeffs = [(code // q**i) % q for i in range(m)] + [1]
                if poly_is_irreducible(coeffs, field):
                    direct += 1
            assert necklace_count(q, m) == direct, (q, m)


def test_cyclotomic_poly_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # product over d | n of Phi_d = x^n - 1
    from polycount.intmath import poly_mul_z

    for n in (6, 10, 12, 15):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul_z(prod, list(cyclotomic_poly(d)))
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


def test_factor_prime_power_order():
    for p, n in [(2, 12), (3, 6), (5, 4)]:
        fac = dict(factor_prime_power_order(p, n))
        prod = 1
        for q, e in fac.items():
            prod *= q**e
        assert prod == p**n - 1
