"""Elementary number theory over plain Python integers.

Everything here is exact and deterministic: Miller-Rabin with a fixed
witness set (deterministic far beyond desk scale), factoring by trial
division plus Pollard rho, and the usual multiplicative gadgets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import InvariantError

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


@lru_cache(maxsize=128)
def factorize(n: int) -> MappingProxyType[int, int]:
    """Prime factorization as a read-only {prime: exponent}, checked to multiply back to n."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    rest = n
    for p in _SMALL_PRIMES:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    # trial division up to 2^16 keeps rho off easy composites
    f = 49
    while f * f <= rest and f < 1 << 16:
        if rest % f == 0:
            out[f] = out.get(f, 0) + 1
            rest //= f
        else:
            f += 2
    stack = [rest] if rest > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _pollard_rho(v)
        stack.append(d)
        stack.append(v // d)
    if math.prod(q**e for q, e in out.items()) != n:
        raise InvariantError(f"the factors of {n} do not multiply back")
    return MappingProxyType(dict(sorted(out.items())))


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


@lru_cache(maxsize=128)
def mobius(n: int) -> int:
    if n == 1:
        return 1
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*; a must be coprime to n."""
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} not a unit mod {n}")
    order = euler_phi(n)
    for p, e in factorize(order).items():
        for _ in range(e):
            if pow(a, order // p, n) == 1:
                order //= p
            else:
                break
    return order


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    v = pow(a, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def sqrt_q_power(p: int, r: int, num: int) -> Fraction:
    """q^{num/2} for q = p^r as an exact Fraction; r * num must be even."""
    e = r * num
    if e % 2 != 0:
        raise InvariantError(f"odd power of sqrt({p}^{r}) in a rational term")
    e //= 2
    return Fraction(p**e) if e >= 0 else Fraction(1, p**-e)


# -- integer polynomials (dense, low degree first), used for cyclotomics --


def poly_mul_z(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_divmod_z(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Division of integer polynomials; b must be monic."""
    if b[-1] != 1:
        raise InvariantError("the divisor must be monic")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [0], a
    quo = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db]
        if c:
            quo[k] = c
            for j in range(db + 1):
                a[k + j] -= c * b[j]
    rem = a[:db] if db else [0]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quo, rem


@lru_cache(maxsize=128)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Built exactly from the Moebius product of (x^d - 1)^{mu(n/d)}.
    """
    num = [1]
    dens: list[list[int]] = []
    for d in divisors(n):
        mu = mobius(n // d)
        term = [-1] + [0] * (d - 1) + [1]  # x^d - 1
        if mu == 1:
            num = poly_mul_z(num, term)
        elif mu == -1:
            dens.append(term)
    for term in dens:
        num, rem = poly_divmod_z(num, term)
        if rem != [0]:
            raise InvariantError("cyclotomic division must be exact")
    return tuple(num)
