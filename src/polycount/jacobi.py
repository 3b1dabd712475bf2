"""Closed-form Jacobi sums for characters of order 2, 3, 4 over F_p.

The quartic and cubic cases need the classical diophantine parameters
(a4, b4) with a4^2 + b4^2 = p and (a3, b3) with a3^2 + 3 b3^2 = p, pinned
by congruences that depend on the primitive root g fixing the character
normalization chi(g) = i (resp. zeta_3).  The parameter searches are
exhaustive and raise BadResidue unless exactly one pair is found.

Order 2 works over any odd prime power q with rho the quadratic
character; orders 3 and 4 are restricted to q = p, where the values lie in
Z[zeta_3] = CycInt(3) and Z[i] = CycInt(4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import CycInt
from .errors import BadResidue, UnsupportedGeneralQ, ValidationError
from .intmath import factorize, is_prime, legendre


@dataclass(frozen=True)
class QuarticParams:
    """p = a4^2 + b4^2 with the sign conventions tied to the primitive root g."""

    p: int
    g: int
    a4: int
    b4: int
    f: int  # (p - 1) / 4

    @property
    def pi(self) -> CycInt:
        return CycInt(4, (self.a4, self.b4, 0, 0)) * (-1 if self.f % 2 else 1)


@dataclass(frozen=True)
class CubicParams:
    """p = a3^2 + 3 b3^2 with sign conventions tied to g; pi carries chi(2)."""

    p: int
    g: int
    a3: int
    b3: int
    chi2_exp: int  # chi(2) = zeta_3^chi2_exp

    @property
    def pi(self) -> CycInt:
        # a3 + b3 sqrt(-3), with sqrt(-3) = 1 + 2 zeta_3
        base = CycInt(3, (self.a3 + self.b3, 2 * self.b3, 0))
        return CycInt.root(3, self.chi2_exp) * base


def _check_primitive_root(g: int, p: int):
    """g has order p - 1 mod p: g^((p - 1)/l) != 1 for every prime l | p - 1, and g != 0."""
    if g % p == 0 or any(pow(g, (p - 1) // ell, p) == 1 for ell in factorize(p - 1)):
        raise ValidationError(f"{g} is not a primitive root mod {p}")


def quartic_params(p: int, g: int) -> QuarticParams:
    """The unique (a4, b4) with a4^2 + b4^2 = p, a4 = -(2|p) mod 4,
    b4 = a4 * g^{(p-1)/4} mod p."""
    if not is_prime(p) or p % 4 != 1:
        raise BadResidue(f"need a prime p = 1 mod 4, got {p}")
    _check_primitive_root(g, p)
    want_a = (-legendre(2, p)) % 4
    gp = pow(g, (p - 1) // 4, p)
    found = []
    for a in range(-math.isqrt(p), math.isqrt(p) + 1):
        rest = p - a * a
        b = math.isqrt(rest) if rest >= 0 else -1
        if b < 0 or b * b != rest:
            continue
        for bb in ({b, -b}):
            if a % 4 == want_a and (bb - a * gp) % p == 0:
                found.append((a, bb))
    if len(found) != 1:
        raise BadResidue(f"quartic parameter search found {found}, expected one pair")
    a4, b4 = found[0]
    return QuarticParams(p=p, g=g, a4=a4, b4=b4, f=(p - 1) // 4)


def cubic_params(p: int, g: int) -> CubicParams:
    """The unique (a3, b3) with a3^2 + 3 b3^2 = p, a3 = -1 mod 3,
    3 b3 = (2 g^{(p-1)/3} + 1) a3 mod p."""
    if not is_prime(p) or p % 3 != 1:
        raise BadResidue(f"need a prime p = 1 mod 3, got {p}")
    _check_primitive_root(g, p)
    gp = pow(g, (p - 1) // 3, p)
    found = []
    for a in range(-math.isqrt(p), math.isqrt(p) + 1):
        rest = p - a * a
        if rest < 0 or rest % 3 != 0:
            continue
        b = math.isqrt(rest // 3)
        if 3 * b * b != rest:
            continue
        for bb in ({b, -b}):
            if a % 3 == 2 and (3 * bb - (2 * gp + 1) * a) % p == 0:
                found.append((a, bb))
    if len(found) != 1:
        raise BadResidue(f"cubic parameter search found {found}, expected one pair")
    a3, b3 = found[0]
    # chi(2) = zeta^{dlog_g(2) mod 3}, read off 2^{(p-1)/3} = gp^j
    two = pow(2, (p - 1) // 3, p)
    chi2_exp = next(j for j in range(3) if pow(gp, j, p) == two)
    return CubicParams(p=p, g=g, a3=a3, b3=b3, chi2_exp=chi2_exp)


def rho_minus_one(q: int) -> int:
    """rho(-1) = (-1)^{(q-1)/2} for the quadratic character of F_q, q odd."""
    if q % 2 == 0:
        raise BadResidue("quadratic character needs odd q")
    return -1 if ((q - 1) // 2) % 2 else 1


def jacobi_closed(order: int, t: int, q: int, params=None):
    """Closed-form J_t for the canonical character of the given order.

    order 2: any odd q, returns an int.  order 4: q = p = 1 mod 4,
    returns a CycInt(4), an element of Z[i].  order 3: q = p = 1 mod 3,
    returns a CycInt(3), an element of Z[zeta_3].  Branches select on
    t mod 4, t mod 3, or parity.
    """
    if t < 1:
        raise ValidationError("t must be >= 1")
    if order == 2:
        if q % 2 == 0:
            raise BadResidue("order-2 closed form needs odd q")
        rm1 = rho_minus_one(q)
        if t % 2 == 0:
            return -(rm1 ** ((t // 2) % 2)) * q ** ((t - 2) // 2)
        return (rm1 ** (((t - 1) // 2) % 2)) * q ** ((t - 1) // 2)
    if order == 4:
        if params is None or not isinstance(params, QuarticParams):
            raise ValidationError("order-4 closed form needs QuarticParams")
        if params.p != q:
            raise UnsupportedGeneralQ(
                "order-4 closed form is only available at q = p; use jacobi_brute"
            )
        p, pi = params.p, params.pi
        r = t % 4
        if r == 0:
            return -(p ** ((t - 4) // 4)) * pi ** (t // 2)
        if r == 1:
            return p ** ((t - 1) // 4) * pi ** ((t - 1) // 2)
        if r == 2:
            return p ** ((t - 2) // 4) * pi ** (t // 2)
        sign = -1 if params.f % 2 else 1
        return sign * p ** ((t - 3) // 4) * pi ** ((t + 1) // 2)
    if order == 3:
        if params is None or not isinstance(params, CubicParams):
            raise ValidationError("order-3 closed form needs CubicParams")
        if params.p != q:
            raise UnsupportedGeneralQ(
                "order-3 closed form is only available at q = p; use jacobi_brute"
            )
        p, pi = params.p, params.pi
        r = t % 3
        if r == 0:
            return -(p ** ((t - 3) // 3)) * pi ** (t // 3)
        if r == 1:
            return p ** ((t - 1) // 3) * pi ** ((t - 1) // 3)
        return p ** ((t - 2) // 3) * pi ** ((t + 1) // 3)
    raise ValidationError(f"no closed form for character order {order}")
