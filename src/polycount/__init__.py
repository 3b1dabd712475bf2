"""Exact counting of irreducible polynomials with prescribed trace and
restricted norm over finite fields.

Everything is integer-exact: field arithmetic on coordinate vectors,
character sums in rings of roots of unity, and closed-form tables checked
against a brute-force oracle.
"""

from .catalog import (
    CatalogValue,
    Index2Class,
    classify,
    coset2,
    p2_closed_detail,
    p2_closed_pm,
    p2_context,
    p2_general_pm,
)
from .charsums import (
    MultChar,
    gauss_sum,
    gauss_sum_folded,
    gauss_sum_lifted,
    jacobi_brute,
    monomial_closed_char2,
    monomial_closed_semiprimitive,
    monomial_sum,
)
from .counting import (
    CountSpec,
    TParams,
    applicable_tables,
    derive_params,
    m_t_general,
    m_t_jacobi,
    m_t_lifted,
    n_t,
    n_t_special,
    n_t_table,
    p_m,
    p_m_prime_closed,
)
from .cyclotomic import (
    OMEGA_7,
    OMEGA_15,
    OMEGA_21,
    OMEGA_23,
    CycInt,
    QuadPow,
    quadratic_gauss_sum,
    sqrt_minus,
    zeta,
)
from .fields import (
    DEFAULT_ENUM_CAP,
    FieldCtx,
    FieldElement,
    TowerCtx,
    build_field,
    build_tower,
    min_poly,
    poly_is_irreducible,
)
from .intmath import (
    divisors,
    factorize,
    is_prime,
    legendre,
    mobius,
    multiplicative_order,
    necklace_count,
)
from .jacobi import (
    CubicParams,
    QuarticParams,
    cubic_params,
    jacobi_closed,
    quartic_params,
)
from .oracle import (
    DEFAULT_LISTING_CAP,
    DEFAULT_ORACLE_CAP,
    BruteResult,
    brute_n_t,
    brute_p_m,
    brute_scan,
    list_polys,
)

from . import counting as _counting
from . import fields as _fields
from . import oracle as _oracle

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module cache that holds fields or values derived from them.

    Answers never depend on cache state; this only returns the process to
    a cold start.  intmath's caches hold pure integer functions and stay.
    """
    build_field.cache_clear()
    _fields._live_fields.clear()
    build_tower.cache_clear()
    p2_context.cache_clear()
    _counting._quartic.cache_clear()
    _counting._cubic.cache_clear()
    quadratic_gauss_sum.cache_clear()
    _oracle._scan_cache.clear()
