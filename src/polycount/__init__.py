"""Exact counting of irreducible polynomials with prescribed trace and
restricted norm over finite fields.

Everything is integer-exact: field arithmetic on coordinate vectors,
character sums in rings of roots of unity, and closed-form tables checked
against a brute-force oracle.
"""

from .catalog import classify, coset2, p2_closed_pm, p2_general_pm
from .charsums import gauss_sum, jacobi_brute, monomial_sum
from .counting import CountSpec, p_m
from .fields import build_field, build_tower, min_poly
from .jacobi import cubic_params, jacobi_closed, quartic_params
from .oracle import brute_p_m, list_polys

from . import catalog as _catalog
from . import counting as _counting
from . import cyclotomic as _cyclotomic
from . import fields as _fields
from . import oracle as _oracle

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module cache that holds fields or values derived from them.

    Answers never depend on cache state; this only returns the process to
    a cold start.  intmath's caches, each bounded, hold pure integer functions
    and stay.
    """
    _fields.build_field.cache_clear()
    _fields._live_fields.clear()
    _fields.build_tower.cache_clear()
    _catalog.p2_context.cache_clear()
    _counting._quartic.cache_clear()
    _counting._cubic.cache_clear()
    _cyclotomic.quadratic_gauss_sum.cache_clear()
    _oracle._scan_cache.clear()
