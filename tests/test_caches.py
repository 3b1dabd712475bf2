from functools import partial

import numpy as np
import pytest

import polycount
from polycount import catalog, counting, cyclotomic, fields, intmath, oracle
from polycount.catalog import p2_closed_detail
from polycount.counting import METHODS, CountSpec, p_m, plan
from polycount.errors import CapExceeded, EnumerationCapExceeded, NotApplicable
from polycount.intmath import divisors, factorize, is_prime
from polycount.oracle import brute_p_m

# (p, r, m, s): together they plan every route of `auto`, `closed`,
# `general` and `table` except jacobi_brute
SPECS = [
    (2, 2, 3, 3), (3, 1, 4, 2), (5, 1, 3, 4), (7, 1, 2, 3),
    (13, 1, 2, 12), (2, 4, 2, 5), (3, 2, 2, 8), (2, 3, 3, 7),
]
# (r, m): inert, 7-, 15- and 21-families and the 2-adic branches
CATALOG = [(3, 5), (3, 7), (4, 6), (4, 15), (6, 9), (6, 21)]

LRU_CACHES = [
    fields.build_field,
    fields.build_tower,
    catalog.p2_context,
    counting._quartic,
    counting._cubic,
    cyclotomic.quadratic_gauss_sum,
]


def _every_method(p, r, m, s, a, h):
    spec = CountSpec.make(p, r, m, s, a=a, h=h)
    out = [spec.h, brute_p_m(spec)]
    for method in METHODS:
        try:
            plan(spec, method)
        except (NotApplicable, CapExceeded):
            out.append(None)
            continue
        out.append(p_m(spec, method))
    return tuple(out)


def _catalog(r, m, b_index):
    # b is built inside the call, so it always belongs to the current field
    value = p2_closed_detail(r, m, fields.build_field(2, r).from_index(b_index))
    return value.value, value.branch, value.signs


def _calls():
    calls = []
    for p, r, m, s in SPECS:
        for a in range(min(p**r, 3)):
            for h in range(s):
                calls.append(partial(_every_method, p, r, m, s, a, h))
    for r, m in CATALOG:
        for b_index in (1, 2, 7):
            calls.append(partial(_catalog, r, m, b_index))
    return calls


def test_values_do_not_depend_on_cache_state_or_call_order():
    calls = _calls()
    polycount.clear_caches()
    cold = [call() for call in calls]
    # the grid reaches every cache that clear_caches empties
    assert all(cache.cache_info().currsize for cache in LRU_CACHES)
    assert oracle._scan_cache
    assert [call() for call in calls] == cold

    polycount.clear_caches()
    assert not any(cache.cache_info().currsize for cache in LRU_CACHES)
    assert not oracle._scan_cache
    reverse = [call() for call in reversed(calls)]
    assert reverse[::-1] == cold


def test_trace_hist_cache_keeps_the_last_eight_tables():
    polycount.clear_caches()
    tower = fields.build_tower(2, 6, 2)
    keys = [(t, g) for t in (1, 2) for g in divisors(2 ** (6 * t) - 1)][:9]
    cold = [tower.trace_hist(t, g).copy() for t, g in keys]
    assert list(tower._trace_hists) == keys[1:]
    warm = [tower.trace_hist(t, g) for t, g in keys[1:]]
    assert all(np.array_equal(a, b) for a, b in zip(warm, cold[1:]))
    polycount.clear_caches()
    fresh = fields.build_tower(2, 6, 2)
    assert fresh is not tower
    assert all(np.array_equal(fresh.trace_hist(t, g), c) for (t, g), c in zip(keys, cold))


def test_cap_is_tested_on_warm_caches_too():
    tower = fields.build_tower(2, 3, 3)
    assert tower.orbit_abs_traces(3).shape == (511,)
    assert tower.trace_hist(3, 7).sum() == 511
    with pytest.raises(EnumerationCapExceeded):
        tower.orbit_abs_traces(3, cap=10)
    with pytest.raises(EnumerationCapExceeded):
        tower.trace_hist(3, 7, cap=10)


def _primes(count, start):
    out = []
    while len(out) < count:
        out += [start] if is_prime(start) else []
        start += 1
    return out


def _primitive_roots(p):
    return [g for g in range(2, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in factorize(p - 1))]


_ROOTS_337 = _primitive_roots(337)  # 337 = 1 mod 12 has 96 primitive roots

# (cache, key, its value as plain data, 64 other keys that push it out)
BOUNDED = [
    (fields.build_field, (5, 3), lambda f: (f.to_json(), f.log_table().tolist()),
     [(p, 1) for p in _primes(64, 7)]),
    (fields.build_tower, (2, 3, 2), lambda tw: (tw.to_json(), tw.orbit_abs_traces(2).tolist()),
     [(p, 1, 1) for p in _primes(64, 3)]),
    (catalog.p2_context, (4,), lambda ctx: (ctx.ind(3), ctx.resolve_gauss(15)),
     [(r,) for r in range(100, 164)]),
    (counting._quartic, (337, _ROOTS_337[0]), lambda v: v, [(337, g) for g in _ROOTS_337[1:65]]),
    (counting._cubic, (337, _ROOTS_337[0]), lambda v: v, [(337, g) for g in _ROOTS_337[1:65]]),
    (cyclotomic.quadratic_gauss_sum, (13,), lambda v: v, [(ell,) for ell in _primes(64, 17)]),
]


def test_every_lru_cache_is_bounded():
    assert [cache for cache, *_ in BOUNDED] == LRU_CACHES
    assert all(cache.cache_info().maxsize == 64 for cache in LRU_CACHES)


def test_intmath_caches_are_bounded_and_outlive_clear_caches():
    # pure integer functions: clear_caches leaves them, and each keeps at most 128 entries
    calls = [
        (intmath.mobius, (30,)),
        (intmath.cyclotomic_poly, (30,)),
        (intmath.factorize, (30,)),
    ]
    for cache, key in calls:
        assert cache.cache_info().maxsize == 128
        cache(*key)
    polycount.clear_caches()
    assert all(cache.cache_info().currsize for cache, _ in calls)
    with pytest.raises(TypeError):  # no caller can alter a cached factorization
        intmath.factorize(30)[2] = 2


@pytest.mark.parametrize("cache, key, value, others", BOUNDED, ids=[c.__name__ for c, *_ in BOUNDED])
def test_cold_warm_and_evicted_entries_agree(cache, key, value, others):
    polycount.clear_caches()
    first = cache(*key)
    cold = value(first)
    assert cache(*key) is first
    warm = value(first)
    del first
    for other in others:
        cache(*other)
    misses = cache.cache_info().misses
    evicted = value(cache(*key))
    assert cache.cache_info().misses == misses + 1  # rebuilt, not served from the cache
    assert evicted == cold == warm
    polycount.clear_caches()


def test_a_field_evicted_while_a_tower_holds_it_is_served_again():
    # elements of a fresh copy of F_3 would not embed in the cached tower's copy
    polycount.clear_caches()
    spec = CountSpec.make(3, 1, 2, 2, a=1, h=1)
    want = brute_p_m(spec)
    tower = fields.build_tower(3, 1, 2)
    for p in _primes(64, 5):
        fields.build_field(p, 1)
    assert fields.build_field(3, 1) is tower.base
    assert p_m(CountSpec.make(3, 1, 2, 2, a=1, h=1), "general") == want
    polycount.clear_caches()
