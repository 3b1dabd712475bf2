"""Field arithmetic against a schoolbook reference on coordinate lists."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import schoolbook_mulmod, schoolbook_powmod

from polycount.fields import build_field, poly_is_irreducible

ARITH_FIELDS = [(2, 1), (2, 8), (2, 20), (2, 22), (2, 64), (2, 65), (3, 1), (3, 12), (7, 7), (37, 3), (257, 2)]


def ref_mul(a, b, modulus, p):
    """Product of two coordinate lists: long multiplication, then long division by the monic modulus."""
    r = len(modulus) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        for j in range(r + 1):
            prod[k - r + j] = (prod[k - r + j] - c * modulus[j]) % p
    return prod[:r]


def ref_pow(a, e, modulus, p):
    out = [1] + [0] * (len(modulus) - 2)
    for bit in bin(e)[2:]:
        out = ref_mul(out, out, modulus, p)
        if bit == "1":
            out = ref_mul(out, a, modulus, p)
    return out


def _coords(idx, p, r):
    return [idx // p**i % p for i in range(r)]


@pytest.mark.parametrize("p, r", ARITH_FIELDS)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_schoolbook(p, r, data):
    ctx = build_field(p, r)
    q, mod = ctx.order, list(ctx.modulus)
    index = st.one_of(st.sampled_from([0, 1, p - 1, q - 1]), st.integers(0, q - 1))
    ia, ib, ic = (data.draw(index) for _ in range(3))
    a, b, c = ctx.from_index(ia), ctx.from_index(ib), ctx.from_index(ic)
    ca, cb = _coords(ia, p, r), _coords(ib, p, r)

    # index <-> coords round trip
    assert list(a.coords) == ca
    assert ctx.elem(ca) == a and ctx.elem(ca).index == ia
    assert ctx.elem([x + p for x in ca]) == a

    assert list((a + b).coords) == [(x + y) % p for x, y in zip(ca, cb)]
    assert list((a - b).coords) == [(x - y) % p for x, y in zip(ca, cb)]
    assert list((-a).coords) == [-x % p for x in ca]
    assert list((a * b).coords) == ref_mul(ca, cb, mod, p)
    assert list((a * a).coords) == ref_mul(ca, ca, mod, p)
    assert a * (b + c) == a * b + a * c
    assert a * 3 == a + a + a

    k = data.draw(st.integers(1, 1 << 70))
    for e in (0, 1, 2, q - 2, q - 1, k):
        assert list((a**e).coords) == ref_pow(ca, e, mod, p), e
    if ia == 0:
        for bad in (lambda: a**-1, a.inverse, lambda: b / a):
            with pytest.raises(ZeroDivisionError):
                bad()
    else:
        assert a * a.inverse() == ctx.one
        assert list((a**-k).coords) == ref_pow(ca, -k % (q - 1), mod, p)
        assert (b / a) * a == b


# odd p with r > 1 multiplies in w-bit slots of one int (polyfp._PackedRing): small p with large r,
# p >= 1000 with r >= 12, and p = 2^31 - 1, whose slots are the widest.  w is sized from the largest
# value a slot reaches, which the product of two elements whose digits are all p - 1 reaches.
PACKED_FIELDS = [(3, 12), (3, 13), (7, 7), (37, 3), (257, 2), (1009, 12), (1019, 12), (2**31 - 1, 2), (2**31 - 1, 3)]


@pytest.mark.parametrize("p, r", PACKED_FIELDS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_packed_products_match_the_schoolbook(p, r, data):
    ctx = build_field(p, r)
    q, mod = ctx.order, list(ctx.modulus)
    digits = st.lists(st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1)), min_size=r, max_size=r)
    top = [p - 1] * r  # every digit p - 1: the largest sum in every slot
    ca, cb = data.draw(st.one_of(st.just(top), digits)), data.draw(st.one_of(st.just(top), digits))
    a, b = ctx.elem(ca), ctx.elem(cb)
    assert list((a * b).coords) == schoolbook_mulmod(ca, cb, mod, p)
    assert list((a * a).coords) == schoolbook_mulmod(ca, ca, mod, p)
    e = data.draw(st.one_of(st.sampled_from([0, 1, 2, p, q - 2, q - 1]), st.integers(0, 1 << 80)))
    assert list((a**e).coords) == schoolbook_powmod(ca, e, mod, p), e


@pytest.mark.parametrize("p, r", PACKED_FIELDS)
def test_packed_products_of_the_largest_digits(p, r):
    # q - 1 times itself and times each X^i, whose products reach every high slot that folds back
    ctx = build_field(p, r)
    mod, top = list(ctx.modulus), [p - 1] * r
    for i in range(r):
        unit = [0] * i + [p - 1] + [0] * (r - 1 - i)
        assert list((ctx.elem(top) * ctx.elem(unit)).coords) == schoolbook_mulmod(top, unit, mod, p)
    assert list((ctx.elem(top) * ctx.elem(top)).coords) == schoolbook_mulmod(top, top, mod, p)


def test_dividing_by_zero_raises():
    ctx = build_field(2, 3)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero
    with pytest.raises(ZeroDivisionError):
        ctx.zero**-1


def _ref_divides(d, f):
    """Whether d divides f in F_2[x], by long division on coefficient lists."""
    f = list(f)
    for k in range(len(f) - 1, len(d) - 2, -1):
        if f[k]:
            for j, c in enumerate(d):
                f[k - len(d) + 1 + j] ^= c
    return not any(f)


def test_binary_rabin_matches_trial_division():
    for deg in range(1, 9):
        divisors = [list(low) + [1] for k in range(1, deg // 2 + 1) for low in itertools.product((0, 1), repeat=k)]
        for low in itertools.product((0, 1), repeat=deg):
            f = list(low) + [1]
            want = not any(_ref_divides(d, f) for d in divisors)
            assert poly_is_irreducible(f, build_field(2, 1)) == want, f
