"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact (tolerance: equality of integers or of
cyclotomic values); no criterion is weakened by caps beyond the ones it
states.
"""

import random

from reference import jacobi_tuple_walk, monomial_closed_char2, monomial_closed_semiprimitive, necklace_count

from polycount.catalog import p2_closed_pm, p2_context, p2_general_pm
from polycount.charsums import (
    gauss_sum,
    gauss_sum_folded,
    jacobi_brute,
    monomial_sum,
)
from polycount.counting import (
    CountSpec,
    derive_params,
    m_t_general,
    n_t_special,
    p_m,
)
from polycount.cyclotomic import CycInt, sqrt_minus
from polycount.fields import build_field, build_tower
from polycount.intmath import divisors, multiplicative_order
from polycount.jacobi import cubic_params, jacobi_closed, quartic_params
from polycount.oracle import brute_p_m
from polycount.verify import run_grid

TABLE5 = {
    (2, "1"): {2: 0, 3: 1, 4: 1, 5: 3, 6: 4, 7: 9, 8: 14, 9: 28, 10: 48, 11: 93, 12: 165, 13: 315},
    (4, "1"): {2: 0, 3: 3, 4: 4, 5: 17, 6: 48},
    (4, "x"): {2: 0, 3: 1, 4: 4, 5: 17, 6: 56},
    (8, "1"): {2: 0, 3: 3},
}


def test_criterion_1_table5_exact():
    """Table of reference counts reproduced by the oracle AND formula paths."""
    checked = 0
    for (q, tag), expected in TABLE5.items():
        r = q.bit_length() - 1
        field = build_field(2, r)
        b = field.one if tag == "1" else field.generator
        for m, want in expected.items():
            spec = CountSpec.make(2, r, m, max(q - 1, 1), a=0, b=b)
            assert brute_p_m(spec) == want, (q, tag, m, "oracle")
            assert p2_general_pm(r, m, b) == want, (q, tag, m, "formula")
            assert p2_closed_pm(r, m, b) == want, (q, tag, m, "catalog")
            assert p_m(spec, method="auto") == want, (q, tag, m, "auto")
            checked += 1
    assert checked == 24
    print(f"\ncriterion 1 (reference table, oracle + formulas, {checked} cells): PASS")


def test_criterion_2_path_equivalence_grid():
    """Exact p_m equality across brute / general / tables / closed forms."""
    cells = failures = 0
    for row in run_grid(full=True):
        cells += 1
        if not row.ok:
            failures += 1
            print("FAIL", row.label(), row.values)
        assert len(row.values) >= 2, row.label()
    assert failures == 0
    print(f"criterion 2 (path equivalence, {cells} cells): PASS")


def test_criterion_3_jacobi_closed_vs_brute():
    """Order 2/3/4 closed Jacobi forms against the walk over all q^{t-1} tuples, exactly."""
    checked = 0
    for p in (3, 5, 7, 13):
        f = build_field(p, 1)
        for t in range(1, 6):
            assert jacobi_closed(2, t, p) == jacobi_tuple_walk(f, 2, 1, t).as_integer()
            checked += 1
    for p in (7, 13):
        f = build_field(p, 1)
        cp = cubic_params(p, f.generator_index)
        for t in range(1, 5):
            for k in (1, 2):
                closed = jacobi_closed(3, t, p, cp)
                if k == 2:
                    closed = closed.conjugate()
                assert closed == jacobi_tuple_walk(f, 3, k, t)
                checked += 1
    for p in (5, 13):
        f = build_field(p, 1)
        qp = quartic_params(p, f.generator_index)
        for t in range(1, 5):
            for k in (1, 3):
                closed = jacobi_closed(4, t, p, qp)
                if k == 3:
                    closed = closed.conjugate()
                assert closed == jacobi_tuple_walk(f, 4, k, t)
                checked += 1
    # G_1(lambda)^t = -q J_t(lambda) for nontrivial lambda of order dividing t
    for p in (3, 5, 7, 13):
        f = build_field(p, 1)
        for t in range(2, 5):
            for n in divisors(t):
                if n == 1 or (p - 1) % n != 0:
                    continue
                tw = build_tower(p, 1, 1)
                for k in range(1, n):
                    g1 = gauss_sum(tw, 1, n, k)
                    jt = jacobi_brute(f, n, k, t)
                    assert g1**t == (jt * (-p)).embed(p * n)
                    checked += 1
    print(f"criterion 3 (Jacobi closed vs brute, {checked} identities): PASS")


def test_criterion_4_semiprimitive_sums():
    """Two-value closed monomial sums against direct summation, all branches."""
    checked = 0
    for p, e, n in [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1)]:
        r = 2 * e * n
        q = p**r
        for t in range(1, 11):
            if q**t > 2**20:
                break
            tower = build_tower(p, r, t)
            for s in divisors(p**e + 1):
                for i in range(s):
                    direct = monomial_sum(tower, t, i, s).as_integer()
                    closed = monomial_closed_semiprimitive(p, e, n, t, s, i)
                    assert direct == closed, (p, e, n, t, s, i)
                    checked += 1
    # characteristic-2 statement (sum over all x), semiprimitive N
    for big_n in (3, 5, 9, 11, 13, 17):
        ord2 = multiplicative_order(2, big_n)
        for rt in range(ord2, 21, ord2):
            if 2**rt > 2**20:
                break
            for r in divisors(rt):
                t = rt // r
                tower = build_tower(2, r, t)
                if (2**r - 1) * big_n == 0:
                    continue
                for i in (0, 1, big_n - 1):
                    direct = monomial_sum(tower, t, i, big_n).as_integer() + 1
                    assert direct == monomial_closed_char2(r, t, big_n, i), (big_n, r, t, i)
                    checked += 1
    print(f"criterion 4 (semiprimitive monomial sums, {checked} values): PASS")


def test_criterion_5_small_field_gauss_sums():
    """Index-2 Gauss sums land on their two-candidate forms, |F|^2 = 2^{r'}."""
    shapes = {
        7: (3, lambda c: CycInt.integer(7, -1) + sqrt_minus(7, 7) * c),
        15: (4, lambda c: CycInt.integer(15, 1) + sqrt_minus(15, 15) * c),
        21: (6, lambda c: CycInt.integer(21, -6) + sqrt_minus(7, 21) * (-2 * c)),
        23: (11, lambda c: CycInt.integer(23, -24) + sqrt_minus(23, 23) * (8 * c)),
    }
    for n, (r_small, cand) in shapes.items():
        tower = build_tower(2, r_small, 1)
        val = gauss_sum_folded(tower, 1, n)
        matches = [c for c in (1, -1) if val == cand(c)]
        assert len(matches) == 1, n
        assert (val * val.conjugate()).as_integer() == 2**r_small
        ctx = p2_context(r_small)
        quad, c = ctx.resolve_gauss(n)
        assert c == matches[0]
    # F_6(chi^3) = -F_6(chi) for the order-21 character
    tower = build_tower(2, 6, 1)
    f6 = gauss_sum_folded(tower, 1, 21)
    f6_cubed = gauss_sum_folded(tower, 1, 21, 3)
    assert f6_cubed == -f6
    print("criterion 5 (small-field Gauss sums, 4 families): PASS")


def test_criterion_6_catalog_consistency():
    """Catalog = lifted general route (r <= 6, m <= 30, every coset), = oracle
    where reachable; integrality everywhere; coset sums; deep branches at
    r = 11, 18, 20."""
    checked = oracle_checked = 0
    for r in range(1, 7):
        q = 2**r
        f = build_field(2, r)
        for m in range(2, 31):
            total = 0
            for ind in range(max(q - 1, 1)):
                b = f.generator**ind if q > 2 else f.one
                vc = p2_closed_pm(r, m, b)  # asserts integrality >= 0 inside
                assert vc == p2_general_pm(r, m, b), (r, m, ind)
                total += vc
                checked += 1
                if 2 ** (r * m) <= 1 << 22:
                    spec = CountSpec.make(2, r, m, max(q - 1, 1), a=0, b=b)
                    assert vc == brute_p_m(spec), (r, m, ind)
                    oracle_checked += 1
            spec1 = CountSpec.make(2, r, m, 1, a=0)
            assert total == p_m(spec1, method="closed"), (r, m, "coset sum")
    # deep branches outside r <= 6: m = 23 (11 | r), m = 27 (18 | r),
    # m = 25 (ord_25(2) = 20 | r); one representative per coset class
    deep = [(11, 23, 23), (18, 27, 27), (20, 25, 25)]
    for r, m, modulus in deep:
        f = build_field(2, r)
        reps = sorted({min(_coset(modulus, i)) for i in range(modulus)})
        for ind in reps:
            b = f.generator**ind
            assert p2_closed_pm(r, m, b) == p2_general_pm(r, m, b), (r, m, ind)
            checked += 1
    print(
        f"criterion 6 (catalog consistency, {checked} catalog/general cells, "
        f"{oracle_checked} oracle cells): PASS"
    )


def _coset(n, i):
    out = set()
    i %= n
    while i not in out:
        out.add(i)
        i = 2 * i % n
    return out


def test_criterion_7_randomized_invariants():
    """>= 500 randomized specs: coset partition, global partition, Moebius
    divisibility, the s*q | d(q^t - 1 + M_t) invariant, and independence of
    the coset representative / generator labeling."""
    rng = random.Random(0xC0FFEE)
    pool = []
    for p, r in [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (2, 3)]:
        q = p**r
        for m in range(2, 8):
            if q**m <= 2**14:
                pool.append((p, r, m))
    draws = 0
    partition_checked = set()
    while draws < 520:
        p, r, m = pool[rng.randrange(len(pool))]
        base = build_field(p, r)
        q = p**r
        s_choices = divisors(q - 1)
        s = s_choices[rng.randrange(len(s_choices))]
        ai = rng.randrange(q)
        h = rng.randrange(s) if s > 1 else 0
        a = base.from_index(ai)
        spec = CountSpec.make(p, r, m, s, a=a, h=h)
        draws += 1

        # every-path agreement doubles as the Moebius/divisibility assert
        val = p_m(spec)
        assert val == brute_p_m(spec), (p, r, m, s, ai, h)

        # coset partition: sum over all h equals the unrestricted count
        total = sum(p_m(CountSpec.make(p, r, m, s, a=a, h=hh)) for hh in range(s))
        assert total == p_m(CountSpec.make(p, r, m, 1, a=a))

        # representative independence: any member of the coset gives the label
        if q > 2:
            g = base.generator
            shift = rng.randrange(1, max((q - 1) // s, 1) + 1)
            b2 = spec.b * (g**s) ** shift
            assert p_m(CountSpec.make(p, r, m, s, a=a, b=b2)) == val

        # the exact-divisibility invariant on the general path
        if q * q**m <= 2**18:
            tower = build_tower(p, r, m)
            for t in divisors(m):
                if n_t_special(spec, t) is not None:
                    continue
                mt = m_t_general(tower, spec, t)
                d = derive_params(spec, t).d
                assert d * (q**t - 1 + mt) % (s * q) == 0

        # global partition, once per (p, r, m)
        if (p, r, m) not in partition_checked:
            partition_checked.add((p, r, m))
            tot = sum(
                p_m(CountSpec.make(p, r, m, 1, a=base.from_index(i))) for i in range(q)
            )
            assert tot == necklace_count(q, m)
    print(f"criterion 7 (structural invariants, {draws} draws): PASS")
