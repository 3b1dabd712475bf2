"""Identities that check counts past the brute-force oracle.

The sum over every trace coefficient.  For every spec,

    sum_{a in F_q} P_m(a, s, h)
        = (1/m) sum_{t | m} mu(m/t) (q^t - 1)/(q - 1) #{e mod q - 1 : (m/t) e = h mod s}.

Proof.  Summing P_m(a, s, h) over a drops the trace condition, so the left side
counts the monic irreducibles of degree m over F_q whose norm coefficient b
lies in the class C_h = {g^e : e = h mod s}.  Each has m distinct roots, each
of exact degree m over F_q, and b is the norm N_m(x) of every one of them.  So
m times the left side is #{x in F_{q^m} of degree m : N_m(x) in C_h}.  By
Moebius inversion over the subfields F_{q^t}, t | m, that is
sum_{t | m} mu(m/t) #{x in F_{q^t} : N_m(x) in C_h}.  For x in F_{q^t},
N_m(x) = N_t(x)^{m/t}; 0 is not in C_h; and N_t maps F_{q^t}* onto F_q* with
every fibre of size (q^t - 1)/(q - 1).  With N_t(x) = g^e the condition reads
(m/t) e = h mod s, since s | q - 1.  This extends test_global_partition from
s = 1 to every s.

The towers here lie past the oracle's 2^22 cap, where the table, Jacobi and
class-count routes are otherwise checked only against one another.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import norm_class_count

from polycount.counting import CountSpec, p_m
from polycount.errors import CapExceeded
from polycount.intmath import divisors, necklace_count

# (p, r, m) with q^m > 2^22.  (101, 1, 4) sends N_4 to the class counts when s/d > 4;
# (3, 4, 5) refuses some cells; q = p = 1 mod 4 with 4 | m reaches the s = 4 table's (1, 4) row
_TOWERS = [(101, 1, 4), (53, 1, 4), (13, 1, 8), (5, 1, 12), (17, 1, 6), (5, 2, 5), (2, 6, 4), (3, 3, 5)]
_TOWERS += [(3, 4, 5), (7, 1, 9), (2, 4, 6)]

def test_sum_over_a_counts_the_norm_class():
    draws = {"served": 0, "refused": 0}

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(tower=st.sampled_from(_TOWERS), data=st.data())
    def check(tower, data):
        p, r, m = tower
        q = p**r
        s = data.draw(st.sampled_from(divisors(q - 1)), label="s")
        h = data.draw(st.integers(0, s - 1), label="h")
        try:
            total = sum(p_m(CountSpec.make(p, r, m, s, a=a, h=h)) for a in range(q))
        except CapExceeded:
            draws["refused"] += 1
            return
        draws["served"] += 1
        assert total == norm_class_count(q, m, s, h)

    check()
    print(f"\nsum over a: {draws['served']} draws served, {draws['refused']} skipped as refused")
    assert draws["served"] >= 40


@pytest.mark.parametrize("q, m", [(3, 4), (4, 6), (5, 5), (101, 4)])
def test_norm_class_count_sums_to_the_irreducibles(q, m):
    # over every class h mod q - 1 the identity counts all monic irreducibles of degree m
    assert sum(norm_class_count(q, m, q - 1, h) for h in range(q - 1)) == necklace_count(q, m)
