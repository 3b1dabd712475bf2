"""Ground truth by exhaustion.

One pass over F_{q^t}* (as powers of gamma_t) buckets every element by
(exact subfield degree, trace to F_q, discrete log of the norm mod q-1).
The pass walks one element of each F_q*-coset, since scaling by F_q*
moves the trace and the norm log predictably, and keeps only its per-coset
sums, O(q) numbers per degree; each (a, coset) cell is read from them on
request, so N_t, T_t and P_m never need the q(q-1) table of every cell.
Listing mode walks the matching Frobenius orbits and rebuilds minimal
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counting import CountSpec
from .errors import InvariantError, ListingCapExceeded, OracleCapExceeded
from .fields import TowerCtx, build_tower, min_poly, poly_is_irreducible
from .intmath import divisors, factorize

DEFAULT_ORACLE_CAP = 1 << 22
DEFAULT_LISTING_CAP = 10**5


@dataclass
class BruteResult:
    """Bucketed counts from one exhaustive pass over F_{q^t}*.

    The count of x = gamma_t^e of exact degree divs[di] with Tr_m(x) the
    base-field element of index a and dlog_g(Norm_m(x)) = w is
    source[di, cols[a] + w], 0 <= w < q - 1: each label reads a window of
    q - 1 entries of its degree's row.  Both arrays are read-only.  elements
    is the number of orbit elements the pass walked.
    """

    tower: TowerCtx
    t: int
    divs: list[int]
    source: np.ndarray
    cols: np.ndarray
    elements: int

    @property
    def counts(self) -> np.ndarray:
        """The read-only table counts[di][a][w] of every cell, built on each call."""
        table = sliding_window_view(self.source, len(self.cols) - 1, axis=1)[:, self.cols]
        table.flags.writeable = False
        return table

    def cell(self, exact_degree: int, a_index: int, residue: int, s: int) -> int:
        """Count of exact-degree elements with trace a and norm-log = residue mod s."""
        if exact_degree not in self.divs:
            return 0
        start = int(self.cols[a_index])
        row = self.source[self.divs.index(exact_degree), start : start + len(self.cols) - 1]
        return int(row[residue % s :: s].sum()) if s > 1 else int(row.sum())


# (p, r, m, t) -> BruteResult, oldest first; holds the last _SCAN_CACHE_SIZE scans
_scan_cache: dict[tuple, BruteResult] = {}
_SCAN_CACHE_SIZE = 8


def _check_oracle_cap(p: int, r: int, t: int, cap: int):
    """Refuse a scan of F_{q^t}, q = p^r, when q^t or its q(q - 1) buckets exceed the cap; needs no tower."""
    q = p**r
    if max(q**t, q * (q - 1)) > cap:
        raise OracleCapExceeded(f"q^t = {q**t} (or q(q-1) buckets) exceeds the oracle cap {cap}")


def brute_scan(tower: TowerCtx, t: int, cap: int = DEFAULT_ORACLE_CAP) -> BruteResult:
    """Exhaustive bucketing pass over F_{q^t}*, walking one element per F_q*-coset.

    With R = (q^t - 1)/(q - 1), gamma_t^(e + kR) = g^k gamma_t^e, so the q - 1
    multiples of gamma_t^e share its exact degree, have trace g^k Tr and norm
    log w + km mod (q - 1).  The orbit walk through the composed trace form
    covers e in [0, R) only, one block at a time; each block turns into indices
    of a small table keyed by (degree, Tr != 0, v), with v = w at trace 0 and
    v = w - m log_g(Tr) otherwise, the same for the whole coset.  The result
    keeps that table folded to 3(q - 1) sums per degree and the start of each
    label's window of q - 1 of them; a cell sums every s-th entry of one
    window.  The q(q-1) cells per degree are built only when `counts` is
    read, and the cap still bounds them with q^t, as it did when the walk
    covered all of F_{q^t}*.  At q = 2 a coset is one element and there is
    no norm log, so the walk yields packed trace bits instead
    (FieldCtx.parity_blocks): a block's trace-1 count is a popcount, and the
    bits of the few subfield exponents are read out for their exact degree.
    """
    q, m = tower.q, tower.m
    _check_oracle_cap(tower.p, tower.r, t, cap)
    key = (tower.p, tower.r, tower.m, t)
    if key in _scan_cache:
        return _scan_cache[key]
    n, g_log_inv = q - 1, tower.g_log_inv  # past the enumeration cap, refused before F_q's log table
    # log_g of the q trace labels (-1 at the label 0, which has none), from F_q's log table
    logs = tower.base.log_table().astype(np.int64)
    log_g = np.where(logs < 0, -1, logs * g_log_inv % n)
    shift = -m * log_g % n  # -m log_g(a) mod (q - 1)
    divs = divisors(t)
    if q == 2:
        zero, unit, elements = _scan_trace_bits(tower, t, divs)
    else:
        zero, unit, elements = _scan_cosets(tower, t, divs, log_g, shift)
    # a trace-0 coset adds km to w: gcd(m, q - 1) times over each class of w mod the gcd;
    # the row of a = g^l is unit rolled by lm, the window of unit twice at shift[a]
    c = math.gcd(m, n)
    zero_row = np.tile(zero.reshape(len(divs), n // c, c).sum(axis=1) * c, n // c)
    source = np.concatenate([zero_row, unit, unit], axis=1)
    cols = np.where(log_g < 0, 0, n + shift)
    source.flags.writeable = False
    cols.flags.writeable = False
    result = BruteResult(tower=tower, t=t, divs=divs, source=source, cols=cols, elements=elements)
    _scan_cache[key] = result
    while len(_scan_cache) > _SCAN_CACHE_SIZE:
        del _scan_cache[next(iter(_scan_cache))]
    return result


def _scan_cosets(tower: TowerCtx, t: int, divs: list[int], log_g, shift):
    """(zero, unit, elements) of brute_scan from the walk's labels, for q > 2.

    A label's key among a degree's 4(q - 1) keys is w at trace 0 and
    2(q - 1) + shift[a] + w otherwise, folded mod q - 1 only at the end.
    """
    q, m = tower.q, tower.m
    big_q, n = q**t - 1, q - 1
    ndivs, width = len(divs), 4 * n
    # exact degree over F_q: the smallest t' | t with gamma_t^e in F_{q^t'},
    # i.e. with (q^t - 1)/(q^t' - 1) | e; every element starts at degree t, and
    # each subfield, the smallest last, keeps the key (mod width) and rewrites the degree
    subfields = [(di, big_q // (q ** divs[di] - 1)) for di in range(ndivs - 2, -1, -1)]
    label_keys = np.where(log_g < 0, 0, 2 * n + shift) + (ndivs - 1) * width
    # the norm log dlog_g Norm_m(gamma_t^e) = e * (m/t) mod (q - 1) has period q - 1
    # in e, so each block slices one pattern
    counts = np.zeros(ndivs * width, dtype=np.int64)
    norm_logs = np.empty(0, dtype=np.int64)
    elements = 0
    for start, bucket in tower.top.orbit_blocks(tower.gamma[t], tower.base_trace_form(), big_q // n):
        # label -> key in place in the walk's block buffer, which the next block
        # refills (each index is read before its slot is written)
        np.take(label_keys, bucket, out=bucket, mode="clip")
        for di, stride in subfields:
            sub = bucket[-start % stride :: stride]
            sub %= width
            sub += di * width
        offset = start % n
        if len(norm_logs) < offset + len(bucket):
            norm_logs = np.tile(np.arange(n, dtype=np.int64) * (m // t) % n, len(bucket) // n + 2)
        bucket += norm_logs[offset : offset + len(bucket)]
        counts += np.bincount(bucket, minlength=len(counts))
        elements += len(bucket)
    # fold shift + w mod q - 1: zero[d][w] and unit[d][u] count the walked elements
    zero, unit = counts.reshape(ndivs, 2, 2, n).sum(axis=2).transpose(1, 0, 2)
    return zero, unit, elements


def _scan_trace_bits(tower: TowerCtx, t: int, divs: list[int]):
    """(zero, unit, elements) of brute_scan at q = 2, where a coset is one element and its label one bit.

    The trace-1 elements of F_{2^d}*, the multiples of (2^t - 1)/(2^d - 1), are a
    popcount at d = t and a few bits read out below; exact degree d keeps
    those of F_{2^d}* less those of exact degree d' | d, d' < d.
    """
    big_q = 2**t - 1
    ones = np.zeros(len(divs), dtype=np.int64)
    elements = 0
    for start, words in tower.top.parity_blocks(tower.gamma[t], tower.base_trace_form(), big_q):
        for di, d in enumerate(divs[:-1]):
            stride = big_q // (2**d - 1)
            at = np.arange(-start % stride, 64 * len(words), stride, dtype=np.uint64)
            ones[di] += int((words[at >> 6] >> (at & 63) & 1).sum())
        ones[-1] += int(np.bitwise_count(words, out=words).sum())
        elements += min(64 * len(words), big_q - start)
    sizes = np.array([2**d - 1 for d in divs], dtype=np.int64)
    for di, d in enumerate(divs):
        for dj in range(di):
            if d % divs[dj] == 0:
                ones[di] -= ones[dj]
                sizes[di] -= sizes[dj]
    return (sizes - ones)[:, None], ones[:, None], elements


def _h_for_tower(spec: CountSpec, tower: TowerCtx) -> int:
    return tower.dlog_g(spec.b) % spec.s if spec.s > 1 else 0


def brute_p_m(spec: CountSpec, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """P_m by exhaustion: degree-exactly-m roots with matching (a, coset), / m."""
    _check_oracle_cap(spec.p, spec.r, spec.m, cap)
    tower = build_tower(spec.p, spec.r, spec.m)
    scan = brute_scan(tower, spec.m, cap)
    h = _h_for_tower(spec, tower)
    total = scan.cell(spec.m, spec.a.index, h, spec.s)
    if total % spec.m != 0:
        raise InvariantError("root count must be divisible by m")
    return total // spec.m


def list_polys(
    spec: CountSpec,
    cap: int = DEFAULT_ORACLE_CAP,
    listing_cap: int = DEFAULT_LISTING_CAP,
):
    """All matching degree-m irreducibles, as base-coefficient tuples low->high.

    Sorted lexicographically on the coefficient index vectors.  Every
    polynomial is re-verified: irreducible, monic, trace coefficient a,
    norm coefficient in the coset (Vieta against an actual root).
    """
    count = brute_p_m(spec, cap)
    if count > listing_cap:
        raise ListingCapExceeded(f"{count} polynomials exceed the listing cap {listing_cap}")
    tower = build_tower(spec.p, spec.r, spec.m)
    q, m = tower.q, spec.m
    big_q = q**m - 1
    h = _h_for_tower(spec, tower)
    strides = [big_q // (q ** (m // ell) - 1) for ell in factorize(m)]  # maximal subfields
    polys = []
    gamma = tower.gamma[m]
    for start, labels in tower.top.orbit_blocks(gamma, tower.base_trace_form(), big_q):
        mask = labels == spec.a.index
        for stride in strides:
            mask[-start % stride :: stride] = False
        exps = np.flatnonzero(mask) + start
        if q > 2:
            exps = exps[exps % (q - 1) % spec.s == h]
        for e in exps.tolist():
            if min((e * q**i) % big_q for i in range(m)) != e:
                continue
            x = gamma**e
            coeffs, t = min_poly(tower, x)
            if t != m:
                raise InvariantError("orbit element does not have exact degree m")
            coeffs = tuple(c.index for c in coeffs)
            _verify_listed(spec, tower, x, coeffs, h)
            polys.append(coeffs)
    if len(polys) != count:
        raise InvariantError("listing does not match the bucket count")
    polys.sort()
    return polys


def _verify_listed(spec: CountSpec, tower: TowerCtx, root, coeffs, h: int):
    """coeffs: the F_q indices of root's minimal polynomial; h: the coset label of b."""
    m = spec.m
    if not poly_is_irreducible(coeffs, spec.base):
        raise InvariantError("listed polynomial is not irreducible")
    # f = x^m - a x^{m-1} + ... + (-1)^m b: Vieta from the actual root
    tr = tower.to_base(tower.trace_rel(root, m))
    nrm = tower.to_base(tower.norm_rel(root, m))
    if not tr == spec.a:
        raise InvariantError("listed polynomial has the wrong trace coefficient")
    if coeffs[m - 1] != (-spec.a).index:
        raise InvariantError("coefficient of x^{m-1} must be -a")
    if coeffs[0] != (nrm if m % 2 == 0 else -nrm).index:
        raise InvariantError("constant term must be (-1)^m b")
    if spec.s > 1 and tower.dlog_g(nrm) % spec.s != h:
        raise InvariantError("listed polynomial has norm outside the coset")
