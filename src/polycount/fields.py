"""Exact arithmetic in F_p, F_{p^r}, and subfield towers inside F_{p^{rm}}.

Field construction is fully deterministic: the modulus of F_{p^r} is the
monic irreducible of degree r whose coefficient vector, read as a base-p
integer with the low-degree coefficient least significant, is smallest;
the generator is the first element (in the same integer enumeration
order) of full multiplicative order.  That pins down every discrete-log
label and every reported coset index across runs.  For odd p, candidates
with a root in F_p are sieved out a block at a time before Ben-Or's test
decides; each candidate generator's order checks are powers from one chain
of squares, as are a tower's checks on each gamma_t.

An element is held as one int, its index: its coordinates over F_p read
as base-p digits, coordinate i the coefficient of X^i.  Addition is
digit-wise mod p.  In characteristic 2 an index is the F_2[x] polynomial
itself, bit i the coefficient of x^i: addition is xor, multiplication a
carry-less shift/xor product reduced by the modulus (also an int), and
squaring spreads the bits.  Odd p multiplies packed integers (Kronecker
substitution): digit i goes to bits [iw, (i + 1)w) of one int, so a product
is one integer multiply; its r - 1 high slots fold back through a table of
x^(r + j) mod f, and then every slot is reduced mod p at once by one
multiply, shift and mask (Barrett reduction).  w is sized from the largest
value a slot reaches, so no slot carries into the next.  A product packs
and unpacks its operands, a power once per call.

A tower F_q^t <= F_{q^m} is realized inside the single field F_{p^{rm}};
the subfield test is x^{q^t} == x, and F_q itself embeds by X -> beta, a
root of its modulus, held as one matrix and its left inverse; beta, the
first root along the powers of g, is read from F_q's log table.  Bulk
enumeration (orbits of a generator mapped through an F_p-linear form) is
vectorized with numpy, since the Frobenius, traces, and
multiplication-by-a-constant are all linear maps.
An orbit is split baby step, giant step, j = bB + i, and each output digit
is one exact dot product of the giant-step coordinates with the form read
at the baby steps: for odd p, r multiply-adds in uint8 or uint16 while
r (p - 1)^2 < 2^16 (numpy's int64 matmul is a plain loop), and in
characteristic 2 the parity of the AND of packed words.  orbit_blocks
streams the orbit in blocks of consecutive j, so a consumer never holds the
whole orbit; it fills every block in place in one set of buffers per walk,
so a block is valid until the next is asked for.  Log tables, trace
histograms and the oracle all consume it block by block.  parity_blocks
bit-slices the same split for one form over F_2 (the oracle at q = 2): 64
babies to a word, one XOR-table read per giant byte.  In
characteristic 2 the baby and giant powers are packed words too, taken by
doubling: a product by a constant is F_2-linear, so it is one XOR-table read
per byte of each row, as is the babies' form (the method of Four Russians).
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    EnumerationCapExceeded,
    InvalidDegree,
    InvalidPrime,
    InvariantError,
    SubfieldViolation,
    ValidationError,
    ZeroHasNoLog,
)
from .intmath import divisors, factor_prime_power_order, is_prime
from .polyfp import (
    _clmod,
    _clmul,
    _clsquare,
    _digits,
    _index_add,
    _PackedRing,
    _rootless_codes,
    _undigits,
    poly_is_irreducible,
)

DEFAULT_ENUM_CAP = 1 << 24

# orbit output is filled this many elements at a time
_ORBIT_CHUNK = 1 << 16

# odd p: smaller blocks do not repay the narrow kernel's 2n - 1 calls per digit
_NARROW_CELLS = 1 << 12

# packed F_2 vectors: coordinate i is bit i % 64 of word i // 64
_WORD = np.dtype("<u8")

# p = 2 powers: this many are taken one product at a time before doubling by tables
_WORD_HEAD = 32

# fields of at most this order keep a full log table, one int32 per element
LOG_TABLE_MAX_ORDER = 1 << 16

# trace histograms a tower keeps, oldest dropped first
_TRACE_HIST_CACHE_SIZE = 8


def check_cap(size: int, cap: int | None, what: str):
    """Refuse `what` when its size exceeds cap; cap None means DEFAULT_ENUM_CAP."""
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if size > cap:
        raise EnumerationCapExceeded(
            f"{what} needs {size} elements, beyond enumeration cap {cap}; closed "
            f"forms or the Davenport-Hasse lift remain available where applicable"
        )


def _check_int64_sums(n: int, p: int):
    """Refuse int64 matrices over F_p on length-n vectors unless n (p - 1)^2 < 2^63.

    mul_matrix (so _powers), frob_matrix, _power_sum (so abs_trace_column) and _embedding call it.
    """
    if n * (p - 1) ** 2 >= 1 << 63:
        raise ValidationError(f"a sum of {n} products of residues mod {p} overflows int64: need n (p - 1)^2 < 2^63")


def _pack(bits: np.ndarray) -> np.ndarray:
    """0/1 rows along the last axis as uint64 words: bit i in bit i % 64 of word i // 64."""
    words = -(-bits.shape[-1] // 64)
    packed = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view(_WORD)


def _words(values, width: int) -> np.ndarray:
    """Python ints below 2^(64 width) as rows of `width` words, in _pack's bit order."""
    return np.frombuffer(b"".join(v.to_bytes(8 * width, "little") for v in values), dtype=_WORD).reshape(-1, width)


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """tables[y, v] = the XOR of images[8y + i] over the bits i of v, for images of shape (n, width) words.

    An F_2-linear map given by the images of the unit vectors then takes a row
    of packed bits in one table read per byte (_xor_images): the method of Four
    Russians (Arlazarov, Dinic, Kronrod & Faradzhev, 1970).
    """
    n, width = images.shape
    padded = np.zeros((-(-n // 8) * 8, width), dtype=_WORD)
    padded[:n] = images
    tables = np.zeros((len(padded) // 8, 256, width), dtype=_WORD)
    for i in range(8):
        np.bitwise_xor(tables[:, : 1 << i], padded[i::8, None], out=tables[:, 1 << i : 2 << i])
    return tables


def _xor_images(tables: np.ndarray, row_bytes: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """out[j] = the map of _byte_tables at row j, whose byte y is row_bytes[j, y]; scratch is out's shape."""
    np.take(tables[0], row_bytes[:, 0], axis=0, out=out, mode="clip")
    for y in range(1, len(tables)):
        np.take(tables[y], row_bytes[:, y], axis=0, out=scratch, mode="clip")
        out ^= scratch
    return out


class FieldElement:
    """An element of a FieldCtx, held as its index: coordinate i over F_p is base-p digit i."""

    __slots__ = ("ctx", "index")

    def __init__(self, ctx: "FieldCtx", index: int):
        self.ctx = ctx
        self.index = index

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(_digits(self.index, self.ctx.p, self.ctx.r))

    def __add__(self, other):
        self._same(other)
        ctx = self.ctx
        return FieldElement(ctx, _index_add(self.index, other.index, ctx.p, ctx.r))

    def __sub__(self, other):
        self._same(other)
        ctx = self.ctx
        return FieldElement(ctx, _index_add(self.index, other.index, ctx.p, ctx.r, sign=-1))

    def __neg__(self):
        ctx = self.ctx
        return FieldElement(ctx, _index_add(0, self.index, ctx.p, ctx.r, sign=-1))

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, int):
            return ctx.elem([c * other for c in _digits(self.index, ctx.p, ctx.r)])
        self._same(other)
        return FieldElement(ctx, ctx._mul(self.index, other.index))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        ctx = self.ctx
        if e < 0:
            if not self.index:
                raise ZeroDivisionError("inverse of zero")
            e %= ctx.group_order
        return FieldElement(ctx, ctx._pow(self.index, e))

    def inverse(self) -> "FieldElement":
        return self**-1

    def __truediv__(self, other):
        return self * other.inverse()

    def is_zero(self) -> bool:
        return not self.index

    def _same(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("elements from different fields")

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx is other.ctx and self.index == other.index

    def __hash__(self):
        return hash((id(self.ctx), self.index))

    def __repr__(self):
        return f"<{self.index} in F_{self.ctx.order}>"


class FieldCtx:
    """F_{p^r} with canonical modulus and generator."""

    def __init__(self, p: int, r: int):
        if not is_prime(p):
            raise InvalidPrime(f"{p} is not prime")
        if r < 1:
            raise InvalidDegree(f"extension degree must be >= 1, got {r}")
        self.p = p
        self.r = r
        self.order = p**r
        self.group_order = self.order - 1
        self.modulus = self._canonical_modulus()
        self._mod_low = _undigits(self.modulus[:-1], p)  # the modulus less x^r, as an index
        self._ring = _PackedRing(p, self.modulus) if p > 2 and r > 1 else None
        self._gen = None
        self._frob1 = None
        self._frob_pows: dict[int, np.ndarray] = {}
        self._log_table: np.ndarray | None = None
        self._baby_steps: dict[tuple, dict] = {}

    # -- construction --

    def _canonical_modulus(self) -> tuple[int, ...]:
        p, r = self.p, self.r
        if r == 1:
            return (0, 1)
        base = build_field(p, 1)
        for code in range(p**r) if p == 2 else _rootless_codes(p, r, _ORBIT_CHUNK):
            coeffs = _digits(code, p, r) + [1]
            if poly_is_irreducible(coeffs, base):
                return tuple(coeffs)
        raise InvariantError("no irreducible polynomial found")  # pragma: no cover

    # -- arithmetic on indices: carry-less for p = 2, packed integers otherwise --

    def _mul(self, a: int, b: int) -> int:
        p, r = self.p, self.r
        if p == 2:
            return _clmod(_clmul(a, b), r, self._mod_low)
        if r == 1:
            return a * b % p
        ring = self._ring
        return ring.unpacked(ring.reduced(ring.packed(a) * ring.packed(b)))

    def _pow(self, a: int, e: int) -> int:
        p, r = self.p, self.r
        if r == 1:
            return pow(a, e, p)
        if p != 2:
            return self._ring.pow(a, e)
        out, low = 1, self._mod_low
        for bit in format(e, "b"):
            out = _clmod(_clsquare(out), r, low)
            if bit == "1":
                out = _clmod(_clmul(out, a), r, low)
        return out

    def _pows(self, a: int, exps: list[int]):
        """Yield a^e for each e in exps from one chain of squares a^(2^i): right-to-left powering.

        The powers of one element share the chain's squarings, so each costs
        only its multiplications, and one that is not asked for costs nothing.
        """
        p, r = self.p, self.r
        if r == 1:
            yield from (pow(a, e, p) for e in exps)
            return
        if p == 2:
            low = self._mod_low
            squares = [a]
            for _ in range(1, max(exps).bit_length()):
                squares.append(_clmod(_clsquare(squares[-1]), r, low))
            for e in exps:
                out = 1
                for i in range(e.bit_length()):
                    if e >> i & 1:
                        out = _clmod(_clmul(out, squares[i]), r, low)
                yield out
            return
        ring = self._ring
        reduced, squares = ring.reduced, [ring.packed(a)]
        for _ in range(1, max(exps).bit_length()):
            squares.append(reduced(squares[-1] * squares[-1]))
        for e in exps:
            out = 1
            for i in range(e.bit_length()):
                if e >> i & 1:
                    out = reduced(out * squares[i])
            yield ring.unpacked(out)

    def _order_chain(self, a: int, n: int, primes, *extra):
        """Yield whether a^(n / l) != 1 for each prime l | n, whether a^n = 1, then a^e for each e in extra.

        All are powers from a's one chain of squares (_pows), so a consumer
        that stops at the first failed check takes no further power.
        """
        exps = [n // l for l in primes]
        powers = self._pows(a, exps + [n, *extra])
        for _ in exps:
            yield next(powers) != 1
        yield next(powers) == 1
        yield from powers

    @property
    def generator(self) -> FieldElement:
        """First element, in index order, of multiplicative order p^r - 1."""
        if self._gen is None:
            primes = [q for q, _ in factor_prime_power_order(self.p, self.r)]
            # indices below p are F_p, whose orders divide p - 1 < q - 1 when r > 1
            for idx in range(self.p if self.r > 1 else 1, self.order):
                if all(self._order_chain(idx, self.group_order, primes)):
                    self._gen = FieldElement(self, idx)
                    break
            else:  # pragma: no cover
                raise InvariantError("no generator found")
        return self._gen

    @property
    def generator_index(self) -> int:
        return self.generator.index

    # -- element constructors --

    def elem(self, coords) -> FieldElement:
        coords = list(coords)
        if len(coords) != self.r:
            raise ValueError(f"need {self.r} coordinates")
        return FieldElement(self, _undigits([c % self.p for c in coords], self.p))

    def from_index(self, idx: int) -> FieldElement:
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range")
        return FieldElement(self, idx)

    def from_int(self, n: int) -> FieldElement:
        """The prime-subfield element n * 1."""
        return FieldElement(self, n % self.p)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self):
        for idx in range(self.order):
            yield self.from_index(idx)

    # -- linear maps as numpy matrices (row vector @ matrix convention) --

    def mul_matrix(self, x: FieldElement) -> np.ndarray:
        """Matrix M with row i = coordinates of x * X^i; then y @ M = y*x."""
        p, r = self.p, self.r
        _check_int64_sums(r, p)
        rows, cur = [_digits(x.index, p, r)], x.index
        for _ in range(1, r):
            cur = self._mul(cur, p)  # the index of X is p
            rows.append(_digits(cur, p, r))
        return np.array(rows, dtype=np.int64)

    def frob_matrix(self, e: int = 1) -> np.ndarray:
        """Matrix of y -> y^{p^e}; read-only, since it is kept on the field."""
        _check_int64_sums(self.r, self.p)
        e %= self.r  # Frobenius has order r
        if e in self._frob_pows:
            return self._frob_pows[e]
        if self._frob1 is None:
            p, r = self.p, self.r
            rows = [_digits(self._pow(p**i, p), p, r) for i in range(r)]  # (X^i)^p
            self._frob1 = np.array(rows, dtype=np.int64)
        m = np.eye(self.r, dtype=np.int64)
        for _ in range(e):
            m = (m @ self._frob1) % self.p
        m.flags.writeable = False
        self._frob_pows[e] = m
        return m

    def _powers(self, x: FieldElement, count: int) -> np.ndarray:
        """Coordinate rows of x^0 .. x^(count - 1), by doubling: rows[f:2f] = rows[:f] * x^f."""
        rows = np.zeros((count, self.r), dtype=np.int64)
        rows[0, 0] = 1
        f, times = 1, self.mul_matrix(x)  # times is Mul(x^f), and Mul(ab) = Mul(a) Mul(b)
        while f < count:
            n = min(f, count - f)
            rows[f : f + n] = (rows[:n] @ times) % self.p
            f += n
            times = (times @ times) % self.p
        return rows

    def linear_orbit(
        self, gamma: FieldElement, out_map: np.ndarray, length: int, block: int | None = None
    ) -> np.ndarray:
        """Base-p index of (gamma^j @ out_map) mod p for j in [0, length): orbit_blocks as one int64 array."""
        out = np.empty(length, dtype=np.int64)
        for start, indices in self.orbit_blocks(gamma, out_map, length, block):
            out[start : start + len(indices)] = indices
        return out

    def _word_powers(self, x: FieldElement, count: int) -> np.ndarray:
        """p = 2: x^0 .. x^(count - 1) as rows of packed words, by doubling: rows[f:2f] = rows[:f] x^f.

        A product by c is F_2-linear, so a row's is the XOR of c X^kk mod f over
        its set bits kk, read from _byte_tables.
        """
        r = self.r
        width = -(-r // 64)
        rows = np.zeros((count, width), dtype=_WORD)
        # the first rows one product at a time, where a table would cost more than it saves
        head = [1]
        while len(head) < min(count, _WORD_HEAD):
            head.append(self._mul(head[-1], x.index))
        rows[: len(head)] = _words(head, width)
        scratch = np.empty((count // 2, width), dtype=_WORD)
        f, c, modulus = len(head), self._mul(head[-1], x.index), self._mod_low | 1 << r
        while f < count:
            n = min(f, count - f)
            # images[kk] = c X^kk mod f: shift up, and reduce the bit that reaches X^r
            images = [c]
            for _ in range(1, r):
                images.append(images[-1] << 1)
                if images[-1] >> r:
                    images[-1] ^= modulus
            _xor_images(_byte_tables(_words(images, width)), rows[:n].view(np.uint8), rows[f : f + n], scratch[:n])
            f += n
            c = self._mul(c, c)
        return rows

    def _baby_giant(self, gamma: FieldElement, out_map: np.ndarray, length: int, big_b: int):
        """orbit_blocks' giants[b] = gamma^(b big_b) and babies, column c of out_map at gamma^i X^kk, mod p.

        Odd p: coordinate rows, and babies[i, kk, c].  p = 2: packed words, a
        giant one row, and babies[c, i] one row over kk, each the image of the
        words of gamma^i under a linear map read from _byte_tables.
        """
        p, n = self.p, self.r
        k = out_map.shape[1]
        # forms[:, kk] = Mul(X)^kk @ out_map reads the map at x X^kk
        forms = np.empty((n, n, k), dtype=np.int64)
        forms[:, 0] = out_map % p
        times_x = self.mul_matrix(self.from_index(p)) if n > 1 else None
        for kk in range(1, n):
            forms[:, kk] = (times_x @ forms[:, kk - 1]) % p
        count = -(-length // big_b)
        if p == 2:
            images = _pack(forms.transpose(0, 2, 1)).reshape(n, -1)
            babies = np.empty((big_b, images.shape[1]), dtype=_WORD)
            baby_words = self._word_powers(gamma, big_b).view(np.uint8)
            _xor_images(_byte_tables(images), baby_words, babies, np.empty_like(babies))
            babies = np.ascontiguousarray(babies.reshape(big_b, k, -1).transpose(1, 0, 2))
            return self._word_powers(gamma**big_b, count), babies
        giants = self._powers(gamma**big_b, count)
        babies = (self._powers(gamma, big_b) @ forms.reshape(n, n * k)).reshape(big_b, n, k) % p
        return giants, babies

    def orbit_blocks(self, gamma: FieldElement, out_map: np.ndarray, length: int, block: int | None = None):
        """Yield (start, indices): linear_orbit's values for j in [start, start + len(indices)).

        For a one-column map the index is the digit itself.  Baby step,
        giant step (_baby_giant): with B = ceil(sqrt(length)) baby steps (or
        `block`), j = bB + i, and column c of the map is a linear form, so
        digit c at j is <V_b, A_c[i]> mod p: V_b holds the coordinates of
        gamma^(bB), and A_c[i, kk] is the form at gamma^i X^kk.  Odd p: while
        that product's bound n (p - 1)^2 is below 2^16 it is reduced by
        lookup and, in blocks of _NARROW_CELLS or more, taken as n
        multiply-adds in uint8 or uint16, whichever holds the bound; otherwise
        it is one int64 matmul.  p = 2 takes the parity of V_b & A_c[i] on
        packed words.  Blocks cover consecutive j, about _ORBIT_CHUNK at a time.
        Every block is filled in place in one set of buffers per walk: a
        yielded array is a view that the consumer may overwrite, valid until
        the generator resumes.
        """
        p, n = self.p, self.r
        k = out_map.shape[1]
        if p**k > 1 << 63:
            raise ValidationError(f"an index of {k} base-{p} digits does not fit in int64")
        if length == 0:
            return
        big_b = min(block, length) if block else math.isqrt(length - 1) + 1
        giants, babies = self._baby_giant(gamma, out_map, length, big_b)
        rows = min(max(1, _ORBIT_CHUNK // big_b), len(giants))
        out_buf = np.empty((rows, big_b), dtype=np.int64)
        digit_buf = np.empty((rows, big_b), dtype=np.int64) if k > 1 else None
        and_buf = np.empty((rows, big_b), dtype=_WORD) if p == 2 else None
        bound = n * (p - 1) ** 2
        residues = np.tile(np.arange(p), bound // p + 1)[: bound + 1] if p > 2 and bound < 1 << 16 else None
        narrow = residues is not None and rows * big_b >= _NARROW_CELLS
        if narrow:
            dtype = np.min_scalar_type(bound)
            if np.iinfo(dtype).max < bound:
                raise InvariantError(f"{dtype} does not hold a dot product of up to {bound}")
            giants = giants.astype(dtype)
            babies = np.ascontiguousarray(babies.transpose(2, 1, 0), dtype=dtype)  # babies[c, kk, i]
            sum_buf, prod_buf = np.empty((2, rows, big_b), dtype=dtype)
        for b in range(0, len(giants), rows):
            v = giants[b : b + rows]
            out = out_buf[: len(v)]
            # Horner's rule, highest digit first: that digit is written straight into out
            for c in range(k - 1, -1, -1):
                digit = out if c == k - 1 else digit_buf[: len(v)]
                if p == 2:
                    ands = and_buf[: len(v)]
                    np.bitwise_and.outer(v[:, 0], babies[c, :, 0], out=ands)
                    for w in range(1, v.shape[1]):
                        # digit's slot holds the next word's AND until the parity is taken
                        np.bitwise_and.outer(v[:, w], babies[c, :, w], out=digit.view(_WORD))
                        ands ^= digit.view(_WORD)
                    np.bitwise_count(ands, out=digit)
                    digit &= 1
                elif narrow:
                    sums, prods = sum_buf[: len(v)], prod_buf[: len(v)]
                    np.multiply(v[:, :1], babies[c, 0], out=sums)
                    for kk in range(1, n):
                        np.multiply(v[:, kk : kk + 1], babies[c, kk], out=prods)
                        sums += prods
                    np.copyto(digit, sums)  # a take with narrow indices would copy them to intp
                    np.take(residues, digit, out=digit, mode="clip")
                else:
                    np.matmul(v, babies[:, :, c].T, out=digit)
                    if residues is None:
                        np.remainder(digit, p, out=digit)
                    else:
                        np.take(residues, digit, out=digit, mode="clip")
                if c < k - 1:
                    out *= p
                    out += digit
            yield b * big_b, out.ravel()[: length - b * big_b]

    def parity_blocks(self, gamma: FieldElement, form: np.ndarray, length: int):
        """Yield (start, words): bit i % 64 of word i // 64 is a one-column form over F_2 at gamma^(start + i).

        p = 2 only; bits from length on are 0.  orbit_blocks' split, bit-sliced
        with B a multiple of 64: coordinate kk of the baby forms packs B babies
        to B/64 words, one 256-entry table per byte of the giant coordinates
        holds the XOR of every subset of its 8 packed coordinates, and a giant
        row's words are one table read per byte, xored (the method of Four
        Russians).  A block holds _ORBIT_CHUNK bytes of bits, 8 _ORBIT_CHUNK
        powers (at least one giant row); buffers are as in orbit_blocks.
        """
        n = self.r
        if self.p != 2 or form.shape[1] != 1:
            raise ValueError("parity_blocks reads one form over F_2")
        if length == 0:
            return
        big_b = -(-(math.isqrt(length - 1) + 1) // 64) * 64
        giants, babies = self._baby_giant(gamma, form, length, big_b)
        # column kk of the forms at the B babies, B bits packed to B/64 words
        tables = _byte_tables(_pack(np.unpackbits(babies[0].view(np.uint8), axis=1, count=n, bitorder="little").T))
        giant_bytes = giants.view(np.uint8)
        rows = min(max(1, 8 * _ORBIT_CHUNK // big_b), len(giants))
        out_buf, read_buf = np.empty((2, rows, big_b // 64), dtype=_WORD)
        for b in range(0, len(giants), rows):
            v = giant_bytes[b : b + rows]
            out = _xor_images(tables, v, out_buf[: len(v)], read_buf[: len(v)])
            # the last giant row runs past length: keep its bits below length
            valid = min(len(v) * big_b, length - b * big_b)
            words = out.ravel()[: -(-valid // 64)]
            if valid % 64:
                words[-1] &= np.uint64((1 << valid % 64) - 1)
            yield b * big_b, words

    # -- discrete logarithms --

    def dlog(self, x: FieldElement) -> int:
        """Exponent e in [0, q - 1) with generator^e = x: the only discrete log.

        A read of the log table for q <= LOG_TABLE_MAX_ORDER, Pohlig-Hellman
        above it.  TowerCtx.dlog_g and dlog_gamma multiply or divide it.
        """
        if x.ctx is not self:
            raise ValueError("element from a different field")
        if x.is_zero():
            raise ZeroHasNoLog("zero has no discrete logarithm")
        if self.order > LOG_TABLE_MAX_ORDER:
            return self._pohlig_hellman(x)
        return int(self.log_table()[x.index])

    def log_table(self) -> np.ndarray:
        """Read-only int32 array whose entry i is the log of the element of index i (-1 at 0).

        Scattered block by block from one orbit of the generator and checked
        to be a permutation of F_q*.  Kept on the field when q <=
        LOG_TABLE_MAX_ORDER, built afresh on each call above it.
        """
        if self._log_table is not None:
            return self._log_table
        table = np.full(self.order, -1, dtype=np.int32)
        for start, powers in self.orbit_blocks(self.generator, np.eye(self.r, dtype=np.int64), self.group_order):
            table[powers] = np.arange(start, start + len(powers), dtype=np.int32)
        if table[0] != -1 or np.count_nonzero(table < 0) != 1:
            raise InvariantError("powers of the generator are not a permutation of F_q*")
        table.flags.writeable = False
        if self.order <= LOG_TABLE_MAX_ORDER:
            self._log_table = table
        return table

    def _pohlig_hellman(self, x: FieldElement) -> int:
        """Log of nonzero x to the generator, of order q - 1.

        Digit by digit in each prime-power subgroup of q - 1, then CRT;
        generator^e == x is checked at the end.  The largest prime factor l of
        q - 1 sets the baby-step table, isqrt(l - 1) + 1 entries, which the
        enumeration cap bounds before any step is taken.
        """
        gen, order = self.generator, self.group_order
        fac = factor_prime_power_order(self.p, self.r)
        check_cap(math.isqrt(fac[-1][0] - 1) + 1, None, f"the baby steps of a log in F_{self.order}*")
        result, mod = 0, 1
        for q, e in fac:
            pe = q**e
            g_sub = gen ** (order // pe)
            x_sub = x ** (order // pe)
            gq = g_sub ** (q ** (e - 1))  # generator^(order/q), of order q
            if gq == self.one:
                raise InvariantError("the generator does not have order q - 1")
            log = 0
            for i in range(e):
                t = (x_sub * (g_sub**log).inverse()) ** (q ** (e - 1 - i))
                log += self._bsgs(t, gq, q) * q**i
            # CRT
            result += mod * ((log - result) * pow(mod, -1, pe) % pe)
            mod *= pe
        if not (gen**result == x):
            raise InvariantError("x is not a power of the generator")
        return result % order

    def _bsgs(self, x: FieldElement, g: FieldElement, n: int) -> int:
        """Log of x base g in the cyclic group of prime order n."""
        m = math.isqrt(n - 1) + 1
        key = (g.index, n)
        baby = self._baby_steps.get(key)
        if baby is None:
            baby = {}
            cur = self.one
            for j in range(m):
                baby.setdefault(cur.index, j)
                cur = cur * g
            self._baby_steps[key] = baby
        giant = (g**m).inverse()
        cur = x
        for i in range(m + 1):
            j = baby.get(cur.index)
            if j is not None:
                return (i * m + j) % n
            cur = cur * giant
        raise InvariantError("BSGS found no logarithm")

    # -- serialization --

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "modulus": list(self.modulus),
            "generator_index": self.generator_index,
        }

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r})"


_live_fields = weakref.WeakValueDictionary()  # (p, r) -> the FieldCtx still in use


@lru_cache(maxsize=64)
def build_field(p: int, r: int) -> FieldCtx:
    """Deterministic F_{p^r}; cached, and one instance while any is in use, so a
    field evicted here but held by a cached tower is the one served again."""
    ctx = _live_fields.get((p, r)) or FieldCtx(p, r)
    _live_fields[(p, r)] = ctx
    return ctx


def _left_inverse(e: np.ndarray, p: int) -> np.ndarray:
    """The n x r matrix M over F_p with e @ M = I, for e of shape r x n and rank r.

    Gauss-Jordan on the rows of e, recording the row operations in ops, brings
    ops @ e to reduced form with column pivots[i] the i-th unit vector; so
    e[:, pivots] @ ops = I, and M holds row i of ops at row pivots[i], 0 elsewhere.
    """
    r, n = e.shape
    mat = [[int(c) % p for c in row] for row in e]
    ops = [[int(i == j) for j in range(r)] for i in range(r)]
    pivots = []
    for col in range(n):
        row = len(pivots)
        sel = next((i for i in range(row, r) if mat[i][col]), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        ops[row], ops[sel] = ops[sel], ops[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [c * inv % p for c in mat[row]]
        ops[row] = [c * inv % p for c in ops[row]]
        for i in range(r):
            f = mat[i][col]
            if i != row and f:
                mat[i] = [(c - f * d) % p for c, d in zip(mat[i], mat[row])]
                ops[i] = [(c - f * d) % p for c, d in zip(ops[i], ops[row])]
        pivots.append(col)
        if len(pivots) == r:
            break
    if len(pivots) != r:
        raise InvariantError("embedding basis is not full rank")
    inverse = np.zeros((n, r), dtype=np.int64)
    inverse[pivots] = ops
    return inverse


class TowerCtx:
    """F_q = F_{p^r} with all its extensions F_{q^t}, t | m, inside F_{p^{rm}}.

    gamma[m] is the canonical generator of the top field, gamma[t] its
    norm down to F_{q^t}, and g = gamma[1] the induced generator of F_q.
    """

    def __init__(self, p: int, r: int, m: int):
        if m < 1:
            raise InvalidDegree("tower degree must be >= 1")
        self.p = p
        self.r = r
        self.m = m
        self.q = p**r
        self.base = build_field(p, r)
        self.top = build_field(p, r * m)
        top_group = self.top.group_order
        ts = divisors(m)
        powers = self.top._pows(self.top.generator_index, [top_group // (self.q**t - 1) for t in ts])
        self.gamma: dict[int, FieldElement] = {t: FieldElement(self.top, x) for t, x in zip(ts, powers)}
        self.g = self.gamma[1]
        self._abs_trace_cols: dict[int, np.ndarray] = {}
        self._trace_hists: dict[tuple[int, int], np.ndarray] = {}
        self._verify_tower()

    def _verify_tower(self):
        # gamma_t must have order q^t - 1, and g must be its norm, for all t | m.  The
        # checks on one gamma_t are powers from its one chain of squares; gamma_t^(q^t - 1) = 1
        # is also the subfield test gamma_t^(q^t) = gamma_t, so g, checked at t = 1, lies in F_q
        for t, gt in self.gamma.items():
            n = self.q**t - 1
            primes = [qq for qq, _ in factor_prime_power_order(self.p, self.r * t)]
            checks = self.top._order_chain(gt.index, n, primes, n // (self.q - 1))
            if not all(next(checks) for _ in range(len(primes) + 1)):
                raise InvariantError(f"gamma_{t} does not have order q^{t} - 1")
            if next(checks) != self.g.index:
                raise InvariantError(f"the norm of gamma_{t} is not g")

    # -- subfield structure --

    def frob_q_matrix(self, j: int = 1) -> np.ndarray:
        return self.top.frob_matrix((self.r * j) % (self.r * self.m))

    def subfield_contains(self, x: FieldElement, t: int) -> bool:
        if t % self.m == 0:
            return True
        v = np.array(x.coords, dtype=np.int64)
        out = (v @ self.frob_q_matrix(t)) % self.p
        return tuple(out.tolist()) == x.coords

    def _power_sum(self, step: np.ndarray, count: int) -> np.ndarray:
        """The sum of step^i over i < count, mod p: a trace as a matrix when step is a Frobenius."""
        _check_int64_sums(len(step), self.p)
        acc, f = np.zeros_like(step), np.eye(len(step), dtype=np.int64)
        for _ in range(count):
            acc, f = (acc + f) % self.p, (f @ step) % self.p
        return acc

    def base_trace_form(self) -> np.ndarray:
        """The rm x r form taking x to the F_q coordinates of Tr_{q^m/q}(x).

        The trace matrix T (sum of the q-Frobenius powers) lands in the
        embedded F_q, so composing it with the embedding's left inverse,
        T @ M, reads the base coordinates off directly.
        """
        trace = self._power_sum(self.frob_q_matrix(1), self.m)
        return trace @ self._embedding[1] % self.p

    def abs_trace_column(self, t: int) -> np.ndarray:
        """Linear form giving the absolute trace of F_{q^t}-subfield elements."""
        if t not in self._abs_trace_cols:
            acc = self._power_sum(self.top.frob_matrix(1), self.r * t)
            self._abs_trace_cols[t] = np.ascontiguousarray(acc[:, :1])
        return self._abs_trace_cols[t]

    def trace_rel(self, x: FieldElement, t: int) -> FieldElement:
        """Tr from F_{q^t} to F_q; x must lie in F_{q^t}."""
        self._require_subfield(x, t)
        acc = self.top.zero
        cur = x
        for _ in range(t):
            acc = acc + cur
            cur = cur**self.q
        if not self.subfield_contains(acc, 1):
            raise InvariantError("trace left the base field")
        return acc

    def norm_rel(self, x: FieldElement, t: int) -> FieldElement:
        """Norm from F_{q^t} to F_q; norm of zero is zero."""
        self._require_subfield(x, t)
        if x.is_zero():
            return self.top.zero
        y = x ** ((self.q**t - 1) // (self.q - 1))
        if not self.subfield_contains(y, 1):
            raise InvariantError("norm left the base field")
        return y

    def abs_trace(self, x: FieldElement, t: int) -> int:
        """Absolute trace of x as an element of F_{q^t}, a residue mod p."""
        self._require_subfield(x, t)
        v = np.array(x.coords, dtype=np.int64)
        out = (v @ self.abs_trace_column(t)) % self.p
        return int(out[0])

    def _require_subfield(self, x: FieldElement, t: int):
        if t not in self.gamma:
            raise InvalidDegree(f"{t} does not divide {self.m}")
        if not self.subfield_contains(x, t):
            raise SubfieldViolation(f"element not in F_{{q^{t}}}")

    # -- base field embedding --

    @cached_property
    def _embedding(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, M): E is r x rm with rows beta^i, i < r, and M is rm x r with E @ M = I.

        x @ E embeds F_q coordinates in the top field and y @ M reads them back
        off the embedded F_q.  beta is the first root of the base modulus along
        the powers of g (1 when r = 1); the roots are one Frobenius orbit, so the
        choice is canonical given the canonical gamma.  It is read from F_q's
        logs (_beta_exponent) and checked to be a root.  At m = 1 top and base
        are one field and embed is the identity, so E = M = I.
        """
        if self.m == 1:
            eye = np.eye(self.r, dtype=np.int64)
            return eye, eye
        _check_int64_sums(self.top.r, self.p)
        top, beta = self.top, self.top.one
        if self.r > 1:
            beta, acc = self.g ** self._beta_exponent(), top.zero
            for c in reversed(self.base.modulus):  # the base modulus at beta, by Horner's rule
                acc = acc * beta + top.from_int(c)
            if not acc.is_zero():
                raise InvariantError("base modulus has no root in the top field")
        rows, b = [], self.top.one
        for _ in range(self.r):
            rows.append(b.coords)
            b = b * beta
        e = np.array(rows, dtype=np.int64)
        return e, _left_inverse(e, self.p)

    def _beta_exponent(self) -> int:
        """j with g^j the first root of the base modulus along the powers of g, from F_q's log table.

        h, the minimal polynomial of g over F_p, is the product of Y - g^(p^i),
        i < r.  One vector pass takes h at every G^u, G F_q's generator, by
        Horner's rule with each product a sum of logs, and finds a root G^u0.
        X -> g^(L / u0), L the log of X, is then a field embedding (it sends
        G^u0 to g, both roots of h), so g^e0, e0 = L / u0 mod q - 1, is a root
        of the base modulus; the roots are g^(e0 p^i), and the first is the
        least e0 p^i mod q - 1.  Above LOG_TABLE_MAX_ORDER the log table is
        built afresh for this call, which writes it in place, so q meets the
        default enumeration cap before any work; under the cap every index,
        all below 3(q - 1), fits int32.
        """
        check_cap(self.q, None, f"the log table of F_{self.q} for its embedding")
        p, r, n, top = self.p, self.r, self.q - 1, self.top
        h, conj = [1], self.g.index  # top-field indices, low degree first
        for _ in range(r):
            h = [_index_add(lo, top._mul(conj, hi), p, top.r, -1) for lo, hi in zip([0] + h, h + [0])]
            conj = top._pow(conj, p)
        if max(h) >= p:
            raise InvariantError("the minimal polynomial of g is not over F_p")
        logs = self.base.log_table()
        logs = logs.copy() if logs is self.base._log_table else logs  # else built for this call alone
        logs.flags.writeable = True
        logs[0] = 2 * n  # a product with 0 reads the zero block
        powers = np.zeros(3 * n, dtype=np.int32)  # the index of G^(k mod q - 1) at k < 2(q - 1), then 0
        powers[logs[1:]] = np.arange(1, n + 1, dtype=np.int32)
        powers[n : 2 * n] = powers[:n]
        u = np.arange(n, dtype=np.int32)
        acc = np.ones(n, dtype=np.int32)
        for c in reversed(h[:-1]):
            acc = powers[logs[acc] + u]
            acc += (acc + c) % p - acc % p  # c lies in F_p, so only digit 0 moves
        roots = np.flatnonzero(acc == 0)
        if not len(roots) or math.gcd(int(roots[0]), n) != 1:
            raise InvariantError("g's minimal polynomial has no root of order q - 1 in F_q")
        e0 = int(logs[p]) * pow(int(roots[0]), -1, n) % n
        return min(e0 * p**i % n for i in range(r))

    def embed(self, x: FieldElement) -> FieldElement:
        """Map a base-field element into the top field."""
        if x.ctx is self.top:
            return x
        if x.ctx is not self.base:
            raise ValueError("embed expects a base-field element")
        return self.top.elem((np.array(x.coords, dtype=np.int64) @ self._embedding[0] % self.p).tolist())

    def to_base(self, y: FieldElement) -> FieldElement:
        """Inverse of embed; raises SubfieldViolation off the F_q subset."""
        if y.ctx is self.base:
            return y
        cand = self.base.elem((np.array(y.coords, dtype=np.int64) @ self._embedding[1] % self.p).tolist())
        if not self.embed(cand) == y:
            raise SubfieldViolation("element is not in the embedded base field")
        return cand

    # -- discrete logs relative to the tower labels --

    @cached_property
    def g_log_inv(self) -> int:
        """The inverse mod q - 1 of F_q's log of g: log_g(x) = log(x) * g_log_inv.

        Computed on first use, so a tower that never takes a log to g never
        builds its embedding.
        """
        n = self.q - 1
        log_g = self.base.dlog(self.to_base(self.g))
        if math.gcd(log_g, n) != 1:
            raise InvariantError("g does not generate F_q*")
        return pow(log_g, -1, n)

    def dlog_gamma(self, x: FieldElement, t: int) -> int:
        """Index of x in the cyclic group generated by gamma_t.

        gamma_t = gamma_m^k with k = (q^m - 1)/(q^t - 1), so for t > 1 this is
        the top field's log of x divided by k.
        """
        if t == 1:
            return self.dlog_g(x)
        self._require_subfield(x, t)
        e, k = self.top.dlog(x), self.top.group_order // (self.q**t - 1)
        if e % k:
            raise InvariantError(f"x is not a power of gamma_{t}")
        return e // k

    def dlog_g(self, x: FieldElement) -> int:
        """Index of x in the group generated by g, taken in F_q; x may be given in the top field."""
        return self.base.dlog(self.to_base(x)) * self.g_log_inv % (self.q - 1)

    # -- bulk enumeration --

    def trace_blocks(self, t: int, cap: int | None = None):
        """orbit_blocks of abs_trace(gamma_t^j, t), j < q^t - 1; refuses t not dividing m or q^t over the cap."""
        if t not in self.gamma:
            raise InvalidDegree(f"{t} does not divide {self.m}")
        check_cap(self.q**t, cap, f"the orbit of F_{{q^{t}}}")
        return self.top.orbit_blocks(self.gamma[t], self.abs_trace_column(t), self.q**t - 1)

    def orbit_abs_traces(self, t: int, cap: int | None = None) -> np.ndarray:
        """trace_blocks joined into one array, in the smallest unsigned dtype holding p - 1; not cached."""
        dtype = np.min_scalar_type(self.p - 1)
        return np.concatenate([traces.astype(dtype) for _, traces in self.trace_blocks(t, cap)])

    @cached_property
    def base_traces(self) -> np.ndarray:
        """abs_trace(g^c, 1) at c < 2(q - 1), int64: the traces of g^(k + w), w < q - 1, are one slice."""
        hist = self._trace_hists.get((1, self.q - 1))
        if hist is not None:  # a cached trace_hist(1, q - 1): row c is one-hot at the trace of g^c
            labels = hist.argmax(axis=1)
        else:  # not orbit_abs_traces(1): perfbench's probe on it reads _orbit_traces, gone from TowerCtx (CHANGES.md, FOUND)
            labels = np.concatenate([traces.copy() for _, traces in self.trace_blocks(1)])
        return np.concatenate([labels, labels])

    def trace_hist(self, t: int, g: int, cap: int | None = None) -> np.ndarray:
        """H[c, tau] = #{j < q^t - 1 : j = c mod g, abs_trace(gamma_t^j, t) = tau}.

        A read-only int64 array of shape (g, p); g must divide q^t - 1.  A
        character sum over F_{q^t}* whose summand at gamma_t^j depends only
        on j mod g and the trace is a read of this table.  The cap bounds
        both the orbit (q^t) and the table (g p); it is tested on every
        call.  The last _TRACE_HIST_CACHE_SIZE tables are kept.
        """
        big_q = self.q**t - 1
        if g < 1 or big_q % g:
            raise ValidationError(f"{g} does not divide q^{t} - 1 = {big_q}")
        check_cap(max(big_q + 1, g * self.p), cap, f"the F_{{q^{t}}} trace histogram by {g} classes")
        key = (t, g)
        if key not in self._trace_hists:
            size = g * self.p
            hist = np.zeros(size, dtype=np.int64)
            classes = np.empty(0, dtype=np.int64)
            for start, labels in self.trace_blocks(t, cap):
                # label (j mod g) p + tau in place; the class offset has period g, so each block slices one pattern
                offset = start % g
                if len(classes) < offset + len(labels):
                    classes = np.tile(np.arange(0, size, self.p, dtype=np.int64), len(labels) // g + 2)
                labels += classes[offset : offset + len(labels)]
                if size > len(labels):  # a bincount would cost the whole table per block
                    np.add.at(hist, labels, 1)
                else:
                    hist += np.bincount(labels, minlength=size)
            hist = hist.reshape(g, self.p)
            hist.flags.writeable = False
            self._trace_hists[key] = hist
            while len(self._trace_hists) > _TRACE_HIST_CACHE_SIZE:
                del self._trace_hists[next(iter(self._trace_hists))]
        return self._trace_hists[key]

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "top_modulus": list(self.top.modulus),
            "m": self.m,
            "gamma_index": self.top.generator_index,
            "g_index": self.g.index,
        }

    def __repr__(self):
        return f"TowerCtx(p={self.p}, r={self.r}, m={self.m})"


@lru_cache(maxsize=64)
def build_tower(p: int, r: int, m: int) -> TowerCtx:
    return TowerCtx(p, r, m)


def min_poly(tower: TowerCtx, x: FieldElement):
    """Minimal polynomial of x over F_q: (coefficients low->high, degree).

    Coefficients are base-field elements; the polynomial is monic and
    irreducible of degree t, the least t | m with x^{q^t} = x.
    """
    q = tower.q
    t = next(d for d in divisors(tower.m) if tower.subfield_contains(x, d))
    conjugates = []
    cur = x
    for _ in range(t):
        conjugates.append(cur)
        cur = cur**q
    if not cur == x:
        raise InvariantError("conjugates of x do not close up")
    # product of (X - conj) with top-field coefficients
    poly = [tower.top.one]
    for c in conjugates:
        nxt = [tower.top.zero] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + a
            nxt[i] = nxt[i] - a * c
        poly = nxt
    base_coeffs = tuple(tower.to_base(c) for c in poly)
    return base_coeffs, t
