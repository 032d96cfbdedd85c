"""Almost p-ary sequences and their exact autocorrelation profiles.

A sequence of period N holds symbols that are either the zero-symbol
(modelled as None) or a p-th root of unity zeta_p^b (modelled as the
exponent b). Autocorrelation coefficients are computed exactly in Z[zeta_p]:

    C(t) = sum over i of a_i * conj(a_{i+t}),  indices cyclic mod N,

where zero-symbol positions contribute nothing.

One kernel computes every coefficient at once as a raw N x p count matrix:
counts[t][d] is the number of positions i with a_i, a_{i+t} nonzero and
b_i - b_{i+t} = d (mod p), so C(t) = sum over d of counts[t][d] * zeta^d.
The matrix is one int: row t is 2p slots of w bits at bit t*R, R = 2*p*w,
w the least of 8, 16 or 32 with 2^(w-1) > N; column d is slot d + slot d+p.
The scans place digit b at position k of a node (M, H, G), with histories
H = sum over j < k of 2^((k-j)*R + b_j*w) and G = sum over j < k of
2^((N-k+j)*R + (p-b_j)*w), in three big-int updates: M += (H << (p-b)*w) +
(G << b*w) + 1, H = (H + 2^(b*w)) << R, G = (G >> R) + 2^((N-1)*R + (p-b)*w)
(`_stepper`). `_batch` places the last L digits below one node: it
makes the same updates on all the nodes of a level at once, packed side
by side at a stride of N*R bits, leaf s_0 .. s_{L-1} at position s_0 +
s_1*p + ... (the packing order). f = (M & LOW) + ((M >> p*w) & LOW) folds
the slots, leaving slots p .. 2p-1 zero. `_new_reader(p, N, m)` owns K =
f + HALFS - ((f >> (p-1)*w) & LOW) * ONES, for blocks of m matrices,
whose row t is C(t)'s canonical vector plus 2^(w-1) in every column:
ell counts its distinct rows 1 .. N-1, and C(t) is a rational integer,
column 0 less 2^(w-1), when the other columns hold just 2^(w-1). It
serves the scans' batches alone: the ells of any number of a batch's
matrices in one pass, and the integral values of one of them when asked.
`profile` packs counts[t] from row -t of R_a R_a^(-1), R_a = {(i, b_i)}, as
`cyclotomic._pair_counts` counts it; every PDPDS class is closed under that
inversion, so the classification reads the matrix as it is. A profile reads
ell and the integral values from its own count rows, each canonicalised
once and kept for `values`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat

from .cyclotomic import CyclotomicInt, _canonicalize, _pair_counts, _require_grid

Symbol = int | None  # None = zero-symbol, int = root exponent in [0, p)


@dataclass(frozen=True)
class AlmostParySequence:
    """Period-N symbol list over {zero-symbol} union {zeta_p^b}."""

    p: int
    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        _require_grid(len(self.symbols), self.p)
        if not self.symbols:
            raise ValueError("sequence must have at least one symbol")
        for sym in self.symbols:
            if sym is not None and not 0 <= sym < self.p:
                raise ValueError(f"exponent {sym} out of range for p={self.p}")

    @property
    def period(self) -> int:
        return len(self.symbols)

    @cached_property
    def zero_positions(self) -> tuple[int, ...]:
        return tuple(i for i, sym in enumerate(self.symbols) if sym is None)

    @property
    def s(self) -> int:
        """Number of zero-symbols."""
        return len(self.zero_positions)

    @property
    def n(self) -> int:
        """Number of nonzero (root of unity) symbols."""
        return self.period - self.s

    @cached_property
    def _zero_run_start(self) -> int | None:
        """Start r of the cyclic zero run {r, ..., r+s-1} mod N (0 when s is 0
        or N), or None when the zero positions are not one run."""
        if self.s in (0, self.period):
            return 0
        zeros = set(self.zero_positions)
        starts = [r for r in self.zero_positions if (r - 1) % self.period not in zeros]
        return starts[0] if len(starts) == 1 else None

    @property
    def has_consecutive_zeros(self) -> bool:
        """True iff the zero positions form one cyclic run of length s."""
        return self._zero_run_start is not None


def parse_sequence(p: int, text: str) -> AlmostParySequence:
    """Parse comma-separated tokens: "Z" for the zero-symbol, else an exponent.

    Example: parse_sequence(3, "Z,Z,1,1,1").
    """
    tokens = [tok.strip() for tok in text.split(",")]
    _require_grid(len(tokens), p)
    if tokens == [""]:
        raise ValueError("empty sequence text")
    symbols: list[Symbol] = []
    for tok in tokens:
        if tok.upper() == "Z":
            symbols.append(None)
            continue
        try:
            b = int(tok)
        except ValueError:
            raise ValueError(f"bad sequence token {tok!r}") from None
        symbols.append(b)
    return AlmostParySequence(p, tuple(symbols))


def rotate(seq: AlmostParySequence, r: int) -> AlmostParySequence:
    """Cyclic left rotation by r positions (autocorrelation-invariant)."""
    N = seq.period
    r %= N
    return AlmostParySequence(seq.p, seq.symbols[r:] + seq.symbols[:r])


def shift_phase(seq: AlmostParySequence, c: int) -> AlmostParySequence:
    """Multiply every nonzero symbol by zeta_p^c (autocorrelation-invariant)."""
    return AlmostParySequence(
        seq.p,
        tuple(None if b is None else (b + c) % seq.p for b in seq.symbols),
    )


def normalize_leading_zeros(seq: AlmostParySequence) -> AlmostParySequence:
    """Rotate a consecutive-zero sequence so its zero run starts at index 0."""
    start = seq._zero_run_start
    if start is None:
        raise ValueError("zero-symbols are not cyclically consecutive")
    return rotate(seq, start)


def _width(N: int) -> tuple[int, str]:
    """(w, code): the column width, the least of 8, 16 or 32 with 2^(w-1) > N,
    and the struct code of one column."""
    return (8, "B") if N < 1 << 7 else (16, "H") if N < 1 << 15 else (32, "I")


@lru_cache(maxsize=64)  # a struct of a few codes per (p, N)
def _row(p: int, N: int) -> struct.Struct:
    """The struct that reads slots 0 .. p-1 of one row as ints."""
    w, code = _width(N)
    return struct.Struct(f"<{p}{code}{p * w // 8}x")


def _low(p: int, N: int, m: int = 1) -> int:
    """LOW: every bit of slots 0 .. p-1 of every row of m matrices, built afresh."""
    half = p * _width(N)[0] // 8  # bytes of p slots, half a row
    return int.from_bytes((b"\xff" * half + bytes(half)) * (N * m), "little")


def _masks(p: int, N: int, m: int = 1) -> tuple[int, int, int]:
    """(LOW, HALFS, ONES), built afresh: LOW covers slots 0 .. p-1 of every
    row of m matrices, HALFS holds 2^(w-1) in each of them and ONES is 1 in
    slots 0 .. p-1 of row 0."""
    w = _width(N)[0]
    size, half = w // 8, (1 << w - 1).to_bytes(w // 8, "little")
    row = (half * p).ljust(2 * p * size, b"\0")
    ones = int.from_bytes((1).to_bytes(size, "little") * p, "little")
    return _low(p, N, m), int.from_bytes(row * (N * m), "little"), ones


def _new_reader(p: int, N: int, m: int):
    """read(blocks, offsets) -> (ells, integral): blocks holds folded
    matrices, m in each, packed at a stride of N*R bits (the matrix at
    position i is at bit i*N*R of the blocks joined); ells[k] is the ell of
    the matrix at byte offset offsets[k] of the join, all read in one pass
    with no bytecode run per matrix, and integral(k) its integral values
    when they are integers, else None, read from the same bytes when asked.
    Read from K (see the module docstring), the one place K is formed."""
    w, code = _width(N)
    low, halfs, ones = _masks(p, N, m)
    top, bias, span, size = (p - 1) * w, 1 << w - 1, 2 * p * w // 8, w // 8
    length = m * N * span
    # K's slots p .. 2p-1 are 0, so a row's key, slots 0 .. p-1, and its
    # rest, slots 1 .. p-1, may each be read as one int of up to 2p slots
    key, rest = (
        next((c for c in "BHIQ" if struct.calcsize(c) >= slots * size), f"{slots * size}s")
        for slots in (p, p - 1)
    )
    rows = N - 1  # rows 1 .. N-1 of a matrix
    keys = struct.Struct(f"<{span}x" + f"{key}{span - struct.calcsize(key)}x" * rows).unpack_from
    firsts = struct.Struct(f"<{span}x" + f"{code}{span - size}x" * rows).unpack_from
    # rational exactly when slots 1 .. p-1 of rows 1 .. N-1 hold just the bias
    gap = span - size - struct.calcsize(rest)
    rests = struct.Struct(f"<{span}x" + f"{size}x{rest}{gap}x" * rows).unpack_from
    biased = (1 << w - 1).to_bytes(size, "little") * (p - 1)
    unbiased = struct.unpack(f"<{rest}", biased.ljust(struct.calcsize(rest), b"\0")) * rows

    def read(blocks, offsets):
        # one K per block; bytes.join hands a lone block back uncopied
        Ks = [f + halfs - (f >> top & low) * ones for f in blocks]
        data = b"".join([K.to_bytes(length, "little") for K in Ks])

        def integral(k: int) -> tuple[int, ...] | None:
            if rests(data, offsets[k]) != unbiased:
                return None
            return tuple([c - bias for c in firsts(data, offsets[k])])

        return [*map(len, map(set, map(keys, repeat(data), offsets)))], integral

    return read


def _counts(p: int, N: int, f: int) -> tuple[tuple[int, ...], ...]:
    """counts[t][d], t = 0 .. N-1, d = 0 .. p-1, of a folded matrix f."""
    row = _row(p, N)
    return tuple(row.iter_unpack(f.to_bytes(N * row.size, "little")))


def _nps_type(ints: tuple[int, ...] | None) -> NpsType | None:
    """The positional type of integral out-of-phase values C(1) .. C(N-1)
    (see AutocorrelationProfile.nps_type), or None."""
    if ints is None or len(ints) < 2 or ints[0] != ints[-1] or len(set(ints[1:-1])) > 1:
        return None
    return NpsType(ints[0], ints[1])


def _stepper(p: int, N: int):
    """step(node, b): place digit b at the next position of node (M, H, G),
    (0, 0, 0) before the first digit."""
    w = _width(N)[0]
    R, top = 2 * p * w, (N - 1) * 2 * p * w

    def step(node: tuple[int, int, int], b: int) -> tuple[int, int, int]:
        M, H, G = node
        g, h = b * w, (p - b) * w
        return M + (H << h) + (G << g) + 1, (H + (1 << g)) << R, (G >> R) + (1 << top + h)

    return step


_BATCH_LEAVES = 1 << 10  # the most leaves, p^L, in one batch
_BATCH_BITS = 1 << 21  # the widest batch of packed matrices


def _batch_depth(p: int, N: int) -> int:
    """The most digits L a batch of (p, N) may place: p^L <= _BATCH_LEAVES
    leaves whose matrices, N*R bits each, fit in _BATCH_BITS."""
    fits = min(_BATCH_LEAVES, _BATCH_BITS // (N * 2 * p * _width(N)[0]))
    L, leaves = 0, p
    while leaves <= fits:
        L, leaves = L + 1, leaves * p
    return L


def _batch(p: int, N: int, L: int):
    """(leaves, read, matrix, offsets) of the batches placing L digits:
    leaves(node), a node (M, H, G), is the folded matrices of its p^L
    descendants L digits below, packed at a stride of N*R bits in blocks of
    p^(L-1), one per last digit, leaf j of digits s_0 .. s_{L-1}, j = s_0 +
    s_1*p + ... + s_{L-1}*p^(L-1), at byte offsets[j] of the blocks' bytes
    joined; read(blocks, picked) (`_new_reader`) gives the ells of the
    leaves at the byte offsets picked, and their integral values on demand,
    and matrix(blocks, picked, k) the folded matrix of the k-th of them.

    leaves places each digit on all the nodes of a level at once, packed:
    child b of parent i at position i + b*(the level's parents), which is
    `_stepper`'s update with its +1 and 2^x terms repeated in every node.
    No bits cross a stride. Placing position k, a node's M, H and G hold
    the pairs among positions < k, one count below 2^(w-1) per slot: M any
    row, H rows 1 .. k-s and G rows N-k+s .. N-1 (s the zero run), each in
    slots 0 .. p-1. So H << (p-b)*w and G << b*w stay in slots 0 .. 2p-1
    of their rows, H << R reaches row k-s+1 <= N-1 when a digit follows (k
    <= N-2), and G >> R drops an empty row 0 (k <= N-1), so no row moves
    into a neighbour's; the last digit updates M alone. A level's p copies
    of a node are made by shifts and adds at p <= 3, where they are the
    faster, and by one byte copy above, where the shifts cost more with
    each copy (slower at p = 7, about 4 times the byte copy at p = 31, on a
    2-core host). The byte copy's to_bytes fails rather than let a node
    past its stride; at p <= 3 the bound above alone keeps each copy in
    its own."""
    w = _width(N)[0]
    R, pw, size = 2 * p * w, p * w, w // 8
    top, stride = (N - 1) * R, N * R // 8
    per_block = p ** max(L - 1, 0)
    low, block, mask = _low(p, N, per_block), per_block * stride, (1 << N * R) - 1

    def pack(parts, width: int) -> int:
        return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in parts]), "little")

    def rep(x: int, width: int) -> int:
        """p copies of x, width bytes apart."""
        if p > 3:
            return int.from_bytes(x.to_bytes(width, "little") * p, "little")
        bits = 8 * width
        return x + (x << bits) if p == 2 else x + (x << bits) + (x << 2 * bits)

    # per level: the bytes of its parents, 1 in row 0 of each parent and of
    # each child, and the +1 terms of its children's H and G
    levels = []
    for i in range(L):
        parents = p**i * stride
        one, ones = (
            int.from_bytes((b"\1" + bytes(stride - 1)) * p**j, "little") for j in (i, i + 1)
        )
        hs = pack([one << b * w + R for b in range(p)], parents)
        gs = pack([one << top + (p - b) * w for b in range(p)], parents)
        levels.append((parents, one, ones, hs, gs))

    def fold(M: int) -> int:
        return (M & low) + (M >> pw & low)

    def leaves(node) -> list[int]:
        M, H, G = node
        for i, (parents, one, ones, hs, gs) in enumerate(levels):
            if i == L - 1:  # the last digit: one block per digit, M alone
                return [fold(M + (H << (p - b) * w) + (G << b * w) + one) for b in range(p)]
            # child b: M + (H << (p-b)*w) + (G << b*w) + 1, so H's copies
            # stand size bytes closer (p*w - b*w) and G's size bytes apart
            M, H, G = (
                rep(M, parents) + (rep(H, parents - size) << pw) + rep(G, parents + size) + ones,
                (rep(H, parents) << R) + hs,
                (rep(G, parents) >> R) + gs,
            )
        return [fold(M)]

    def matrix(blocks, picked, k: int) -> int:
        at = picked[k]
        return blocks[at // block] >> at % block * 8 & mask

    offsets = [j * stride for j in range(p**L)]
    return leaves, _new_reader(p, N, per_block), matrix, offsets


def _count_matrix(seq: AlmostParySequence) -> int:
    """Pack rows 0, -1, ..., -(N-1) of R_a R_a^(-1), R_a the nonzero (i, b_i)."""
    nonzero = [(i, b) for i, b in enumerate(seq.symbols) if b is not None]
    grid = _pair_counts(seq.period, seq.p, nonzero)
    pack = _row(seq.p, seq.period).pack
    return int.from_bytes(b"".join([pack(*row) for row in grid[:1] + grid[:0:-1]]), "little")


def autocorrelation(seq: AlmostParySequence, t: int) -> CyclotomicInt:
    """Exact autocorrelation coefficient C(t) for 0 <= t < period."""
    if not 0 <= t < seq.period:
        raise ValueError(f"shift {t} out of range for period {seq.period}")
    counts = [0] * seq.p
    for a, b in zip(seq.symbols, seq.symbols[t:] + seq.symbols[:t]):
        if a is not None and b is not None:
            counts[a - b] += 1
    return CyclotomicInt(seq.p, _canonicalize(tuple(counts)))


@dataclass(frozen=True)
class AutocorrelationProfile:
    """The folded count matrix f of a sequence (see the module docstring) and
    the summary of its out-of-phase coefficients C(1) .. C(N-1), read from
    the canonical vectors of count rows 1 .. N-1; `values` (CyclotomicInt)
    are made from those vectors on demand."""

    p: int
    period: int
    matrix: int
    ell: int = field(init=False)
    integral_values: tuple[int, ...] | None = field(init=False)
    _canonical: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple([_canonicalize(row) for row in self.counts[1:]])
        # C(t) is rational exactly when its canonical vector is 0 past column 0
        rational = not any([any(row[1:]) for row in rows])
        object.__setattr__(self, "_canonical", rows)
        object.__setattr__(self, "ell", len(set(rows)))
        integral = tuple([row[0] for row in rows]) if rational else None
        object.__setattr__(self, "integral_values", integral)

    @property
    def all_integral(self) -> bool:
        return self.integral_values is not None

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """counts[t][d], t = 0 .. N-1, d = 0 .. p-1."""
        return _counts(self.p, self.period, self.matrix)

    @cached_property
    def values(self) -> tuple[CyclotomicInt, ...]:
        """C(1) .. C(N-1)."""
        return tuple([CyclotomicInt(self.p, row) for row in self._canonical])

    @property
    def nps_type(self) -> NpsType | None:
        """Positional nearly-perfect type, or None.

        Succeeds when every out-of-phase coefficient is a rational integer,
        C(1) = C(N-1), and all remaining shifts share one value gamma2. A
        sequence's matrix has C(1) = C(N-1) once integral, by conjugate
        symmetry; a matrix made by hand need not, so it is checked. For
        N = 3 there are no remaining shifts and the type degenerates to
        (gamma1, gamma1). None for N = 2, which has no such split.
        """
        return _nps_type(self.integral_values)

    @property
    def two_valued(self) -> frozenset[int] | None:
        """The set of out-of-phase values when they are integers taking at
        most two distinct values, at any positions; None otherwise."""
        ints = self.integral_values
        return frozenset(ints) if ints is not None and self.ell <= 2 else None


def profile(seq: AlmostParySequence) -> AutocorrelationProfile:
    """The count matrix of every shift and its out-of-phase summary."""
    return AutocorrelationProfile(seq.p, seq.period, _count_matrix(seq))


@dataclass(frozen=True)
class NpsType:
    """Nearly-perfect classification: gamma1 at shifts {1, N-1}, gamma2 elsewhere."""

    gamma1: int
    gamma2: int

    @property
    def uniform(self) -> bool:
        return self.gamma1 == self.gamma2


def classify_nps(seq: AlmostParySequence) -> NpsType | None:
    """Positional nearly-perfect classification (see AutocorrelationProfile.nps_type)."""
    if seq.period < 3:
        raise ValueError("classification needs period >= 3")
    return profile(seq).nps_type


def two_valued_set(seq: AlmostParySequence) -> frozenset[int] | None:
    """Relaxed check (AutocorrelationProfile.two_valued); the zeros may be anywhere."""
    return profile(seq).two_valued
