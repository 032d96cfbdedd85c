"""Almost p-ary sequences and their exact autocorrelation profiles.

A sequence of period N holds symbols that are either the zero-symbol
(modelled as None) or a p-th root of unity zeta_p^b (modelled as the
exponent b). Autocorrelation coefficients are computed exactly in Z[zeta_p]:

    C(t) = sum over i of a_i * conj(a_{i+t}),  indices cyclic mod N,

where zero-symbol positions contribute nothing.

One kernel computes every coefficient at once as a raw N x p count matrix:
counts[t][d] is the number of positions i with a_i, a_{i+t} nonzero and
b_i - b_{i+t} = d (mod p), so C(t) = sum over d of counts[t][d] * zeta^d.
`_place` adds (or takes back) the pairs one position forms with the ones
before it, so the scans change one matrix a position at a time. Reflected
(row N - d as row d, zero row 0), the matrix is the difference multiset of
R_a = {(i, b_i)} in Z_N x Z_p, so sequences get their PDPDS classification
from the profile's rows; the dense grid of `diffset` is for free subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .cyclotomic import CyclotomicInt, _canonicalize, _require_cells, _require_prime

Symbol = int | None  # None = zero-symbol, int = root exponent in [0, p)


@dataclass(frozen=True)
class AlmostParySequence:
    """Period-N symbol list over {zero-symbol} union {zeta_p^b}."""

    p: int
    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        _require_cells(len(self.symbols), self.p)
        _require_prime(self.p)
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
    _require_cells(len(tokens), p)
    _require_prime(p)
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
        if not 0 <= b < p:
            raise ValueError(f"exponent {b} out of range for p={p}")
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


def _place(rows: list[list[int]], symbols, k: int, sign: int) -> None:
    """Add (sign 1) or take back (sign -1) the pairs that position k forms with
    itself and the positions before it: pair (j, k) counts b_j - b_k in row
    k - j and b_k - b_j in row N - (k - j). A negative column indexes from the
    end of its row, which is the column mod p."""
    b = symbols[k]
    if b is None:
        return
    N = len(symbols)
    rows[0][0] += sign
    for j in range(k):
        a = symbols[j]
        if a is not None:
            rows[k - j][a - b] += sign
            rows[N - k + j][b - a] += sign


def _count_matrix(seq: AlmostParySequence) -> tuple[tuple[int, ...], ...]:
    """The raw N x p counts: row t, column d counts the positions i with
    b_i - b_{i+t} = d (mod p), from placing each position in turn."""
    symbols = seq.symbols
    rows = [[0] * seq.p for _ in symbols]
    for k in range(len(symbols)):
        _place(rows, symbols, k, 1)
    return tuple([tuple(row) for row in rows])


def autocorrelation(seq: AlmostParySequence, t: int) -> CyclotomicInt:
    """Exact autocorrelation coefficient C(t) for 0 <= t < period."""
    if not 0 <= t < seq.period:
        raise ValueError(f"shift {t} out of range for period {seq.period}")
    return CyclotomicInt(seq.p, _canonicalize(_count_matrix(seq)[t]))


@dataclass(frozen=True)
class AutocorrelationProfile:
    """The raw count matrix of a sequence (see the module docstring) and the
    summary of its out-of-phase coefficients C(1) .. C(N-1).

    ell and integral_values are read from the canonical vectors of rows
    1 .. N-1 when the profile is made; `values` (CyclotomicInt) is built on
    first access.
    """

    counts: tuple[tuple[int, ...], ...]  # counts[t][d], t = 0 .. N-1
    ell: int = field(init=False)
    integral_values: tuple[int, ...] | None = field(init=False)

    def __post_init__(self) -> None:
        canonical = [_canonicalize(row) for row in self.counts[1:]]
        tail = (0,) * (len(self.counts[0]) - 1)
        ints = [v[0] for v in canonical if v[1:] == tail]
        object.__setattr__(self, "ell", len(set(canonical)))
        object.__setattr__(
            self, "integral_values", tuple(ints) if len(ints) == len(canonical) else None
        )

    @property
    def all_integral(self) -> bool:
        return self.integral_values is not None

    @cached_property
    def values(self) -> tuple[CyclotomicInt, ...]:
        """C(1) .. C(N-1)."""
        p = len(self.counts[0])
        return tuple([CyclotomicInt(p, _canonicalize(row)) for row in self.counts[1:]])

    def value(self, t: int) -> CyclotomicInt:
        """C(t) for 1 <= t <= N-1."""
        return self.values[t - 1]

    @property
    def difference_grid(self) -> tuple[tuple[int, ...], ...]:
        """The difference multiset of R_a = {(i, b_i)}: grid[d_h][d_g].

        grid[0] is zero, since R_a has one element per position, and
        grid[d] is row N - d: the pair ((i, b_i), (i + t, b_{i+t})) has
        difference (N - t, b_i - b_{i+t}).
        """
        return ((0,) * len(self.counts[0]),) + self.counts[:0:-1]

    @property
    def nps_type(self) -> NpsType | None:
        """Positional nearly-perfect type, or None.

        Succeeds when every out-of-phase coefficient is a rational integer,
        C(1) = C(N-1) (automatic once integral, by conjugate symmetry), and all
        remaining shifts share one value gamma2. For N = 3 there are no
        remaining shifts and the type degenerates to (gamma1, gamma1). None
        for N = 2, which has no such split.
        """
        ints = self.integral_values
        if ints is None or len(ints) < 2 or ints[-1] != ints[0]:
            return None
        rest = ints[1:-1]
        gamma2 = rest[0] if rest else ints[0]
        if any(v != gamma2 for v in rest):
            return None
        return NpsType(ints[0], gamma2)

    @property
    def two_valued(self) -> frozenset[int] | None:
        """The set of out-of-phase values when they are integers taking at
        most two distinct values, at any positions; None otherwise."""
        if self.integral_values is None:
            return None
        distinct = frozenset(self.integral_values)
        return distinct if len(distinct) <= 2 else None


def profile(seq: AlmostParySequence) -> AutocorrelationProfile:
    """The count matrix of every shift and its out-of-phase summary."""
    if seq.period < 2:
        raise ValueError("profile needs period >= 2")
    return AutocorrelationProfile(_count_matrix(seq))


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
    """Relaxed check: at most two distinct integer out-of-phase values, any positions.

    Returns the value set when it applies, None otherwise. This covers
    sequences whose zero-symbols are not consecutive, where the positional
    classification above may fail.
    """
    return profile(seq).two_valued
