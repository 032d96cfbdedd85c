"""The packed count-matrix kernel behind profile(): two siblings stepped from
one node of the walk leave it alone and fold to the matrices of the
sequences placed, the leaves of a batch of nodes built at once are the
matrices of their subtrees and read as profile reads them, the row slices
of K are the biased canonical vectors, the reflected rows are the
difference multiset of R_a, its shifts sum to |S|^2, decimation and phase
leave the profile's invariants and classes alone, reversal negates the
count columns and reversal with negation keeps the matrix, and every value
matches the definitional sum, at the edges of the column width too."""

import itertools
import tracemalloc

import pytest

from npseq import cyclotomic, sequence
from npseq.cyclotomic import MAX_CELLS, CyclotomicInt, _canonicalize
from npseq.diffset import GroupSubset, build_ra, classify_grid, difference_multiset
from npseq.search import SearchConfig
from npseq.sequence import (
    AlmostParySequence,
    AutocorrelationProfile,
    _batch,
    _count_matrix,
    _low,
    _masks,
    _reader,
    _row,
    _stepper,
    _width,
    autocorrelation,
    profile,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def sequences(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(2, 12))
    symbol = st.one_of(st.none(), st.integers(0, p - 1))
    return AlmostParySequence(p, tuple(draw(st.lists(symbol, min_size=N, max_size=N))))


@settings(max_examples=200, deadline=None)
@given(sequences(), st.data())
def test_siblings_step_from_one_parent(seq, data):
    # the walk's steps: two sibling digit tails stepped from one parent node
    # (M, H, G), after a zero run that adds nothing
    p, N = seq.p, seq.period
    zeros = data.draw(st.integers(0, N - 1))
    digit = st.integers(0, p - 1)
    head = data.draw(st.lists(digit, max_size=N - zeros))
    rest = N - zeros - len(head)
    step, low = _stepper(p, N), _low(p, N)
    w = _width(N)[0]

    def fold(M):
        return (M & low) + (M >> p * w & low)

    def matrix(digits):
        return _count_matrix(AlmostParySequence(p, (None,) * zeros + tuple(digits)))

    parent = (0, 0, 0)
    for b in head:
        parent = step(parent, b)
    before = parent
    for tail in (data.draw(st.lists(digit, min_size=rest, max_size=rest)) for _ in range(2)):
        node = parent
        for b in tail:
            node = step(node, b)
        assert parent == before
        # the parent holds the pairs of the digits placed, the rest zero-symbols
        assert fold(parent[0]) == matrix(head + [None] * rest)
        assert fold(node[0]) == matrix(head + tail)


@settings(max_examples=200, deadline=None)
@given(sequences(), st.data())
def test_batch_leaves_are_the_subtree_matrices(seq, data):
    # a node with the L digits below it placed at once: its leaf with
    # digits s_0 .. s_{L-1} sits at position j = s_0 + s_1*p + ..., byte
    # offsets[j], and the batch's reader and matrix read it as profile does
    p, N = seq.p, seq.period
    zeros = data.draw(st.integers(0, N - 1))
    L = data.draw(st.integers(0, min(3, N - zeros)))
    depth = N - zeros - L
    head = data.draw(st.lists(st.integers(0, p - 1), min_size=depth, max_size=depth))
    step = _stepper(p, N)
    node = (0, 0, 0)
    for b in head:
        node = step(node, b)
    leaves, read, matrix, offsets = _batch(p, N, L)
    blocks = leaves(node)
    stride = N * 2 * p * _width(N)[0] // 8
    assert offsets == [j * stride for j in range(p**L)]
    joined = b"".join([f.to_bytes(p**L // len(blocks) * stride, "little") for f in blocks])
    assert len(joined) == p**L * stride
    picked, expected = [], []
    for tail in itertools.product(range(p), repeat=L):
        offset = offsets[sum(b * p**k for k, b in enumerate(tail))]
        f = int.from_bytes(joined[offset : offset + stride], "little")
        prof = profile(AlmostParySequence(p, (None,) * zeros + tuple(head) + tail))
        assert f == prof.matrix
        picked.append(offset)
        expected.append(prof)
    assert [matrix(blocks, picked, k) for k in range(len(picked))] == [
        prof.matrix for prof in expected
    ]
    ells, integral = read(blocks, picked)
    assert ells == [prof.ell for prof in expected]
    assert [integral(k) for k in range(len(picked))] == [prof.integral_values for prof in expected]


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_keys_are_biased_canonical_vectors(seq):
    p, N = seq.p, seq.period
    prof = profile(seq)
    w, (low, halfs, ones) = _width(N)[0], _masks(p, N)
    f = prof.matrix
    K = f + halfs - (f >> (p - 1) * w & low) * ones
    half = 1 << (w - 1)
    canonical = [_canonicalize(row) for row in prof.counts[1:]]
    rows = list(_row(p, N).iter_unpack(K.to_bytes(N * 2 * p * w // 8, "little")))
    assert [tuple(c - half for c in row) for row in rows[1:]] == canonical
    assert prof.ell == len(set(canonical))
    # rational exactly when the nonzero columns hold the bias, and then C(t) is
    # column 0: slots 1 .. p-1 of K, shifted to 0 .. p-2 (slot p is 0), less the bias
    integral = all(vector[1:] == (0,) * (p - 1) for vector in canonical)
    assert ((K ^ halfs) >> w & low == 0) == integral
    assert prof.integral_values == (tuple(v[0] for v in canonical) if integral else None)


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_reader_reads_the_profile_summary(seq):
    p, N = seq.p, seq.period
    prof = profile(seq)
    values = [autocorrelation(seq, t) for t in range(1, N)]
    ints = [v.as_int() for v in values]
    summary = (len(set(values)), None if None in ints else tuple(ints))
    ells, integral = _reader(p, N)((prof.matrix,))
    assert (ells, integral(0)) == ([prof.ell], prof.integral_values)
    assert (prof.ell, prof.integral_values) == summary


def test_only_narrow_readers_are_cached():
    # a reader holds masks as wide as the matrix: past 2^10 cells it is built per call
    assert _reader(3, 12) is _reader(3, 12)
    assert _reader(2, 512) is _reader(2, 512)
    assert _reader(2, 513) is not _reader(2, 513)


def test_short_readers_are_built_once():
    # the paper's short sequences over three primes: 51 (p, N), each read twice
    sequence._cached_reader.cache_clear()
    pairs = [(p, N) for p in (3, 5, 7) for N in range(4, 21)]
    for _ in range(2):
        for p, N in pairs:
            profile(AlmostParySequence(p, (None, None) + (1,) * (N - 2)))
    info = sequence._cached_reader.cache_info()
    assert (info.misses, info.hits) == (51, 51)


def test_reader_cache_holds_bounded_memory():
    # at most 2^10 cells, the widest readers have the most rows (struct codes
    # per row) at 16-bit columns: p = 2 and the 64 largest N fill the cache
    sequence._cached_reader.cache_clear()
    tracemalloc.start()
    try:
        for N in range(449, 513):
            _reader(2, N)
        held = tracemalloc.get_traced_memory()[0]
        assert sequence._cached_reader.cache_info().currsize == 64
    finally:
        tracemalloc.stop()
        sequence._cached_reader.cache_clear()
    assert held <= 4 * 2**20


@pytest.mark.parametrize("p, N", [(3, 12), (7, 20), (499979, 2), (997, 1000), (2, 32768)])
def test_masks_match_a_slot_by_slot_build(p, N):
    # one to_bytes per slot: LOW covers slots 0 .. p-1 of every row, HALFS
    # holds 2^(w-1) in each and ONES is 1 in slots 0 .. p-1 of row 0
    w = _width(N)[0]
    size, full, half = w // 8, (1 << w) - 1, 1 << w - 1

    def rows(slots, count=N):
        row = b"".join([c.to_bytes(size, "little") for c in slots]) + bytes(p * size)
        return int.from_bytes(row * count, "little")

    expected = rows([full] * p), rows([half] * p), rows([1] * p, count=1)
    assert _masks(p, N) == expected


@pytest.mark.parametrize(
    "count_pairs",
    [
        lambda k: profile(AlmostParySequence(3, (1,) * k + (None,))),
        lambda k: difference_multiset(GroupSubset(k + 1, 3, frozenset((h, 1) for h in range(k)))),
    ],
    ids=["profile", "difference_multiset"],
)
def test_pair_cap_boundary(monkeypatch, count_pairs):
    monkeypatch.setattr(cyclotomic, "MAX_PAIRS", 25)
    count_pairs(5)
    with pytest.raises(ValueError, match="6 elements form 36 ordered pairs, above the limit of 25"):
        count_pairs(6)


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_reflected_rows_are_the_difference_multiset(seq):
    grid = difference_multiset(build_ra(seq))
    assert profile(seq).counts == tuple(grid[-t] for t in range(seq.period))


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_shift_sum_is_squared_norm(seq):
    p = seq.p
    S = CyclotomicInt.zero(p)
    for b in seq.symbols:
        if b is not None:
            S = S + CyclotomicInt.from_root_power(p, b)
    total = autocorrelation(seq, 0)
    for value in profile(seq).values:
        total = total + value
    assert total == S * S.conjugate()


@settings(max_examples=200, deadline=None)
@given(sequences(), st.data())
def test_decimation_invariance(seq, data):
    # the map b -> c*b + a under which the scans profile one sequence per orbit
    c = data.draw(st.integers(1, seq.p - 1))
    a = data.draw(st.integers(0, seq.p - 1))
    decimated = AlmostParySequence(
        seq.p, tuple(None if b is None else (c * b + a) % seq.p for b in seq.symbols)
    )
    before, after = profile(seq), profile(decimated)
    # the Galois automorphism zeta -> zeta^c is injective and fixes Z
    assert after.ell == before.ell
    assert after.integral_values == before.integral_values
    assert after.nps_type == before.nps_type
    assert after.two_valued == before.two_valued
    # it permutes the nonzero columns d_g -> c*d_g, within each PDPDS class
    if seq.period >= 3:
        assert classify_grid(after.counts) == classify_grid(before.counts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reversal_conjugates_and_negation_restores(data):
    # the scans read one orbit of each pair {x, canon(rho x)}: rho: i -> s-1-i
    # keeps the zero run 0..s-1 and conjugates every C(t), so -rho(x) has the
    # matrix of x, cell for cell
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    N = data.draw(st.integers(1, 16))
    zeros = data.draw(st.integers(0, N))
    digits = data.draw(st.lists(st.integers(0, p - 1), min_size=N - zeros, max_size=N - zeros))
    symbols = (None,) * zeros + tuple(digits)
    mirrored = [symbols[(zeros - 1 - i) % N] for i in range(N)]
    assert mirrored[:zeros] == [None] * zeros
    reversed_ = AlmostParySequence(p, tuple(mirrored))
    negated = AlmostParySequence(p, tuple(None if b is None else -b % p for b in mirrored))
    before = profile(AlmostParySequence(p, symbols))
    assert profile(negated).matrix == before.matrix
    assert profile(reversed_).counts == tuple(
        tuple(row[-d % p] for d in range(p)) for row in before.counts
    )


def definitional_values(seq, terms):
    N = seq.period
    values = []
    for t in range(1, N):
        total = CyclotomicInt.zero(seq.p)
        for i in range(N):
            a, b = seq.symbols[i], seq.symbols[(i + t) % N]
            if a is not None and b is not None:
                total = total + terms[a][b]
        values.append(total)
    return tuple(values)


@pytest.mark.parametrize("p,max_period", [(2, 8), (3, 7), (5, 5)])
def test_values_match_definition_exhaustive(p, max_period):
    roots = [CyclotomicInt.from_root_power(p, b) for b in range(p)]
    terms = [[x * y.conjugate() for y in roots] for x in roots]
    for N in range(2, max_period + 1):
        for symbols in itertools.product([None, *range(p)], repeat=N):
            seq = AlmostParySequence(p, symbols)
            assert profile(seq).values == definitional_values(seq, terms)


def definitional_counts(seq):
    N, p = seq.period, seq.p
    counts = [[0] * p for _ in range(N)]
    for t in range(N):
        for i in range(N):
            a, b = seq.symbols[i], seq.symbols[(i + t) % N]
            if a is not None and b is not None:
                counts[t][(a - b) % p] += 1
    return tuple(map(tuple, counts))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [126, 127, 128, 129])
def test_width_boundary(N, p):
    # N = 127 is the last period with 8-bit columns. Constant exponents fill
    # column 0 of every row (N with no zero run); b_i = i mod p fills column
    # p - 1 of row 1 when p divides N, so its canonical entries reach -N.
    assert _width(N)[0] == (8 if N <= 127 else 16)
    extremes = set()
    for symbols in (
        (0,) * N,
        (None, None) + (p - 1,) * (N - 2),
        tuple(i % p for i in range(N)),
        (None,) + tuple(i % p for i in range(1, N)),
    ):
        seq = AlmostParySequence(p, symbols)
        prof = profile(seq)
        counts = definitional_counts(seq)
        values = tuple(CyclotomicInt(p, _canonicalize(row)) for row in counts[1:])
        ints = [v.as_int() for v in values]
        assert prof.counts == counts
        assert prof.values == values
        assert prof.ell == len(set(values))
        assert prof.integral_values == (None if None in ints else tuple(ints))
        extremes.update(c for row in counts for c in row)
        extremes.update(c for v in values for c in v.coeffs)
    assert N in extremes and (-N in extremes) == (N % p == 0)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N, w", [(127, 8), (128, 16), (32767, 16), (32768, 32)])
def test_counts_read_every_width(N, w, p):
    # a matrix packed by this test, column d of row t in bits [t*R + w*d,
    # t*R + w*(d+1)), R = 2*p*w; the columns take every value 0 .. N, so each
    # width is read up to its largest count
    counts = tuple(tuple((t * p + d) % (N + 1) for d in range(p)) for t in range(N))
    rows = (sum(c << w * d for d, c in enumerate(row)) for row in counts)
    matrix = int.from_bytes(b"".join(u.to_bytes(2 * p * w // 8, "little") for u in rows), "little")
    assert _width(N)[0] == w
    assert AutocorrelationProfile(p, N, matrix).counts == counts


def test_size_cap_checked_by_every_dense_input():
    p = 1000003  # prime, so only the cap refuses it
    assert 2 * p > MAX_CELLS
    for make in (
        lambda: AlmostParySequence(p, (None, None)),
        lambda: GroupSubset(2, p, frozenset()),
        lambda: SearchConfig(p=p, period=2, zeros=1),
    ):
        with pytest.raises(ValueError, match="exceeds the limit"):
            make()
