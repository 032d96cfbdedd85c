"""The packed count-matrix kernel behind profile(): two siblings stepped from
one node of the walk leave it alone and fold to the matrices of the
sequences placed, the leaves of a batch of nodes built at once are the
matrices of their subtrees and read as profile reads them, rows lifted by
their pair counts are equal exactly when their values are, the reflected
rows are the difference multiset of R_a, its shifts sum to |S|^2,
decimation and phase leave the profile's invariants and classes alone,
reversal negates the count columns and reversal with negation keeps the
matrix, and every value matches the definitional sum, at the edges of the
column width too."""

import itertools

import pytest
from scanhooks import leaves_below, pair_counts, place, read_matrix

from npseq import cyclotomic
from npseq.cyclotomic import MAX_CELLS, CyclotomicInt, _canonicalize
from npseq.diffset import GroupSubset, build_ra, classify_grid, difference_multiset
from npseq.search import SearchConfig
from npseq.sequence import (
    AlmostParySequence,
    AutocorrelationProfile,
    _count_matrix,
    _lift,
    _low,
    _row,
    _run_pairs,
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
    low, w = _low(p, N), _width(N)[0]

    def fold(M):
        return (M & low) + (M >> p * w & low)

    def matrix(digits):
        return _count_matrix(AlmostParySequence(p, (None,) * zeros + tuple(digits)))

    parent = place(p, N, head)
    before = parent
    for tail in (data.draw(st.lists(digit, min_size=rest, max_size=rest)) for _ in range(2)):
        node = place(p, N, tail, parent)
        assert parent == before
        # the parent holds the pairs of the digits placed, the rest zero-symbols
        assert fold(parent[0]) == matrix(head + [None] * rest)
        assert fold(node[0]) == matrix(head + tail)


@settings(max_examples=200, deadline=None)
@given(sequences(), st.data())
def test_batch_leaves_are_the_subtree_matrices(seq, data):
    # a node with the L digits below it placed at once: its leaf with
    # digits s_0 .. s_{L-1} sits at position j = s_0 + s_1*p + ..., byte
    # j*stride of its blocks joined, and the batch's reader and matrix read
    # it as profile does, the leaves picked in any order
    p, N = seq.p, seq.period
    zeros = data.draw(st.integers(0, N - 1))
    L = data.draw(st.integers(0, min(3, N - zeros)))
    depth = N - zeros - L
    head = data.draw(st.lists(st.integers(0, p - 1), min_size=depth, max_size=depth))
    order = [sum(b * p**k for k, b in enumerate(t)) for t in itertools.product(range(p), repeat=L)]
    blocks, leaves = leaves_below(p, N, place(p, N, head), L, zeros, order)
    stride = N * 2 * p * _width(N)[0] // 8
    joined = b"".join([f.to_bytes(p**L // len(blocks) * stride, "little") for f in blocks])
    assert len(joined) == p**L * stride
    for leaf in leaves:
        f = int.from_bytes(joined[leaf.j * stride : (leaf.j + 1) * stride], "little")
        prof = profile(AlmostParySequence(p, (None,) * zeros + tuple(head) + leaf.digits))
        assert f == leaf.matrix == prof.matrix
        assert (leaf.ell, leaf.integral) == (prof.ell, prof.integral_values)


@st.composite
def zeros_anywhere(draw):
    """A sequence with s zero-symbols anywhere, s up to N, so often s > p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(2, 24))
    zeros = set(draw(st.lists(st.integers(0, N - 1), max_size=N)))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=N, max_size=N))
    return AlmostParySequence(p, tuple(None if i in zeros else b for i, b in enumerate(digits)))


@settings(max_examples=300, deadline=None)
@given(zeros_anywhere())
def test_lifted_rows_are_equal_exactly_when_their_values_are(seq):
    # row t lifted by k_t = (M - m_t) // p in every column, m_t its pair
    # count: two rows' keys are equal exactly when their canonical vectors
    # are, and the reader reads profile's ell and integral values
    p, N = seq.p, seq.period
    prof = profile(seq)
    pairs = pair_counts(seq)
    assert pairs == tuple(map(sum, prof.counts))
    size = N * 2 * p * _width(N)[0] // 8
    keys = list(_row(p, N).iter_unpack((prof.matrix + _lift(p, N, pairs)).to_bytes(size, "little")))
    canonical = [_canonicalize(row) for row in prof.counts]
    for t, u in itertools.combinations(range(1, N), 2):
        assert (keys[t] == keys[u]) == (canonical[t] == canonical[u]), (t, u)
    assert read_matrix(seq) == (prof.ell, prof.integral_values)


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_reader_reads_the_profile_summary(seq):
    # the batches' reader at a batch of one, profile from its own count rows,
    # and the coefficients one at a time agree on ell and the integral values
    p, N = seq.p, seq.period
    prof = profile(seq)
    values = [autocorrelation(seq, t) for t in range(1, N)]
    ints = [v.as_int() for v in values]
    summary = (len(set(values)), None if None in ints else tuple(ints))
    assert read_matrix(seq) == (prof.ell, prof.integral_values) == summary


@pytest.mark.parametrize(
    "p, N, s", [(2, 9, 2), (3, 12, 5), (7, 20, 9), (5, 130, 100), (2, 32768, 32760), (997, 40, 20)]
)
def test_lift_matches_a_slot_by_slot_build(p, N, s):
    # the pair counts of a zero run of s, counted from each nonzero position
    # i = s .. N-1, and the lift, k_t in slots 0 .. p-1 of row t, built one
    # to_bytes per slot; it is 0 exactly when s or n is at most p
    w = _width(N)[0]
    size = w // 8
    pairs = _run_pairs(N, s)
    assert pairs == tuple(sum((i + t) % N >= s for i in range(s, N)) for t in range(N))
    M = max(pairs[1:])
    ks = [0] + [(M - m) // p for m in pairs[1:]]
    built = bytearray()
    for k in ks:
        for _ in range(p):
            built += k.to_bytes(size, "little")
        built += bytes(p * size)  # slots p .. 2p-1
    expected = int.from_bytes(built, "little")
    assert _lift(p, N, pairs) == expected
    assert (expected == 0) == (min(s, N - s) <= p)


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


@pytest.mark.parametrize("p", [2, 3, 5, 11])
@pytest.mark.parametrize("N", [126, 127, 128, 129])
def test_width_boundary(N, p):
    # N = 127 is the last period with 8-bit columns. Constant exponents fill
    # column 0 of every row (N with no zero run); b_i = i mod p fills column
    # p - 1 of row 1 when p divides N, so its canonical entries reach -N. The
    # batches' reader agrees with profile on each side, at p = 11 past 2^10 cells.
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
        assert read_matrix(seq) == (prof.ell, prof.integral_values)
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
