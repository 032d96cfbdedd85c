"""The count-matrix kernel behind profile(): placing and taking back positions
keeps the matrix of the sequence placed, its reflected rows are the
difference multiset of R_a, its shifts sum to |S|^2, decimation and phase
leave the profile's invariants and classes alone, and every value matches the
definitional sum."""

import itertools

import pytest

from npseq.cyclotomic import MAX_CELLS, CyclotomicInt
from npseq.diffset import GroupSubset, build_ra, classify_grid, difference_multiset
from npseq.search import SearchConfig
from npseq.sequence import (
    AlmostParySequence,
    _count_matrix,
    _place,
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
def test_take_back_and_place(seq, data):
    # the walk's steps: take back a suffix, place other symbols there
    p, N = seq.p, seq.period
    symbols = list(seq.symbols)
    rows = [list(row) for row in _count_matrix(seq)]
    cut = data.draw(st.integers(0, N))
    for k in reversed(range(cut, N)):
        _place(rows, symbols, k, -1)
    symbol = st.one_of(st.none(), st.integers(0, p - 1))
    symbols[cut:] = data.draw(st.lists(symbol, min_size=N - cut, max_size=N - cut))
    for k in range(cut, N):
        _place(rows, symbols, k, 1)
    assert tuple(map(tuple, rows)) == _count_matrix(AlmostParySequence(p, tuple(symbols)))
    for k in reversed(range(N)):
        _place(rows, symbols, k, -1)
    assert rows == [[0] * p] * N


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_reflected_rows_are_the_difference_multiset(seq):
    assert profile(seq).difference_grid == difference_multiset(build_ra(seq)).counts


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
        assert classify_grid(after.difference_grid, seq.n) == classify_grid(
            before.difference_grid, seq.n
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
