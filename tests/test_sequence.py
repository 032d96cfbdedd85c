"""Sequence parsing, exact autocorrelation, and type classification."""

import cmath
import itertools
import math
import random

import pytest

from npseq.cyclotomic import CyclotomicInt, _canonicalize
from npseq.sequence import (
    AlmostParySequence,
    AutocorrelationProfile,
    _row,
    autocorrelation,
    classify_nps,
    normalize_leading_zeros,
    parse_sequence,
    profile,
    rotate,
    shift_phase,
    two_valued_set,
)


def all_sequences(p, period, alphabet=None):
    """Every sequence over {zero} union {exponents}, exhaustively."""
    symbols = [None] + list(range(p)) if alphabet is None else alphabet
    for combo in itertools.product(symbols, repeat=period):
        yield AlmostParySequence(p, combo)


def float_autocorrelation(seq, t):
    z = cmath.exp(2j * math.pi / seq.p)
    total = 0
    N = seq.period
    for i in range(N):
        a, b = seq.symbols[i], seq.symbols[(i + t) % N]
        if a is None or b is None:
            continue
        total += z**a * (z**b).conjugate()
    return total


class TestParsing:
    def test_paper_consecutive_example(self):
        seq = parse_sequence(3, "Z,Z,1,1,1")
        assert seq.period == 5
        assert seq.n == 3
        assert seq.s == 2
        assert seq.zero_positions == (0, 1)
        assert seq.has_consecutive_zeros

    def test_nonconsecutive_example(self):
        seq = parse_sequence(3, "0,Z,Z,0,Z,0,0")
        assert seq.period == 7
        assert seq.n == 4
        assert seq.s == 3
        assert not seq.has_consecutive_zeros

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_sequence(3, "Z,5")
        with pytest.raises(ValueError):
            parse_sequence(3, "")
        with pytest.raises(ValueError):
            parse_sequence(3, "Z,x")
        with pytest.raises(ValueError):
            parse_sequence(4, "0,1")

    def test_cyclic_zero_run_detection(self):
        # run wrapping around the period boundary
        assert parse_sequence(3, "Z,1,1,1,Z").has_consecutive_zeros
        assert parse_sequence(3, "1,1,1,1").has_consecutive_zeros  # s = 0
        assert parse_sequence(3, "Z,Z,Z").has_consecutive_zeros  # s = N
        assert not parse_sequence(3, "Z,1,Z,1").has_consecutive_zeros


class TestAutocorrelation:
    def test_shift_zero_counts_nonzeros(self):
        for text in ["Z,Z,1,1,1", "0,1,2,0", "Z,0,Z,2,1"]:
            seq = parse_sequence(3, text)
            assert autocorrelation(seq, 0).as_int() == seq.n

    def test_paper_type21_example(self):
        seq = parse_sequence(3, "Z,Z,1,1,1")
        assert autocorrelation(seq, 1).as_int() == 2
        assert autocorrelation(seq, 2).as_int() == 1

    def test_paper_type_minus2_0_example(self):
        seq = parse_sequence(3, "Z,Z,2,1,0,1,2")
        assert autocorrelation(seq, 1).as_int() == -2
        assert autocorrelation(seq, 2).as_int() == 0
        assert autocorrelation(seq, 5).as_int() == 0

    def test_out_of_range_shift(self):
        seq = parse_sequence(3, "Z,Z,1,1,1")
        with pytest.raises(ValueError):
            autocorrelation(seq, 5)

    @pytest.mark.parametrize("N", [1, 2, 7, 130])
    def test_every_shift_is_one_profile_row(self, N):
        rng = random.Random(N)
        for p in (2, 3, 5, 7):
            for _ in range(5):
                seq = AlmostParySequence(p, tuple(rng.choice([None, *range(p)]) for _ in range(N)))
                prof = profile(seq)
                assert autocorrelation(seq, 0) == CyclotomicInt(p, _canonicalize(prof.counts[0]))
                assert tuple(autocorrelation(seq, t) for t in range(1, N)) == prof.values


class TestProfile:
    def test_distinct_value_counts(self):
        # four length-6 sequences with ell 2, 3, 4, 5
        for text, ell in [
            ("Z,Z,1,1,1,1", 2),
            ("Z,Z,2,1,1,2", 3),
            ("Z,Z,1,0,1,1", 4),
            ("Z,Z,2,2,0,0", 5),
        ]:
            assert profile(parse_sequence(3, text)).ell == ell

    def test_constant_sequence(self):
        seq = parse_sequence(5, "0,0,0,0,0")
        prof = profile(seq)
        assert prof.ell == 1
        assert prof.integral_values == (5, 5, 5, 5)

    @pytest.mark.parametrize("text,n", [("0", 1), ("Z", 0)])
    def test_period_one(self, text, n):
        # one row, no out-of-phase coefficient: as the scans profile it
        seq = parse_sequence(2, text)
        prof = profile(seq)
        assert prof.counts == ((n, 0),)
        assert (prof.matrix, prof.ell, prof.integral_values) == (n, 0, ())
        assert prof.nps_type is None and prof.two_valued == frozenset()
        assert autocorrelation(seq, 0).as_int() == n
        with pytest.raises(ValueError):
            classify_nps(seq)

    def test_type_needs_equal_near_values(self):
        # a folded matrix made by hand, not a sequence's: p = 2, N = 4, count
        # rows (2,0), (1,0), (1,1), (0,1) give C(1), C(2), C(3) = 1, 0, -1,
        # so C(2) .. C(N-2) agree but C(1) != C(N-1): no type
        rows = ((2, 0), (1, 0), (1, 1), (0, 1))
        matrix = int.from_bytes(b"".join(_row(2, 4).pack(*row) for row in rows), "little")
        prof = AutocorrelationProfile(2, 4, matrix)
        assert prof.counts == rows
        assert (prof.integral_values, prof.ell) == ((1, 0, -1), 3)
        assert prof.nps_type is None

    def test_conjugate_symmetry_exhaustive(self):
        for seq in all_sequences(3, 5):
            N = seq.period
            for t in range(1, N):
                assert autocorrelation(seq, t) == autocorrelation(
                    seq, N - t
                ).conjugate()

    def test_float_cross_check(self):
        rng = random.Random(23)
        for p in [3, 5, 7]:
            for _ in range(40):
                N = rng.randint(2, 9)
                symbols = tuple(
                    rng.choice([None] + list(range(p))) for _ in range(N)
                )
                seq = AlmostParySequence(p, symbols)
                for t in range(1, N):
                    exact = autocorrelation(seq, t).to_complex()
                    assert cmath.isclose(
                        exact, float_autocorrelation(seq, t), abs_tol=1e-9
                    )


class TestInvariances:
    def test_phase_invariance(self):
        rng = random.Random(29)
        for seq in all_sequences(3, 4):
            c = rng.randint(1, 2)
            shifted = shift_phase(seq, c)
            for t in range(1, seq.period):
                assert autocorrelation(seq, t) == autocorrelation(shifted, t)

    def test_rotation_invariance(self):
        rng = random.Random(31)
        for seq in all_sequences(3, 4):
            r = rng.randint(1, 3)
            rotated = rotate(seq, r)
            for t in range(1, seq.period):
                assert autocorrelation(seq, t) == autocorrelation(rotated, t)

    def test_normalize_leading_zeros(self):
        seq = parse_sequence(3, "1,1,Z,Z,1")
        normalized = normalize_leading_zeros(seq)
        assert normalized.zero_positions == (0, 1)
        assert profile(normalized).ell == profile(seq).ell
        with pytest.raises(ValueError):
            normalize_leading_zeros(parse_sequence(3, "Z,1,Z,1"))


class TestClassification:
    def test_paper_types(self):
        nps = classify_nps(parse_sequence(3, "Z,Z,1,1,1"))
        assert (nps.gamma1, nps.gamma2) == (2, 1)
        assert not nps.uniform
        nps = classify_nps(parse_sequence(3, "Z,Z,2,1,0,1,2"))
        assert (nps.gamma1, nps.gamma2) == (-2, 0)

    def test_nonconsecutive_two_valued(self):
        # positional classification fails, but the coefficient multiset is {2}
        seq = parse_sequence(3, "0,Z,Z,0,Z,0,0")
        assert profile(seq).integral_values == (2,) * 6
        nps = classify_nps(seq)
        assert nps is not None and nps.uniform and nps.gamma1 == 2
        assert two_valued_set(seq) == frozenset({2})

    def test_constant_sequence_uniform(self):
        nps = classify_nps(parse_sequence(3, "0,0,0,0,0"))
        assert nps.uniform and nps.gamma1 == 5

    def test_non_integral_profile_unclassified(self):
        seq = parse_sequence(3, "Z,Z,0,1,1")
        prof = profile(seq)
        assert not prof.all_integral
        assert classify_nps(seq) is None
        assert two_valued_set(seq) is None

    def test_two_valued_rejects_three_values(self):
        seq = parse_sequence(3, "Z,Z,2,2,0,0")  # ell = 5
        assert two_valued_set(seq) is None
