"""Difference multisets, classification, and the group-ring residual check.

The brute-force oracle here (dict of ordered-pair differences) is written
independently of the package's dense-grid implementation.
"""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from npseq.diffset import (
    DpdsParams,
    GroupSubset,
    PdpdsParams,
    build_ra,
    classify_dpds,
    classify_grid,
    classify_pdpds,
    difference_multiset,
    expected_pdpds_params,
    grid_residual,
    group_ring_residual,
    parse_subset,
    residual_is_zero,
)
from npseq.sequence import AlmostParySequence, classify_nps, parse_sequence


def oracle_differences(N, p, elements):
    """Independent difference count over all ordered pairs."""
    table = Counter()
    for r1, r2 in itertools.permutations(elements, 2):
        table[((r1[0] - r2[0]) % N, (r1[1] - r2[1]) % p)] += 1
    return table


def random_subset(rng, N, p):
    size = rng.randint(0, N * p)
    universe = [(h, g) for h in range(N) for g in range(p)]
    return GroupSubset(N, p, frozenset(rng.sample(universe, size)))


class TestBuildRa:
    def test_paper_examples(self):
        seq = parse_sequence(3, "Z,Z,1,1,1")
        assert build_ra(seq).elements == frozenset({(2, 1), (3, 1), (4, 1)})
        seq = parse_sequence(3, "Z,Z,2,1,0,1,2")
        assert build_ra(seq).elements == frozenset(
            {(2, 2), (3, 1), (4, 0), (5, 1), (6, 2)}
        )

    def test_all_zero_sequence(self):
        seq = AlmostParySequence(3, (None, None, None))
        assert build_ra(seq).elements == frozenset()


class TestDifferenceMultiset:
    def test_paper_subset(self):
        R = GroupSubset(5, 3, frozenset({(2, 1), (3, 1), (4, 1)}))
        grid = difference_multiset(R)
        expected = {(0, 0): 3, (1, 0): 2, (4, 0): 2, (2, 0): 1, (3, 0): 1}
        for d_h in range(5):
            for d_g in range(3):
                assert grid[d_h % 5][d_g % 3] == expected.get((d_h, d_g), 0)
        assert sum(map(sum, grid)) == R.k * R.k

    def test_singleton_and_empty(self):
        singleton = difference_multiset(GroupSubset(4, 3, frozenset({(1, 2)})))
        assert singleton[0][0] == sum(map(sum, singleton)) == 1
        assert sum(map(sum, difference_multiset(GroupSubset(4, 3, frozenset())))) == 0

    def test_full_group_uniform(self):
        N, p = 3, 3
        R = GroupSubset(N, p, frozenset((h, g) for h in range(N) for g in range(p)))
        grid = difference_multiset(R)
        # every element has a unique partner realizing each difference: count N*p
        for d_h in range(N):
            for d_g in range(p):
                assert grid[d_h % N][d_g % p] == N * p

    def test_against_oracle_fuzz(self):
        rng = random.Random(41)
        subsets = [random_subset(rng, rng.randint(3, 8), rng.choice([3, 5])) for _ in range(60)]
        for N, p in ((6, 7), (6, 997)):
            # (0, 0) with (N-1, p-1): their differences wrap at both ends of both axes
            extra = {(rng.randrange(N), rng.randrange(p)) for _ in range(10)}
            subsets.append(GroupSubset(N, p, frozenset(extra | {(0, 0), (N - 1, p - 1)})))
        for R in subsets:
            N, p = R.N, R.p
            grid = difference_multiset(R)
            table = oracle_differences(N, p, sorted(R.elements))
            table[(0, 0)] += R.k  # each element minus itself
            for d_h in range(N):
                for d_g in range(p):
                    assert grid[d_h % N][d_g % p] == table.get((d_h, d_g), 0)
            assert sum(map(sum, grid)) == R.k * R.k


class TestClassification:
    def test_pdpds_paper_examples(self):
        R = build_ra(parse_sequence(3, "Z,Z,1,1,1"))
        assert classify_pdpds(R).as_tuple() == (5, 3, 3, 1, 0, 2, 0, 0)
        R = build_ra(parse_sequence(3, "Z,Z,2,1,0,1,2"))
        assert classify_pdpds(R).as_tuple() == (7, 3, 5, 1, 0, 0, 1, 2)

    def test_empty_subset(self):
        R = GroupSubset(6, 3, frozenset())
        assert classify_pdpds(R).as_tuple() == (6, 3, 0, 0, 0, 0, 0, 0)
        assert classify_dpds(R).as_tuple() == (6, 3, 0, 0, 0, 0)

    def test_dpds_fails_where_near_far_differ(self):
        R = build_ra(parse_sequence(3, "Z,Z,1,1,1"))
        assert classify_dpds(R) is None  # near count 2 vs far count 1

    def test_dpds_single_zero_example(self):
        seq = parse_sequence(3, "Z,2,2,2,0,2,1,1,2,0,2,2,2")
        params = classify_dpds(build_ra(seq))
        assert params.lambda1 == 5
        assert params.lambda2 == 0
        assert params.mu == 3
        nps = classify_nps(seq)
        assert nps.uniform and nps.gamma1 == 2

    def test_dpds_no_zero_example(self):
        seq = parse_sequence(3, "2,2,2,2,0")
        params = classify_dpds(build_ra(seq))
        assert (params.lambda1, params.lambda2, params.mu) == (3, 0, 1)

    def test_degenerate_period_three(self):
        R = build_ra(AlmostParySequence(3, (None, None, 1)))
        params = classify_pdpds(R)
        assert params.far_class_empty
        assert params.as_tuple() == (3, 3, 1, 0, 0, 0, 0, 0)
        # read off N, so a tuple built by hand (verify-pdpds --params) agrees
        assert PdpdsParams(3, 3, 1, 0, 0, 0, 0, 0).far_class_empty
        assert not PdpdsParams(4, 3, 1, 0, 0, 0, 0, 0).far_class_empty

    def test_uniform_pdpds_is_dpds(self):
        # a five-class classification with lambda3 == lambda1 and mu2 == mu1
        # collapses to the three-class one
        rng = random.Random(43)
        checked = 0
        for _ in range(400):
            N = rng.randint(4, 7)
            p = 3
            R = random_subset(rng, N, p)
            params = classify_pdpds(R)
            if (
                params is not None
                and params.lambda3 == params.lambda1
                and params.mu2 == params.mu1
            ):
                dpds = classify_dpds(R)
                assert dpds == DpdsParams(
                    N, p, R.k, params.lambda1, params.lambda2, params.mu1
                )
                checked += 1
        assert checked > 0

    def test_dpds_against_oracle(self):
        # N = 1 leaves only the P-pure class, N = 2 has no far part
        rng = random.Random(47)
        classified = 0
        for _ in range(600):
            N = rng.randint(1, 8)
            p = rng.choice([2, 3, 5])
            R = random_subset(rng, N, p)
            params = classify_dpds(R)
            expected = oracle_dpds(N, p, sorted(R.elements))
            assert (params.as_tuple() if params else None) == expected
            classified += expected is not None
        assert classified > 0


def oracle_dpds(N, p, elements):
    """Three-class classification read off oracle_differences."""
    table = oracle_differences(N, p, elements)
    classes = {"H-pure": [], "P-pure": [], "mixed": []}
    for d_h in range(N):
        for d_g in range(p):
            if (d_h, d_g) != (0, 0):
                name = "P-pure" if d_h == 0 else "H-pure" if d_g == 0 else "mixed"
                classes[name].append(table[(d_h, d_g)])
    constants = []
    for values in classes.values():
        if len(set(values)) > 1:
            return None
        constants.append(values[0] if values else 0)
    return (N, p, len(elements), *constants)


class TestExpectedParams:
    def test_paper_examples(self):
        assert expected_pdpds_params(3, 3, 2, 1).as_tuple() == (5, 3, 3, 1, 0, 2, 0, 0)
        assert expected_pdpds_params(5, 3, -2, 0).as_tuple() == (
            7, 3, 5, 1, 0, 0, 1, 2,
        )

    def test_divisibility_gate(self):
        assert expected_pdpds_params(4, 3, 0, 1) is None  # 3 does not divide 1
        with pytest.raises(ValueError):
            expected_pdpds_params(1, 3, 0, 0)

    def test_equivalence_through_free_subsets(self):
        # the sequence <=> PDPDS equivalence over every zero-run-led sequence,
        # with R_a's classes from difference_multiset, not from the count
        # matrix the type is read from: classified exactly when typed, and
        # then as the type's expected tuple
        spaces = {2: range(4, 13, 2), 3: range(5, 10), 5: range(5, 8), 7: range(5, 7)}
        checked = typed = 0
        for p, periods in spaces.items():
            for N in periods:
                for digits in itertools.product(range(p), repeat=N - 2):
                    seq = AlmostParySequence(p, (None, None) + digits)
                    nps = classify_nps(seq)
                    expected = nps and expected_pdpds_params(N - 2, p, nps.gamma1, nps.gamma2)
                    assert classify_pdpds(build_ra(seq)) == expected, seq
                    checked += 1
                    typed += nps is not None
        assert (checked, typed) == (11250, 96)


class TestGroupRingResidual:
    def test_consistency_with_classifier(self):
        R = build_ra(parse_sequence(3, "Z,Z,1,1,1"))
        params = classify_pdpds(R)
        assert residual_is_zero(group_ring_residual(R, params))

    def test_perturbed_lambda1(self):
        R = build_ra(parse_sequence(3, "Z,Z,2,1,0,1,2"))
        params = classify_pdpds(R)
        bumped = PdpdsParams(
            params.n, params.m, params.k,
            params.lambda1 + 1, params.lambda2, params.lambda3,
            params.mu1, params.mu2,
        )
        residual = group_ring_residual(R, bumped)
        for d_h in range(2, R.N - 1):
            assert residual[d_h][0] == 1
        assert residual[1][0] == 0  # near cells are governed by lambda3

    def test_equivalence_with_classifier_fuzz(self):
        rng = random.Random(47)
        hits = 0
        for _ in range(300):
            N = rng.randint(4, 8)
            p = rng.choice([3, 5])
            R = random_subset(rng, N, p)
            params = classify_pdpds(R)
            if params is not None:
                assert residual_is_zero(group_ring_residual(R, params))
                hits += 1
            else:
                # no parameter tuple can zero the residual of a non-constant grid
                probe = PdpdsParams(N, p, R.k, 0, 0, 0, 0, 0)
                assert not residual_is_zero(group_ring_residual(R, probe))
        assert hits > 0

    def test_zero_residual_implies_classification(self):
        rng = random.Random(53)
        for _ in range(200):
            N = rng.randint(4, 7)
            p = 3
            R = random_subset(rng, N, p)
            params = PdpdsParams(
                N, p, R.k,
                rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4),
                rng.randint(0, 4), rng.randint(0, 4),
            )
            if residual_is_zero(group_ring_residual(R, params)):
                assert classify_pdpds(R) == params


def test_wide_grid_leaves_nothing_behind():
    # a shape no other test reads, so nothing of it is held from before;
    # listing each class's cells would keep about 2*N*p tuples alive
    N, p = 1009, 991
    grid = (tuple([0] * p),) * N
    tracemalloc.start()
    try:
        params = classify_grid(grid)
        residual = grid_residual(grid, params)
        assert params == PdpdsParams(N, p, 0, 0, 0, 0, 0, 0)
        assert residual_is_zero(residual)
        del params, residual
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 10 * 2**20


class TestParseSubset:
    def test_roundtrip(self):
        R = parse_subset(5, 3, "(2,1);(3,1);(4,1)")
        assert R.elements == frozenset({(2, 1), (3, 1), (4, 1)})

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_subset(5, 3, "(9,0)")
        with pytest.raises(ValueError):
            parse_subset(5, 3, "2,1")
        with pytest.raises(ValueError):
            parse_subset(5, 3, "(a,b)")
