"""The five-class table read three ways: classification, the first violated
class named by the CLI, and the group-ring residual; both class tables read
a grid and its inversions alike."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from npseq.cli import _first_violated_class
from npseq.diffset import (
    DPDS_CLASSES,
    PDPDS_CLASSES,
    GroupSubset,
    _class_constants,
    _part_rows,
    classify_pdpds,
    difference_multiset,
    group_ring_residual,
    residual_is_zero,
)


@st.composite
def subsets(draw):
    N = draw(st.integers(3, 8))
    p = draw(st.sampled_from([2, 3, 5]))
    cells = st.tuples(st.integers(0, N - 1), st.integers(0, p - 1))
    return GroupSubset(N, p, frozenset(draw(st.sets(cells, max_size=N * p))))


@settings(max_examples=300, deadline=None)
@given(subsets())
def test_class_table_consumers_agree(R):
    params = classify_pdpds(R)
    message = _first_violated_class(difference_multiset(R))
    assert (params is None) == (message != "not a PDPDS")
    if params is None:
        assert message.startswith("not a PDPDS: ") and " class not constant (" in message
    else:
        assert residual_is_zero(group_ring_residual(R, params))


def filtered_class_cells(N, p):
    """Each class's cells by a filter over all N*p cells of Z_N x Z_p."""
    h_parts = [
        {"identity"},
        *({"near" if h in (1, N - 1) else "far", "nonidentity"} for h in range(1, N)),
    ]
    return {
        cls: tuple(
            (h, g)
            for h in range(N)
            for g in range(p)
            if cls.h_part in h_parts[h] and (g == 0) == cls.pure
        )
        for cls in DPDS_CLASSES + PDPDS_CLASSES
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_class_cells_match_the_full_filter(p):
    for N in range(1, 11):
        # every cell holds its own label, so a class's values name its cells
        grid = tuple(tuple(h * p + g + 1 for g in range(p)) for h in range(N))
        for cls, cells in filtered_class_cells(N, p).items():
            fields, violated = _class_constants(grid, (cls,))
            if violated:
                assert violated[0] is cls
                values = violated[1]
            else:  # one cell, or none (constant 0)
                values = [fields[cls.param]] if fields[cls.param] else []
            assert values == [h * p + g + 1 for h, g in cells], (N, cls.name)


def class_grid(rng, N, p, classes):
    """An N x p grid with one random constant on each class of the table
    and a random identity cell."""
    grid = [[rng.randrange(100) for _ in range(p)] for _ in range(N)]
    part_rows = _part_rows(N)
    for cls in classes:
        value = rng.randrange(100)
        columns = range(1) if cls.pure else range(1, p)
        for row in grid[part_rows[cls.h_part]]:
            for g in columns:
                row[g] = value
    return grid


def inversions(grid):
    """The grid under d_h -> -d_h, and under d_g -> -d_g."""
    return (
        tuple(grid[-h] for h in range(len(grid))),
        tuple(tuple(row[-g] for g in range(len(row))) for row in grid),
    )


@pytest.mark.parametrize("classes", [DPDS_CLASSES, PDPDS_CLASSES], ids=["dpds", "pdpds"])
def test_class_tables_are_closed_under_inversion(classes):
    # why a profile's count matrix, row t = R_a R_a^(-1) at -t, classifies
    # as the difference grid itself
    rng = random.Random(13)
    for N in range(3, 11):
        for p in (2, 3, 5, 7):
            grid = class_grid(rng, N, p, classes)
            fields = _class_constants(grid, classes)[0]
            assert fields is not None
            for inverted in inversions(grid):
                assert _class_constants(inverted, classes)[0] == fields, (N, p)
            for _ in range(10):  # cells off at random: classified or not alike
                grid[rng.randrange(N)][rng.randrange(p)] += rng.randrange(2)
                unclassified = _class_constants(grid, classes)[0] is None
                for inverted in inversions(grid):
                    assert (_class_constants(inverted, classes)[0] is None) == unclassified
