"""The five-class table read three ways: classification, the first violated
class named by the CLI, and the group-ring residual."""

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
