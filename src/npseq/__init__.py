"""Exact analysis of almost p-ary sequences.

Subpackages cover exact arithmetic in Z[zeta_p], sequence autocorrelation
profiles, difference-multiset classification in Z_N x Z_p, closed-form
existence conditions, and an exhaustive small-period search driver.
"""

__version__ = "0.1.0"

from .cyclotomic import CyclotomicInt
from .sequence import (
    AlmostParySequence,
    AutocorrelationProfile,
    NpsType,
    autocorrelation,
    classify_nps,
    parse_sequence,
    profile,
)
from .diffset import (
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
)

__all__ = [
    "AlmostParySequence",
    "AutocorrelationProfile",
    "CyclotomicInt",
    "DpdsParams",
    "GroupSubset",
    "NpsType",
    "PdpdsParams",
    "autocorrelation",
    "build_ra",
    "classify_dpds",
    "classify_grid",
    "classify_pdpds",
    "classify_nps",
    "difference_multiset",
    "expected_pdpds_params",
    "grid_residual",
    "group_ring_residual",
    "parse_sequence",
    "profile",
]
