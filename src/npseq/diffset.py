"""Difference multisets in Z_N x Z_p and their parameter classifications.

The ambient group is written additively as Z_N x Z_p (isomorphic to the
multiplicative <h> x <g> product). The group ring product R R^(-1) of a
subset R, the multiset of all its differences r1 - r2, is a dense N x p grid,
grid[d_h][d_g] with |R| at the identity (0, 0), which makes every
classification and residual check bit-exact. One loop counts every grid,
`cyclotomic._pair_counts`: `difference_multiset` returns a free subset's, and
a sequence's profile packs that of R_a = {(i, b_i)} with row -t at row t, so
the scans never build R_a. Every class below is closed under inversion
(d_h -> -d_h and d_g -> -d_g), so both tables classify either.

Both classifications read one table of classes over the nonidentity cells,
each a slice of the grid's rows (identity {0}, near {1, N-1}, far {2, ...,
N-2} or nonidentity {1, ..., N-1}) times column 0 if pure, else 1 .. p-1:

* direct-product classification (DPDS_CLASSES): H-pure / P-pure / mixed,
  with constant multiplicities (lambda1, lambda2, mu);
* partial classification (PDPDS_CLASSES) refines it: the H-pure and mixed
  classes split into their near part (multiplicities lambda3 / mu2) and
  their far part (lambda1 / mu1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import _pair_counts, _require_grid, _require_prime
from .sequence import AlmostParySequence

GroupElement = tuple[int, int]  # (h_exp mod N, g_exp mod p)
Grid = tuple[tuple[int, ...], ...]  # grid[d_h][d_g]: N rows of p counts


@dataclass(frozen=True)
class GroupSubset:
    """A subset of Z_N x Z_p, no duplicates."""

    N: int
    p: int
    elements: frozenset[GroupElement]

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("group order N must be positive")
        _require_grid(self.N, self.p)
        for h, g in self.elements:
            if not (0 <= h < self.N and 0 <= g < self.p):
                raise ValueError(f"element ({h},{g}) out of range for Z_{self.N} x Z_{self.p}")

    @property
    def k(self) -> int:
        return len(self.elements)


def parse_subset(N: int, p: int, text: str) -> GroupSubset:
    """Parse semicolon-separated "(h,g)" pairs, e.g. "(2,1);(3,1);(4,1)"."""
    elements: set[GroupElement] = set()
    text = text.strip()
    if text:
        for part in text.split(";"):
            part = part.strip()
            if not (part.startswith("(") and part.endswith(")")):
                raise ValueError(f"bad subset element {part!r}")
            try:
                h_str, g_str = part[1:-1].split(",")
                element = (int(h_str), int(g_str))
            except ValueError:
                raise ValueError(f"bad subset element {part!r}") from None
            if element in elements:
                raise ValueError(f"duplicate subset element ({element[0]},{element[1]})")
            elements.add(element)
    return GroupSubset(N, p, frozenset(elements))


def build_ra(seq: AlmostParySequence) -> GroupSubset:
    """The subset {(i, b_i) : a_i nonzero} of Z_period x Z_p."""
    return GroupSubset(
        seq.period,
        seq.p,
        frozenset((i, b) for i, b in enumerate(seq.symbols) if b is not None),
    )


def difference_multiset(R: GroupSubset) -> Grid:
    """Count r1 - r2 over all ordered pairs of elements of R: R R^(-1) as
    grid[d_h][d_g], an N x p grid whose cell (0, 0) is |R|."""
    return tuple(tuple(row) for row in _pair_counts(R.N, R.p, R.elements))


@dataclass(frozen=True)
class DpdsParams:
    """Constant multiplicities of the three-class difference partition."""

    n: int  # order of the first factor (the sequence period)
    m: int  # order of the second factor
    k: int
    lambda1: int
    lambda2: int
    mu: int

    def as_tuple(self) -> tuple[int, ...]:
        return (self.n, self.m, self.k, self.lambda1, self.lambda2, self.mu)


@dataclass(frozen=True)
class PdpdsParams:
    """Constant multiplicities of the five-class (near/far split) partition."""

    n: int  # order of the first factor (the sequence period)
    m: int  # order of the second factor
    k: int
    lambda1: int
    lambda2: int
    lambda3: int
    mu1: int
    mu2: int

    @property
    def far_class_empty(self) -> bool:
        """N = 3 leaves the far classes empty: lambda1, mu1 are unconstrained zeros."""
        return self.n == 3

    def as_tuple(self) -> tuple[int, ...]:
        return (
            self.n,
            self.m,
            self.k,
            self.lambda1,
            self.lambda2,
            self.lambda3,
            self.mu1,
            self.mu2,
        )


@dataclass(frozen=True)
class DifferenceClass:
    """A class of nonidentity cells (d_h, d_g) of a difference partition: one d_h
    part's rows times column 0 (pure) or columns 1 .. p-1 (mixed), read as slices."""

    name: str
    param: str  # the params field its constant multiplicity fills
    h_part: str  # "identity", "near", "far" or "nonidentity" (_part_rows)
    pure: bool  # d_g == 0


# Each table in the order a failed classification names the first non-constant class.
DPDS_CLASSES = (
    DifferenceClass("H-pure", "lambda1", "nonidentity", True),
    DifferenceClass("P-pure", "lambda2", "identity", False),
    DifferenceClass("mixed", "mu", "nonidentity", False),
)
PDPDS_CLASSES = (
    DifferenceClass("far H-pure", "lambda1", "far", True),
    DifferenceClass("P-pure", "lambda2", "identity", False),
    DifferenceClass("near H-pure", "lambda3", "near", True),
    DifferenceClass("far mixed", "mu1", "far", False),
    DifferenceClass("near mixed", "mu2", "near", False),
)


@lru_cache(maxsize=64)  # a dict built per call costs as much as a small grid's walk
def _part_rows(N: int) -> dict[str, slice]:
    """Each d_h part as a slice of a grid's N rows; near is rows 1 and N-1."""
    near = slice(1, N, max(N - 2, 1))
    return {"identity": slice(1), "near": near, "far": slice(2, N - 1), "nonidentity": slice(1, N)}


def _class_constants(
    grid: Grid, classes: tuple[DifferenceClass, ...]
) -> tuple[dict[str, int] | None, tuple[DifferenceClass, list[int]] | None]:
    """Walk the classes in order over the grid: (each class's constant
    multiplicity by param, 0 for an empty class; None), or (None; the first
    class that is not constant, with its values)."""
    part_rows = _part_rows(len(grid))
    fields = {}
    for cls in classes:
        rows = grid[part_rows[cls.h_part]]
        values = [row[0] for row in rows] if cls.pure else [v for row in rows for v in row[1:]]
        value = values[0] if values else 0
        if values.count(value) != len(values):
            return None, (cls, values)
        fields[cls.param] = value
    return fields, None


def classify_dpds(R: GroupSubset) -> DpdsParams | None:
    """Three-class classification; None unless every class is constant."""
    fields, violated = _class_constants(difference_multiset(R), DPDS_CLASSES)
    return None if violated else DpdsParams(R.N, R.p, R.k, **fields)


def classify_grid(grid: Grid) -> PdpdsParams | None:
    """Five-class classification of a subset's grid, k from its identity
    cell; None unless every class is constant (see classify_pdpds)."""
    N, p = len(grid), len(grid[0])
    if N < 3:
        raise ValueError("partial classification needs N >= 3")
    fields, violated = _class_constants(grid, PDPDS_CLASSES)
    if violated:
        return None
    return PdpdsParams(N, p, grid[0][0], **fields)


def classify_pdpds(R: GroupSubset) -> PdpdsParams | None:
    """Five-class classification; None unless every class is constant.

    The near class is {1, N-1} in the first coordinate (adjacent to the
    identity); the far class is {2, ..., N-2}. When N = 3 the far classes are
    empty: lambda1 and mu1 are then reported as zero, and far_class_empty is true.
    """
    return classify_grid(difference_multiset(R))


def expected_pdpds_params(n: int, p: int, gamma1: int, gamma2: int) -> PdpdsParams | None:
    """Parameter tuple a type-(gamma1, gamma2) sequence of period n+2 must produce.

    Defined only when p divides both n - gamma2 - 2 and n - gamma1 - 1;
    returns None otherwise (no such sequence can exist).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _require_prime(p)
    a = n - gamma2 - 2
    c = n - gamma1 - 1
    if a % p != 0 or c % p != 0:
        return None
    mu1 = a // p
    mu2 = c // p
    return PdpdsParams(n + 2, p, n, mu1 + gamma2, 0, mu2 + gamma1, mu1, mu2)


def group_ring_residual(R: GroupSubset, params: PdpdsParams) -> Grid:
    """Cellwise difference between the five-class model grid and the actual one.

    The model holds, at every nonidentity cell of Z_N x Z_p, the multiplicity
    params gives that cell's class and params.k at the identity; the actual
    grid is difference_multiset(R), with |R| at the identity. An all-zero
    grid is equivalent to R matching params on every class and in size.
    params.n and params.m must be N and p (ValueError otherwise).
    """
    return grid_residual(difference_multiset(R), params)


def grid_residual(grid: Grid, params: PdpdsParams) -> Grid:
    """group_ring_residual for a subset's grid."""
    N, p = len(grid), len(grid[0])
    if N < 3:
        raise ValueError("residual check needs N >= 3")
    if (params.n, params.m) != (N, p):
        raise ValueError(
            f"params (n, m) = ({params.n}, {params.m}) do not match Z_{N} x Z_{p}"
        )
    # model minus actual
    residual = [[-count for count in row] for row in grid]
    residual[0][0] += params.k
    part_rows = _part_rows(N)
    for cls in PDPDS_CLASSES:
        value = getattr(params, cls.param)
        columns = slice(1) if cls.pure else slice(1, None)
        for row in residual[part_rows[cls.h_part]]:
            row[columns] = [v + value for v in row[columns]]
    return tuple(tuple(row) for row in residual)


def residual_is_zero(residual: Grid) -> bool:
    return all(v == 0 for row in residual for v in row)
