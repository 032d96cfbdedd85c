"""Closed-form necessary conditions and nonexistence bounds.

Everything here is exact integer arithmetic: counting identities a classified
difference multiset must satisfy, the distinct-coefficient bounds, feasibility
of vanishing root-of-unity sums, and the floor bound B on gamma2 with its
verdict logic and table generator.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass

from .cyclotomic import MAX_CELLS, _require_prime
from .diffset import GroupSubset, PdpdsParams, expected_pdpds_params


def dpds_counting_identity(N: int, p: int, n: int, lambda1: int, mu: int) -> bool:
    """Global count over the three-class partition, period N = n + s:

    (N - 1) * (lambda1 + mu*(p-1)) == n^2 - n.
    """
    if N < n:
        raise ValueError("period N must be at least n")
    return (N - 1) * (lambda1 + mu * (p - 1)) == n * n - n


def consecutive_constraint(s: int, n: int, lambda1: int, mu: int, p: int) -> bool:
    """Per-shift count for a consecutive zero run of length s.

    Each of the first s shifts forces n - i = lambda1 + mu*(p-1); the right
    side is fixed, so the constraint is satisfiable only for s <= 1. For s = 0
    the full-strength n = lambda1 + mu*(p-1) must hold instead.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    rhs = lambda1 + mu * (p - 1)
    if s == 0:
        return n == rhs
    if s == 1:
        return n - 1 == rhs
    return False


def pdpds_counting_identity(params: PdpdsParams) -> bool:
    """Global count over the five-class partition with k nonzero symbols and
    p = params.m:

    (k - 1) * (lambda1 + (p-1)*mu1) + 2 * (lambda3 + (p-1)*mu2) == k^2 - k.
    """
    k, p = params.k, params.m
    lhs = (k - 1) * (params.lambda1 + (p - 1) * params.mu1) + 2 * (
        params.lambda3 + (p - 1) * params.mu2
    )
    return lhs == k * k - k


def second_component_counts(R: GroupSubset) -> tuple[int, ...]:
    """s_j = number of elements of R whose second component equals j."""
    counts = [0] * R.p
    for _, g in R.elements:
        counts[g] += 1
    return tuple(counts)


@dataclass(frozen=True)
class SecondComponentReport:
    """Pass/fail results of the quadratic identities on the s_j counts."""

    applicable: bool
    square_sum_ok: bool
    cross_ok: dict[int, bool]  # per shift i = 1 .. ceil((p-1)/2)
    combined_ok: dict[int, bool]  # (cross sum)*(p-1) + square sum == n^2

    @property
    def all_ok(self) -> bool:
        return (
            self.applicable
            and self.square_sum_ok
            and all(self.cross_ok.values())
            and all(self.combined_ok.values())
        )


def second_component_identities(
    s_counts: tuple[int, ...] | list[int],
    n: int,
    p: int,
    gamma1: int,
    gamma2: int,
) -> SecondComponentReport:
    """Check the quadratic constraints the s_j counts of a type-(g1,g2) set obey.

    With lambda1, lambda3, mu1 and mu2 from expected_pdpds_params:

        sum s_j^2             == lambda1*(n-1) + lambda3*2 + n
        sum s_j * s_{j-i}     == mu1*(n-1) + mu2*2          for each i
        (cross)*(p-1) + (sq)  == n^2                        for each i

    subscripts mod p, i = 1 .. ceil((p-1)/2). Inapplicable (all False except
    the flag) when expected_pdpds_params returns None; ValueError for n < 2.
    """
    params = expected_pdpds_params(n, p, gamma1, gamma2)
    s_counts = tuple(s_counts)
    if len(s_counts) != p:
        raise ValueError(f"expected {p} counts, got {len(s_counts)}")
    if params is None:
        return SecondComponentReport(False, False, {}, {})
    square_sum = sum(s * s for s in s_counts)
    square_ok = square_sum == params.lambda1 * (n - 1) + params.lambda3 * 2 + n
    expected_cross = params.mu1 * (n - 1) + params.mu2 * 2
    cross_ok: dict[int, bool] = {}
    combined_ok: dict[int, bool] = {}
    for i in range(1, p // 2 + 1):  # p // 2 == ceil((p-1)/2)
        cross = sum(s_counts[j] * s_counts[(j - i) % p] for j in range(p))
        cross_ok[i] = cross == expected_cross
        combined_ok[i] = cross * (p - 1) + square_sum == n * n
    return SecondComponentReport(True, square_ok, cross_ok, combined_ok)


def ell_bounds(n: int, s: int, p: int) -> tuple[int, int]:
    """Bounds on the distinct out-of-phase coefficient count for a sequence
    with n nonzero symbols and s >= 1 consecutive zero-symbols:

    min{s, p, n} <= ell <= n - 1 + min{n, s}.
    """
    if n < 1 or s < 1:
        raise ValueError("bounds require n >= 1 and s >= 1")
    return min(s, p, n), n - 1 + min(n, s)


def lam_leung_feasible(m: int, v: int) -> bool:
    """Can v m-th roots of unity sum to zero, for prime m? Exactly when m | v
    (Lam and Leung, J. Algebra 2000); ValueError for a composite m."""
    _require_prime(m)
    if v < 0:
        raise ValueError("v must be nonnegative")
    return v % m == 0


def gamma2_upper_bound(n: int, gamma1: int, gamma2: int) -> int | None:
    """The integer bound B such that a type-(gamma1, gamma2) sequence of
    period n+2 with two consecutive zero-symbols cannot exist when
    gamma2 <= B.

    With A = n - gamma2 - 2 and C = n - gamma1 - 1 the discriminant is
    D = A^2 - 4A + 8C and B = floor((-A - 4 + sqrt(D)) / 2). Returns None
    when D < 0 (the underlying quadratic constraint is vacuous and yields no
    bound). The floor is exact: math.isqrt gives floor(sqrt(D)), and since
    0 <= sqrt(D) - isqrt(D) < 1, floor((x + sqrt(D))/2) == (x + isqrt(D)) // 2
    for any integer x.
    """
    a = n - gamma2 - 2
    c = n - gamma1 - 1
    d = a * a - 4 * a + 8 * c
    if d < 0:
        return None
    return (-a - 4 + math.isqrt(d)) // 2


class VerdictStatus(enum.Enum):
    DIVISIBILITY_FAIL = "divisibility-fail"
    BOUND_FAIL = "bound-fail"
    GLOBAL_BOUND_FAIL = "global-bound-fail"  # gamma2 <= -3 never attainable
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class NonexistenceVerdict:
    status: VerdictStatus
    bound_B: int | None
    details: str
    checks: tuple[tuple[str, bool], ...]  # (rule name, holds), in rule order


def nonexistence_verdict(
    n: int, p: int, gamma1: int, gamma2: int
) -> NonexistenceVerdict:
    """Apply the necessary conditions for a type-(gamma1, gamma2) sequence of
    period n+2 with two consecutive zero-symbols, in order of strength:

    1. p must divide both n - gamma2 - 2 and n - gamma1 - 1;
    2. gamma2 must exceed the floor bound B;
    3. gamma2 must exceed -3. After divisibility this floor decides only when
       B is undefined (D < 0) or B < gamma2 <= -3: B can be below -3, e.g.
       n = 3, (gamma1, gamma2) = (2, -3) has B = -4.

    Every rule is evaluated and reported in checks. The status is the first
    violated rule's; details names every violated rule with that status.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _require_prime(p)
    a = n - gamma2 - 2
    c = n - gamma1 - 1
    bound = gamma2_upper_bound(n, gamma1, gamma2)
    rules = (
        ("divides_n_gamma2", a % p == 0, VerdictStatus.DIVISIBILITY_FAIL,
         f"{p} does not divide n-gamma2-2 = {a}"),
        ("divides_n_gamma1", c % p == 0, VerdictStatus.DIVISIBILITY_FAIL,
         f"{p} does not divide n-gamma1-1 = {c}"),
        ("above_bound", bound is None or gamma2 > bound, VerdictStatus.BOUND_FAIL,
         f"gamma2 = {gamma2} <= B = {bound}"),
        ("above_global_floor", gamma2 > -3, VerdictStatus.GLOBAL_BOUND_FAIL,
         f"gamma2 = {gamma2} <= -3"),
    )
    violated = [(status, detail) for _, holds, status, detail in rules if not holds]
    status = violated[0][0] if violated else VerdictStatus.UNDECIDED
    details = "; ".join(d for s, d in violated if s is status) or "no condition violated"
    checks = tuple((name, holds) for name, holds, _, _ in rules)
    return NonexistenceVerdict(status, bound, details, checks)


@dataclass(frozen=True)
class BoundTableRow:
    gamma1: int
    gamma2: int
    B: int | None
    not_exist: bool


def generate_bound_table(
    n: int, gamma1_list: list[int], gamma2_list: list[int]
) -> list[BoundTableRow]:
    """One row per (gamma1, gamma2) pair, lexicographic order.

    B is computed directly from A = n-gamma2-2 and C = n-gamma1-1 with no
    divisibility filter (published tables include rows where divisibility
    fails); the not_exist flag is gamma2 <= B.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    gamma1s, gamma2s = sorted(set(gamma1_list)), sorted(set(gamma2_list))
    if len(gamma1s) * len(gamma2s) > MAX_CELLS:
        raise ValueError(
            f"{len(gamma1s)}*{len(gamma2s)} (gamma1, gamma2) pairs exceed the limit of "
            f"{MAX_CELLS} table rows"
        )
    rows = []
    for g1 in gamma1s:
        for g2 in gamma2s:
            b = gamma2_upper_bound(n, g1, g2)
            rows.append(BoundTableRow(g1, g2, b, b is not None and g2 <= b))
    return rows


def table_to_csv(rows: list[BoundTableRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["gamma1", "gamma2", "B", "verdict"])
    for row in rows:
        writer.writerow(
            [
                row.gamma1,
                row.gamma2,
                "" if row.B is None else row.B,
                "not exist" if row.not_exist else "",
            ]
        )
    return buf.getvalue()


def _table_dicts(rows: list[BoundTableRow]) -> list[dict]:
    return [
        {
            "gamma1": row.gamma1,
            "gamma2": row.gamma2,
            "B": row.B,
            "not_exist": row.not_exist,
        }
        for row in rows
    ]


def table_to_json(rows: list[BoundTableRow]) -> str:
    return json.dumps(_table_dicts(rows), indent=None, separators=(",", ":"))
