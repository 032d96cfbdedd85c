"""Counting identities, bounds, verdicts, and the golden bound table."""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout

import pytest

from golden_table import (
    ALL_ROWS,
    ERRATA,
    GRID_STEP3_G1,
    GRID_STEP3_G2,
    GRID_STEP5_G1,
    GRID_STEP5_G2,
    N_GOLDEN,
)
from npseq import cli
from npseq.diffset import build_ra, classify_pdpds
from npseq.sequence import parse_sequence
from npseq.theory import (
    BoundTableRow,
    VerdictStatus,
    consecutive_constraint,
    dpds_counting_identity,
    ell_bounds,
    gamma2_upper_bound,
    generate_bound_table,
    lam_leung_feasible,
    nonexistence_verdict,
    pdpds_counting_identity,
    second_component_counts,
    second_component_identities,
    table_to_csv,
    table_to_json,
)


class TestCountingIdentities:
    def test_dpds_identity_examples(self):
        assert dpds_counting_identity(13, 3, 12, 5, 3)
        assert dpds_counting_identity(5, 3, 5, 3, 1)
        assert dpds_counting_identity(1, 3, 1, 0, 0)
        assert not dpds_counting_identity(13, 3, 12, 6, 3)

    def test_consecutive_constraint(self):
        assert consecutive_constraint(1, 12, 5, 3, 3)
        assert consecutive_constraint(0, 5, 3, 1, 3)
        assert not consecutive_constraint(2, 12, 5, 3, 3)
        assert not consecutive_constraint(5, 100, 0, 0, 3)

    def test_pdpds_identity_examples(self):
        first = classify_pdpds(build_ra(parse_sequence(3, "Z,Z,1,1,1")))
        second = classify_pdpds(build_ra(parse_sequence(3, "Z,Z,2,1,0,1,2")))
        assert pdpds_counting_identity(first)
        assert pdpds_counting_identity(second)
        from dataclasses import replace

        assert not pdpds_counting_identity(replace(first, lambda1=2))


class TestSecondComponentIdentities:
    def test_first_paper_example(self):
        ra = build_ra(parse_sequence(3, "Z,Z,1,1,1"))
        counts = second_component_counts(ra)
        assert counts == (0, 3, 0)
        report = second_component_identities(counts, 3, 3, 2, 1)
        assert report.all_ok

    def test_second_paper_example(self):
        ra = build_ra(parse_sequence(3, "Z,Z,2,1,0,1,2"))
        counts = second_component_counts(ra)
        assert sorted(counts) == [1, 2, 2]
        report = second_component_identities(counts, 5, 3, -2, 0)
        assert report.all_ok
        assert set(report.cross_ok) == {1}

    def test_empty_counts(self):
        # the equivalence is stated only for n >= 2, as in expected_pdpds_params
        with pytest.raises(ValueError):
            second_component_identities((0, 0, 0), 0, 3, 0, 0)

    def test_inapplicable_when_divisibility_fails(self):
        report = second_component_identities((1, 1, 1), 3, 3, 0, 1)
        assert not report.applicable
        assert not report.all_ok

    def test_perturbed_counts_fail(self):
        report = second_component_identities((1, 2, 0), 3, 3, 2, 1)
        assert report.applicable and not report.all_ok


class TestEllBounds:
    def test_examples(self):
        assert ell_bounds(4, 2, 3) == (2, 5)
        assert ell_bounds(1, 1, 3) == (1, 1)
        assert ell_bounds(3, 5, 2) == (2, 5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ell_bounds(0, 1, 3)
        with pytest.raises(ValueError):
            ell_bounds(3, 0, 3)


class TestLamLeung:
    def test_examples(self):
        assert not lam_leung_feasible(3, 4)
        assert lam_leung_feasible(2, 0)
        assert lam_leung_feasible(7, 21)
        assert not lam_leung_feasible(7, 1)

    def test_prime_multiples_only(self):
        for m in (2, 3, 5, 7):
            for v in range(30):
                assert lam_leung_feasible(m, v) == (v % m == 0)

    def test_composite_modulus_refused(self):
        for m, v in [(6, 5), (12, 0)] + [(9, v) for v in range(30)]:
            with pytest.raises(ValueError, match="modulus must be prime"):
                lam_leung_feasible(m, v)

    @pytest.mark.parametrize("m, v", [(1000000000000000003, 10**18), (3, 2 * 10**8)])
    def test_large_arguments_in_constant_time(self, m, v):
        start = time.perf_counter()
        assert lam_leung_feasible(m, v) is False
        assert time.perf_counter() - start < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            lam_leung_feasible(1, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            lam_leung_feasible(7, -1)


class TestGamma2Bound:
    def test_examples(self):
        assert gamma2_upper_bound(15, -10, -8) == -1
        assert gamma2_upper_bound(15, 9, -7) == -3
        # A = C = 0 forces D = 0 and B = -2
        assert gamma2_upper_bound(5, 4, 3) == -2

    def test_no_bound_when_discriminant_negative(self):
        # A = 2, C = -8: D = 4 - 8 - 64 < 0
        assert gamma2_upper_bound(5, 12, 1) is None

    def test_exact_floor_fuzz(self):
        rng = random.Random(59)
        for _ in range(2000):
            n = rng.randint(2, 60)
            g1 = rng.randint(-30, 30)
            g2 = rng.randint(-30, 30)
            b = gamma2_upper_bound(n, g1, g2)
            a = n - g2 - 2
            d = a * a - 4 * a + 8 * (n - g1 - 1)
            if d < 0:
                assert b is None
                continue
            # b is the floor: 2b + a + 4 <= sqrt(d) < 2(b+1) + a + 4
            lhs = 2 * b + a + 4
            assert lhs <= 0 or lhs * lhs <= d
            nxt = lhs + 2
            assert nxt > 0 and nxt * nxt > d

    def test_p_cancellation(self):
        # writing A = p*k1 and C = p*k2 gives the same discriminant either way
        rng = random.Random(61)
        for _ in range(500):
            p = rng.choice([3, 5, 7])
            k1 = rng.randint(-10, 10)
            k2 = rng.randint(-10, 10)
            a, c = p * k1, p * k2
            assert a * a - 4 * a + 8 * c == p * p * k1 * k1 - 4 * p * k1 + 8 * p * k2


class TestVerdicts:
    def test_divisibility_reported_first(self):
        v = nonexistence_verdict(15, 5, -10, -8)
        assert v.status is VerdictStatus.DIVISIBILITY_FAIL
        assert v.bound_B == -1  # bound still reported

    def test_existing_type_undecided(self):
        v = nonexistence_verdict(3, 3, 2, 1)
        assert v.status is VerdictStatus.UNDECIDED

    def test_global_floor(self):
        # divisibility holds (3 | 9-(-4)-2 = 11? no; build one that passes):
        # n=10, gamma2=-4, gamma1=0: A=12, C=9, both divisible by 3
        v = nonexistence_verdict(10, 3, 0, -4)
        assert v.status in (VerdictStatus.BOUND_FAIL, VerdictStatus.GLOBAL_BOUND_FAIL)
        # with gamma2=-3 and divisibility failing, divisibility is reported first
        v = nonexistence_verdict(10, 3, 0, -3)
        assert v.status is VerdictStatus.DIVISIBILITY_FAIL

    def test_global_floor_pure(self):
        # find a case where the bound passes but gamma2 <= -3:
        # need gamma2 > B and gamma2 <= -3 with divisibility ok
        found = False
        for n in range(2, 40):
            for g1 in range(-10, 11):
                for g2 in range(-10, -2):
                    if (n - g2 - 2) % 3 or (n - g1 - 1) % 3:
                        continue
                    b = gamma2_upper_bound(n, g1, g2)
                    if b is None or g2 > b:
                        v = nonexistence_verdict(n, 3, g1, g2)
                        assert v.status is VerdictStatus.GLOBAL_BOUND_FAIL
                        found = True
        assert found

    def test_global_floor_below_bound(self):
        # B can be below -3: here only the floor rules the type out
        v = nonexistence_verdict(3, 2, 2, -3)
        assert v.bound_B == -4
        assert v.status is VerdictStatus.GLOBAL_BOUND_FAIL
        assert v.details == "gamma2 = -3 <= -3"

    def test_checks_agree_with_status_and_cli(self):
        names = ("divides_n_gamma2", "divides_n_gamma1", "above_bound", "above_global_floor")
        statuses = (
            VerdictStatus.DIVISIBILITY_FAIL,
            VerdictStatus.DIVISIBILITY_FAIL,
            VerdictStatus.BOUND_FAIL,
            VerdictStatus.GLOBAL_BOUND_FAIL,
        )
        for n in range(2, 31):
            for p in (2, 3, 5, 7):
                for g1 in range(-n - 3, n + 4):
                    for g2 in range(-n - 3, n + 4):
                        v = nonexistence_verdict(n, p, g1, g2)
                        b = gamma2_upper_bound(n, g1, g2)
                        holds = (
                            (n - g2 - 2) % p == 0,
                            (n - g1 - 1) % p == 0,
                            b is None or g2 > b,
                            g2 > -3,
                        )
                        assert v.checks == tuple(zip(names, holds))
                        failing = [s for s, ok in zip(statuses, holds) if not ok]
                        assert v.status is (failing[0] if failing else VerdictStatus.UNDECIDED)
                        # a CLI call takes about 0.2 ms, so the CLI is compared on n <= 8
                        if n <= 8:
                            out = io.StringIO()
                            with redirect_stdout(out):
                                cli.main([
                                    "bounds", "--n", str(n), "--p", str(p), "--gamma1", str(g1),
                                    "--gamma2", str(g2), "--format", "json",
                                ])
                            assert json.loads(out.getvalue())["checks"] == dict(v.checks)


# Sequences of a type whose gamma2 <= B: gamma2 = -2 and n + 2*gamma1 + (n-1)*gamma2 = 0.
BOUND_WITNESSES = [
    (3, "Z,Z,0,0,1,1,2,2,2,2,1,1,0,0", 12, (5, -2)),
    (2, "Z,Z,0,0,1,1", 4, (1, -2)),
    (2, "Z,Z,0,0,1,1,1,1,0,0", 8, (3, -2)),
    (2, "Z,Z,0,0,0,0,1,1,0,0,1,1,1,1", 12, (5, -2)),
    (2, "Z,Z,0,0,1,1,0,0,0,0,0,0,1,1,1,1,1,1,0,0,1,1", 20, (9, -2)),
]


class TestBoundRulesOutExistingTypes:
    @pytest.mark.parametrize("p, seq, n, nps_type", BOUND_WITNESSES)
    def test_witness_passes_every_check(self, capsys, p, seq, n, nps_type):
        assert cli.main(["analyze", "--p", str(p), "--seq", seq, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["n"] == n
        assert tuple(payload["results"]["nps_type"]) == nps_type
        assert payload["checks"] == {
            "counting_identity": True,
            "expected_params_match": True,
            "residual_zero": True,
            "second_component_identities": True,
        }

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="gamma2 <= B also rules out Q = n + 2*gamma1 + (n-1)*gamma2 = 0, "
        "which a vanishing sum of roots of unity attains (ROADMAP item 1)",
    )
    @pytest.mark.parametrize("p, seq, n, nps_type", BOUND_WITNESSES)
    def test_witness_type_not_bound_fail(self, p, seq, n, nps_type):
        assert nonexistence_verdict(n, p, *nps_type).status is not VerdictStatus.BOUND_FAIL


class TestGoldenTable:
    def _generated(self):
        rows = generate_bound_table(
            N_GOLDEN, GRID_STEP3_G1 + GRID_STEP5_G1, GRID_STEP3_G2 + GRID_STEP5_G2
        )
        return {(r.gamma1, r.gamma2): r for r in rows}

    def test_all_printed_rows_reproduce(self):
        generated = self._generated()
        mismatches = []
        for g1, g2, printed_b, printed_flag in ALL_ROWS:
            row = generated[(g1, g2)]
            if (g1, g2) in ERRATA:
                printed, exact = ERRATA[(g1, g2)]
                assert printed_b == printed
                assert row.B == exact  # the formula value, not the misprint
                continue
            if row.B != printed_b:
                mismatches.append((g1, g2, row.B, printed_b))
            assert row.not_exist == printed_flag
        assert mismatches == []

    def test_not_exist_flag_equals_threshold(self):
        for row in self._generated().values():
            assert row.not_exist == (row.B is not None and row.gamma2 <= row.B)

    def test_full_grids_row_counts(self):
        assert len(generate_bound_table(N_GOLDEN, GRID_STEP3_G1, GRID_STEP3_G2)) == 49
        assert len(generate_bound_table(N_GOLDEN, GRID_STEP5_G1, GRID_STEP5_G2)) == 16

    def test_empty_table(self):
        assert generate_bound_table(15, [], []) == []


class TestSerialization:
    def test_csv(self):
        rows = [BoundTableRow(-1, -2, -2, True), BoundTableRow(0, 5, None, False)]
        text = table_to_csv(rows)
        assert text.splitlines() == [
            "gamma1,gamma2,B,verdict",
            "-1,-2,-2,not exist",
            "0,5,,",
        ]

    def test_json(self):
        rows = [BoundTableRow(-1, -2, -2, True)]
        assert (
            table_to_json(rows)
            == '[{"gamma1":-1,"gamma2":-2,"B":-2,"not_exist":true}]'
        )
