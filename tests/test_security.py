"""Security analysis tests: the §VII detection matrix must match the paper.

The matrix is the scenario corpus (:data:`repro.adversary.SCENARIOS`)
run against every registered mechanism; each cell is a
:class:`~repro.adversary.ScenarioRun`.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.adversary import (
    SCENARIOS,
    ChaosCampaign,
    ChaosConfig,
    Expectation,
    build_scenario,
    run_security_analysis,
)
from repro.mechanisms import REGISTRY
from repro.core.aos import AOSRuntime, PAAOSRuntime

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Plain AOS's documented blind spots: sub-object overflow (§III-D), the
#: AHC-zeroing escape (§VII-C) and the return path it leaves to PA
#: (§VII-B).  §VII claims it detects every other scenario.
AOS_ESCAPES = ("intra-object-overflow", "ahc-zero-escape", "ret-addr-corruption")


@pytest.fixture(scope="module")
def matrix():
    return run_security_analysis()


def detected(matrix, scenario, mechanism):
    return matrix.cell(scenario, mechanism).observed == "detected"


class TestAOSClaims:
    """AOS must detect everything §VII claims it detects."""

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_aos_outcome(self, matrix, scenario):
        if scenario in AOS_ESCAPES:
            claim = (Expectation.KNOWN_ESCAPE, "undetected", "escape-confirmed")
        else:
            claim = (Expectation.MUST_DETECT, "detected", "as-expected")
        run = matrix.cell(scenario, "aos")
        expected = build_scenario(scenario).expected("aos")
        assert (expected, run.observed, run.verdict) == claim

    def test_ahc_zeroing_escapes_aos_not_pa_aos(self, matrix):
        """§VII-C: plain AOS has no on-load ``autm``; PA+AOS does."""
        assert not hasattr(AOSRuntime(pac_mode="fast"), "autm")
        assert hasattr(PAAOSRuntime(pac_mode="fast"), "autm")
        assert not detected(matrix, "ahc-zero-escape", "aos")
        assert detected(matrix, "ahc-zero-escape", "pa+aos")

    def test_no_missed_detection_or_robustness_bug(self, matrix):
        counts = matrix.verdict_counts()
        assert counts["missed-detection"] == 0, matrix.format_report()
        assert counts["robustness-bug"] == 0, matrix.format_report()


class TestBaselineGaps:
    """The comparison points that motivate AOS."""

    def test_baseline_misses_spatial(self, matrix):
        assert not detected(matrix, "adjacent-oob-read", "baseline")
        assert not detected(matrix, "nonlinear-oob-read", "baseline")

    def test_baseline_misses_temporal(self, matrix):
        assert not detected(matrix, "uaf-stale-load", "baseline")
        assert not detected(matrix, "double-free", "baseline")

    def test_baseline_house_of_spirit_succeeds(self, matrix):
        """Fig. 1 works on an unprotected glibc-style heap."""
        assert not detected(matrix, "house-of-spirit", "baseline")

    def test_invalid_free_caught_everywhere(self, matrix):
        """glibc's own free() checks reject a never-allocated address."""
        for mechanism in REGISTRY.names():
            assert detected(matrix, "invalid-free", mechanism), mechanism

    def test_rest_catches_adjacent_only(self, matrix):
        """Trip-wires stop adjacent overflows but not jumps (§I)."""
        assert detected(matrix, "adjacent-oob-read", "rest")
        assert detected(matrix, "heap-overflow-adjacent", "rest")
        assert not detected(matrix, "nonlinear-oob-read", "rest")

    def test_pa_has_no_spatial_or_temporal_safety(self, matrix):
        """§II-B: PA alone detects neither OOB nor UAF."""
        assert not detected(matrix, "adjacent-oob-read", "pa")
        assert not detected(matrix, "uaf-stale-load", "pa")
        assert not detected(matrix, "house-of-spirit", "pa")

    def test_watchdog_detects_core_violations(self, matrix):
        for scenario in (
            "adjacent-oob-read", "uaf-stale-load", "double-free", "house-of-spirit",
        ):
            assert detected(matrix, scenario, "watchdog"), scenario


class TestMatrixShape:
    def test_all_attacks_ran_on_all_mechanisms(self, matrix):
        assert len(matrix) == len(SCENARIOS) * len(REGISTRY)
        for scenario in SCENARIOS:
            for mechanism in REGISTRY.names():
                assert matrix.cell(scenario, mechanism) is not None
        assert {"cryptsan", "pacsan", "pactight", "pacstack"} <= set(
            REGISTRY.names()
        )

    def test_format_table_renders(self, matrix):
        lines = matrix.format_grid().splitlines()
        assert lines[0].split() == ["attack"] + REGISTRY.names()
        assert [line.split()[0] for line in lines[2:]] == list(SCENARIOS)
        assert set(" ".join(lines[2:]).split()) - set(SCENARIOS) == {
            "DETECT", "-", "n/a",
        }

    def test_na_only_where_an_optional_primitive_is_missing(self, matrix):
        needs_primitive = {
            "pac-forgery", "ahc-zero-escape", "metadata-brute-force",
            "ret-addr-corruption",
        }
        for run in matrix.runs:
            if run.observed == "unsupported":
                assert run.scenario in needs_primitive, run


class TestTagEntropy:
    """§X: small tags are brute-forceable; 16-bit PACs are not."""

    def test_mte_bypassed_by_brute_force(self, matrix):
        assert not detected(matrix, "metadata-brute-force", "mte")
        assert matrix.cell("metadata-brute-force", "mte").verdict == (
            "escape-confirmed"
        )

    def test_aos_survives_brute_force(self, matrix):
        assert detected(matrix, "metadata-brute-force", "aos")

    def test_pac_schemes_survive_brute_force(self, matrix):
        for mechanism in ("pa+aos", "cryptsan", "pacsan", "pactight"):
            assert detected(matrix, "metadata-brute-force", mechanism), mechanism
            assert detected(matrix, "pac-forgery", mechanism), mechanism

    def test_mte_has_no_pac_to_forge(self, matrix):
        assert matrix.cell("pac-forgery", "mte").observed == "unsupported"

    def test_mte_catches_single_shot_violations(self, matrix):
        for scenario in ("adjacent-oob-read", "uaf-stale-load"):
            assert detected(matrix, scenario, "mte")


class TestCheriRow:
    """§X: capabilities give spatial safety by construction but defer
    temporal safety to revocation (CHERIvoke)."""

    def test_spatial_by_construction(self, matrix):
        for scenario in ("adjacent-oob-read", "nonlinear-oob-read"):
            assert detected(matrix, scenario, "cheri")

    def test_temporal_gap_without_revocation(self, matrix):
        assert not detected(matrix, "uaf-stale-load", "cheri")
        assert not detected(matrix, "double-free", "cheri")

    def test_unforgeable(self, matrix):
        assert detected(matrix, "house-of-spirit", "cheri")


class TestRunSelection:
    def test_subset_run(self):
        """``attack --scenarios`` reaches the §VII rows outside the
        default campaign sweep."""
        config = ChaosConfig(
            scenarios=("house-of-spirit",), mechanisms=("baseline", "aos")
        )
        m = ChaosCampaign(config).run()
        assert [(r.scenario, r.mechanism, r.observed) for r in m.runs] == [
            ("house-of-spirit", "baseline", "undetected"),
            ("house-of-spirit", "aos", "detected"),
        ]


class TestOneCorpus:
    def test_default_sweep_is_the_campaign_eleven(self):
        """``repro attack``'s default sweep (and the committed
        ``security_matrix.json``) stays these 11 scenarios, in order."""
        assert ChaosConfig().scenario_names() == [
            "heap-overflow-adjacent",
            "linear-oob-write",
            "nonlinear-oob-read",
            "intra-object-overflow",
            "uaf-stale-load",
            "uaf-after-realloc",
            "double-free",
            "pac-forgery",
            "pac-replay",
            "ahc-zero-escape",
            "ret-addr-corruption",
        ]

    def test_grid_equals_the_chaos_matrix(self, matrix):
        """The §VII view and the campaign view of the shared cells agree,
        cell for cell and line for line."""
        chaos = ChaosCampaign(ChaosConfig()).run()
        assert len(chaos) == 11 * 12
        for run in chaos.runs:
            cell = matrix.cell(run.scenario, run.mechanism)
            assert (cell.observed, cell.verdict) == (run.observed, run.verdict)
        grid = set(matrix.format_grid().splitlines())
        for line in chaos.format_grid().splitlines():
            assert line in grid


def test_example_runs():
    """``examples/attack_detection.py`` exits 0 and prints the matrix."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / "attack_detection.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [
        line.split() for line in result.stdout.splitlines()
        if line.startswith("house-of-spirit ")
    ]
    assert rows == [["house-of-spirit", "-", "DETECT", "-", "DETECT",
                     "DETECT", "DETECT", "DETECT", "DETECT", "DETECT",
                     "DETECT", "DETECT", "-"]]
