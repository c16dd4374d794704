"""Experiment driver tests (small-scale versions of each table/figure)."""

import pytest

from repro.experiments import (
    ExperimentSuite,
    RunSettings,
    run_fig11,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_fig18,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)

#: Two cheap, behaviourally distinct workloads for smoke-level experiments.
WORKLOADS = ["gobmk", "povray"]


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(RunSettings(instructions=12_000, seed=13, scale=8))


class TestFig11:
    def test_small_run_statistics(self):
        result = run_fig11(n=1 << 16, pac_bits=16)
        d = result.distribution
        assert d.n_pointers == 1 << 16
        assert d.mean == pytest.approx(1.0)
        assert d.max >= 1
        assert "Avg" in result.format()

    def test_uniformity_at_scale(self):
        """Fig. 11's claim: QARMA PACs distribute uniformly."""
        result = run_fig11(n=1 << 18, pac_bits=14)
        d = result.distribution
        assert d.mean == pytest.approx(16.0)
        # Poisson-like spread: stdev close to sqrt(mean), far from mean.
        assert d.stdev < d.mean / 2


class TestFig14:
    def test_rows_and_geomeans(self, suite):
        result = run_fig14(suite, workloads=WORKLOADS)
        assert set(result.rows) == set(WORKLOADS)
        for values in result.rows.values():
            assert set(values) == {"watchdog", "pa", "aos", "pa+aos"}
            for v in values.values():
                assert 0.5 < v < 5.0
        assert "Geomean" in result.format()

    def test_watchdog_above_pa(self, suite):
        result = run_fig14(suite, workloads=WORKLOADS)
        assert result.geomeans["watchdog"] > result.geomeans["pa"]


class TestFig15:
    def test_variants(self, suite):
        result = run_fig15(suite, workloads=["povray"])
        assert set(result.rows["povray"]) == {
            "no-opt", "l1b", "compression", "l1b+compression",
        }
        # Both optimisations on must not be slower than neither.
        row = result.rows["povray"]
        assert row["l1b+compression"] <= row["no-opt"] * 1.02


class TestFig16:
    def test_categories(self, suite):
        result = run_fig16(suite, workloads=WORKLOADS)
        for row in result.rows.values():
            assert set(row) == {
                "UnsignedLoad", "UnsignedStore", "SignedLoad", "SignedStore",
                "bndstr/bndclr", "pac*/aut*/xpac*",
            }

    def test_signed_fraction_tracks_profile(self, suite):
        result = run_fig16(suite, workloads=WORKLOADS)
        # povray's heap fraction (0.52) >> gobmk's (0.30).
        assert result.signed_fraction["povray"] > result.signed_fraction["gobmk"]


class TestFig17:
    def test_metrics_in_range(self, suite):
        result = run_fig17(suite, workloads=WORKLOADS)
        for w in WORKLOADS:
            assert 0.3 <= result.accesses_per_check[w] <= 8.0
            assert 0.0 <= result.bwb_hit_rate[w] <= 1.0


class TestFig18:
    def test_traffic_rows(self, suite):
        result = run_fig18(suite, workloads=WORKLOADS)
        for values in result.rows.values():
            assert values["watchdog"] > 0.9


class TestTables:
    def test_table1(self):
        result = run_table1()
        text = result.format()
        assert "MCQ" in text and "BWB" in text
        assert "paper" in text

    def test_table2_has_16_rows(self):
        result = run_table2()
        assert len(result.rows) == 16
        gcc = next(r for r in result.rows if r.name == "gcc")
        assert gcc.allocations == 1846825

    def test_table3_has_6_rows(self):
        result = run_table3()
        assert len(result.rows) == 6
        apache = next(r for r in result.rows if r.name == "apache")
        assert apache.max_active == 7592

    def test_table4_renders(self):
        text = run_table4().format()
        assert "8-wide" in text
        assert "16-bit PAC" in text


class TestSuiteCaching:
    def test_results_memoised(self, suite):
        a = suite.result("gobmk", "baseline")
        b = suite.result("gobmk", "baseline")
        assert a is b

    def test_traces_memoised(self, suite):
        assert suite.trace("gobmk") is suite.trace("gobmk")

    def test_cache_info_counts(self):
        local = ExperimentSuite(RunSettings(instructions=4_000, seed=3, scale=8))
        assert local.cache_info() == {"traces": 0, "lowered": 0, "results": 0}
        local.result("povray", "baseline")
        info = local.cache_info()
        assert info["traces"] == 1
        assert info["lowered"] == 1
        assert info["results"] == 1

    def test_clear_caches(self):
        local = ExperimentSuite(RunSettings(instructions=4_000, seed=3, scale=8))
        local.result("povray", "baseline")
        local.clear_caches(traces=False)
        info = local.cache_info()
        assert info == {"traces": 1, "lowered": 0, "results": 0}
        local.clear_caches()
        assert local.cache_info() == {"traces": 0, "lowered": 0, "results": 0}

    def test_normalized_time_zero_baseline_guard(self, suite):
        run = suite.result("gobmk", "aos")
        base = suite.result("gobmk", "baseline")
        saved = base.cycles
        try:
            base.cycles = 0
            assert suite.normalized_time("gobmk", "aos") == 1.0
        finally:
            base.cycles = saved
        assert run.cycles > 0  # the real ratio path still exercised elsewhere

    def test_normalized_time_baseline_is_explicit(self, suite):
        """A custom mechanism ``config``/``key`` must not silently change
        the denominator: the baseline cell stays the default unless the
        caller names one via ``baseline_config``/``baseline_key``."""
        tuned = suite.config_for("aos").with_aos_options(bwb_enabled=False)
        ratio = suite.normalized_time("gobmk", "aos", config=tuned, key="aos-nobwb")
        base = suite.result("gobmk", "baseline")
        run = suite.result("gobmk", "aos", key="aos-nobwb")
        assert ratio == pytest.approx(run.cycles / base.cycles)

    def test_normalized_time_custom_baseline_key(self, suite):
        """``baseline_key`` selects an alternative baseline cell."""
        default = suite.normalized_time("gobmk", "aos")
        aliased = suite.normalized_time(
            "gobmk", "aos", baseline_key="baseline-alias"
        )
        # Same (deterministic) simulation under a different memo label.
        assert aliased == pytest.approx(default)
        assert ("gobmk", "baseline-alias") in suite.result_payloads()
