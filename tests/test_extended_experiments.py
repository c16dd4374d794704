"""Tests for the extended comparison and ablation drivers."""

import numpy as np
import pytest

from repro.experiments.ablations import (
    ablation_entropy,
    ablation_forwarding,
    ablation_quarantine,
)
from repro.experiments.common import ExperimentSuite, RunSettings
from repro.experiments.extended import run_extended_comparison
from repro.workloads.generator import TAG_FREE, TAG_MALLOC


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(RunSettings(instructions=10_000, seed=21, scale=8))


class TestExtendedComparison:
    def test_mte_runs_next_to_aos(self, suite):
        result = run_extended_comparison(suite, workloads=["gobmk", "povray"])
        for row in result.rows.values():
            assert set(row) == {"mte", "aos", "pa+aos"}
            for value in row.values():
                assert 0.5 < value < 5.0

    def test_format_includes_entropy_line(self, suite):
        result = run_extended_comparison(suite, workloads=["gobmk"])
        text = result.format()
        assert "45425" in text
        assert "93.8%" in text


class TestAblationDrivers:
    def test_quarantine_ablation_runs(self, suite):
        """Sanity only at this window size — the directional §IV-C claim
        (quarantine > no-quarantine) is asserted by bench_ablations on a
        full-size malloc-storm window, where it is above the noise."""
        result = ablation_quarantine(suite, workload="povray")
        for row in result.rows.values():
            assert 0.5 < row["norm.time"] < 3.0
        assert "aos (re-sign)" in result.rows
        assert result.rows["rest (quarantine)"]["instr.ovh"] >= 0

    def test_forwarding_counts_events(self, suite):
        result = ablation_forwarding(suite, workload="povray")
        assert result.rows["forwarding"]["forwards"] > 0
        assert result.rows["no forwarding"]["forwards"] == 0

    def test_paranoid_and_metrics_cover_every_planned_row(self, monkeypatch):
        """The BWB, MCQ and forwarding rows are suite cells: each distinct
        configuration is simulated once, audited by the invariant oracle
        once, and every row carries its metrics snapshot."""
        from repro.experiments import ablations
        from repro.experiments.parallel import supervised_cell_key
        from repro.supervise.oracle import InvariantOracle

        inspected = []
        real = InvariantOracle.inspector

        def inspector(self, key):
            inspected.append(key)
            return real(self, key)

        monkeypatch.setattr(InvariantOracle, "inspector", inspector)
        observed = ExperimentSuite(
            RunSettings(instructions=4000, seed=21, metrics=True),
            paranoid=True,
        )
        rows = [
            *ablations.bwb_cells(observed).values(),
            *ablations.mcq_cells(observed).values(),
            *ablations.forwarding_cells(observed).values(),
        ]
        assert len(rows) == 11
        ablations.ablation_bwb(observed)
        ablations.ablation_mcq(observed)
        ablations.ablation_forwarding(observed)
        # The 64-entry BWB and forwarding-on rows are one configuration.
        assert len({(cell.workload, cell.config) for cell in rows}) == 10
        keys = {supervised_cell_key(cell) for cell in rows}
        audited = [key for key in inspected if key in keys]
        assert len(audited) == len(set(audited)) == 10
        metrics = observed.cell_metrics()
        assert {cell.cache_key for cell in rows} <= set(metrics)

        def lookups(snapshot):
            return snapshot["counters"].get("bwb.lookups", 0)

        # The merged snapshot sums every memoised cell, the rows included.
        assert lookups(observed.metrics_snapshot()) == sum(
            lookups(m) for m in metrics.values()
        )
        # Every row but the first (BWB disabled) looks the buffer up.
        assert all(lookups(metrics[cell.cache_key]) for cell in rows[1:])

    def test_warm_rerun_simulates_nothing(self, monkeypatch, tmp_path, capsys):
        """A second ``repro ablations`` on the same cache reads every row
        from it, REST without quarantine and the resize rows included."""
        from repro import cli
        from repro.cpu.core import Simulator

        argv = ["ablations", "--quick", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        runs = []
        real = Simulator.run

        def run(self, *args, **kwargs):
            runs.append(self.config.mechanism)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run)
        assert cli.main(argv) == 0
        assert "0 misses, 0 stores" in capsys.readouterr().out
        assert runs == []

    def test_entropy_rows_are_static(self):
        result = ablation_entropy()
        assert result.rows["16-bit (AOS)"]["tries@50%"] == 45425
        text = result.format()
        assert "4-bit (MTE)" in text


class TestRESTLoweringUnits:
    def test_token_stores_emitted(self, suite):
        from repro.compiler.passes import RESTLowering

        trace = suite.trace("povray")
        lowered = RESTLowering(trace, suite.config_for("rest")).lower()
        tokens = [i for i, meta in lowered.program.meta if meta == "token"]
        mallocs = np.count_nonzero(trace.tags == TAG_MALLOC)
        assert len(tokens) >= 2 * mallocs  # two redzones per allocation

    def test_quarantine_defers_frees(self, suite):
        from repro.compiler.passes import RESTLowering

        trace = suite.trace("povray")
        with_q = RESTLowering(trace, suite.config_for("rest"))
        with_q.lower()
        # Some chunks must still be parked in the pool at program end: the
        # base pass's quarantine released fewer chunks than were freed.
        frees = with_q.base.by_tag[TAG_FREE]
        assert len(frees) - int(with_q.base.released[frees].sum()) > 0
