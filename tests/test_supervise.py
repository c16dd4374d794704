"""Supervised execution layer tests.

Covers the PR-level guarantees: deterministic retry backoff, hang
detection + quarantine charged to the failing task only, crash-atomic
checkpoint writes, campaign integration (quarantine
persisted and skipped at resume, non-quarantined results byte-identical
to a fault-free serial run), worker-exception surfacing, and the
SIGTERM/SIGINT flush path.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import CheckpointError, FaultInjectionError, SupervisionError
from repro.faults import (
    Campaign,
    CampaignConfig,
    CheckpointStore,
    FaultKind,
    FaultSpec,
)
from repro.stats import SupervisionSummary
from repro.supervise import (
    RetryPolicy,
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
    Task,
    dispatch,
    trap_signals,
)

# ----------------------------------------------------------- module workers


def _double(payload):
    return payload * 2


def _raise(payload):
    raise ValueError(f"boom on {payload!r}")


def _sleep_forever(payload):
    if payload == "hang":
        time.sleep(120)
    return payload


def _crash_once(sentinel):
    """Hard-crash the first time, succeed once the sentinel file exists."""
    if os.path.exists(sentinel):
        return "recovered"
    with open(sentinel, "w") as fh:
        fh.write("seen")
    os._exit(3)


def _timed_task(payload):
    """``(name, path)``: ``hangs`` sleeps 120 s, ``dies`` exits after 0.1 s,
    ``quick`` sleeps 0.5 s, ``slow`` sleeps 0.9 s then appends a line to
    ``path``."""
    name, path = payload
    if name == "hangs":
        time.sleep(120)
    elif name == "dies":
        time.sleep(0.1)
        os._exit(1)
    elif name == "quick":
        time.sleep(0.5)
    else:
        time.sleep(0.9)
        with open(path, "a") as fh:
            fh.write(f"{name}\n")
    return name


def _half_second(payload):
    time.sleep(0.5)
    return payload


def _fast_config(**overrides):
    defaults = dict(
        jobs=2,
        deadline_s=2.0,
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.01, backoff_cap_s=0.05),
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


# ------------------------------------------------------------- retry policy


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay("cell-a", 1) == policy.delay("cell-a", 1)

    def test_delay_varies_by_key_and_attempt(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay("cell-a", 1) != policy.delay("cell-b", 1)
        assert policy.delay("cell-a", 1) != policy.delay("cell-a", 2)

    def test_delay_respects_cap_and_jitter_band(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_cap_s=0.4, jitter=0.25
        )
        for attempt in range(1, 8):
            raw = min(0.1 * 2.0 ** (attempt - 1), 0.4)
            delay = policy.delay("k", attempt)
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_backoff_cap_is_hard(self):
        """Positive jitter on an at-cap delay must not push past the cap
        (a long chaos campaign would otherwise accumulate unbounded extra
        sleep across retries)."""
        policy = RetryPolicy(
            backoff_base_s=10.0, backoff_factor=10.0, backoff_cap_s=0.2,
            jitter=0.25, seed=3,
        )
        for key in ("cell-a", "cell-b", "cell-c"):
            for attempt in range(1, 6):
                assert policy.delay(key, attempt) <= 0.2

    def test_different_seeds_differ(self):
        assert RetryPolicy(seed=1).delay("k", 1) != RetryPolicy(seed=2).delay("k", 1)

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=2).max_attempts == 3

    def test_rejects_bad_values(self):
        with pytest.raises(SupervisionError):
            RetryPolicy(max_retries=-1).delay("k", 1)
        with pytest.raises(SupervisionError):
            SupervisorConfig(deadline_s=0.0)
        # jobs < 1 is legal: it means "decided by the caller at run time".
        assert SupervisorConfig(jobs=0).effective_jobs(fallback=4) == 4


# --------------------------------------------------------------- supervisor


class TestSupervisorLevels:
    def test_pool_runs_all_tasks(self):
        tasks = [Task(key=f"t{i}", payload=i) for i in range(6)]
        results, report = Supervisor(_fast_config()).run(_double, tasks)
        assert results == {f"t{i}": i * 2 for i in range(6)}
        assert report.quarantined == {}
        assert report.accounts_for([t.key for t in tasks])

    def test_serial_level_retries_then_quarantines(self):
        config = _fast_config()
        results, report = Supervisor(config).run(_raise, [Task(key="bad", payload=0)])
        assert results == {}
        assert "bad" in report.quarantined
        assert "ValueError" in report.quarantined["bad"]
        # max_retries=1 -> exactly two attempts, both recorded.
        assert [a.attempt for a in report.attempts] == [1, 2]
        assert all(a.outcome == "error" for a in report.attempts)
        assert report.accounts_for(["bad"])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SupervisionError):
            Supervisor(_fast_config()).run(
                _double, [Task(key="same", payload=1), Task(key="same", payload=2)]
            )

    def test_hang_detected_retried_quarantined(self):
        """Satellite: a sleeping worker is detected, retried, quarantined —
        and the bystander cells still complete."""
        config = _fast_config(deadline_s=0.6)
        tasks = [
            Task(key="ok1", payload="a"),
            Task(key="hangs", payload="hang"),
            Task(key="ok2", payload="b"),
        ]
        results, report = Supervisor(config).run(_sleep_forever, tasks)
        assert results == {"ok1": "a", "ok2": "b"}
        assert "hangs" in report.quarantined
        assert "hang" in report.quarantined["hangs"]
        hang_attempts = [a for a in report.attempts if a.key == "hangs"]
        assert [a.attempt for a in hang_attempts] == [1, 2]
        assert all(a.outcome == "hang" for a in hang_attempts)
        assert report.accounts_for([t.key for t in tasks])

    def test_crash_retried_then_succeeds(self, tmp_path):
        """A worker that dies hard once recovers on retry."""
        sentinel = str(tmp_path / "crashed-once")
        config = _fast_config(jobs=1, retry=RetryPolicy(max_retries=3,
                                                        backoff_base_s=0.01))
        results, report = Supervisor(config).run(
            _crash_once, [Task(key="flaky", payload=sentinel)]
        )
        assert results == {"flaky": "recovered"}
        outcomes = [a.outcome for a in report.attempts if a.key == "flaky"]
        assert outcomes[-1] == "ok"
        assert "crash" in outcomes

    @pytest.mark.parametrize("culprit", ["hangs", "dies"])
    def test_failure_charges_only_its_own_task(self, tmp_path, culprit):
        """A hang or a dead worker is charged to that task alone: the
        task that ran beside it is not charged, and the task sent after it
        runs exactly once."""
        path = str(tmp_path / "slow.txt")
        names = (culprit, "quick", "slow")
        tasks = [Task(key=name, payload=(name, path)) for name in names]
        config = _fast_config(deadline_s=1.0, retry=RetryPolicy(max_retries=0))
        results, report = Supervisor(config).run(_timed_task, tasks)
        assert results == {"quick": "quick", "slow": "slow"}
        assert list(report.quarantined) == [culprit]
        with open(path) as fh:
            assert fh.read().splitlines() == ["slow"]

    def test_on_result_streams_successes(self):
        seen = []
        config = _fast_config(jobs=1)
        Supervisor(config).run(
            _double,
            [Task(key="a", payload=1), Task(key="b", payload=2)],
            on_result=lambda key, value: seen.append((key, value)),
        )
        assert sorted(seen) == [("a", 2), ("b", 4)]


class TestSupervisionReport:
    def test_payload_roundtrip_shape(self):
        config = _fast_config()
        _, report = Supervisor(config).run(_double, [Task(key="a", payload=1)])
        payload = report.to_payload()
        assert payload["attempts"][0]["key"] == "a"
        assert json.dumps(payload)  # JSON-able for checkpoints

    def test_accounts_for_missing_key(self):
        report = SupervisionReport()
        assert not report.accounts_for(["never-ran"])

    def test_per_attempt_audit_helpers(self):
        from repro.supervise import AttemptRecord

        report = SupervisionReport(
            attempts=[
                AttemptRecord("flaky", 1, "hang"),
                AttemptRecord("clean", 1, "ok"),
                AttemptRecord("flaky", 2, "ok"),
            ]
        )
        flaky = report.attempts_for("flaky")
        assert [(a.attempt, a.outcome) for a in flaky] == [(1, "hang"), (2, "ok")]
        assert report.attempts_for("never-ran") == []
        assert report.attempt_outcomes() == {
            "flaky": ["hang", "ok"],
            "clean": ["ok"],
        }

    def test_audit_trail_recorded_for_real_run(self):
        config = _fast_config()
        _, report = Supervisor(config).run(
            _double, [Task(key="a", payload=1), Task(key="b", payload=2)]
        )
        assert report.attempt_outcomes() == {"a": ["ok"], "b": ["ok"]}

    def test_format_mentions_quarantine(self):
        config = _fast_config()
        _, report = Supervisor(config).run(_raise, [Task(key="bad", payload=0)])
        text = report.format()
        assert "quarantined: bad" in text


class TestSupervisionSummary:
    def test_taxonomy_classification(self):
        report = SupervisionReport()
        from repro.supervise import AttemptRecord

        report.attempts = [
            AttemptRecord("clean", 1, "ok"),
            AttemptRecord("retried", 1, "error"),
            AttemptRecord("retried", 2, "ok"),
            AttemptRecord("hung", 1, "hang"),
            AttemptRecord("hung", 2, "ok"),
            AttemptRecord("dead", 1, "crash"),
        ]
        report.quarantined = {"dead": "crash on attempt 1"}
        report.skipped_quarantined = ["old-poison"]
        summary = SupervisionSummary.from_report(report)
        assert summary.per_task == {
            "clean": "clean",
            "retried": "retried",
            "hung": "retried",
            "dead": "quarantined",
            "old-poison": "skipped",
        }
        counts = summary.counts()
        assert counts == {
            "clean": 1, "retried": 2, "quarantined": 1, "skipped": 1,
        }
        assert summary.attempt_counts == {"ok": 3, "error": 1, "hang": 1, "crash": 1}
        text = summary.format()
        assert "quarantined: 1" in text and "attempts" in text


# --------------------------------------------------- crash-atomic checkpoint


class TestCheckpointAtomicity:
    def test_failed_replace_leaves_previous_generation(self, tmp_path, monkeypatch):
        """Satellite: a crash mid-commit must leave the previous complete
        file on disk and roll the in-memory map back to match it."""
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, meta={"v": 1})
        store.put(["a"], {"n": 1})

        real_fsync = os.fsync

        def exploding_fsync(fd):
            raise OSError("disk detached mid-write")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            store.put(["b"], {"n": 2})
        monkeypatch.setattr(os, "fsync", real_fsync)

        # In-memory state rolled back; on-disk file is the old generation.
        assert ["b"] not in store
        assert store.get(["a"]) == {"n": 1}
        reopened = CheckpointStore(path, meta={"v": 1})
        assert reopened.get(["a"]) == {"n": 1}
        assert len(reopened) == 1

    def test_failed_overwrite_rolls_back_to_previous_value(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, meta={})
        store.put(["a"], {"n": 1})
        monkeypatch.setattr(
            os, "fsync", lambda fd: (_ for _ in ()).throw(OSError("full"))
        )
        with pytest.raises(OSError):
            store.put(["a"], {"n": 2})
        assert store.get(["a"]) == {"n": 1}

    def test_put_appends_one_line_in_place(self, tmp_path):
        """A put appends its line to the same file instead of rewriting
        the store, so its cost does not grow with the cells stored."""
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, meta={"v": 1})
        inode = path.stat().st_ino
        lines = path.read_text().splitlines()
        for n in range(3):
            store.put(["cell", n], {"n": n})
            assert path.stat().st_ino == inode
            grown = path.read_text().splitlines()
            assert grown[:-1] == lines
            assert json.loads(grown[-1]) == {"k": ["cell", n], "v": {"n": n}}
            lines = grown

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, meta={})
        store.put(["a"], 1)
        store.put(["b"], 2)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.jsonl"]
        assert leftovers == []

    def test_interrupted_legacy_append_still_loads(self, tmp_path):
        """A file whose last append was torn by a kill must still open."""
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, meta={"v": 1})
        store.put(["a"], {"n": 1})
        with open(path, "a") as fh:
            fh.write('{"k": ["b"], "v": {"n"')  # torn tail, no newline
        reopened = CheckpointStore(path, meta={"v": 1})
        assert reopened.get(["a"]) == {"n": 1}
        assert ["b"] not in reopened

    def test_header_mismatch_error_policy_unchanged(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointStore(path, meta={"v": 1}).put(["a"], 1)
        with pytest.raises(CheckpointError):
            CheckpointStore(path, meta={"v": 2}, on_mismatch="error")


# ------------------------------------------------------ campaign integration


def _tiny_campaign_config(**overrides):
    defaults = dict(
        workloads=("gcc",),
        mechanisms=("aos",),
        kinds=(FaultKind.PTR_PAC_FLIP, FaultKind.USE_AFTER_FREE),
        locations=1,
        objects=8,
        churn=2,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _tiny_supervise(**overrides):
    defaults = dict(
        jobs=2,
        deadline_s=1.5,
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.01),
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _boom_cell(args):
    raise RuntimeError("simulated dead worker")


def _die_on_pac_flip(args):
    """Kill the worker process on the ptr-pac-flip cell; run the rest."""
    from repro.faults.campaign import run_campaign_cell

    if args[3].kind is FaultKind.PTR_PAC_FLIP:
        os._exit(1)
    return run_campaign_cell(*args)


class TestSupervisedCampaign:
    def test_hang_quarantined_and_resume_skips(self, tmp_path):
        """Satellite: injected hang -> detected -> retried -> quarantined;
        a resumed run skips the poison cell without re-running it."""
        config = _tiny_campaign_config(
            hang_cells=("gcc:aos:ptr-pac-flip:0",), hang_s=60.0
        )
        ck = tmp_path / "ck.jsonl"
        outcome = Campaign(config, checkpoint=ck).run(
            jobs=2, supervise=_tiny_supervise()
        )
        assert len(outcome.quarantined) == 1
        cell = outcome.quarantined[0]
        assert (cell["workload"], cell["kind"]) == ("gcc", "ptr-pac-flip")
        assert "hang" in cell["reason"]
        # The healthy cell still produced a verdict.
        assert [r.kind for r in outcome.results] == ["use-after-free"]

        start = time.monotonic()
        resumed = Campaign(config, checkpoint=ck).run(
            jobs=2, supervise=_tiny_supervise()
        )
        # Skipping means no 60s sleep and no retry loop: near-instant.
        assert time.monotonic() - start < 5.0
        assert resumed.skipped_quarantined == 1
        assert len(resumed.quarantined) == 1
        assert resumed.resumed == 1  # the healthy cell came from checkpoint

    def test_supervised_matches_serial_for_healthy_cells(self, tmp_path):
        """Acceptance: non-quarantined cells are byte-identical to a
        fault-free serial campaign (modulo wall-clock ``elapsed``)."""
        hang = _tiny_campaign_config(
            hang_cells=("gcc:aos:ptr-pac-flip:0",), hang_s=60.0
        )
        supervised = Campaign(hang, checkpoint=tmp_path / "ck.jsonl").run(
            jobs=2, supervise=_tiny_supervise()
        )
        serial = Campaign(_tiny_campaign_config()).run()
        serial_by_cell = {
            (r.workload, r.mechanism, r.kind, r.location): r.stable_payload()
            for r in serial.results
        }
        assert supervised.results  # at least the healthy cell
        for result in supervised.results:
            key = (result.workload, result.mechanism, result.kind, result.location)
            assert result.stable_payload() == serial_by_cell[key]

    def test_report_accounts_for_every_cell(self, tmp_path):
        config = _tiny_campaign_config(
            hang_cells=("gcc:aos:ptr-pac-flip:0",), hang_s=60.0
        )
        outcome = Campaign(config, checkpoint=tmp_path / "ck.jsonl").run(
            jobs=2, supervise=_tiny_supervise()
        )
        report = outcome.supervision
        assert report is not None
        assert len(outcome.results) + len(outcome.quarantined) == 2
        assert report.retries >= 1

    def test_supervised_without_faults_matches_plain_parallel(self, tmp_path):
        config = _tiny_campaign_config()
        supervised = Campaign(config, checkpoint=tmp_path / "ck.jsonl").run(
            jobs=2, supervise=_tiny_supervise()
        )
        plain = Campaign(config).run(jobs=2)
        assert [r.stable_payload() for r in supervised.results] == [
            r.stable_payload() for r in plain.results
        ]
        assert supervised.quarantined == []

    def test_hang_pattern_validation(self):
        config = _tiny_campaign_config(hang_cells=("too:few:parts",))
        spec = FaultSpec(kind=FaultKind.PTR_PAC_FLIP, location=0)
        with pytest.raises(FaultInjectionError):
            config.matches_hang("gcc", "aos", spec)

    def test_hang_pattern_wildcards(self):
        config = _tiny_campaign_config(hang_cells=("*:*:ptr-pac-flip:*",))
        spec = FaultSpec(kind=FaultKind.PTR_PAC_FLIP, location=3)
        other = FaultSpec(kind=FaultKind.USE_AFTER_FREE, location=3)
        assert config.matches_hang("povray", "aos", spec)
        assert not config.matches_hang("povray", "aos", other)

    def test_parallel_worker_exception_names_cell(self, monkeypatch):
        """Satellite: a dying parallel worker must name the cell it died
        on, not surface as a bare pool error."""
        import repro.faults.campaign as campaign_mod

        monkeypatch.setattr(campaign_mod, "_cell_worker", _boom_cell)
        campaign = Campaign(_tiny_campaign_config())
        with pytest.raises(FaultInjectionError) as excinfo:
            campaign.run(jobs=2)
        message = str(excinfo.value)
        assert "workload=gcc" in message
        assert "kind=" in message and "location=" in message
        assert "RuntimeError" in message

    def test_dead_worker_names_cell(self, monkeypatch):
        """A worker process that exits mid-cell surfaces as a
        FaultInjectionError naming that cell and the exit code."""
        import repro.faults.campaign as campaign_mod

        monkeypatch.setattr(campaign_mod, "_cell_worker", _die_on_pac_flip)
        with pytest.raises(FaultInjectionError) as excinfo:
            Campaign(_tiny_campaign_config()).run(jobs=2)
        message = str(excinfo.value)
        assert "workload=gcc" in message
        assert "kind=ptr-pac-flip location=0" in message
        assert "exit code 1" in message


# ------------------------------------------------------ simulation sweeps


class TestSupervisedTraceGroups:
    """The supervised unit of a simulation sweep is one trace's cells."""

    @pytest.mark.parametrize("dies", ["always", "once"])
    def test_dead_group_quarantined_others_match_serial(
        self, monkeypatch, tmp_path, dies
    ):
        """One workload's group dies with ``os._exit`` in its worker (and
        raises in-process).  ``always``: its cells are absent, the report
        names the group, and every other workload equals a serial run.
        ``once``: the worker kills itself on the first attempt only (a
        marker file); one retry recovers the group, nothing is
        quarantined, and every cell equals a serial run."""
        import repro.experiments.parallel as parallel
        from repro.experiments import CellSpec, RunSettings

        settings = RunSettings(instructions=2000, seed=7, scale=8)
        cells = [
            CellSpec(workload, mechanism)
            for workload in ("gobmk", "povray", "mcf")
            for mechanism in ("baseline", "aos")
        ]
        serial = parallel.run_cells(settings, cells, jobs=1)

        parent = os.getpid()
        real = parallel.simulate_cell
        marker = tmp_path / "died"

        def die_on_povray(settings, cell, memo=None, paranoid=False):
            if cell.workload == "povray" and not (dies == "once" and marker.exists()):
                if os.getpid() != parent:
                    marker.touch()
                    os._exit(1)
                raise RuntimeError("povray group fails in-process too")
            return real(settings, cell, memo=memo, paranoid=paranoid)

        monkeypatch.setattr(parallel, "simulate_cell", die_on_povray)
        retry = RetryPolicy(
            max_retries=0 if dies == "always" else 1,
            backoff_base_s=0.01,
            backoff_cap_s=0.05,
        )
        config = _fast_config(deadline_s=60.0, retry=retry)
        results, report = parallel.run_cells_supervised(settings, cells, config=config)
        assert report.accounts_for(["gobmk", "povray", "mcf"])
        if dies == "always":
            assert set(report.quarantined) == {"povray"}
            want = {key: value for key, value in serial.items() if key[0] != "povray"}
        else:
            assert not report.quarantined
            assert report.retries == 1
            want = serial
        assert list(results) == list(want)
        for key, result in results.items():
            assert dataclasses.asdict(result) == dataclasses.asdict(want[key]), key

    @pytest.mark.parametrize("via", ["suite", "cli"])
    def test_quarantined_cell_is_never_simulated_in_the_parent(
        self, monkeypatch, capsys, via
    ):
        """A figure whose group was quarantined fails with the named
        error (the CLI prints the supervision report and exits 1); the
        dead group's cells are never simulated in the calling process,
        where a dying worker would have taken the run down."""
        import repro.experiments.parallel as parallel
        from repro import cli
        from repro.errors import QuarantinedCellError
        from repro.experiments import ExperimentSuite, RunSettings
        from repro.experiments.fig14 import run_fig14

        parent = os.getpid()
        in_parent = []
        real = parallel.simulate_cell

        def die_on_povray(settings, cell, memo=None, paranoid=False):
            if cell.workload == "povray":
                if os.getpid() != parent:
                    os._exit(1)
                in_parent.append(cell)
                raise RuntimeError("povray simulated in the parent")
            return real(settings, cell, memo=memo, paranoid=paranoid)

        monkeypatch.setattr(parallel, "simulate_cell", die_on_povray)
        if via == "suite":
            config = _fast_config(deadline_s=60.0, retry=RetryPolicy(max_retries=0))
            suite = ExperimentSuite(
                RunSettings(instructions=2000, seed=7, scale=8), supervise=config
            )
            with pytest.raises(QuarantinedCellError) as excinfo:
                run_fig14(suite, ["gobmk", "povray"])
            assert excinfo.value.cell.startswith("povray/")
            assert "exit code 1" in excinfo.value.reason
            assert set(suite.supervision_reports[0].quarantined) == {"povray"}
            # The planned cells are known: a second run dispatches nothing.
            with pytest.raises(QuarantinedCellError):
                run_fig14(suite, ["gobmk", "povray"])
            assert len(suite.supervision_reports) == 1
        else:
            code = cli.main(
                ["fig14", "--workloads", "gobmk", "povray", "--instructions", "2000"]
                + ["--jobs", "2", "--supervise", "--cell-retries", "0", "--no-cache"]
            )
            out, err = capsys.readouterr()
            assert code == 1
            assert "quarantined: povray" in out
            assert "cell povray/" in err and "quarantined" in err
        assert in_parent == []

    def test_deadline_stays_per_cell(self, monkeypatch):
        """A deadline that fits one cell also fits five-cell groups: each
        group's task gets it once per cell."""
        import repro.experiments.parallel as parallel
        from repro.experiments import CellSpec, RunSettings

        def slow_cell(settings, cell, memo=None, paranoid=False):
            time.sleep(0.4)
            return cell.mechanism

        monkeypatch.setattr(parallel, "simulate_cell", slow_cell)
        mechanisms = ("baseline", "watchdog", "pa", "aos", "pa+aos")
        cells = [
            CellSpec(workload, mechanism)
            for workload in ("gobmk", "mcf")
            for mechanism in mechanisms
        ]
        results, report = parallel.run_cells_supervised(
            RunSettings(instructions=1000), cells, config=_fast_config(deadline_s=1.0)
        )
        assert not report.quarantined
        assert list(results.values()) == [cell.mechanism for cell in cells]


# -------------------------------------------------------------- interrupts


@pytest.mark.parametrize(
    "supervise", [None, SupervisorConfig(jobs=2)], ids=["plain", "supervised"]
)
def test_interrupt_does_not_drain_the_queue(supervise):
    """An interrupt on the first result stops the batch at once: the busy
    worker is killed, the queued tasks never start, no worker survives."""

    def interrupt(key, value):
        raise KeyboardInterrupt

    tasks = [Task(key=f"t{i}", payload=i) for i in range(12)]
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        dispatch(_half_second, tasks, jobs=2, supervise=supervise, on_result=interrupt)
    assert time.monotonic() - start < 1.5
    assert multiprocessing.active_children() == []


def _proc_state(pid):
    """The state letter in ``/proc/<pid>/stat``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


_ORPHAN_SCRIPT = """
import os, sys, time
from repro.supervise.supervisor import WorkerPool

def pid(payload):
    return os.getpid()

pool = WorkerPool(pid, jobs=2)
pool.send("a", 0)
pool.send("b", 1)
done = []
while len(done) < 2:
    done += pool.wait()
with open(sys.argv[1] + ".tmp", "w") as fh:
    fh.write(" ".join(str(f.value) for f in done))
os.replace(sys.argv[1] + ".tmp", sys.argv[1])
time.sleep(120)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_sigkilled_parent_leaves_no_worker(tmp_path):
    """Workers of a parent killed with SIGKILL see EOF on their pipe and
    exit: no forked worker holds a parent end open."""
    out = tmp_path / "pids"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    parent = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT, str(out)], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 30
        while not out.exists():
            assert parent.poll() is None, "pool process exited early"
            assert time.monotonic() < deadline, "pool never reported its pids"
            time.sleep(0.05)
        pids = [int(pid) for pid in out.read_text().split()]
        assert len(set(pids)) == 2
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if all(_proc_state(pid) in (None, "Z") for pid in pids):
                break
            time.sleep(0.05)
        states = {pid: _proc_state(pid) for pid in pids}
        assert all(state in (None, "Z") for state in states.values()), states
    finally:
        parent.kill()
        parent.wait()
        for pid in pids:
            if _proc_state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)


# ------------------------------------------------------------------ signals


class TestSignals:
    def test_sigterm_becomes_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with trap_signals():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(2.0)  # interrupted long before this expires

    def test_previous_handler_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        try:
            with trap_signals():
                assert signal.getsignal(signal.SIGTERM) is not before
        except KeyboardInterrupt:  # pragma: no cover - no signal sent
            pass
        assert signal.getsignal(signal.SIGTERM) is before
