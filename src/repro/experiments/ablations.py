"""Ablation studies for the design choices DESIGN.md calls out.

Beyond the paper's own Fig. 15 ablation (L1-B cache, bounds compression),
these sweeps quantify the remaining §V design decisions:

- **BWB geometry** (§V-C): way-prediction accuracy and checking cost as
  the buffer shrinks/grows or is disabled;
- **MCQ depth** (§V-A): issue back-pressure vs the 48-entry Table IV pick;
- **Non-blocking resize** (§V-F3): gradual migration vs stop-the-world;
- **Bounds forwarding** (§V-F2): store-to-load forwarding on malloc-heavy
  workloads;
- **Tag/PAC entropy** (§VII-E vs §X): detection probability and bypass
  effort across metadata widths.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cpu.core import SimulationResult, Simulator
from ..security.entropy import entropy_sweep
from ..stats.report import TableFormatter
from .common import ExperimentSuite
from .parallel import CellSpec


@dataclass
class AblationResult:
    """One sweep: setting name -> metric dict."""

    title: str
    rows: Dict[str, Dict[str, float]]
    columns: List[str]

    def format(self) -> str:
        table = TableFormatter(self.columns, col_width=14)
        for name, values in self.rows.items():
            table.add_row(name, values)
        return f"{self.title}\n" + table.render()


def _aos_variants(
    workload: str, sweep: str, configs: Dict[str, object]
) -> Dict[str, CellSpec]:
    """Row name -> AOS cell under the row's config, memo key
    ``aos-<sweep>-<row>``.  A row on the Table IV config shares the plain
    AOS cell's simulation (see ``ExperimentSuite.ensure_cells``)."""
    return {
        name: CellSpec(workload, "aos", config=config, key=f"aos-{sweep}-{name}")
        for name, config in configs.items()
    }


def _with_baseline(rows: Dict[str, CellSpec]) -> List[CellSpec]:
    """``rows``' cells after their workload's baseline, which every row is
    normalized to."""
    (workload,) = {cell.workload for cell in rows.values()}
    return [CellSpec(workload, "baseline"), *rows.values()]


def _planned(
    suite: ExperimentSuite, rows: Dict[str, CellSpec]
) -> Tuple[SimulationResult, Dict[str, SimulationResult]]:
    """The baseline result and row name -> result of one sweep's cells,
    all computed by one :meth:`ExperimentSuite.ensure_cells` call."""
    plan = _with_baseline(rows)
    suite.ensure_cells(plan)
    base, *runs = (
        suite.result(cell.workload, cell.mechanism, config=cell.config, key=cell.key)
        for cell in plan
    )
    return base, dict(zip(rows, runs))


def _ablation(
    suite: ExperimentSuite,
    title: str,
    rows: Dict[str, CellSpec],
    measures: Dict[str, Callable[[SimulationResult], float]],
) -> AblationResult:
    """One planned sweep: each row's time normalized to the baseline, then
    ``measures`` of its result."""
    base, runs = _planned(suite, rows)
    table = {
        name: {
            "norm.time": run.cycles / base.cycles,
            **{column: measure(run) for column, measure in measures.items()},
        }
        for name, run in runs.items()
    }
    return AblationResult(title=title, rows=table, columns=["norm.time", *measures])


def bwb_cells(suite: ExperimentSuite, workload: str = "omnetpp") -> Dict[str, CellSpec]:
    """Row name -> cell of the BWB size sweep: disabled vs 16/64/256 entries."""
    aos = suite.config_for("aos")
    configs = {"disabled": aos.with_aos_options(bwb_enabled=False)}
    for entries in (16, 64, 256):
        bwb = dataclasses.replace(aos.bwb, entries=entries)
        configs[f"{entries} entries"] = dataclasses.replace(aos, bwb=bwb)
    return _aos_variants(workload, "bwb", configs)


def ablation_bwb(
    suite: Optional[ExperimentSuite] = None, workload: str = "omnetpp"
) -> AblationResult:
    """BWB size sweep (§V-C): disabled vs 16/64/256 entries."""
    suite = suite or ExperimentSuite()
    return _ablation(
        suite,
        f"BWB geometry ablation ({workload}, §V-C)",
        bwb_cells(suite, workload),
        {
            "acc/check": lambda run: run.bounds_accesses_per_check,
            "hit rate": lambda run: run.bwb_hit_rate,
        },
    )


def mcq_cells(suite: ExperimentSuite, workload: str = "hmmer") -> Dict[str, CellSpec]:
    """Row name -> cell of the MCQ depth sweep around the 48-entry pick."""
    aos = suite.config_for("aos")
    configs = {
        f"{entries} entries": dataclasses.replace(
            aos, core=dataclasses.replace(aos.core, mcq_entries=entries)
        )
        for entries in (12, 24, 48, 96, 192)
    }
    return _aos_variants(workload, "mcq", configs)


def ablation_mcq(
    suite: Optional[ExperimentSuite] = None, workload: str = "hmmer"
) -> AblationResult:
    """MCQ depth sweep (§V-A): back-pressure around the 48-entry pick."""
    suite = suite or ExperimentSuite()
    return _ablation(
        suite,
        f"MCQ depth ablation ({workload}, §V-A)",
        mcq_cells(suite, workload),
        {"mcq stalls": lambda run: run.pipeline.mcq_stall_cycles},
    )


def ablation_resize(
    suite: Optional[ExperimentSuite] = None, workload: str = "omnetpp"
) -> AblationResult:
    """Non-blocking (Fig. 10) vs stop-the-world HBT resizing (§V-F3).

    Uses a *growing-live-set* variant of the workload so the capacity
    overflow (and therefore the resize) happens inside the measured
    window, where the policy difference is visible — steady-state windows
    absorb their resizes in the untimed preamble.
    """
    suite = suite or ExperimentSuite()
    from ..compiler import lower_trace
    from ..workloads import generate_trace, get_profile

    settings = suite.settings
    # An allocation *phase*: a small starting heap, a malloc storm, and a
    # live set that grows through the window — so HBT rows overflow while
    # the clock is running.  A coarse scale shrinks the PAC space so the
    # storm reaches overflow within a simulable window.
    profile = dataclasses.replace(
        get_profile(workload),
        mallocs_per_kinst=200.0,
        initial_live=64,
    )
    trace = generate_trace(
        profile,
        instructions=settings.instructions,
        seed=settings.seed,
        scale=64,
        grow_live_by=10 * settings.instructions,  # never free: pure growth
    )
    base_config = suite.config_for("baseline")
    baseline = Simulator(base_config).run(
        lower_trace(trace, "baseline", config=base_config)
    )
    rows: Dict[str, Dict[str, float]] = {}
    for nonblocking in (True, False):
        config = suite.config_for("aos").with_aos_options(
            nonblocking_resize=nonblocking
        )
        lowered = lower_trace(trace, "aos", config=config)
        run = Simulator(config).run(lowered)
        name = "non-blocking" if nonblocking else "stop-the-world"
        rows[name] = {
            "norm.time": run.cycles / baseline.cycles,
            "resizes": float(run.hbt_resizes),
        }
    return AblationResult(
        title=f"HBT resize policy ablation ({workload} growing phase, §V-F3)",
        rows=rows,
        columns=["norm.time", "resizes"],
    )


def forwarding_cells(
    suite: ExperimentSuite, workload: str = "omnetpp"
) -> Dict[str, CellSpec]:
    """Row name -> cell of the bounds-forwarding on/off pair."""
    aos = suite.config_for("aos")
    configs = {
        "forwarding": aos.with_aos_options(bounds_forwarding=True),
        "no forwarding": aos.with_aos_options(bounds_forwarding=False),
    }
    return _aos_variants(workload, "forwarding", configs)


def ablation_forwarding(
    suite: Optional[ExperimentSuite] = None, workload: str = "omnetpp"
) -> AblationResult:
    """Bounds forwarding on/off (§V-F2) on a malloc-heavy workload."""
    suite = suite or ExperimentSuite()
    return _ablation(
        suite,
        f"Bounds forwarding ablation ({workload}, §V-F2)",
        forwarding_cells(suite, workload),
        {"forwards": lambda run: float(run.bounds_forwards)},
    )


def quarantine_cells(
    suite: ExperimentSuite, workload: str = "omnetpp"
) -> Dict[str, CellSpec]:
    """Row name -> cell of the §IV-C comparison's two planned rows; REST
    without quarantine is a lowering keyword, not a config, so
    :func:`ablation_quarantine` simulates that row in-process."""
    return {
        "rest (quarantine)": CellSpec(workload, "rest"),
        "aos (re-sign)": CellSpec(workload, "aos"),
    }


def ablation_quarantine(
    suite: Optional[ExperimentSuite] = None, workload: str = "omnetpp"
) -> AblationResult:
    """Quantify §IV-C: REST's quarantine pool vs AOS's re-sign-on-free.

    "Given that the REST software framework's use of a quarantine pool
    mostly contributed to its performance overhead, avoiding the use of a
    quarantine pool will be beneficial in terms of performance."
    """
    suite = suite or ExperimentSuite()
    from ..compiler.passes import RESTLowering

    base, planned = _planned(suite, quarantine_cells(suite, workload))
    config = suite.config_for("rest")
    lowered = RESTLowering(suite.trace(workload), config, quarantine=False).lower()
    runs = {
        "rest (quarantine)": planned["rest (quarantine)"],
        "rest (no temporal)": Simulator(config).run(lowered),
        "aos (re-sign)": planned["aos (re-sign)"],
    }
    # A run retires every µop of its program, so ``instructions`` is the
    # lowered program's length.
    rows = {
        name: {
            "norm.time": run.cycles / base.cycles,
            "instr.ovh": run.instructions / base.instructions - 1.0,
        }
        for name, run in runs.items()
    }
    return AblationResult(
        title=f"Temporal-safety cost: quarantine vs re-sign ({workload}, §IV-C)",
        rows=rows,
        columns=["norm.time", "instr.ovh"],
    )


def cells(suite: ExperimentSuite) -> List[CellSpec]:
    """The plan of ``repro ablations``: the BWB, MCQ, forwarding and
    quarantine sweeps' cells on their default workloads, with their
    baselines.  The resize and entropy ablations have no cells."""
    sweeps = (bwb_cells, mcq_cells, forwarding_cells, quarantine_cells)
    return [cell for sweep in sweeps for cell in _with_baseline(sweep(suite))]


def ablation_entropy() -> AblationResult:
    """Metadata-width trade-off: MTE-style tags vs AOS PACs (§VII-E/§X)."""
    rows: Dict[str, Dict[str, float]] = {}
    for row in entropy_sweep([4, 8, 11, 16, 24, 32]):
        label = f"{row.bits}-bit"
        if row.bits == 4:
            label += " (MTE)"
        elif row.bits == 16:
            label += " (AOS)"
        rows[label] = {
            "detection": row.detection,
            "tries@50%": float(row.attempts_50),
            "tries@90%": float(row.attempts_90),
        }
    return AblationResult(
        title="Metadata entropy: single-shot detection and bypass effort",
        rows=rows,
        columns=["detection", "tries@50%", "tries@90%"],
    )
