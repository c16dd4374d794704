"""Command-line interface: ``python -m repro <artifact> [options]``.

Regenerates any table or figure from the paper's evaluation without
writing code::

    python -m repro fig11
    python -m repro fig14 --workloads gcc hmmer --instructions 40000
    python -m repro fig14 --jobs 4               # shard cells across cores
    python -m repro security
    python -m repro ablations
    python -m repro all                          # everything (several minutes)
    python -m repro all --quick --jobs 2         # reduced CI smoke sweep

Simulation cells and generated traces are cached persistently (under
``~/.cache/repro``, ``$REPRO_CACHE_DIR`` or ``--cache-dir``) keyed by run
settings + configuration + a source digest, so repeated invocations on
unchanged code are incremental; ``--no-cache`` disables this.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .experiments import (
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
from .experiments.ablations import (
    ablation_bwb,
    ablation_entropy,
    ablation_forwarding,
    ablation_mcq,
    ablation_quarantine,
    ablation_resize,
)
from .obs import ObsSettings, PhaseProfiler
from .security import run_security_analysis
from .supervise import trap_signals

#: artifact name -> (description, needs timing suite?)
ARTIFACTS = {
    "fig11": "PAC distribution by QARMA (§VI)",
    "fig14": "normalized execution time (Fig. 14)",
    "fig15": "L1-B / compression ablation (Fig. 15)",
    "fig16": "instruction mix (Fig. 16)",
    "fig17": "bounds accesses + BWB hit rate (Fig. 17)",
    "fig18": "normalized network traffic (Fig. 18)",
    "table1": "hardware overhead (Table I) + parameters (Table IV)",
    "table2": "SPEC memory profiles (Table II)",
    "table3": "real-world profiles (Table III)",
    "security": "attack detection matrix (§VII)",
    "ablations": "design-choice ablations (BWB, MCQ, resize, entropy)",
    "mte": "extended comparison vs memory tagging (§X)",
    "faultinject": "fault-injection campaign + detection coverage (§VII)",
    "attack": "adversarial scenario corpus chaos campaign (§VII, §VII-C)",
    "trace": "cycle-stamped event trace + metrics (Chrome/Perfetto export)",
    "trace-export": "export a synthetic workload window as a versioned trace file",
    "trace-import": "ingest a JSONL/binary trace file, validate and simulate it",
    "mechanisms": "registered mechanism plugins (--list/--json/--fingerprint)",
    "cache": "artifact cache maintenance (--stats/--prune)",
}

#: Artifacts ``all`` must skip: file writers (``trace``, ``trace-export``),
#: exit-code owners (``attack``, ``trace-import``), and the store
#: maintenance face (``cache``).  Run them directly instead.
OPERATIONAL_ARTIFACTS = frozenset(
    ("trace", "attack", "cache", "trace-export", "trace-import")
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the AOS paper's evaluation artifacts.",
        epilog="artifacts: " + ", ".join(f"{k} ({v})" for k, v in ARTIFACTS.items()),
    )
    parser.add_argument(
        "artifact",
        choices=list(ARTIFACTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="trace only: the workload to trace (default gcc)",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=None,
        help="restrict the SPEC workload list (timing figures only)",
    )
    parser.add_argument(
        "--instructions", type=int, default=40_000,
        help="window length per workload (default 40000)",
    )
    parser.add_argument(
        "--scale", type=int, default=8,
        help="live-set / cache scale divisor, power of two (default 8)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--pac-samples", type=int, default=1 << 20,
        help="malloc count for fig11 (default 2^20, the paper's 'million')",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulation cells (default 1); "
        "results are bit-identical to a serial run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep: 3 workloads, short windows, small fig11 sample, "
        "quick faultinject campaign (CI smoke shape)",
    )
    obs = parser.add_argument_group("observability options")
    obs.add_argument(
        "--metrics", action="store_true",
        help="collect per-cell metrics during timing sweeps and print the "
        "merged registry after the artifacts",
    )
    obs.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the (deterministic) metrics snapshot as JSON",
    )
    obs.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="trace only: Chrome trace-event output path (default trace.json)",
    )
    obs.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="trace only: also write the raw event ring as JSONL",
    )
    obs.add_argument(
        "--mechanism", default="aos",
        help="trace only: mechanism to trace (default aos)",
    )
    obs.add_argument(
        "--trace-capacity", type=int, default=None, metavar="N",
        help="trace only: event ring capacity (default 65536)",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="print the engine's per-phase wall-clock profile at exit",
    )
    traces = parser.add_argument_group("trace frontend options")
    traces.add_argument(
        "--trace", default=None, metavar="FILE",
        help="timing artifacts: run over this ingested trace file instead of "
        "the synthetic workloads (cells are cached by the file's sha256)",
    )
    traces.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="trace-export only: output path "
        "(default <workload>.trace.<jsonl|bin>)",
    )
    traces.add_argument(
        "--trace-format", choices=["jsonl", "binary"], default="jsonl",
        help="trace-export only: wire format (default jsonl)",
    )
    traces.add_argument(
        "--verify-roundtrip", action="store_true",
        help="trace-import only: regenerate the synthetic source named in "
        "the trace header and assert byte-identical simulation results on "
        "both kernels (requires a trace produced by trace-export)",
    )
    cache = parser.add_argument_group("artifact cache options")
    cache.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent artifact cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent artifact cache for this invocation",
    )
    cache.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="size cap for the artifact cache; least-recently-used entries "
        "are evicted past it (default: $REPRO_CACHE_MAX_BYTES or unlimited)",
    )
    cache.add_argument(
        "--stats", action="store_true", dest="cache_stats",
        help="cache only: print usage statistics and exit",
    )
    cache.add_argument(
        "--prune", action="store_true", dest="cache_prune",
        help="cache only: evict LRU entries down to --cache-max-bytes "
        "(or $REPRO_CACHE_MAX_BYTES)",
    )
    fault = parser.add_argument_group("faultinject options")
    fault.add_argument(
        "--mechanisms", nargs="+", default=None,
        help="protection mechanisms to inject under (default: aos)",
    )
    fault.add_argument(
        "--fault-locations", type=int, default=None,
        help="fault locations swept per kind",
    )
    fault.add_argument(
        "--fault-timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds",
    )
    fault.add_argument(
        "--fault-checkpoint", default=None, metavar="PATH",
        help="JSONL checkpoint; an interrupted campaign resumes from it",
    )
    fault.add_argument(
        "--fault-kinds", nargs="+", default=None, metavar="KIND",
        help="restrict the campaign to these fault kinds "
        "(default: all 12; e.g. ptr-pac-flip use-after-free)",
    )
    attack = parser.add_argument_group("attack options")
    attack.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="restrict the corpus to these scenarios (default: all; "
        "e.g. ahc-zero-escape uaf-stale-load)",
    )
    attack.add_argument(
        "--matrix-out", default=None, metavar="PATH",
        help="attack only: write the scenario-matrix JSON artifact",
    )
    attack.add_argument(
        "--pareto", action="store_true",
        help="attack only: also run the timing sweep and print the "
        "detection-coverage vs overhead Pareto table",
    )
    attack.add_argument(
        "--no-supervise", action="store_true",
        help="attack only: run the corpus without the supervision layer "
        "(an unsupervised pool at --jobs N, in-process at --jobs 1)",
    )
    mech = parser.add_argument_group("mechanisms options")
    mech.add_argument(
        "--list", action="store_true", dest="mech_list",
        help="mechanisms only: print bare registered names, one per line "
        "(the CI matrix source)",
    )
    mech.add_argument(
        "--json", action="store_true", dest="mech_json",
        help="mechanisms only: dump the registry (specs + fingerprint) as JSON",
    )
    mech.add_argument(
        "--fingerprint", action="store_true", dest="mech_fingerprint",
        help="mechanisms only: print the registry fingerprint (the CI cache key)",
    )
    sup = parser.add_argument_group("supervision options")
    sup.add_argument(
        "--supervise", action="store_true",
        help="run simulation cells under the supervisor: every task in a "
        "worker process with a deadline, retry with backoff, quarantine",
    )
    sup.add_argument(
        "--paranoid", action="store_true",
        help="audit simulator invariants after every cell (MCQ FSMs, HBT "
        "occupancy, BWB hints, pointer round-trips, shadow bounds); silent "
        "corruption becomes a first-class invariant-violation",
    )
    sup.add_argument(
        "--cell-deadline", type=float, default=None, metavar="SECONDS",
        help="supervised per-cell wall-clock deadline; a figure run's trace "
        "task gets it times the largest trace's cell count (default 60)",
    )
    sup.add_argument(
        "--cell-retries", type=int, default=None, metavar="N",
        help="supervised retries per task before quarantine (default 2)",
    )
    sup.add_argument(
        "--inject-hang", nargs="?", const="*:*:ptr-pac-flip:0", default=None,
        metavar="WL:MECH:KIND:LOC",
        help="faultinject only: make matching cells hang (wildcard '*'), to "
        "exercise hang detection end-to-end; implies --supervise "
        "(default pattern when bare: *:*:ptr-pac-flip:0)",
    )
    return parser


def supervisor_config(args) -> "SupervisorConfig | None":
    """Build the :class:`SupervisorConfig` the CLI flags describe."""
    if not (args.supervise or args.inject_hang):
        return None
    from .supervise import RetryPolicy, SupervisorConfig

    retry = RetryPolicy()
    if args.cell_retries is not None:
        retry = RetryPolicy(max_retries=args.cell_retries, seed=args.seed)
    kwargs = {"jobs": max(1, args.jobs), "retry": retry}
    if args.cell_deadline is not None:
        kwargs["deadline_s"] = args.cell_deadline
    return SupervisorConfig(**kwargs)


def campaign_config_from_args(args) -> "CampaignConfig":
    """The :class:`CampaignConfig` the faultinject flags describe."""
    from .faults import CampaignConfig

    overrides = {}
    if args.workloads:
        overrides["workloads"] = tuple(args.workloads)
    if args.mechanisms:
        overrides["mechanisms"] = tuple(args.mechanisms)
    if args.fault_locations is not None:
        overrides["locations"] = args.fault_locations
    if args.fault_timeout is not None:
        overrides["timeout_s"] = args.fault_timeout
    if args.fault_kinds:
        from .faults import parse_fault_kind

        overrides["kinds"] = tuple(
            parse_fault_kind(value) for value in args.fault_kinds
        )
    overrides["seed"] = args.seed
    overrides["paranoid"] = args.paranoid
    if args.inject_hang:
        overrides["hang_cells"] = (args.inject_hang,)
    if getattr(args, "fault_quick", args.quick):
        return CampaignConfig.quick(**overrides)
    return CampaignConfig(**overrides)


def plan_artifact(name: str, suite: ExperimentSuite, args) -> list:
    """The :class:`~repro.experiments.CellSpec` plan of one artifact's
    timed rows (empty for artifacts without simulation cells)."""
    from .experiments import ablations, extended, fig14, fig15, fig17, fig18

    plans = {
        "fig14": fig14.cells,
        "fig15": fig15.cells,
        "fig17": fig17.cells,
        "fig18": fig18.cells,
        "mte": extended.cells,
    }
    if name == "ablations":
        return ablations.cells(suite)
    if name in plans:
        return plans[name](suite, args.workloads)
    return []


def run_artifact(name: str, suite: ExperimentSuite, args) -> str:
    if name == "fig11":
        return run_fig11(n=args.pac_samples).format()
    if name == "fig14":
        return run_fig14(suite, workloads=args.workloads).format()
    if name == "fig15":
        return run_fig15(suite, workloads=args.workloads).format()
    if name == "fig16":
        return run_fig16(suite, workloads=args.workloads).format()
    if name == "fig17":
        return run_fig17(suite, workloads=args.workloads).format()
    if name == "fig18":
        return run_fig18(suite, workloads=args.workloads).format()
    if name == "table1":
        return run_table1().format() + "\n\n" + run_table4().format()
    if name == "table2":
        return run_table2().format()
    if name == "table3":
        return run_table3().format()
    if name == "security":
        return run_security_analysis().format_table()
    if name == "mechanisms":
        return format_mechanism_table()
    if name == "mte":
        from .experiments.extended import run_extended_comparison

        return run_extended_comparison(suite, workloads=args.workloads).format()
    if name == "faultinject":
        from .faults import Campaign

        campaign = Campaign(
            campaign_config_from_args(args), checkpoint=args.fault_checkpoint
        )
        result = campaign.run(jobs=args.jobs, supervise=supervisor_config(args))
        report = result.format_report()
        if result.supervision is not None:
            from .stats import SupervisionSummary

            report += "\n\n" + SupervisionSummary.from_report(result.supervision).format()
        return report
    if name == "ablations":
        parts = [
            ablation_bwb(suite).format(),
            ablation_mcq(suite).format(),
            ablation_resize(suite).format(),
            ablation_forwarding(suite).format(),
            ablation_quarantine(suite).format(),
            ablation_entropy().format(),
        ]
        return "\n\n".join(parts)
    raise ValueError(f"unknown artifact {name!r}")


def run_trace(args, profiler: PhaseProfiler) -> str:
    """The ``trace`` artifact: one observed run -> Chrome trace + metrics.

    Everything written derives from simulated state only (cycle stamps,
    event/metric counts — never wall clock or PIDs), so both output files
    are byte-identical across runs at the same settings and seed.
    """
    import json

    from .compiler import lower_trace
    from .cpu.core import Simulator
    from .experiments.common import scaled_config
    from .obs import (
        DEFAULT_TRACE_CAPACITY,
        EventTracer,
        Observability,
        dump_chrome_trace,
        validate_chrome_trace_file,
    )
    from .workloads import generate_trace, get_profile

    workload = args.target or "gcc"
    capacity = args.trace_capacity or DEFAULT_TRACE_CAPACITY
    trace_out = args.trace_out or "trace.json"
    metrics_out = args.metrics_out or "metrics.json"

    obs = Observability(tracer=EventTracer(capacity))
    config = scaled_config(args.mechanism, args.scale)
    with profiler.phase("trace-gen"):
        trace = generate_trace(
            get_profile(workload),
            instructions=args.instructions,
            seed=args.seed,
            scale=args.scale,
        )
    with profiler.phase("lower"):
        lowered = lower_trace(trace, args.mechanism, config=config)
    with profiler.phase("simulate"):
        # The trace artifact needs the event ring, which only the reference
        # kernel feeds; Simulator routes traced runs there.
        result = Simulator(config, obs=obs).run(lowered)
    with profiler.phase("report"):
        tracer = obs.tracer
        dump_chrome_trace(
            trace_out,
            tracer.events(),
            metadata={
                "workload": workload,
                "mechanism": args.mechanism,
                "instructions": args.instructions,
                "seed": args.seed,
                "scale": args.scale,
                "events_emitted": tracer.stats.emitted,
                "events_dropped": tracer.stats.dropped,
            },
        )
        with open(metrics_out, "w", encoding="utf-8") as fh:
            json.dump(result.metrics, fh, sort_keys=True, indent=1)
            fh.write("\n")
        if args.events_out:
            tracer.to_jsonl(args.events_out)

    problems = validate_chrome_trace_file(trace_out)
    lines = [
        f"traced {workload}/{args.mechanism}: {result.instructions} "
        f"instructions, {result.cycles:.0f} cycles (IPC {result.ipc:.2f})",
        f"events: {tracer.stats.emitted} emitted, "
        f"{tracer.stats.dropped} dropped, {len(tracer)} retained",
        f"chrome trace -> {trace_out} "
        + ("(schema OK)" if not problems else f"(SCHEMA PROBLEMS: {problems[:3]})"),
        f"metrics      -> {metrics_out} "
        f"({len(result.metrics.get('counters', {}))} counters, "
        f"{len(result.metrics.get('gauges', {}))} gauges, "
        f"{len(result.metrics.get('histograms', {}))} histograms)",
    ]
    if args.events_out:
        lines.append(f"events jsonl -> {args.events_out}")
    lines.append("open the trace in https://ui.perfetto.dev ('Open trace file')")
    return "\n".join(lines)


def run_trace_export(args) -> int:
    """The ``trace-export`` artifact: synthetic window -> trace file.

    The exported file embeds the full workload profile and generator
    provenance, so ``trace-import --verify-roundtrip`` can regenerate the
    source and prove the export/import cycle byte-identical.
    """
    from .errors import WorkloadError
    from .traces import export_workload, trace_digest
    from .workloads import get_profile

    workload = args.target or "gcc"
    try:
        get_profile(workload)
    except (KeyError, WorkloadError):
        print(f"repro: error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    extension = "jsonl" if args.trace_format == "jsonl" else "bin"
    path = args.trace_file or f"{workload}.trace.{extension}"
    trace = export_workload(
        workload,
        path,
        format=args.trace_format,
        instructions=args.instructions,
        seed=args.seed,
        scale=args.scale,
    )
    import os

    print(
        f"exported {workload} (instructions={args.instructions} "
        f"seed={args.seed} scale={args.scale}) -> {path}"
    )
    print(
        f"  {len(trace.preamble)} preamble objects + {len(trace.events)} "
        f"events, {os.path.getsize(path)} bytes ({args.trace_format})"
    )
    print(f"  sha256: {trace_digest(path)}")
    return 0


def run_trace_import(args, profiler: PhaseProfiler) -> int:
    """The ``trace-import`` artifact: trace file -> validated simulation.

    Streams the file once to validate + summarise it (any schema
    violation exits 2 with the named ``TraceFormatError``), then simulates
    it under ``--mechanism`` with the artifact cache keyed on the trace's
    sha256 digest.  ``--verify-roundtrip`` additionally regenerates the
    synthetic source recorded in the header and asserts byte-identical
    results on both kernels (exit 1 on divergence).
    """
    import dataclasses
    import hashlib
    import json

    from .errors import TraceFormatError
    from .traces import scan_trace

    if not args.target:
        print("repro: error: trace-import requires a trace file", file=sys.stderr)
        return 2
    try:
        with profiler.phase("scan"):
            stats = scan_trace(args.target)
    except FileNotFoundError:
        print(f"repro: error: no such trace file: {args.target}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(
            f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 2
    print(stats.format_summary())

    suite = ExperimentSuite(
        RunSettings(
            instructions=args.instructions,
            seed=args.seed,
            scale=args.scale,
        ),
        jobs=args.jobs,
        cache=artifact_cache_from_args(args),
    )
    with profiler.phase("simulate"):
        name = suite.ingest_trace(args.target)
        result = suite.result(name, args.mechanism)
        line = (
            f"simulated {name} under {args.mechanism}: "
            f"{result.instructions} instructions, {result.cycles:.0f} cycles "
            f"(IPC {result.ipc:.2f})"
        )
        if args.mechanism != "baseline":
            line += f", {suite.normalized_time(name, args.mechanism):.3f}x baseline"
        print(line)
    payload = json.dumps(
        dataclasses.asdict(result), sort_keys=True, separators=(",", ":")
    )
    print(f"result-digest: {hashlib.sha256(payload.encode()).hexdigest()}")

    code = 0
    if args.verify_roundtrip:
        code = _verify_roundtrip(args, stats, profiler)
    if suite.cache is not None:
        cache_stats = suite.cache.stats
        print(
            f"[artifact cache: {cache_stats.hits} hits, "
            f"{cache_stats.misses} misses, {cache_stats.stores} stores]"
        )
    return code


def _verify_roundtrip(args, stats, profiler: PhaseProfiler) -> int:
    """Prove simulate(generate(p)) == simulate(import(record(p))) for the
    ingested file, on both kernels.  Needs trace-export provenance."""
    import dataclasses

    from .compiler import lower_trace
    from .cpu.core import Simulator
    from .experiments.common import scaled_config
    from .kernel import KERNELS
    from .traces import import_trace
    from .workloads import generate_trace, get_profile

    generator = stats.header.generator or {}
    if generator.get("source") != "synthetic":
        print(
            "repro: error: --verify-roundtrip needs a trace produced by "
            "trace-export (no synthetic generator provenance in the header)",
            file=sys.stderr,
        )
        return 2
    with profiler.phase("verify-roundtrip"):
        regenerated = generate_trace(
            get_profile(generator["workload"]),
            instructions=generator["instructions"],
            seed=generator["seed"],
            scale=generator["scale"],
        )
        imported = import_trace(args.target)
        if imported != regenerated:
            print(
                "round-trip: FAILED — imported trace differs from the "
                "regenerated synthetic source",
                file=sys.stderr,
            )
            return 1
        config = scaled_config(args.mechanism, regenerated.scale)
        for kernel in KERNELS:
            direct = Simulator(config, kernel=kernel).run(
                lower_trace(regenerated, args.mechanism, config=config)
            )
            ingested = Simulator(config, kernel=kernel).run(
                lower_trace(imported, args.mechanism, config=config)
            )
            if dataclasses.asdict(direct) != dataclasses.asdict(ingested):
                print(
                    f"round-trip: FAILED — {kernel} kernel results diverge "
                    "between generated and ingested traces",
                    file=sys.stderr,
                )
                return 1
    print(
        "round-trip: byte-identical (trace equality + "
        f"{'/'.join(KERNELS)} kernel results)"
    )
    return 0


def format_mechanism_table() -> str:
    """Human-readable registry listing (the default ``mechanisms`` output)."""
    from .mechanisms import REGISTRY, registry_fingerprint

    rows = []
    for spec in REGISTRY.specs():
        rows.append(
            f"  {spec.name:<10s} lowering={spec.lowering or '-':<9s} {spec.description}"
        )
    return "\n".join(
        [f"registered mechanisms ({len(rows)}), registry order:"]
        + rows
        + [f"registry fingerprint: {registry_fingerprint()}"]
    )


def run_mechanisms(args) -> int:
    """The ``mechanisms`` artifact: enumerate the plugin registry.

    ``--list`` feeds CI matrix generation, ``--fingerprint`` keys the CI
    artifact cache, ``--json`` gives both plus the full spec metadata.
    """
    import json

    from .mechanisms import REGISTRY, registry_fingerprint

    if args.mech_fingerprint:
        print(registry_fingerprint())
        return 0
    if args.mech_list:
        for name in REGISTRY.names():
            print(name)
        return 0
    if args.mech_json:
        payload = {
            "kind": "mechanism-registry",
            "fingerprint": registry_fingerprint(),
            "mechanisms": [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "paper": spec.paper,
                    "lowering": spec.lowering,
                    "cache_token": spec.cache_token,
                    "detects": [exc.__name__ for exc in spec.detects],
                    "hwcost": dict(spec.hwcost),
                }
                for spec in REGISTRY.specs()
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=1))
        return 0
    print(format_mechanism_table())
    return 0


def run_attack(args, profiler: PhaseProfiler) -> int:
    """The ``attack`` artifact: chaos campaign over the scenario corpus.

    Returns the process exit code: non-zero when any MUST_DETECT cell
    went undetected (the acceptance contract), zero otherwise — known
    escapes (reported by name) and robustness bugs are findings, not
    failures.
    """
    import json

    from .adversary import ChaosCampaign, ChaosConfig
    from .stats import ScenarioCoverage

    overrides = {"seed": args.seed}
    if args.scenarios:
        overrides["scenarios"] = tuple(args.scenarios)
    if args.mechanisms:
        overrides["mechanisms"] = tuple(args.mechanisms)
    if args.fault_timeout is not None:
        overrides["timeout_s"] = args.fault_timeout
    if args.quick:
        config = ChaosConfig.quick(**overrides)
    else:
        config = ChaosConfig(**overrides)

    # Supervision is the default for chaos campaigns: a scenario that
    # wedges the simulator must land as a quarantined robustness bug, not
    # hang the sweep.  ``--no-supervise`` opts into a plain run: a
    # fail-fast worker pool at ``--jobs N``, in-process at ``--jobs 1``.
    supervise = None
    if not args.no_supervise:
        args.supervise = True
        supervise = supervisor_config(args)

    with profiler.phase("attack"):
        matrix = ChaosCampaign(config).run(supervise=supervise, jobs=args.jobs)
    print(matrix.format_report())

    payload = matrix.to_payload()
    if args.pareto:
        from .experiments import run_security_pareto

        coverage = ScenarioCoverage.from_matrix(matrix)
        suite = ExperimentSuite(
            RunSettings(
                instructions=args.instructions,
                seed=args.seed,
                scale=args.scale,
            ),
            jobs=args.jobs,
            cache=artifact_cache_from_args(args),
        )
        with profiler.phase("pareto"):
            pareto = run_security_pareto(
                coverage, suite, workloads=args.workloads
            )
        print()
        print(pareto.format())
        payload["pareto"] = pareto.to_payload()
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"[scenario matrix -> {args.matrix_out}]")
    if not matrix.ok:
        failures = matrix.must_detect_failures()
        print(
            f"ATTACK CAMPAIGN FAILED: {len(failures)} must-detect "
            "scenario(s) went undetected",
            file=sys.stderr,
        )
        return 1
    return 0


def artifact_cache_from_args(args):
    """The :class:`ArtifactCache` the cache flags describe (None = off)."""
    if args.no_cache:
        return None
    from .experiments.parallel import ArtifactCache

    return ArtifactCache(root=args.cache_dir, max_bytes=args.cache_max_bytes)


def run_cache(args) -> int:
    """The ``cache`` artifact: inspect or prune the artifact store."""
    cache = artifact_cache_from_args(args)
    if cache is None:
        print("repro: error: cache --no-cache is contradictory", file=sys.stderr)
        return 2
    if args.cache_prune:
        if cache.max_bytes is None:
            print(
                "repro: error: cache --prune needs a cap: pass "
                "--cache-max-bytes N or set $REPRO_CACHE_MAX_BYTES",
                file=sys.stderr,
            )
            return 2
        report = cache.prune()
        print(report.format())
        return 0
    # --stats is the default action (and the explicit flag's).
    usage = cache.usage()
    lines = [f"artifact cache: {usage['backend']}"]
    cap = usage["max_bytes"]
    lines.append(
        f"  entries: {usage['entries']}  bytes: {usage['bytes']}"
        + (f"  cap: {cap}" if cap is not None else "  cap: unlimited")
    )
    for kind, stats in sorted(usage["kinds"].items()):
        lines.append(
            f"  {kind}: {stats['entries']} entries, {stats['bytes']} bytes"
        )
    print("\n".join(lines))
    return 0


#: The ``--quick`` timing subset: cheap but behaviourally distinct, and it
#: keeps gcc — the paper's worst-case AOS workload — in every smoke run.
QUICK_WORKLOADS = ["gcc", "povray", "gobmk"]


def _resume_hint(args) -> str:
    """What an interrupted user should know: state is flushed, how to resume."""
    lines = [
        "interrupted — completed cells are already flushed "
        "(crash-atomic checkpoint/cache writes; nothing to salvage by waiting)."
    ]
    if args.fault_checkpoint:
        lines.append(
            f"re-run the same command to resume from {args.fault_checkpoint}"
        )
    elif args.artifact == "faultinject":
        lines.append(
            "add --fault-checkpoint PATH to make campaign runs resumable"
        )
    if not args.no_cache:
        lines.append(
            "finished simulation cells are in the artifact cache; "
            "a re-run recomputes only what was in flight"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profiler = PhaseProfiler()

    if args.artifact == "mechanisms":
        return run_mechanisms(args)

    # Strict mechanism-name validation up front (mirrors parse_fault_kind):
    # a typo gets the full list of registered names, never a bare KeyError
    # from deep inside a sweep.
    from .mechanisms import UnknownMechanismError, parse_mechanism, parse_mechanisms

    try:
        args.mechanism = parse_mechanism(args.mechanism)
        if args.mechanisms:
            args.mechanisms = parse_mechanisms(args.mechanisms)
    except UnknownMechanismError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        args.workloads = args.workloads or list(QUICK_WORKLOADS)
        args.instructions = min(args.instructions, 12_000)
        args.pac_samples = min(args.pac_samples, 1 << 16)
    # ``all`` always bounds its faultinject leg, even without ``--quick``.
    args.fault_quick = args.quick or args.artifact == "all"

    if args.artifact == "cache":
        return run_cache(args)

    if args.artifact == "trace-export":
        return run_trace_export(args)
    if args.artifact == "trace-import":
        try:
            with trap_signals():
                code = run_trace_import(args, profiler)
        except KeyboardInterrupt:
            print(_resume_hint(args), file=sys.stderr)
            return 130
        if args.profile:
            print()
            print(profiler.format())
        return code

    if args.artifact == "trace":
        try:
            with trap_signals():
                print(run_trace(args, profiler))
        except KeyboardInterrupt:
            print(_resume_hint(args), file=sys.stderr)
            return 130
        if args.profile:
            print()
            print(profiler.format())
        return 0

    # ``attack`` owns its exit code (non-zero on missed must-detects), so
    # it bypasses the always-0 artifact loop like ``trace`` does.
    if args.artifact == "attack":
        try:
            with trap_signals():
                code = run_attack(args, profiler)
        except KeyboardInterrupt:
            print(_resume_hint(args), file=sys.stderr)
            return 130
        if args.profile:
            print()
            print(profiler.format())
        return code

    suite = ExperimentSuite(
        RunSettings(
            instructions=args.instructions,
            seed=args.seed,
            scale=args.scale,
            # Metric sweeps collect counters only (no event ring): cheaper,
            # and keeps cell results JSON-able for the cache/checkpoint.
            obs=ObsSettings(enabled=True, tracing=False)
            if args.metrics
            else ObsSettings(),
        ),
        jobs=args.jobs,
        cache=artifact_cache_from_args(args),
        supervise=supervisor_config(args),
        paranoid=args.paranoid,
    )
    if args.trace:
        from .errors import TraceFormatError

        try:
            ingested = suite.ingest_trace(args.trace)
        except FileNotFoundError:
            print(
                f"repro: error: no such trace file: {args.trace}", file=sys.stderr
            )
            return 2
        except TraceFormatError as exc:
            print(f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        args.workloads = [ingested]
        print(f"[ingested trace {args.trace} as workload {ingested!r}]")
    names = (
        [n for n in ARTIFACTS if n not in OPERATIONAL_ARTIFACTS]
        if args.artifact == "all"
        else [args.artifact]
    )
    from .errors import QuarantinedCellError

    try:
        # SIGTERM lands as KeyboardInterrupt, so a killed run flushes and
        # prints the same resume hint as a ^C one.
        with trap_signals():
            # One dispatch computes every artifact's timed rows; the
            # drivers then render from the suite's memo.
            plan = [cell for name in names for cell in plan_artifact(name, suite, args)]
            if plan:
                start = time.time()
                with profiler.phase("cells"):
                    suite.ensure_cells(plan)
                print(f"[cells: {time.time() - start:.1f}s]")
            for name in names:
                start = time.time()
                with profiler.phase(name):
                    print(run_artifact(name, suite, args))
                print(f"[{name}: {time.time() - start:.1f}s]\n")
    except KeyboardInterrupt:
        print(_resume_hint(args), file=sys.stderr)
        return 130
    except QuarantinedCellError as exc:
        for report in suite.supervision_reports:
            print(report.format())
            print()
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    for report in suite.supervision_reports:
        print(report.format())
        print()
    if args.metrics:
        from .stats import MetricsReport

        snapshot = suite.metrics_snapshot()
        print(MetricsReport(snapshot, title="suite metrics (merged cells)").format())
        print()
        if args.metrics_out:
            import json

            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, sort_keys=True, indent=1)
                fh.write("\n")
            print(f"[metrics -> {args.metrics_out}]")
    if suite.cache is not None:
        stats = suite.cache.stats
        print(
            f"[artifact cache @ {suite.cache.root or suite.cache.backend.describe()}: "
            f"{stats.hits} hits, "
            f"{stats.misses} misses, {stats.stores} stores]"
        )
    if args.profile:
        print(profiler.format())
    return 0


if __name__ == "__main__":
    sys.exit(main())
