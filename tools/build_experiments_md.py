#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the archived benchmark results.

Run after ``pytest benchmarks/ --benchmark-only`` so that
``benchmarks/results/*.txt`` holds the release run's reproduced artifacts:

    python tools/build_experiments_md.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

sys.path.insert(0, str(ROOT / "src"))

from repro.adversary import CHAOS_SCENARIOS, SCENARIOS  # noqa: E402

HEADER = """\
# EXPERIMENTS — paper vs. reproduction, artifact by artifact

Every table and figure in the paper's evaluation (§VI, §IX, plus the §VII
security analysis), the paper's claim about it, and what this reproduction
measures.  The embedded measurements come from the release benchmark run
(`pytest benchmarks/ --benchmark-only`); re-running refreshes the archives
under `benchmarks/results/`.

**Methodology reminder** (details in DESIGN.md): the substrate is a
trace-driven, cycle-approximate out-of-order core model over synthetic
workloads calibrated to the paper's published per-workload profiles, with
live sets and cache capacities co-scaled (factor 8) to keep
footprint-to-capacity ratios.  Absolute cycle counts are therefore not
comparable to the authors' gem5 runs; the comparisons below are about
*shape*: orderings, ratios, outliers, and which workload exhibits which
pathology.

**Ingested traces:** every artifact also runs over externally supplied
trace files (`--trace file`, `python -m repro trace-import`; schema in
DESIGN.md §4h).  Cells for an ingested workload are cached under the
streamed sha256 *digest of the trace file* plus mechanism/config —
not under the workload name or the suite's window settings, which don't
describe a file — so editing a single byte of a trace invalidates exactly
its own cells and nothing else.

---
"""

SECTIONS = [
    (
        "Fig. 11 — PAC distribution by QARMA (§VI)",
        "fig11_pac_distribution",
        """**Paper:** one million `malloc` calls, 16-bit PACs from QARMA with the
published key/context give `Avg:16.0, Max:36, Min:3, Stdev: 3.99`.

**Reproduction:** real QARMA-64 (validated against the cipher's published
test vectors), the same key/context, 2^20 allocations.  Mean and standard
deviation match exactly; Max/Min differ by a few counts because the exact
malloc address stream differs.  **Verdict: matches.**""",
    ),
    (
        "Table I — hardware overhead (§V-G)",
        "table1_hw_overhead",
        """**Paper:** CACTI 6.0 @45 nm: MCQ 1.3 KB / 0.0096 mm², BWB 384 B /
0.00285 mm², L1-B 32 KB / 0.1573 mm² (L1-D 64 KB as reference).

**Reproduction:** structure capacities derived independently from the
§V-A.1 field widths (MCQ 48 x 211 bits ≈ 1.2 KB; BWB 64 x 48 bits =
384 B exactly); area/time/energy from power laws fitted to the published
rows, all within ~25 %.  **Verdict: matches.**""",
    ),
    (
        "Table II / Table III — memory-usage profiles (§VI)",
        "table2_memory_profiles",
        """**Paper:** full-program Valgrind profiles: most SPEC workloads allocate
far more than they keep live (povray 2.46 M allocs, 11 667 max active);
real-world programs keep tiny live sets.

**Reproduction:** the published numbers are carried verbatim in the
workload profiles (they parameterise the generator) and reported; the
measured window profiles below confirm the synthetic traces honour them
(steady alloc/free balance, live sets at the scaled max-active).
**Verdict: matches by construction; window behaviour validated.**""",
    ),
    (
        "Table III — real-world benchmarks",
        "table3_realworld_profiles",
        """**Paper:** allocation counts scale with input/request volume, max-active
stays modest (all ≤ 7 592) — so the 1-way HBT's 512 K-bounds capacity is
never stressed outside SPEC.

**Reproduction:** published values verbatim, plus an end-to-end AOS run of
each real-world profile showing low overhead on all six.
**Verdict: matches.**""",
    ),
    (
        "Fig. 14 — normalized execution time (§IX-A)",
        "fig14_execution_time",
        """**Paper:** geomeans — Watchdog 1.194, PA ~1.01, AOS 1.084, PA+AOS
1.099.  gcc is the worst AOS workload at 2.16x (cache pollution), hmmer
41 % (delayed retirement, >99 % signed accesses), lbm signed-heavy but
cheap (not memory-intensive), milc/namd/gobmk/astar slightly *better*
than baseline (MCQ back-pressure curbing wrong-path speculation).  Only
omnetpp (2) and sphinx3 (1) resize the HBT.

**Reproduction:** the full shape reproduces — mechanism ordering
(Watchdog > PA+AOS ≥ AOS >> PA), gcc worst at ~2.2-2.4x, hmmer ~1.45,
lbm ~1.01, several workloads below 1.0 via the back-pressure effect, and
the HBT resize counts are exact (omnetpp 2, sphinx3 1, none elsewhere).
The AOS geomean lands a few points above the paper (~1.13-1.16 vs 1.084)
because our synthetic omnetpp/sphinx3 windows pay more bounds-miss
latency than the originals.  **Verdict: shape matches; AOS geomean
~4-7 pp high.**""",
    ),
    (
        "Fig. 15 — optimisation ablation (§IX-A)",
        "fig15_optimizations",
        """**Paper:** the L1-B cache removes ~10 % of overhead, bounds compression
another ~3 % on average; gcc and omnetpp improve by 60 % and 68 % with
both.

**Reproduction:** compression is the dominant optimisation exactly as the
paper argues ("a higher performance gain since it reduces the L2 cache
pollution as well"): uncompressed 16-byte bounds double both the table
footprint and the lines per way visit, costing gcc/omnetpp ~50-70 % of
their overhead back.  The standalone L1-B benefit is smaller in our
scaled memory system (bounds misses are L2/DRAM-bound, so segregating
the L1 moves little) — a documented scaling artefact.
**Verdict: compression effect matches; L1-B effect attenuated.**""",
    ),
    (
        "Fig. 16 — instructions of interest (§IX-A)",
        "fig16_instruction_mix",
        """**Paper:** signed accesses >80 % of memory ops in bzip2/gcc/hmmer/lbm
(hmmer >99 %); bounds/pac instruction rates track allocation rates.

**Reproduction:** same orderings (hmmer 99.5 % signed, sjeng/gobmk/namd
at the bottom; gcc/omnetpp top the bndstr/bndclr rates).
**Verdict: matches.**""",
    ),
    (
        "Fig. 17 — bounds accesses per check + BWB hit rate (§IX-A)",
        "fig17_bwb",
        """**Paper:** ~1 access per checked instruction everywhere (omnetpp
highest at 1.17 from PAC collisions); BWB hit rate >80 % for most
workloads.

**Reproduction:** ~1.0 accesses per check across the suite and >80 % BWB
hits for 12 of 16 workloads.  Differences: our malloc-heavy workloads
dip *below* 1.0 (bounds forwarding covers many just-allocated-object
checks), and mcf/sjeng sit low on BWB hits (six giant objects spanning
thousands of BWB tag windows).  **Verdict: matches with noted
deviations.**""",
    ),
    (
        "Fig. 18 — normalized network traffic (§IX-B)",
        "fig18_network_traffic",
        """**Paper:** Watchdog +31 %, PA+AOS +18 % on average; gcc, povray and
omnetpp are the AOS outliers; PA adds nothing.

**Reproduction:** Watchdog highest, PA exactly 1.0, AOS/PA+AOS positive
with gcc/povray/omnetpp/sphinx3 as the heavy rows.  Averages land a bit
low (Watchdog ~1.18, PA+AOS ~1.08-1.10) — our Watchdog lock table is
more cacheable than the real implementation's metadata spills.
**Verdict: shape matches; averages somewhat low.**""",
    ),
    (
        "§VII — security analysis",
        "security_analysis",
        f"""**Paper:** AOS detects heap OOB (adjacent and non-adjacent), UAF,
double free, invalid free and House of Spirit; PAC forging is impractical
(45 425 attempts for 50 % at 16 bits); AHC forging is caught by `autm`
(PA+AOS); trip-wires miss non-adjacent accesses; PA alone has no
spatial/temporal safety.

**Reproduction:** `python -m repro security` runs the adversary corpus —
one set of {len(SCENARIOS)} seeded exploit recipes, the same ones `python -m repro
attack` interprets (its default campaign sweeps {len(CHAOS_SCENARIOS)} of them) — against the
functional models of all 12 registered mechanisms: baseline glibc, REST,
PA, MTE, CHERI, Watchdog, AOS, PA+AOS, CryptSan, PACSan, PACTight and
PACStack.  A cell reads `DETECT`, `-` (the attack completed silently) or
`n/a` (the adapter lacks the attacker primitive the recipe needs).  The
paper's claims hold: AOS detects adjacent, linear and non-linear OOB,
UAF with and without reuse, PAC replay, double and invalid free, House
of Spirit, PAC forgery and a 256-guess brute force; REST misses the
non-linear overflow, PA catches no spatial or temporal attack beyond
the invalid free glibc itself rejects, and 4-bit MTE falls to the brute
force.  Plain AOS's three `-` cells are its
documented blind spots: intra-object overflow (§III-D), return-address
corruption (left to PA, §VII-B) and AHC zeroing (§VII-C), which
PA+AOS's on-load `autm` closes.

This grid used to come from a second, hand-written attack model.
Against it seven cells moved, all to agree with the paper and the
corpus: `ahc-zero-escape` on `aos` went from `DETECT` to `-` (the old
AOS adapter carried PA+AOS's `autm`, contradicting §VII-C), and
`pac-forgery` and `metadata-brute-force` on CryptSan, PACSan and
PACTight went from `n/a` to `DETECT` (a flag marked them as not signing
pointers although their runtimes, `CryptSanRuntime`, `PACSanRuntime` and
`PACTightRuntime`, model PAC forgery).  Rows renamed to
the corpus names: `adjacent-oob-write` → `heap-overflow-adjacent`,
`nonadjacent-oob-read` → `nonlinear-oob-read`, `use-after-free` →
`uaf-stale-load`, `uaf-after-reuse` → `uaf-after-realloc`,
`ahc-forgery` → `ahc-zero-escape`; `linear-oob-write`,
`intra-object-overflow`, `pac-replay` and `ret-addr-corruption` are new
rows.  The 11 rows the chaos campaign sweeps equal the `observed` column
of `security_matrix.json` cell for cell.
**Verdict: matches §VII, including plain AOS's §VII-C escape.**""",
    ),
    (
        "Adversarial scenario corpus + detection-coverage Pareto (§VII, §VII-C)",
        "security_matrix",
        f"""**Paper:** the §VII security table claims detection per attack class
per mechanism, and §VII-C documents plain AOS's one escape — zeroing a
pointer's AHC makes it look unsigned, so the Fig. 6 selective check skips
it; the PA+AOS variant closes the hole with an on-load `autm` (Fig. 13).

**Reproduction:** `python -m repro attack` sweeps {len(CHAOS_SCENARIOS)} of the corpus's
{len(SCENARIOS)} named, seeded exploit recipes (adjacent overflow, linear and non-linear
OOB, intra-object overflow, UAF with and without slot reuse, double
free, PAC forgery and replay, return-address corruption, and
`ahc-zero-escape` as a first-class scenario) across every mechanism
registered in the plugin registry (`repro.mechanisms`) — the paper's
seven comparison points plus four PA-based related-work baselines:
CryptSan (per-granule MAC shadow tags), PACSan (signed shadow metadata
checked on every access), PACTight (sealed pointer identities + signed
returns) and PACStack (a chained, authenticated return stack).  Each
cell compares the observed outcome against an expected-verdict oracle —
`must-detect`, `may-detect`, `known-escape` (reported by name, never a
silent pass) or `unsupported` (the adapter does not model the
primitive; an explicit verdict, not a pass).  The sweep runs under the
supervision layer by default, so a scenario that crashes or hangs the
simulator lands as a quarantined *robustness bug* — a finding of the
campaign, not a failure of it; the only failing verdict is a
`must-detect` cell that goes undetected, which makes the process exit
non-zero.  **Verdict: the full 11×12 matrix matches the oracle —
`ahc-zero-escape` is escape-confirmed on `aos` and detected on
`pa+aos` (the §VII-C/Fig. 13 contrast), while `ret-addr-corruption`
separates the return-path mechanisms (pa, pa+aos, pactight, pacstack
detect; baseline and plain aos escape-confirmed).**""",
    ),
    (
        "Detection-coverage vs overhead Pareto (CryptSan/PACSan-style comparison)",
        "security_pareto",
        """**Paper:** §X positions AOS against software PA-based sanitizers
qualitatively; the related-work papers (CryptSan, PACSan, PACTight,
PACStack) each report their own overhead/coverage trade-off.

**Reproduction:** `python -m repro attack --pareto` joins the
per-mechanism detection rate (detected fraction of *modeled* corpus
cells; crashed/timed-out cells count against) with the Fig. 14
normalized-time machinery — the geomean overhead over `gcc`, `povray`,
`gobmk` — and marks the non-dominated frontier.  Every mechanism with a
timing lowering gets a point, including all four PA-based baselines;
CHERI has no timing lowering, so it is listed coverage-only rather than
silently dropped.  The spread is the expected one: PACStack is nearly
free but protects only the return path, PACTight buys seal/unseal
temporal coverage for a few percent, CryptSan/PACSan pay per-access
shadow traffic for near-AOS coverage, and PA+AOS anchors the
high-coverage end.""",
    ),
    (
        "Design-choice ablations (beyond the paper's own figures)",
        "ablation_mcq",
        """Quantitative backing for the §V design decisions the paper fixes
without sweeping: MCQ depth (Table IV's 48 entries capture most of the
192-entry benefit on hmmer), BWB geometry, non-blocking vs stop-the-world
resizing (the §V-F3 claim, visible on an in-window allocation phase),
bounds forwarding (§V-F2), and the §IV-C quarantine comparison (REST's
quarantine pool accounts for most of its temporal-safety cost; AOS's
re-sign-on-free avoids it).  The metadata-entropy table reproduces both
headline security numbers analytically: MTE's "94 %" (§X) and the 45 425
attempts of §VII-E.""",
    ),
    (
        "Extension — the §X memory-tagging comparison, quantified",
        "ext_mte_comparison",
        """**Paper (qualitative, §X):** memory tagging has "moderate performance
overhead" but "the limited size of tags reduces security guarantees".

**Reproduction:** an MTE-style timing lowering (IRG + STG colouring at
malloc/free, free per-access checks) next to AOS on the same workloads,
with the entropy gap attached.  MTE is indeed cheaper on average — its
cost scales with allocation volume, not access volume — while its 4-bit
tags fall to a ~16-guess brute force that AOS's 16-bit PACs resist.""",
    ),
]


def main() -> None:
    parts = [HEADER]
    for title, artifact, commentary in SECTIONS:
        parts.append(f"## {title}\n")
        parts.append(commentary + "\n")
        path = RESULTS / f"{artifact}.txt"
        if path.exists():
            parts.append("```text")
            parts.append(path.read_text().rstrip())
            parts.append("```\n")
        else:
            parts.append(f"*(run `pytest benchmarks/` to regenerate {artifact})*\n")
    extra = RESULTS / "ablation_bwb.txt"
    if extra.exists():
        parts.append("```text")
        for name in (
            "ablation_bwb",
            "ablation_resize_forwarding",
            "ablation_quarantine",
            "ablation_entropy",
        ):
            p = RESULTS / f"{name}.txt"
            if p.exists():
                parts.append(p.read_text().rstrip())
                parts.append("")
        parts.append("```\n")
    parts.append(kernel_bench_section())
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


def kernel_bench_section() -> str:
    """Render the fast-kernel timing table from the committed
    ``BENCH_kernel.json`` (written by ``tools/bench_kernel.py``, gated in
    the CI ``kernel-smoke`` job)."""
    lines = [
        "## Engineering — simulation-kernel timings",
        "",
        "Both simulation kernels (`repro.kernel`) produce byte-identical",
        "results (`tests/test_kernel_equivalence.py`,",
        "`tests/test_kernel_native.py`).  The fast kernel, the reference's",
        "scoreboard loop in C (`src/repro/kernel/_fast.c`, built on first use",
        "and cached in the artifact cache root), runs every untraced cell;",
        "the reference kernel is the oracle and runs traced cells.  Timings",
        "below are min-of-N runs of the simulate step alone from",
        "the committed `BENCH_kernel.json` (refresh with",
        "`python tools/bench_kernel.py`; CI fails on a >10% speedup",
        "regression or an aggregate below 2x).",
        "",
    ]
    bench = ROOT / "BENCH_kernel.json"
    if not bench.exists():
        lines.append("*(run `python tools/bench_kernel.py` to generate the table)*")
        lines.append("")
        return "\n".join(lines)
    import json

    report = json.loads(bench.read_text())
    settings = report["settings"]
    lines.append(
        f"{settings['instructions']} instructions/cell, seed {settings['seed']}, "
        f"scale {settings['scale']}, min of {settings['repeats']} runs:"
    )
    lines.append("")
    lines.append("| workload | mechanism | reference (s) | fast (s) | speedup |")
    lines.append("|---|---|---:|---:|---:|")
    for cell in report["cells"]:
        lines.append(
            f"| {cell['workload']} | {cell['mechanism']} "
            f"| {cell['reference_s']:.3f} | {cell['fast_s']:.3f} "
            f"| {cell['fast_speedup']:.2f}x |"
        )
    speedup = report["aggregate"]["fast_speedup"]
    lines.append(f"\n**Aggregate (total time ratio): {speedup:.2f}x.**")
    lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    main()
