"""Golden pin of every lowered program.

One sha256 per (workload profile, timed mechanism) over what a lowering
hands the simulator: the instruction stream (:func:`program_repr`, the
canonical text the fixtures were recorded over), the pointer layout, the
trace event count and the pre-warmed HBT (rows, ways and stats).  REST
is pinned twice: with its quarantine pool (the registered mechanism) and
without it (the unregistered ``rest-noq`` lowering token of
``ablation_quarantine``).
Any change to what a lowering emits shows up here as a named (workload,
mechanism) row.

A second fixture, ``tests/golden/lowered_programs_20k.json``, pins the
shape the end-to-end benchmark lowers (20k instructions, scale 8, seed 7)
for four workloads whose preamble live sets span 181 to 50k objects,
under the eight mechanisms of the Fig. 14/15 sweeps and the related-work
points whose splices emit variable-length runs.

To regenerate both fixtures after an *intended* lowering change:

    PYTHONPATH=src python tests/test_lowering_golden.py

and commit the updated ``tests/golden/lowered_programs*.json`` together
with the change that explains it.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "lowered_programs.json"
GOLDEN_20K = Path(__file__).parent / "golden" / "lowered_programs_20k.json"

INSTRUCTIONS = 1000
SCALE = 64
SEED = 7
#: The REST lowering without its quarantine pool.
REST_NO_QUARANTINE = "rest/no-quarantine"

#: The wide fixture's shape: the end-to-end benchmark's window and scale.
WIDE_INSTRUCTIONS = 20_000
WIDE_SCALE = 8
#: Preamble live sets of 10k, 50k, 25k and 181 objects at scale 8.
WIDE_WORKLOADS = ("gcc", "omnetpp", "sphinx3", "hmmer")
WIDE_MECHANISMS = ("baseline", "watchdog", "pa", "aos", "pa+aos", "rest", "mte", "cryptsan")


def program_repr(program) -> str:
    """The program's canonical text: one ``Instruction(...)`` record per
    instruction, in the form of the frozen instruction dataclass the
    programs used to be viewed as, rebuilt from the columns.  A lowering
    sets no latency override, and only a branch can be mispredicted, so
    ``latency`` is 0 and ``mispredicted`` reads the dispatch kind."""
    from repro.isa.instructions import Op
    from repro.isa.program import KIND_BRANCH_MISS

    op_reprs = {op.value: repr(op) for op in Op}
    meta = dict(program.meta)
    offsets = program.dep_offsets.tolist()
    distances = program.dep_distances.tolist()
    records = [
        f"Instruction(op={op_reprs[code]}, address={address}, size={size}, "
        f"deps={tuple(distances[offsets[i] : offsets[i + 1]])!r}, latency=0, "
        f"mispredicted={kind == KIND_BRANCH_MISS}, meta={meta.get(i)!r})"
        for i, (code, kind, address, size) in enumerate(
            zip(
                program.ops,
                program.kinds,
                program.addresses.tolist(),
                program.sizes.tolist(),
            )
        )
    ]
    return "(" + ", ".join(records) + ("," if len(records) == 1 else "") + ")"


def _digest(lowered) -> str:
    parts = [
        program_repr(lowered.program),
        repr(lowered.pointer_layout),
        repr(lowered.trace_events),
    ]
    hbt = lowered.hbt
    if hbt is not None:
        parts.append(repr((hbt.records(), hbt.ways, dataclasses.asdict(hbt.stats))))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def mechanisms() -> list:
    from repro.mechanisms import REGISTRY

    return [*REGISTRY.timed_names(), REST_NO_QUARANTINE]


def compute_digests(
    workload: str,
    instructions: int = INSTRUCTIONS,
    scale: int = SCALE,
    names: tuple = (),
) -> dict:
    """``{mechanism: digest}`` for one workload profile, over ``names``
    (every timed mechanism and REST without quarantine by default)."""
    from repro.compiler import lower_trace
    from repro.experiments.common import scaled_config
    from repro.workloads import generate_trace, get_profile

    trace = generate_trace(
        get_profile(workload), instructions=instructions, seed=SEED, scale=scale
    )
    digests = {}
    for mechanism in names or mechanisms():
        if mechanism == REST_NO_QUARANTINE:
            config = scaled_config("rest", scale)
            lowered = lower_trace(trace, "rest-noq", config=config)
        else:
            config = scaled_config(mechanism, scale)
            lowered = lower_trace(trace, mechanism, config=config)
        digests[mechanism] = _digest(lowered)
    return digests


def compute_wide_digests(workload: str) -> dict:
    """``{mechanism: digest}`` of the wide fixture for one workload."""
    return compute_digests(workload, WIDE_INSTRUCTIONS, WIDE_SCALE, WIDE_MECHANISMS)


def _workloads() -> list:
    from repro.workloads.profiles import ALL_PROFILES

    return sorted(ALL_PROFILES)


def test_fixture_covers_every_profile_and_mechanism():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == _workloads()
    for workload, rows in golden.items():
        assert sorted(rows) == sorted(mechanisms()), workload


@pytest.mark.parametrize("workload", _workloads())
def test_lowered_programs_match_golden(workload):
    expected = json.loads(GOLDEN.read_text())[workload]
    actual = compute_digests(workload)
    drifted = sorted(m for m in expected if expected[m] != actual.get(m))
    assert not drifted, (
        f"{workload}: lowered programs drifted for {drifted}; if intended, "
        "regenerate with: PYTHONPATH=src python tests/test_lowering_golden.py"
    )


def test_wide_fixture_covers_its_shape():
    golden = json.loads(GOLDEN_20K.read_text())
    assert sorted(golden) == sorted(WIDE_WORKLOADS)
    for workload, rows in golden.items():
        assert sorted(rows) == sorted(WIDE_MECHANISMS), workload


@pytest.mark.parametrize("workload", WIDE_WORKLOADS)
def test_wide_lowered_programs_match_golden(workload):
    expected = json.loads(GOLDEN_20K.read_text())[workload]
    actual = compute_wide_digests(workload)
    drifted = sorted(m for m in expected if expected[m] != actual.get(m))
    assert not drifted, (
        f"{workload} at {WIDE_INSTRUCTIONS} instructions: lowered programs "
        f"drifted for {drifted}; if intended, regenerate with: "
        "PYTHONPATH=src python tests/test_lowering_golden.py"
    )


def _write(path: Path, golden: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path} ({sum(len(rows) for rows in golden.values())} digests)")


def _regenerate() -> None:
    _write(GOLDEN, {workload: compute_digests(workload) for workload in _workloads()})
    _write(
        GOLDEN_20K,
        {workload: compute_wide_digests(workload) for workload in WIDE_WORKLOADS},
    )


if __name__ == "__main__":
    _regenerate()
