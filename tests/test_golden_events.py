"""Golden event-stream regression test.

Pins the traced reference run behind ``python -m repro trace gcc --quick``:
the sha256 of every retained :class:`~repro.obs.EventTracer` event (the
bytes ``--events-out`` writes), the sha256 of the Chrome document
(``--trace-out``), and per-name and per-``op`` event counts, so a changed
event name, argument, cycle stamp or order in the reference scoreboard
shows up as a failure here rather than as a silently different trace.

To regenerate the fixture after an *intended* change to the event stream:

    PYTHONPATH=src python tests/test_golden_events.py

and commit the updated ``tests/golden/events_gcc_quick.json`` together
with the change that explains it.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "events_gcc_quick.json"

#: The ``python -m repro trace gcc --quick`` settings (cli.py).
WORKLOAD = "gcc"
MECHANISM = "aos"
INSTRUCTIONS = 12_000
SEED = 7
SCALE = 8


def compute_event_summary(tmp_path: Path) -> dict:
    """The traced run's event digests and counts, via the same path and
    sinks the ``trace`` CLI artifact uses."""
    from repro.compiler import lower_trace
    from repro.cpu.core import Simulator
    from repro.experiments.common import scaled_config
    from repro.obs import (
        DEFAULT_TRACE_CAPACITY,
        EventTracer,
        Observability,
        dump_chrome_trace,
    )
    from repro.workloads import generate_trace, get_profile

    tracer = EventTracer(DEFAULT_TRACE_CAPACITY)
    config = scaled_config(MECHANISM, SCALE)
    trace = generate_trace(
        get_profile(WORKLOAD), instructions=INSTRUCTIONS, seed=SEED, scale=SCALE
    )
    lowered = lower_trace(trace, MECHANISM, config=config)
    Simulator(config, obs=Observability(tracer=tracer)).run(lowered)

    events_path, chrome_path = tmp_path / "events.jsonl", tmp_path / "trace.json"
    tracer.to_jsonl(events_path)
    dump_chrome_trace(
        chrome_path,
        tracer.events(),
        metadata={
            "workload": WORKLOAD,
            "mechanism": MECHANISM,
            "instructions": INSTRUCTIONS,
            "seed": SEED,
            "scale": SCALE,
            "events_emitted": tracer.stats.emitted,
            "events_dropped": tracer.stats.dropped,
        },
    )
    events = tracer.events()
    ops = Counter(dict(e.args)["op"] for e in events if e.name == "mcq.enqueue")
    return {
        "emitted": tracer.stats.emitted,
        "dropped": tracer.stats.dropped,
        "names": dict(sorted(Counter(e.name for e in events).items())),
        "mcq_enqueue_ops": dict(sorted(ops.items())),
        "events_jsonl_sha256": hashlib.sha256(events_path.read_bytes()).hexdigest(),
        "chrome_trace_sha256": hashlib.sha256(chrome_path.read_bytes()).hexdigest(),
    }


def test_fixture_is_sorted_json():
    raw = GOLDEN.read_text()
    assert raw == json.dumps(json.loads(raw), sort_keys=True, indent=1) + "\n"


def test_traced_reference_run_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = compute_event_summary(tmp_path)
    assert actual == expected, (
        "the traced event stream drifted from the golden fixture; if this "
        "change is intended, regenerate with:\n"
        "  PYTHONPATH=src python tests/test_golden_events.py"
    )


def test_golden_covers_every_mcq_op():
    """Every kind that enters the MCQ names itself in the stream."""
    ops = json.loads(GOLDEN.read_text())["mcq_enqueue_ops"]
    assert set(ops) == {"LOAD", "STORE", "BNDSTR", "BNDCLR"}


def _regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        summary = compute_event_summary(Path(tmp))
    GOLDEN.write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({summary['emitted']} events)")


if __name__ == "__main__":
    _regenerate()
