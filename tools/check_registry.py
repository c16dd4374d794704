#!/usr/bin/env python
"""Mechanism-registry consistency check (CI job + local gate).

Every registered :class:`~repro.mechanisms.registry.MechanismSpec` must be
*complete*: a working runtime factory, an oracle row for every scenario in
the adversary corpus, a timing lowering that resolves (if it declares
one), a cache-fingerprint token, and at least one detection exception
type.  A plugin that forgets any of these fails here with the exact
omission named — before a chaos campaign silently mis-classifies its
cells or the artifact cache serves it stale results.

Run locally from the repo root::

    PYTHONPATH=src python tools/check_registry.py

Exit code 0 = consistent; 1 = problems (listed one per line on stderr).
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.adversary.scenarios import SCENARIOS, build_scenario  # noqa: E402
from repro.compiler.passes import resolve_lowering  # noqa: E402
from repro.errors import WorkloadError  # noqa: E402
from repro.mechanisms import REGISTRY, registry_fingerprint  # noqa: E402
from repro.mechanisms.registry import ORACLE_CATEGORIES  # noqa: E402

#: The surface every mechanism's runtime must expose (the chaos
#: interpreter's contract; ``repro.memory.runtime.HeapRuntime`` has it).
#: The attacker primitives ``forge_pac``, ``forge_ahc_zero`` and
#: ``forge_tag`` are optional, and so are the call-stack ops, which come
#: all together or not at all: a recipe needing a primitive the runtime
#: lacks yields ``unmodeled`` (``n/a`` in the §VII matrix) instead.
ADAPTER_SURFACE = ("malloc", "free", "load", "store", "offset", "raw_write")
CALL_STACK_OPS = ("call", "ret", "smash_ret")


def check_registry() -> list:
    problems = []
    scenario_instances = {
        name: build_scenario(name) for name in SCENARIOS
    }

    for spec in REGISTRY.specs():
        where = f"mechanism {spec.name!r}"

        # -- cache-fingerprint token --------------------------------------
        if not spec.cache_token:
            problems.append(f"{where}: missing cache-fingerprint token")

        # -- detection exceptions -----------------------------------------
        if not spec.detects:
            problems.append(
                f"{where}: declares no detection exception types — every "
                "fault it raises would classify as a robustness bug"
            )

        # -- timing lowering ----------------------------------------------
        if spec.lowering is not None:
            try:
                resolve_lowering(spec.name)
            except WorkloadError as exc:
                problems.append(
                    f"{where}: lowering {spec.lowering!r} does not resolve "
                    f"({exc})"
                )

        # -- oracle rows ---------------------------------------------------
        oracle = spec.oracle
        for scenario in oracle.overrides:
            if scenario not in SCENARIOS:
                problems.append(
                    f"{where}: oracle override for unknown scenario "
                    f"{scenario!r}"
                )
        for category in ORACLE_CATEGORIES:
            if oracle.expectation("-", category) is None:
                problems.append(
                    f"{where}: no oracle default for category {category!r}"
                )
        for name, instance in scenario_instances.items():
            if instance.expected(spec.name) is None:
                problems.append(
                    f"{where}: no oracle row resolves for scenario {name!r}"
                )

        # -- runtime factory -----------------------------------------------
        try:
            adapter = spec.factory()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"{where}: factory raised {type(exc).__name__}: {exc}")
            continue
        if getattr(adapter, "name", None) != spec.name:
            problems.append(
                f"{where}: adapter.name {getattr(adapter, 'name', None)!r} "
                "does not match the registered name"
            )
        for attr in ADAPTER_SURFACE:
            if not hasattr(adapter, attr):
                problems.append(f"{where}: adapter lacks {attr!r}")
        stack = [op for op in CALL_STACK_OPS if hasattr(adapter, op)]
        if stack and len(stack) < len(CALL_STACK_OPS):
            missing = [op for op in CALL_STACK_OPS if op not in stack]
            problems.append(
                f"{where}: models a call stack with {', '.join(stack)} "
                f"but lacks {', '.join(missing)}"
            )

    return problems


def main() -> int:
    problems = check_registry()
    names = REGISTRY.names()
    if problems:
        print(
            f"registry INCONSISTENT ({len(problems)} problem(s) across "
            f"{len(names)} mechanisms):",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"registry consistent: {len(names)} mechanisms "
        f"({', '.join(names)}), {len(SCENARIOS)} scenarios, "
        f"fingerprint {registry_fingerprint()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
