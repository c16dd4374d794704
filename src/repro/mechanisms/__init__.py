"""Mechanism plugin registry (ROADMAP: registry/plugin architecture).

One :class:`~repro.mechanisms.registry.MechanismSpec` per protection
scheme declares everything the rest of the repo needs to know about it —
runtime factory, timing-lowering name, adversary oracle defaults,
detection exception types, cache-fingerprint token and hardware-cost
model — and registers it in the process-wide
:data:`~repro.mechanisms.registry.REGISTRY`.  The CLI ``--mechanism``
choices, the chaos campaign sweep, the security matrix, the
kernel-equivalence cells and the artifact-cache fingerprints are all
enumerated from the registry, so adding a scheme is one module plus a
registration — no hand-maintained lists (see DESIGN.md, "Mechanism
plugin registry").  A scheme outside this package registers itself
with :func:`register_mechanism` or ``REGISTRY.register``.
"""

from .registry import (
    Expectation,
    MechanismRegistry,
    MechanismRegistryError,
    MechanismSpec,
    REGISTRY,
    ScenarioOracle,
    UnknownMechanismError,
    parse_mechanism,
    parse_mechanisms,
    register_mechanism,
    registry_fingerprint,
)

__all__ = [
    "Expectation",
    "MechanismRegistry",
    "MechanismRegistryError",
    "MechanismSpec",
    "REGISTRY",
    "ScenarioOracle",
    "UnknownMechanismError",
    "parse_mechanism",
    "parse_mechanisms",
    "register_mechanism",
    "registry_fingerprint",
]
