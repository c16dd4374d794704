"""Declarative mechanism specs and the process-wide registry.

A :class:`MechanismSpec` is the single source of truth for one
protection scheme: how to build its functional runtime, which timing
lowering (if any) the trace compiler should use, what the adversary
corpus should expect from it (:class:`ScenarioOracle`), which exception
types count as a detection, its artifact-cache fingerprint token, and a
small hardware-cost sketch.

The registry is lazily populated: the first enumeration imports
:mod:`repro.mechanisms.builtin`, which registers the twelve built-in
runtimes: the paper's comparison points and the four PA-based plugin
baselines.  Explicit
:meth:`MechanismRegistry.register` calls (tests, user plugins) never
trigger that import, so a plugin can be registered before, after, or
instead of the builtins.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigError, ReproError


class MechanismRegistryError(ReproError):
    """Registry misuse: duplicate name, bad spec, unknown unregister."""


class UnknownMechanismError(ConfigError):
    """A mechanism name that is not registered (strict CLI parsing)."""


class Expectation(str, Enum):
    """What the oracle says a mechanism should do with a scenario.

    ``MUST_DETECT``  — the mechanism's threat model covers this attack;
    a silent escape is a reproduction bug (and fails the campaign).
    ``MAY_DETECT``   — detection depends on heap luck (allocation order,
    tag collisions); either outcome is fine.
    ``KNOWN_ESCAPE`` — the paper itself documents the blind spot; the
    scenario *should* escape, and a detection is a surprise worth
    flagging.
    ``UNSUPPORTED``  — the scenario exercises machinery the mechanism
    does not model (e.g. PAC forgery against a tagging scheme).
    """

    MUST_DETECT = "must-detect"
    MAY_DETECT = "may-detect"
    KNOWN_ESCAPE = "known-escape"
    UNSUPPORTED = "unsupported"


#: Oracle categories a scenario can resolve against.
ORACLE_CATEGORIES = ("spatial", "temporal", "control", "metadata")


@dataclass(frozen=True)
class ScenarioOracle:
    """Per-category expectation defaults plus per-scenario overrides.

    Scenario builders resolve an expectation as: explicit override for
    the scenario name, else the builder's fallback (used by scenarios
    that are universal blind spots, like intra-object overflow), else
    the category default.
    """

    spatial: Expectation = Expectation.KNOWN_ESCAPE
    temporal: Expectation = Expectation.KNOWN_ESCAPE
    control: Expectation = Expectation.UNSUPPORTED
    metadata: Expectation = Expectation.UNSUPPORTED
    overrides: Mapping[str, Expectation] = field(default_factory=dict)

    def expectation(
        self,
        scenario: str,
        category: str,
        fallback: Optional[Expectation] = None,
    ) -> Expectation:
        if scenario in self.overrides:
            return self.overrides[scenario]
        if fallback is not None:
            return fallback
        if category not in ORACLE_CATEGORIES:
            raise MechanismRegistryError(
                f"unknown oracle category {category!r}; "
                f"expected one of {', '.join(ORACLE_CATEGORIES)}"
            )
        return getattr(self, category)


@dataclass(frozen=True)
class MechanismSpec:
    """Everything the repo needs to know about one mechanism."""

    #: Registry key; also the CLI spelling and the SystemConfig name.
    name: str
    #: Zero-argument factory returning a fresh runtime: a
    #: :class:`~repro.memory.runtime.HeapRuntime` (or one with its surface).
    factory: Callable[[], object]
    #: One-line description for ``python -m repro mechanisms``.
    description: str = ""
    #: Citation anchor (paper section or related-work title).
    paper: str = ""
    #: Trace-compiler lowering name; ``None`` means untimed (no
    #: normalized-time axis — e.g. cheri changes the ISA itself).
    lowering: Optional[str] = None
    #: Adversary-corpus expectations for this mechanism.
    oracle: ScenarioOracle = field(default_factory=ScenarioOracle)
    #: Token folded into every artifact-cache cell fingerprint so a
    #: behaviour change can invalidate cached results for one mechanism
    #: without a global code-digest bump.
    cache_token: str = ""
    #: Exception types that count as "the mechanism detected the bug".
    detects: Tuple[type, ...] = ()
    #: Hardware-cost sketch: metadata bytes per 64B object,
    #: extra checks per heap access, extra instructions per alloc/free.
    hwcost: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise MechanismRegistryError(
                f"mechanism name must be a non-empty trimmed string, "
                f"got {self.name!r}"
            )
        if not callable(self.factory):
            raise MechanismRegistryError(
                f"mechanism {self.name!r}: factory must be callable"
            )
        if not self.cache_token:
            raise MechanismRegistryError(
                f"mechanism {self.name!r}: cache_token is required so the "
                f"artifact cache can fingerprint its cells"
            )

    @property
    def timed(self) -> bool:
        return self.lowering is not None


class MechanismRegistry:
    """Ordered name -> :class:`MechanismSpec` mapping with lazy builtins."""

    def __init__(self) -> None:
        self._specs: Dict[str, MechanismSpec] = {}
        self._loaded = False

    # -- population ----------------------------------------------------

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Flip the flag *before* the import: builtin.py registers
            # specs on import, and register() must not re-enter here.
            self._loaded = True
            from . import builtin  # noqa: F401

    def register(
        self, spec: MechanismSpec, replace: bool = False
    ) -> MechanismSpec:
        if not isinstance(spec, MechanismSpec):
            raise MechanismRegistryError(
                f"expected a MechanismSpec, got {type(spec).__name__}"
            )
        if spec.name in self._specs and not replace:
            raise MechanismRegistryError(
                f"mechanism {spec.name!r} is already registered; pass "
                f"replace=True to override it deliberately"
            )
        for other in self._specs.values():
            if other.name != spec.name and other.cache_token == spec.cache_token:
                raise MechanismRegistryError(
                    f"mechanism {spec.name!r} reuses cache token "
                    f"{spec.cache_token!r} of {other.name!r}; tokens must be "
                    f"unique or cached artifacts collide"
                )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> MechanismSpec:
        self._ensure_loaded()
        if name not in self._specs:
            raise MechanismRegistryError(
                f"cannot unregister unknown mechanism {name!r}; "
                f"registered: {', '.join(self._specs) or '(none)'}"
            )
        return self._specs.pop(name)

    # -- enumeration ---------------------------------------------------

    def names(self) -> List[str]:
        self._ensure_loaded()
        return list(self._specs)

    def specs(self) -> List[MechanismSpec]:
        self._ensure_loaded()
        return list(self._specs.values())

    def spec(self, name: str) -> MechanismSpec:
        self._ensure_loaded()
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownMechanismError(
                f"unknown mechanism {name!r}; "
                f"choose from: {', '.join(self._specs)}"
            ) from None

    def get(self, name: str) -> Optional[MechanismSpec]:
        self._ensure_loaded()
        return self._specs.get(name)

    def timed_names(self) -> List[str]:
        return [s.name for s in self.specs() if s.timed]

    def untimed_names(self) -> List[str]:
        return [s.name for s in self.specs() if not s.timed]

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._specs)

    # -- derived views -------------------------------------------------

    def make_adapter(self, name: str):
        return self.spec(name).factory()

    def detection_exceptions(self) -> Tuple[type, ...]:
        """Union of every spec's detection exception types, order kept."""
        seen: Dict[type, None] = {}
        for spec in self.specs():
            for exc in spec.detects:
                seen.setdefault(exc, None)
        return tuple(seen)

    def expectations(
        self,
        scenario: str,
        category: str,
        fallback: Optional[Expectation] = None,
    ) -> Dict[str, Expectation]:
        """Per-mechanism oracle row for one scenario."""
        return {
            spec.name: spec.oracle.expectation(scenario, category, fallback)
            for spec in self.specs()
        }

    def fingerprint(self) -> str:
        """Digest of the registered surface — the CI cache key.

        Covers names, cache tokens, lowering declarations and
        oracle contents: anything that changes which cells exist or
        what they should produce changes the fingerprint.
        """
        digest = hashlib.sha256()
        for spec in sorted(self.specs(), key=lambda s: s.name):
            digest.update(
                "|".join(
                    [
                        spec.name,
                        spec.cache_token,
                        spec.lowering or "-",
                        ",".join(
                            f"{cat}={spec.oracle.expectation('', cat).value}"
                            for cat in ORACLE_CATEGORIES
                        ),
                        ",".join(
                            f"{k}={spec.oracle.overrides[k].value}"
                            for k in sorted(spec.oracle.overrides)
                        ),
                    ]
                ).encode()
            )
            digest.update(b"\n")
        return digest.hexdigest()[:16]


#: The process-wide registry every enumeration reads from.
REGISTRY = MechanismRegistry()


def register_mechanism(
    name: str,
    *,
    registry: Optional[MechanismRegistry] = None,
    **spec_kwargs,
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Decorator form: register the decorated factory under ``name``.

    ::

        @register_mechanism("myscheme", cache_token="myscheme-v1", ...)
        class MySchemeRuntime(HeapRuntime): ...
    """

    def decorate(factory: Callable[[], object]) -> Callable[[], object]:
        target = registry if registry is not None else REGISTRY
        target.register(MechanismSpec(name=name, factory=factory, **spec_kwargs))
        return factory

    return decorate


def parse_mechanism(
    value: str, registry: Optional[MechanismRegistry] = None
) -> str:
    """Strictly validate one mechanism name (CLI-facing)."""
    target = registry if registry is not None else REGISTRY
    if value not in target:
        raise UnknownMechanismError(
            f"unknown mechanism {value!r}; "
            f"choose from: {', '.join(target.names())}"
        )
    return value


def parse_mechanisms(
    values: Optional[Sequence[str]],
    registry: Optional[MechanismRegistry] = None,
) -> List[str]:
    """Validate a CLI mechanism list; empty/None means "all registered"."""
    target = registry if registry is not None else REGISTRY
    if not values:
        return target.names()
    return [parse_mechanism(value, target) for value in values]


def registry_fingerprint() -> str:
    """Fingerprint of the default registry (CI cache key helper)."""
    return REGISTRY.fingerprint()
