"""Built-in mechanism registrations.

Imported lazily by the registry's first enumeration.  The oracle tables
here are the single source of the per-mechanism expectations the
adversary corpus used to hard-code in ``_spatial_expectations`` /
``_temporal_expectations``: category defaults plus the per-scenario
quirks (REST catching adjacent-but-not-strided overflows, glibc's
fasttop double-free check, the §VII-C AHC-zeroing escape of plain AOS).

Ordering matters only for presentation: the paper's Fig. 14 set first,
then the §X comparison points, then the four PA-based related-work
plugins.
"""

from __future__ import annotations

from functools import partial

from ..baselines.cheri import CheriFault, CheriRuntime
from ..baselines.cryptsan import CryptSanFault, CryptSanRuntime
from ..baselines.mte import MTEFault, MTERuntime
from ..baselines.pa import PAFault, PARuntime
from ..baselines.pacsan import PACSanFault, PACSanRuntime
from ..baselines.pacstack import PACStackFault, PACStackRuntime
from ..baselines.pactight import PACTightFault, PACTightRuntime
from ..baselines.rest import RedzoneFault, RestRuntime
from ..baselines.watchdog import WatchdogFault, WatchdogRuntime
from ..core.aos import AOSRuntime, PAAOSRuntime
from ..core.exceptions import AOSException
from ..errors import AllocatorError
from ..memory.runtime import BaselineRuntime
from .registry import Expectation, MechanismSpec, REGISTRY, ScenarioOracle

_E = Expectation

# Each factory builds the mechanism's runtime itself.  AOS, PA+AOS and PA
# default to the bit-exact QARMA cipher; the corpus signs with the fast
# PAC function instead, as the other signing runtimes do by default.
_SPECS = (
    MechanismSpec(
        name="baseline",
        factory=BaselineRuntime,
        description="unprotected glibc-style heap (normalisation denominator)",
        paper="Fig. 14 baseline",
        lowering="baseline",
        oracle=ScenarioOracle(
            spatial=_E.KNOWN_ESCAPE,
            temporal=_E.KNOWN_ESCAPE,
            control=_E.KNOWN_ESCAPE,
            metadata=_E.UNSUPPORTED,
            # glibc's fasttop check catches the naive immediate double free.
            overrides={"double-free": _E.MAY_DETECT},
        ),
        cache_token="baseline-v1",
        detects=(AllocatorError,),
        hwcost={"metadata_bytes_per_object": 0, "checks_per_access": 0,
                "alloc_free_ops": 0},
    ),
    MechanismSpec(
        name="rest",
        factory=RestRuntime,
        description="REST-style redzone trip-wires with a quarantine pool",
        paper="REST [8], §IV-C comparison",
        lowering="rest",
        oracle=ScenarioOracle(
            spatial=_E.MAY_DETECT,   # redzone reach depends on stride
            temporal=_E.MAY_DETECT,  # quarantine poisoning
            control=_E.UNSUPPORTED,
            metadata=_E.UNSUPPORTED,
            overrides={
                "heap-overflow-adjacent": _E.MUST_DETECT,
                "adjacent-oob-read": _E.MUST_DETECT,
                "linear-oob-write": _E.MUST_DETECT,
                # The motivating REST blind spot: strided OOB skips redzones.
                "nonlinear-oob-read": _E.KNOWN_ESCAPE,
                "uaf-stale-load": _E.MUST_DETECT,
                "double-free": _E.MUST_DETECT,
            },
        ),
        cache_token="rest-v1",
        detects=(RedzoneFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 128, "checks_per_access": 0,
                "alloc_free_ops": 4},
    ),
    MechanismSpec(
        name="pa",
        factory=partial(PARuntime, pac_mode="fast"),
        description="PARTS-style pointer integrity only (no bounds/liveness)",
        paper="PARTS [21], §II-B",
        lowering="pa",
        oracle=ScenarioOracle(
            spatial=_E.KNOWN_ESCAPE,  # pointer integrity only (§II)
            temporal=_E.KNOWN_ESCAPE,
            control=_E.MUST_DETECT,   # signed return addresses
            metadata=_E.UNSUPPORTED,
            overrides={"double-free": _E.MAY_DETECT},
        ),
        cache_token="pa-v1",
        detects=(PAFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 0, "checks_per_access": 1,
                "alloc_free_ops": 0},
    ),
    MechanismSpec(
        name="mte",
        factory=MTERuntime,
        description="Arm-MTE/ADI-style 4-bit memory tagging",
        paper="§X (memory tagging)",
        lowering="mte",
        oracle=ScenarioOracle(
            spatial=_E.MAY_DETECT,   # 4-bit tags: 1/16 collisions
            temporal=_E.MAY_DETECT,  # retag-on-free may collide
            control=_E.UNSUPPORTED,
            metadata=_E.UNSUPPORTED,
            # §X: 4-bit tags fall to a 16-guess brute force.
            overrides={"metadata-brute-force": _E.KNOWN_ESCAPE},
        ),
        cache_token="mte-v1",
        detects=(MTEFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 2, "checks_per_access": 0,
                "alloc_free_ops": 6},
    ),
    MechanismSpec(
        name="cheri",
        factory=CheriRuntime,
        description="CHERI-style capabilities (no timing lowering: new ISA)",
        paper="§X (capability machines)",
        lowering=None,
        oracle=ScenarioOracle(
            spatial=_E.MUST_DETECT,
            temporal=_E.MAY_DETECT,  # revocation-sweep dependent
            control=_E.UNSUPPORTED,
            metadata=_E.UNSUPPORTED,
        ),
        cache_token="cheri-v1",
        detects=(CheriFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 16, "checks_per_access": 0,
                "alloc_free_ops": 1},
    ),
    MechanismSpec(
        name="watchdog",
        factory=WatchdogRuntime,
        description="Watchdog lock-and-key + bounds check µops",
        paper="Watchdog, Fig. 5a",
        lowering="watchdog",
        oracle=ScenarioOracle(
            spatial=_E.MUST_DETECT,
            temporal=_E.MUST_DETECT,
            control=_E.UNSUPPORTED,
            metadata=_E.UNSUPPORTED,
        ),
        cache_token="watchdog-v1",
        detects=(WatchdogFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 24, "checks_per_access": 1,
                "alloc_free_ops": 4},
    ),
    MechanismSpec(
        name="aos",
        factory=partial(AOSRuntime, pac_mode="fast"),
        description="AOS bounds checking off the critical path (this paper)",
        paper="§IV-§V, Fig. 7",
        lowering="aos",
        oracle=ScenarioOracle(
            spatial=_E.MUST_DETECT,
            temporal=_E.MUST_DETECT,
            control=_E.KNOWN_ESCAPE,  # the return path AOS ignores
            metadata=_E.MUST_DETECT,
            # Plain AOS skips unsigned pointers: the paper's documented
            # escape, reported by name — never a silent pass.
            overrides={"ahc-zero-escape": _E.KNOWN_ESCAPE},
        ),
        cache_token="aos-v1",
        detects=(AOSException, AllocatorError),
        hwcost={"metadata_bytes_per_object": 8, "checks_per_access": 0,
                "alloc_free_ops": 4},
    ),
    MechanismSpec(
        name="pa+aos",
        factory=partial(PAAOSRuntime, pac_mode="fast"),
        description="AOS + PA integrity: autm on load closes §VII-C",
        paper="§VII-B, Fig. 13",
        lowering="pa+aos",
        oracle=ScenarioOracle(
            spatial=_E.MUST_DETECT,
            temporal=_E.MUST_DETECT,
            control=_E.MUST_DETECT,
            metadata=_E.MUST_DETECT,
        ),
        cache_token="pa+aos-v1",
        detects=(AOSException, PAFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 8, "checks_per_access": 1,
                "alloc_free_ops": 4},
    ),
    # ---------------------------------------------- PA-based related work
    MechanismSpec(
        name="cryptsan",
        factory=CryptSanRuntime,
        description="CryptSan-style per-object MACs checked on every access",
        paper="CryptSan (PAPERS.md related work)",
        lowering="cryptsan",
        oracle=ScenarioOracle(
            spatial=_E.MUST_DETECT,   # granule tags catch strided OOB too
            temporal=_E.MUST_DETECT,  # untag-on-free, version-bump on reuse
            control=_E.UNSUPPORTED,
            metadata=_E.MUST_DETECT,  # a flipped MAC bit misses every tag
            overrides={"ahc-zero-escape": _E.UNSUPPORTED},  # no AHC field
        ),
        cache_token="cryptsan-v1",
        detects=(CryptSanFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 8, "checks_per_access": 2,
                "alloc_free_ops": 6},
    ),
    MechanismSpec(
        name="pacsan",
        factory=PACSanRuntime,
        description="PACSan-style shadow-metadata PAC checks on every access",
        paper="PACSan (PAPERS.md related work)",
        lowering="pacsan",
        oracle=ScenarioOracle(
            spatial=_E.MUST_DETECT,   # shadow bounds checked per access
            temporal=_E.MUST_DETECT,  # shadow liveness bit
            control=_E.UNSUPPORTED,
            metadata=_E.MUST_DETECT,
            overrides={"ahc-zero-escape": _E.UNSUPPORTED},
        ),
        cache_token="pacsan-v1",
        detects=(PACSanFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 16, "checks_per_access": 2,
                "alloc_free_ops": 4},
    ),
    MechanismSpec(
        name="pactight",
        factory=PACTightRuntime,
        description="PACTight pointer-identity sealing (no bounds checks)",
        paper="PACTight (PAPERS.md related work)",
        lowering="pactight",
        oracle=ScenarioOracle(
            spatial=_E.KNOWN_ESCAPE,  # sealed pointers wander freely
            temporal=_E.MUST_DETECT,  # identity tag destroyed on free
            control=_E.MUST_DETECT,   # return addresses sealed too
            metadata=_E.MUST_DETECT,
            overrides={"ahc-zero-escape": _E.UNSUPPORTED},
        ),
        cache_token="pactight-v1",
        detects=(PACTightFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 8, "checks_per_access": 1,
                "alloc_free_ops": 3},
    ),
    MechanismSpec(
        name="pacstack",
        factory=PACStackRuntime,
        description="PACStack authenticated return-address chain, raw heap",
        paper="PACStack (PAPERS.md related work)",
        lowering="pacstack",
        oracle=ScenarioOracle(
            spatial=_E.KNOWN_ESCAPE,   # heap untouched: baseline behaviour
            temporal=_E.KNOWN_ESCAPE,
            control=_E.MUST_DETECT,    # the one thing it protects
            metadata=_E.UNSUPPORTED,
            overrides={"double-free": _E.MAY_DETECT},  # glibc fasttop
        ),
        cache_token="pacstack-v1",
        detects=(PACStackFault, AllocatorError),
        hwcost={"metadata_bytes_per_object": 0, "checks_per_access": 0,
                "alloc_free_ops": 0},
    ),
)

for _spec in _SPECS:
    REGISTRY.register(_spec)
