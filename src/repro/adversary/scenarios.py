"""The adversarial scenario corpus: named exploits with expected verdicts.

Where :mod:`repro.faults` perturbs *simulator state* at random seams, this
module takes the attacker's seat: each scenario is a deterministic, seeded
recipe for one named exploit from the paper's §VII security analysis —
heap overflow into the adjacent chunk, adjacent, linear and non-linear
OOB, intra-object overflow, use-after-free with and without reallocation
of the freed slot, double and invalid free, House of Spirit (Fig. 1), PAC
forgery, replay and brute force, the §VII-C AHC-zeroing escape, and
return-address corruption.  It is the repo's one attack model: the chaos
campaign (``repro attack``) sweeps :data:`CHAOS_SCENARIOS` and the §VII
detection matrix (``repro security``) is every recipe in
:data:`SCENARIOS` against every registered mechanism.

A scenario *instance* carries two executable forms:

- a **step recipe** the chaos campaign interprets against any registered
  mechanism's runtime (:mod:`repro.memory.runtime` surface) to obtain an
  observed verdict (the attack really runs: allocate, corrupt, dereference);
- a **trace compilation** (:func:`scenario_trace` /
  :func:`compile_scenario`) lowering the same access pattern to a
  :class:`~repro.isa.program.Program`, so the timing kernels can run the
  exploit and the kernel-equivalence suite can assert byte-identical
  verdicts (``validation_faults`` included) across kernels.

Every instance also carries an **expected-verdict oracle**: for each
mechanism, whether the scenario *must* be detected (the paper or the
mechanism's model claims it), *may* be detected (probabilistic, e.g. MTE's
4-bit tags), is a *known escape* (the mechanism's documented blind spot —
never a silent pass, always reported by name), or is *unsupported* (the
runtime does not model the required attacker primitive).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..mechanisms.registry import Expectation, REGISTRY
from ..workloads import get_profile
from ..workloads.generator import (
    FLAG_MISPREDICTED,
    TAG_ALU,
    TAG_BR,
    TAG_CALL,
    TAG_FREE,
    TAG_LD,
    TAG_MALLOC,
    TAG_PTR_ARITH,
    TAG_RET,
    TAG_ST,
    TAG_UST,
    EventColumns,
    WorkloadTrace,
)

# ``Expectation`` is re-exported here for its historical import path; it
# now lives with the registry so MechanismSpec oracles can use it.


#: Step opcodes the chaos interpreter understands.
STEP_OPS = (
    "malloc",     # env[obj] = runtime.malloc(size)
    "free",       # runtime.free(env[obj]); env keeps the stale copy
    "load",       # runtime.load(runtime.offset(env[obj], offset))
    "store",      # runtime.store(runtime.offset(env[obj], offset), value)
    "alias",      # env[obj] = env[src]  (capture a dangling/replayable copy)
    "zero-ahc",   # env[obj] = runtime.forge_ahc_zero(env[obj])   [signing]
    "forge-pac",  # env[obj] = runtime.forge_pac(env[obj], wrong) [signing]
    "call",       # runtime.call()                       [call-stack models]
    "ret",        # runtime.ret()                        [call-stack models]
    "smash-ret",  # runtime.smash_ret(value)             [call-stack models]
    "craft",      # env[obj] = layout.<region> + offset  (an unsigned integer)
    "raw-write",  # runtime.raw_write(env[obj] + offset, value)
    "brute-force",  # up to ``value`` loads of forge_pac/forge_tag guesses
)


@dataclass(frozen=True)
class Step:
    """One attacker action, interpreted against a mechanism's runtime."""

    op: str
    obj: Optional[str] = None
    src: Optional[str] = None
    offset: int = 0
    size: int = 0
    value: int = 0
    #: ``craft`` only: the :class:`~repro.memory.layout.AddressSpaceLayout`
    #: field the crafted address is an offset from.
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in STEP_OPS:
            raise WorkloadError(f"unknown scenario step op {self.op!r}")


@dataclass(frozen=True)
class ScenarioInstance:
    """One seeded, fully materialised exploit scenario."""

    name: str
    #: Violation class: "spatial" | "temporal" | "metadata".
    category: str
    description: str
    steps: Tuple[Step, ...]
    #: mechanism name -> expectation; mechanisms not listed get ``default``.
    expectations: Mapping[str, Expectation] = field(default_factory=dict)
    default: Expectation = Expectation.KNOWN_ESCAPE
    seed: int = 7
    paper_ref: str = ""

    def expected(self, mechanism: str) -> Expectation:
        return self.expectations.get(mechanism, self.default)


def _oracle(scenario: str, category: str) -> Dict[str, Expectation]:
    """The per-mechanism expectation row, resolved from the registry.

    Each :class:`~repro.mechanisms.registry.MechanismSpec` carries its
    category defaults and per-scenario overrides, so a newly registered
    mechanism automatically gets a row in every scenario's oracle.  The
    row is materialised at scenario-build time: plugins registered before
    the campaign runs are covered.
    """
    return REGISTRY.expectations(scenario, category)


# ------------------------------------------------------------- the corpus
#
# Every builder is a pure function of its seed: object sizes and payload
# values come from a seeded RNG; the step sequence itself is fixed so the
# expected-verdict oracle stays meaningful across seeds.


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"adversary:{name}:{seed}")


def _size(rng: random.Random) -> int:
    return rng.choice((32, 48, 64, 96, 128))


def heap_overflow_adjacent(seed: int = 7) -> ScenarioInstance:
    rng = _rng("heap-overflow-adjacent", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        Step("malloc", obj="neighbour", size=size),
        # One element past the end: lands in the adjacent chunk's header/
        # payload (Fig. 12 line 7).
        Step("store", obj="victim", offset=size + 8, value=rng.getrandbits(32)),
    )
    return ScenarioInstance(
        name="heap-overflow-adjacent",
        category="spatial",
        description="contiguous overflow from one chunk into its neighbour",
        steps=steps,
        expectations=_oracle("heap-overflow-adjacent", "spatial"),
        seed=seed,
        paper_ref="§VII-A, Fig. 12",
    )


def adjacent_oob_read(seed: int = 7) -> ScenarioInstance:
    rng = _rng("adjacent-oob-read", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        Step("malloc", obj="neighbour", size=size),
        # ``varA = ptr[N+1]``: the first byte past the end (Fig. 12 line 6).
        Step("load", obj="victim", offset=size),
    )
    return ScenarioInstance(
        name="adjacent-oob-read",
        category="spatial",
        description="read of the first byte past the allocation end",
        steps=steps,
        expectations=_oracle("adjacent-oob-read", "spatial"),
        seed=seed,
        paper_ref="§VII-A, Fig. 12 line 6",
    )


def linear_oob_write(seed: int = 7) -> ScenarioInstance:
    rng = _rng("linear-oob-write", seed)
    size = _size(rng)
    # A memset-style linear sweep that runs off the end: the first OOB
    # touch is adjacent, so redzone schemes catch it too.
    steps: List[Step] = [Step("malloc", obj="buf", size=size)]
    for offset in range(size - 16, size + 24, 8):
        steps.append(Step("store", obj="buf", offset=offset, value=rng.getrandbits(32)))
    return ScenarioInstance(
        name="linear-oob-write",
        category="spatial",
        description="linear overflow sweeping past the allocation end",
        steps=tuple(steps),
        expectations=_oracle("linear-oob-write", "spatial"),
        seed=seed,
        paper_ref="§I, §VII-A",
    )


def nonlinear_oob_read(seed: int = 7) -> ScenarioInstance:
    rng = _rng("nonlinear-oob-read", seed)
    size = _size(rng)
    stride = 16 * 1024 + rng.randrange(0, 4096, 8)
    steps = (
        Step("malloc", obj="base", size=size),
        Step("malloc", obj="decoy", size=size),
        # A strided index jumps far past any redzone — the >60 %-of-CVEs
        # class trip-wire schemes cannot stop (§I).
        Step("load", obj="base", offset=stride),
    )
    return ScenarioInstance(
        name="nonlinear-oob-read",
        category="spatial",
        description="non-linear (strided) OOB read far past the redzone",
        steps=steps,
        expectations=_oracle("nonlinear-oob-read", "spatial"),
        seed=seed,
        paper_ref="§I (non-adjacent overflows), §VII-A",
    )


def intra_object_overflow(seed: int = 7) -> ScenarioInstance:
    rng = _rng("intra-object-overflow", seed)
    # struct { char buf[24]; void (*fp)(); } — the overflow stays inside
    # the allocation, so object-granularity bounds never trip.
    steps = (
        Step("malloc", obj="record", size=64),
        Step("store", obj="record", offset=32, value=rng.getrandbits(32)),
    )
    return ScenarioInstance(
        name="intra-object-overflow",
        category="spatial",
        description="field-to-field overflow inside one allocation",
        steps=steps,
        # Allocation-granularity protection (AOS included) cannot see this:
        # a known escape for *every* mechanism in the matrix.
        expectations={},
        default=Expectation.KNOWN_ESCAPE,
        seed=seed,
        paper_ref="§III-D (object-granularity threat model)",
    )


def uaf_stale_load(seed: int = 7) -> ScenarioInstance:
    rng = _rng("uaf-stale-load", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        Step("alias", obj="stale", src="victim"),
        Step("free", obj="victim"),
        Step("load", obj="stale"),
    )
    return ScenarioInstance(
        name="uaf-stale-load",
        category="temporal",
        description="dereference of a dangling copy, freed slot not reused",
        steps=steps,
        expectations=_oracle("uaf-stale-load", "temporal"),
        seed=seed,
        paper_ref="§VII-A, Fig. 12 line 14",
    )


def uaf_after_realloc(seed: int = 7) -> ScenarioInstance:
    rng = _rng("uaf-after-realloc", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        Step("alias", obj="stale", src="victim"),
        Step("free", obj="victim"),
        # Same size class: the allocator hands the freed slot to the new
        # object (tcache LIFO), so the stale pointer aliases live data.
        Step("malloc", obj="reuse", size=size),
        Step("store", obj="stale", value=rng.getrandbits(32)),
    )
    return ScenarioInstance(
        name="uaf-after-realloc",
        category="temporal",
        description="stale pointer write after the freed slot is reallocated",
        steps=steps,
        expectations=_oracle("uaf-after-realloc", "temporal"),
        seed=seed,
        paper_ref="§VII-A (AHC bump on reallocation)",
    )


def double_free(seed: int = 7) -> ScenarioInstance:
    rng = _rng("double-free", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        Step("alias", obj="stale", src="victim"),
        Step("free", obj="victim"),
        Step("free", obj="stale"),
    )
    return ScenarioInstance(
        name="double-free",
        category="temporal",
        description="the same chunk freed twice through a stale copy",
        steps=steps,
        expectations=_oracle("double-free", "temporal"),
        seed=seed,
        paper_ref="§IV-D (bndclr), Fig. 12 lines 16-19",
    )


def invalid_free(seed: int = 7) -> ScenarioInstance:
    steps = (
        Step("malloc", obj="live", size=32),
        # Misaligned and never allocated: free() of a crafted heap address.
        Step("craft", obj="bogus", region="heap_base", offset=0x100000 + 8),
        Step("free", obj="bogus"),
    )
    return ScenarioInstance(
        name="invalid-free",
        category="temporal",
        description="free() of an address that was never allocated",
        steps=steps,
        # glibc's own free() sanity checks reject it: every mechanism,
        # the unprotected baseline included, must detect it.
        expectations={},
        default=Expectation.MUST_DETECT,
        seed=seed,
        paper_ref="§IV-D (bndclr)",
    )


def house_of_spirit(seed: int = 7) -> ScenarioInstance:
    steps = (
        # A fake fast_chunk in writable globals whose size fields pass
        # free()'s sanity tests (Fig. 1 lines 11-12).
        Step("craft", obj="fake", region="globals_base", offset=0x1000),
        Step("raw-write", obj="fake", offset=8, value=0x40),
        Step("raw-write", obj="fake", offset=0x40 + 8, value=0x40),
        # free() the fake payload into a fastbin; the next malloc of that
        # size returns attacker-controlled memory.
        Step("craft", obj="payload", region="globals_base", offset=0x1000 + 16),
        Step("free", obj="payload"),
        Step("malloc", obj="stolen", size=0x30),
    )
    return ScenarioInstance(
        name="house-of-spirit",
        category="temporal",
        description="free() of a crafted fake chunk, then malloc returns it",
        steps=steps,
        # A free() of memory the allocator never handed out: the liveness
        # machinery (bndclr, lock/key, quarantine) decides each claim.
        expectations=_oracle("house-of-spirit", "temporal"),
        seed=seed,
        paper_ref="Fig. 1, §II-A",
    )


def pac_forgery(seed: int = 7) -> ScenarioInstance:
    rng = _rng("pac-forgery", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        # XOR with a non-zero mask guarantees a wrong PAC regardless of
        # seed; with 16-bit PACs a forged guess succeeds w.p. ~2^-16.
        Step("forge-pac", obj="victim", value=0x5A5A | (rng.getrandbits(12) << 1)),
        Step("load", obj="victim"),
    )
    return ScenarioInstance(
        name="pac-forgery",
        category="metadata",
        description="attacker rewrites the PAC field of a signed pointer",
        steps=steps,
        expectations=_oracle("pac-forgery", "metadata"),
        default=Expectation.UNSUPPORTED,  # no PAC field to forge
        seed=seed,
        paper_ref="§VII-C",
    )


def pac_replay(seed: int = 7) -> ScenarioInstance:
    rng = _rng("pac-replay", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        # The replay capture: a byte-exact copy of the *validly signed*
        # pointer, stashed before the object dies.
        Step("alias", obj="replayed", src="victim"),
        Step("free", obj="victim"),
        Step("malloc", obj="reuse", size=size),
        # Replaying the old signature against the recycled slot: the AHC
        # was bumped on reallocation, so the stale signature misses.
        Step("load", obj="replayed"),
        Step("store", obj="replayed", value=rng.getrandbits(32)),
    )
    return ScenarioInstance(
        name="pac-replay",
        category="metadata",
        description="replay of a previously valid signed pointer after reuse",
        steps=steps,
        # Temporal-category oracle: the replayed signature dies with the
        # allocation's metadata generation, so the same liveness machinery
        # decides each mechanism's claim.
        expectations=_oracle("pac-replay", "temporal"),
        seed=seed,
        paper_ref="§VII-C (signature replay), §VII-A",
    )


def ahc_zero_escape(seed: int = 7) -> ScenarioInstance:
    rng = _rng("ahc-zero-escape", seed)
    size = _size(rng)
    steps = (
        Step("malloc", obj="victim", size=size),
        # §VII-C: clear the AHC so the pointer looks unsigned and the
        # Fig. 6 selective check skips it entirely.
        Step("zero-ahc", obj="victim"),
        Step("load", obj="victim", offset=4096 + rng.randrange(0, 2048, 8)),
    )
    return ScenarioInstance(
        name="ahc-zero-escape",
        category="metadata",
        description="AHC zeroed to dodge selective bounds checking (§VII-C)",
        steps=steps,
        expectations=_oracle("ahc-zero-escape", "metadata"),
        default=Expectation.UNSUPPORTED,  # no AHC field to zero
        seed=seed,
        paper_ref="§VII-C, Fig. 13",
    )


def metadata_brute_force(seed: int = 7) -> ScenarioInstance:
    rng = _rng("metadata-brute-force", seed)
    steps = (
        Step("malloc", obj="victim", size=_size(rng)),
        # §X vs §VII-E: 4-bit tags fall within 16 guesses; a 16-bit PAC
        # survives 256 (45 425 attempts for a 50 % hit).
        Step("brute-force", obj="victim", value=256),
    )
    return ScenarioInstance(
        name="metadata-brute-force",
        category="metadata",
        description="256 forged guesses of the pointer's tag or PAC",
        steps=steps,
        expectations=_oracle("metadata-brute-force", "metadata"),
        default=Expectation.UNSUPPORTED,  # no guessable pointer metadata
        seed=seed,
        paper_ref="§VII-E, §X",
    )


def ret_addr_corruption(seed: int = 7) -> ScenarioInstance:
    rng = _rng("ret-addr-corruption", seed)
    steps = (
        Step("call"),
        Step("call"),
        # Attacker data-write over the innermost saved return address —
        # the control-flow path AOS deliberately leaves to PA (§VII-B).
        Step("smash-ret", value=0x6A0000 + rng.randrange(0, 4096, 16)),
        Step("ret"),
        Step("ret"),
    )
    return ScenarioInstance(
        name="ret-addr-corruption",
        category="control",
        description="saved return address overwritten before the return",
        steps=steps,
        expectations=_oracle("ret-addr-corruption", "control"),
        # Mechanisms without a call-stack model yield ``unmodeled``.
        default=Expectation.UNSUPPORTED,
        seed=seed,
        paper_ref="§VII-B (PA return-address signing), PACStack/PACTight",
    )


#: The corpus, in presentation order (the rows of the §VII detection
#: matrix).  Keys are the scenario names used by the CLI, the chaos
#: campaign, checkpoints and the scenario-matrix JSON.
SCENARIOS: Dict[str, Callable[[int], ScenarioInstance]] = {
    "heap-overflow-adjacent": heap_overflow_adjacent,
    "adjacent-oob-read": adjacent_oob_read,
    "linear-oob-write": linear_oob_write,
    "nonlinear-oob-read": nonlinear_oob_read,
    "intra-object-overflow": intra_object_overflow,
    "uaf-stale-load": uaf_stale_load,
    "uaf-after-realloc": uaf_after_realloc,
    "double-free": double_free,
    "invalid-free": invalid_free,
    "house-of-spirit": house_of_spirit,
    "pac-forgery": pac_forgery,
    "pac-replay": pac_replay,
    "ahc-zero-escape": ahc_zero_escape,
    "metadata-brute-force": metadata_brute_force,
    "ret-addr-corruption": ret_addr_corruption,
}

#: The chaos campaign's default sweep (``repro attack`` without
#: ``--scenarios``), in order.  The committed ``security_matrix.json`` and
#: the ``campaigns`` benchmark digest exactly this sweep.
CHAOS_SCENARIOS: Tuple[str, ...] = (
    "heap-overflow-adjacent",
    "linear-oob-write",
    "nonlinear-oob-read",
    "intra-object-overflow",
    "uaf-stale-load",
    "uaf-after-realloc",
    "double-free",
    "pac-forgery",
    "pac-replay",
    "ahc-zero-escape",
    "ret-addr-corruption",
)


def build_scenario(name: str, seed: int = 7) -> ScenarioInstance:
    """Materialise one named scenario at ``seed``."""
    builder = SCENARIOS.get(name)
    if builder is None:
        raise WorkloadError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        )
    return builder(seed)


def parse_scenarios(names: Optional[Sequence[str]]) -> List[str]:
    """Validate a CLI scenario list (None = :data:`CHAOS_SCENARIOS`)."""
    if not names:
        return list(CHAOS_SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise WorkloadError(
                f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
            )
    return list(names)


# ----------------------------------------------------- Program compilation


#: Live objects pre-allocated around the scenario so its chunks sit in a
#: realistic neighbourhood (and the AOS lowering warms the HBT).
_PREAMBLE_OBJECTS = 8
_PREAMBLE_SIZE = 64
#: Filler events between attacker steps: background compute keeps the
#: scoreboard/ROB machinery exercised the way real programs do.
_PAD_EVENTS = 24


def scenario_trace(
    instance: ScenarioInstance, scale: int = 8, profile: str = "gcc"
) -> WorkloadTrace:
    """Compile a scenario's access pattern to a :class:`WorkloadTrace`.

    The trace reproduces the recipe's allocation/access sequence in the
    event columns of :mod:`repro.workloads.generator`, so the standard
    compiler passes lower it to a :class:`~repro.isa.program.Program` per
    mechanism and the timing kernels execute the exploit for real (OOB and
    stale accesses surface as ``validation_faults``).  Steps the trace ISA
    cannot express (PAC/AHC forging, crafted addresses and raw writes,
    brute force, a second ``free`` or a ``free`` of a crafted address)
    lower to pointer arithmetic so the instruction stream still carries
    their cost.
    """
    rng = random.Random(f"adversary-trace:{instance.name}:{instance.seed}")
    base_profile = get_profile(profile)
    trace_profile = dataclasses.replace(
        base_profile, name=f"attack:{instance.name}"
    )

    events = EventColumns()
    add = events.add

    def pad() -> None:
        for _ in range(_PAD_EVENTS):
            draw = rng.random()
            if draw < 0.55:
                add(TAG_ALU)
            elif draw < 0.75:
                add(TAG_BR, flags=FLAG_MISPREDICTED if rng.random() < 0.05 else 0)
            else:
                oid = rng.randrange(_PREAMBLE_OBJECTS)
                add(TAG_LD, oid, rng.randrange(0, _PREAMBLE_SIZE - 8, 8))

    ids: Dict[str, int] = {}
    next_id = _PREAMBLE_OBJECTS
    freed: set = set()

    pad()
    for step in instance.steps:
        if step.op == "malloc":
            ids[step.obj] = next_id
            add(TAG_MALLOC, next_id, size=step.size)
            next_id += 1
        elif step.op == "alias":
            ids[step.obj] = ids[step.src]
        elif step.op == "free":
            oid = ids.get(step.obj)
            if oid is None or oid in freed:
                # A second free, or a free of a crafted address, cannot
                # lower (the heap executes for real at lowering time);
                # keep its cost.
                add(TAG_PTR_ARITH)
            else:
                freed.add(oid)
                add(TAG_FREE, oid)
        elif step.op == "load":
            add(TAG_LD, ids[step.obj], step.offset)
        elif step.op == "store":
            add(TAG_ST, ids[step.obj], step.offset)
        elif step.op == "call":
            add(TAG_CALL)
        elif step.op == "ret":
            add(TAG_RET)
        elif step.op == "smash-ret":
            # The overwrite itself is a plain data store into the stack's
            # saved-return slot; the *detection* cost sits in the return.
            add(TAG_UST)
        else:  # forging, crafting, raw writes: pointer arithmetic
            add(TAG_PTR_ARITH)
        pad()

    return WorkloadTrace(
        profile=trace_profile,
        preamble_ids=range(_PREAMBLE_OBJECTS),
        preamble_sizes=[_PREAMBLE_SIZE] * _PREAMBLE_OBJECTS,
        **events.columns,
        scale=scale,
        seed=instance.seed,
    )


def compile_scenario(
    name: str,
    mechanism: str = "aos",
    seed: int = 7,
    scale: int = 8,
    config=None,
):
    """Lower one named scenario to a runnable program for ``mechanism``.

    Returns the :class:`~repro.compiler.passes.LoweredWorkload`; feed it to
    :class:`~repro.cpu.core.Simulator` with either kernel.  The kernel-
    equivalence suite pins byte-identical results across kernels on these
    programs.
    """
    from ..compiler import lower_trace
    from ..experiments.common import scaled_config

    instance = build_scenario(name, seed=seed)
    trace = scenario_trace(instance, scale=scale)
    return lower_trace(trace, mechanism, config=config or scaled_config(mechanism, scale))


def export_scenario(
    name: str,
    path,
    seed: int = 7,
    scale: int = 8,
    profile: str = "gcc",
) -> WorkloadTrace:
    """Compile one named scenario and export it as a versioned trace file.

    The exploit's access pattern — stale loads into freed chunks, OOB
    offsets past the object bound — is *valid* trace schema (the importer
    admits attack traces), so a re-ingested scenario lowers and simulates
    identically to the direct :func:`compile_scenario` path; see
    ``tests/test_traces_roundtrip.py``.
    """
    from ..traces import record_trace

    instance = build_scenario(name, seed=seed)
    trace = scenario_trace(instance, scale=scale, profile=profile)
    record_trace(
        trace,
        path,
        generator={
            "source": "scenario",
            "scenario": name,
            "seed": seed,
            "scale": scale,
            "profile": profile,
        },
    )
    return trace
