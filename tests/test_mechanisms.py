"""Mechanism plugin registry: round-trips, strict parsing, new baselines.

The registry is process-wide state, so every test that registers a dummy
mechanism unregisters it in a ``finally`` — the builtin twelve must be
exactly what every other test file sees.
"""

import importlib.util
import pathlib

import pytest

from repro.adversary.chaos import (
    ChaosCampaign,
    ChaosConfig,
    make_adapter,
    run_scenario_cell,
)
from repro.adversary.scenarios import CHAOS_SCENARIOS, SCENARIOS, build_scenario
from repro.baselines.cheri import CheriFault, CheriRuntime
from repro.baselines.cryptsan import CryptSanFault, CryptSanRuntime
from repro.baselines.mte import MTERuntime, TaggedPointer
from repro.baselines.pa import PARuntime
from repro.baselines.pacsan import PACSanFault, PACSanRuntime
from repro.baselines.pacstack import PACStackFault, PACStackRuntime
from repro.baselines.pactight import PACTightFault, PACTightRuntime
from repro.baselines.watchdog import WatchdogFault, WatchdogRuntime
from repro.compiler.passes import resolve_lowering
from repro.errors import WorkloadError
from repro.experiments.common import RunSettings
from repro.experiments.parallel import CellSpec, cell_fingerprint
from repro.experiments.pareto import timed_mechanisms
from repro.mechanisms import (
    REGISTRY,
    MechanismRegistryError,
    MechanismSpec,
    ScenarioOracle,
    UnknownMechanismError,
    parse_mechanism,
    parse_mechanisms,
    register_mechanism,
    registry_fingerprint,
)
from repro.memory.runtime import BaselineRuntime, HeapRuntime

BUILTIN = (
    "baseline", "rest", "pa", "mte", "cheri", "watchdog", "aos", "pa+aos",
    "cryptsan", "pacsan", "pactight", "pacstack",
)


class DummyRuntime(HeapRuntime):
    name = "dummy"


def dummy_spec(**overrides) -> MechanismSpec:
    kwargs = dict(
        name="dummy",
        factory=DummyRuntime,
        description="test-only plugin",
        lowering="baseline",
        cache_token="dummy-v1",
    )
    kwargs.update(overrides)
    return MechanismSpec(**kwargs)


# ------------------------------------------------------------- enumeration


class TestBuiltinRegistry:
    def test_canonical_order(self):
        assert tuple(REGISTRY.names()) == BUILTIN

    def test_every_spec_constructs_its_adapter(self):
        for name in REGISTRY.names():
            adapter = make_adapter(name)
            assert adapter.name == name

    def test_mapping_view_is_live_and_read_only(self):
        assert set(REGISTRY) == set(BUILTIN)
        assert len(REGISTRY) == len(BUILTIN)
        assert "aos" in REGISTRY
        with pytest.raises(TypeError):
            REGISTRY["rogue"] = object

    def test_cheri_is_the_only_untimed_builtin(self):
        assert REGISTRY.untimed_names() == ["cheri"]
        assert set(REGISTRY.timed_names()) == set(BUILTIN) - {"cheri"}

    def test_fingerprint_is_stable_hex16(self):
        first = registry_fingerprint()
        assert first == registry_fingerprint()
        assert len(first) == 16
        int(first, 16)  # hex digest prefix

    def test_detection_union_covers_every_spec(self):
        union = REGISTRY.detection_exceptions()
        for spec in REGISTRY.specs():
            for exc in spec.detects:
                assert exc in union

    def test_global_registry_still_serves_builtins(self):
        """The process-wide registry serves the builtin set the rest of
        the repo (CLI choices, sweeps) enumerates."""
        assert "aos" in REGISTRY.names()


# ------------------------------------------------------- runtime surface

#: Which registered runtimes expose each optional attacker primitive.
_CALL_STACK = {"baseline", "aos", "pa", "pa+aos", "pactight", "pacstack"}
PRIMITIVES = {
    "call": _CALL_STACK,
    "ret": _CALL_STACK,
    "smash_ret": _CALL_STACK,
    "forge_pac": {"aos", "pa+aos", "cryptsan", "pacsan", "pactight"},
    "forge_ahc_zero": {"aos", "pa+aos"},
    "forge_tag": {"mte"},
    "autm": {"pa+aos"},
}


class TestRuntimeSurface:
    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_optional_primitives(self, name):
        runtime = make_adapter(name)
        assert isinstance(runtime, HeapRuntime)  # the factory's own product
        exposed = {p for p in PRIMITIVES if hasattr(runtime, p)}
        assert exposed == {p for p, owners in PRIMITIVES.items() if name in owners}

    @pytest.mark.parametrize(
        "factory, fault",
        [
            (WatchdogRuntime, WatchdogFault),
            (CryptSanRuntime, CryptSanFault),
            (PACSanRuntime, PACSanFault),
            (PACTightRuntime, PACTightFault),
        ],
    )
    def test_crafted_integer_raises_the_runtimes_fault(self, factory, fault):
        runtime = factory()
        with pytest.raises(fault, match="crafted pointer"):
            runtime.load(0x1000)
        with pytest.raises(fault, match="crafted pointer"):
            runtime.store(0x1000, 1)
        with pytest.raises(fault, match="crafted pointer"):
            runtime.free(0x1000)
        with pytest.raises(fault, match="crafted pointer"):
            runtime.offset(0x1000, 8)

    def test_mte_reads_a_crafted_integer_as_tag_zero(self):
        runtime = MTERuntime()
        assert runtime.offset(0x1000, 8) == TaggedPointer(0x1008, 0)
        runtime.store(0x1000, 7)  # untagged memory is tag 0: no fault
        assert runtime.load(0x1000) == 7

    def test_cheri_reads_a_crafted_integer_as_an_untagged_capability(self):
        runtime = CheriRuntime()
        cap = runtime.offset(0x1000, 8)
        assert (cap.address, cap.tag) == (0x1008, False)
        with pytest.raises(CheriFault, match="tag violation"):
            runtime.load(cap)
        with pytest.raises(CheriFault, match="tag violation"):
            runtime.free(0x1000)


# ----------------------------------------------------------- strict errors


class TestStrictErrors:
    def test_unknown_spec_lists_choices(self):
        with pytest.raises(UnknownMechanismError, match="choose from: baseline"):
            REGISTRY.spec("sgx")

    def test_make_adapter_unknown_is_not_a_bare_keyerror(self):
        with pytest.raises(UnknownMechanismError):
            make_adapter("sgx")

    def test_parse_mechanism_strict(self):
        assert parse_mechanism("aos") == "aos"
        with pytest.raises(UnknownMechanismError, match="pactight"):
            parse_mechanism("pactite")

    def test_parse_mechanisms_empty_means_all(self):
        assert parse_mechanisms(None) == list(BUILTIN)
        assert parse_mechanisms(()) == list(BUILTIN)
        assert parse_mechanisms(["pa", "aos"]) == ["pa", "aos"]

    def test_duplicate_name_raises(self):
        with pytest.raises(MechanismRegistryError, match="already registered"):
            REGISTRY.register(
                dummy_spec(name="baseline", cache_token="rogue-v1")
            )

    def test_cache_token_collision_raises(self):
        with pytest.raises(MechanismRegistryError, match="cache token"):
            REGISTRY.register(dummy_spec(cache_token="aos-v1"))

    def test_unregister_unknown_raises(self):
        with pytest.raises(MechanismRegistryError, match="cannot unregister"):
            REGISTRY.unregister("sgx")

    def test_spec_requires_cache_token(self):
        with pytest.raises(MechanismRegistryError, match="cache_token"):
            MechanismSpec(name="x", factory=DummyRuntime, cache_token="")

    def test_cli_rejects_unknown_mechanism_with_exit_2(self, capsys):
        from repro.cli import main

        assert main(["trace", "--mechanism", "bogus"]) == 2
        assert "choose from" in capsys.readouterr().err
        assert main(["attack", "--mechanisms", "aos", "bogus"]) == 2


# ------------------------------------------------------------- round-trips


class TestDummyPluginRoundTrip:
    """A dummy registered via the decorator shows up everywhere at once."""

    def test_dummy_joins_every_enumeration(self):
        baseline_cell = cell_fingerprint(RunSettings(), CellSpec("gcc", "baseline"))
        before = registry_fingerprint()

        @register_mechanism(
            "dummy",
            description="test-only plugin",
            lowering="baseline",
            cache_token="dummy-v1",
            oracle=ScenarioOracle(),
        )
        class _Dummy(HeapRuntime):
            name = "dummy"

        try:
            # CLI choices.
            assert parse_mechanism("dummy") == "dummy"
            assert "dummy" in parse_mechanisms(None)
            # Live registry view + factory.
            assert "dummy" in REGISTRY
            assert make_adapter("dummy").name == "dummy"
            # Lowering alias resolves to the baseline timing model.
            assert resolve_lowering("dummy") == "baseline"
            assert "dummy" in timed_mechanisms()
            # Chaos sweep: the default config picks the dummy up at run
            # time (serial run — worker processes re-import builtins only).
            config = ChaosConfig(scenarios=("double-free",))
            assert "dummy" in config.mechanism_names()
            matrix = ChaosCampaign(config).run()
            cell = matrix.cell("double-free", "dummy")
            assert cell is not None and cell.verdict != "missed-detection"
            # Cache fingerprints: the dummy's cells are keyed by its own
            # token, and the registry fingerprint itself changed.
            dummy_cell = cell_fingerprint(RunSettings(), CellSpec("gcc", "dummy"))
            assert dummy_cell != baseline_cell
            assert registry_fingerprint() != before
        finally:
            REGISTRY.unregister("dummy")

        assert "dummy" not in REGISTRY
        assert registry_fingerprint() == before

    def test_oracle_rows_resolve_for_plugins(self):
        REGISTRY.register(dummy_spec())
        try:
            row = REGISTRY.expectations("double-free", "temporal")
            assert row["dummy"].value == "known-escape"
            instance = build_scenario("double-free")
            assert instance.expected("aos").value == "must-detect"
        finally:
            REGISTRY.unregister("dummy")

    def test_chaos_config_rejects_unknown_mechanism(self):
        with pytest.raises(WorkloadError, match="unknown mechanism"):
            ChaosConfig(mechanisms=("aos", "sgx"))


# --------------------------------------------------- consistency check tool


def _load_check_registry():
    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "tools"
        / "check_registry.py"
    )
    spec = importlib.util.spec_from_file_location("check_registry", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckRegistryTool:
    def test_builtin_registry_is_consistent(self):
        tool = _load_check_registry()
        assert tool.check_registry() == []

    def test_catches_missing_detects_and_bad_override(self):
        tool = _load_check_registry()
        REGISTRY.register(
            dummy_spec(
                detects=(),
                oracle=ScenarioOracle(
                    overrides={"no-such-scenario": REGISTRY.spec("aos").oracle.spatial}
                ),
            )
        )
        try:
            problems = "\n".join(tool.check_registry())
            assert "declares no detection exception types" in problems
            assert "no-such-scenario" in problems
        finally:
            REGISTRY.unregister("dummy")

    def test_catches_a_partial_call_stack(self):
        """A runtime with ``call`` but no ``ret`` models half a return
        path: the call-stack ops come all together or not at all."""
        tool = _load_check_registry()

        class HalfStack(DummyRuntime):
            def call(self) -> None:
                pass

        REGISTRY.register(dummy_spec(factory=HalfStack, detects=(WatchdogFault,)))
        try:
            problems = tool.check_registry()
            assert problems == [
                "mechanism 'dummy': models a call stack with call but lacks "
                "ret, smash_ret"
            ]
        finally:
            REGISTRY.unregister("dummy")


# ------------------------------------------------------- the new baselines


class TestCryptSanRuntime:
    def test_oob_touches_untagged_granule(self):
        rt = CryptSanRuntime()
        ptr = rt.malloc(32)
        rt.store(ptr, 0xAB)  # in bounds
        with pytest.raises(CryptSanFault):
            rt.load(ptr.offset(32))  # first byte past the object

    def test_uaf_detected_after_free(self):
        rt = CryptSanRuntime()
        ptr = rt.malloc(32)
        rt.free(ptr)
        with pytest.raises(CryptSanFault):
            rt.load(ptr)

    def test_version_bump_detects_reuse(self):
        rt = CryptSanRuntime()
        stale = rt.malloc(32)
        rt.free(stale)
        fresh = rt.malloc(32)  # same slot, bumped version
        assert fresh.address == stale.address
        rt.load(fresh)
        with pytest.raises(CryptSanFault):
            rt.load(stale)


class TestPACSanRuntime:
    def test_bounds_checked_per_access(self):
        rt = PACSanRuntime()
        ptr = rt.malloc(48)
        rt.store(ptr, 1)
        with pytest.raises(PACSanFault):
            rt.store(ptr.offset(48), 2)

    def test_double_free_detected(self):
        rt = PACSanRuntime()
        ptr = rt.malloc(48)
        rt.free(ptr)
        with pytest.raises(PACSanFault):
            rt.free(ptr)


class TestPACTightRuntime:
    def test_no_bounds_check_spatial_blind_spot(self):
        rt = PACTightRuntime()
        ptr = rt.malloc(32)
        rt.load(ptr.offset(64))  # sealed pointer wanders: no fault

    def test_freed_identity_tag_detected(self):
        rt = PACTightRuntime()
        ptr = rt.malloc(32)
        rt.free(ptr)
        with pytest.raises(PACTightFault):
            rt.load(ptr)

    def test_smashed_return_address_fails_seal(self):
        rt = PACTightRuntime()
        rt.call()
        rt.smash_ret(0x666000)
        with pytest.raises(PACTightFault):
            rt.ret()


class TestPACStackRuntime:
    def test_honest_call_ret_chain(self):
        rt = PACStackRuntime()
        rt.call()
        rt.call()
        assert rt.ret() == 0x400010
        assert rt.ret() == 0x400000

    def test_smashed_return_breaks_the_chain(self):
        rt = PACStackRuntime()
        rt.call()
        rt.call()
        rt.smash_ret(0x666000)
        with pytest.raises(PACStackFault):
            rt.ret()

    def test_underflow_detected(self):
        rt = PACStackRuntime()
        with pytest.raises(PACStackFault):
            rt.ret()


# ------------------------------------------------- ret-addr-corruption cell


class TestRetAddrCorruptionScenario:
    def test_registered_in_the_corpus(self):
        assert "ret-addr-corruption" in SCENARIOS
        assert "ret-addr-corruption" in CHAOS_SCENARIOS  # the default sweep
        instance = build_scenario("ret-addr-corruption")
        assert instance.category == "control"
        assert [s.op for s in instance.steps] == [
            "call", "call", "smash-ret", "ret", "ret",
        ]

    @pytest.mark.parametrize(
        "mechanism, verdict",
        [
            ("baseline", "escape-confirmed"),  # raw frames, silent overwrite
            ("aos", "escape-confirmed"),       # the return path AOS ignores
            ("pa", "as-expected"),             # signed return addresses
            ("pa+aos", "as-expected"),
            ("pactight", "as-expected"),       # sealed return addresses
            ("pacstack", "as-expected"),       # the chain's whole purpose
            ("mte", "unmodeled"),              # no call-stack model
            ("cryptsan", "unmodeled"),
        ],
    )
    def test_verdicts(self, mechanism, verdict):
        run = run_scenario_cell(("ret-addr-corruption", mechanism, 7, None))
        assert run.verdict == verdict, run.detail
        if verdict == "as-expected":
            assert run.observed == "detected"

    def test_signed_adapters_detect_smash(self):
        runtime = PARuntime(pac_mode="fast")
        runtime.call()
        runtime.smash_ret(0x666000)
        with pytest.raises(Exception, match="corrupted|authentication|fails"):
            runtime.ret()

    def test_baseline_adapter_survives_smash(self):
        runtime = BaselineRuntime()
        runtime.call()
        runtime.smash_ret(0x666000)
        assert runtime.ret() == 0x666000
