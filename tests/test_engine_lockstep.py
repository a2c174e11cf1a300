"""Lockstep equivalence: the native engine must be bit-identical to the
reference engine.

The native engine's whole contract is "same numbers, faster".  These
tests run both engines over the same workloads — the fig4/fig5/fig9
experiment configurations, every write policy, every bypass mode, split
and 2-way L2s, the L2-D dirty buffer, TLBs on and off,
multiprogramming levels 1, 4 and 8, short and long time slices — and
assert the *complete* ``SimStats`` dataclass is equal field-for-field,
and the complete memory-system snapshot with it.  A single diverging
stall cycle, tag or LRU order fails the suite.

A second battery uses adversarial profiles (dense index conflicts,
partial-word stores, frequent syscalls) that real synthetic traces
rarely concentrate.
"""

import dataclasses

import pytest

from repro.core.config import (
    BypassMode,
    CacheConfig,
    ConcurrencyConfig,
    L2Config,
    SystemConfig,
    TLBConfig,
    WriteBufferConfig,
    WritePolicy,
    base_architecture,
    base_write_buffer,
    fetch8_architecture,
    optimized_architecture,
    split_l2_architecture,
    write_through_buffer,
)
from repro.core.simulator import Simulation
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import BenchmarkProfile, CodeProfile, DataProfile

INSTRUCTIONS = 12_000

ALL_POLICIES = (
    WritePolicy.WRITE_BACK,
    WritePolicy.WRITE_MISS_INVALIDATE,
    WritePolicy.WRITE_ONLY,
    WritePolicy.SUBBLOCK,
)


def run_both(config, profiles, level=1, time_slice=3_000, **kwargs):
    """Run the same workload under both engines; return the simulations."""
    out = []
    for engine in ("reference", "native"):
        sim = Simulation(config=config, profiles=profiles, level=level,
                         time_slice=time_slice, engine=engine, **kwargs)
        sim.run()
        assert sim.memsys.engine.name == engine
        out.append(sim)
    return out


def assert_identical(config, profiles, level=1, time_slice=3_000, **kwargs):
    ref, nat = run_both(config, profiles, level=level,
                        time_slice=time_slice, **kwargs)
    assert (dataclasses.asdict(ref.memsys.stats)
            == dataclasses.asdict(nat.memsys.stats))
    ref_state = ref.memsys.state_dict()
    nat_state = nat.memsys.state_dict()
    assert ref_state.pop("engine") == "reference"
    assert nat_state.pop("engine") == "native"
    assert ref_state == nat_state


@pytest.fixture(scope="module")
def suite():
    return default_suite(instructions_per_benchmark=INSTRUCTIONS)


class TestExperimentConfigs:
    """The exact configurations the paper's figures sweep."""

    def test_fig4_base(self, suite):
        assert_identical(base_architecture(), suite[:2])

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("access_time", (2, 8))
    def test_fig5_policy_grid(self, suite, policy, access_time):
        from repro.experiments.fig5_write_policy import config_for

        assert_identical(config_for(policy, access_time), suite[:2])

    @pytest.mark.parametrize("config", [
        base_architecture(), split_l2_architecture(),
        fetch8_architecture(), optimized_architecture(),
    ], ids=lambda c: c.name)
    def test_fig9_design_points(self, suite, config):
        assert_identical(config, suite[:2])

    def test_associative_bypass(self, suite):
        config = base_architecture().with_(
            name="assoc-bypass",
            write_policy=WritePolicy.WRITE_MISS_INVALIDATE,
            write_buffer=write_through_buffer(),
            concurrency=ConcurrencyConfig(bypass=BypassMode.ASSOCIATIVE),
        )
        assert_identical(config, suite[:2])

    def test_dirty_bit_bypass(self, suite):
        config = base_architecture().with_(
            name="dirty-bypass",
            write_policy=WritePolicy.WRITE_ONLY,
            write_buffer=write_through_buffer(),
            concurrency=ConcurrencyConfig(bypass=BypassMode.DIRTY_BIT),
        )
        assert_identical(config, suite[:2])


class TestMachineShapes:
    """L2 organizations, the dirty buffer and the TLB switch."""

    @pytest.mark.parametrize("ways", (1, 2))
    @pytest.mark.parametrize("split", (False, True))
    def test_l2_organizations(self, suite, ways, split):
        config = base_architecture().with_(
            name=f"l2-{ways}way-{'split' if split else 'unified'}",
            l2=L2Config(size_words=16 * 1024, line_words=32, ways=ways,
                        split=split))
        assert_identical(config, suite[:3], level=3, time_slice=2_000)

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    def test_dirty_buffer(self, suite, policy):
        buffer = (base_write_buffer() if policy is WritePolicy.WRITE_BACK
                  else write_through_buffer())
        config = base_architecture().with_(
            name=f"dirty-buffer-{policy.value}", write_policy=policy,
            write_buffer=buffer,
            l2=L2Config(size_words=8 * 1024, line_words=32, split=True),
            concurrency=ConcurrencyConfig(l2_dirty_buffer=True,
                                          i_refill_during_wb_drain=True))
        assert_identical(config, suite[:2], time_slice=2_000)

    @pytest.mark.parametrize("bypass", (BypassMode.NONE,
                                        BypassMode.ASSOCIATIVE))
    @pytest.mark.parametrize("policy", ALL_POLICIES[1:],
                             ids=lambda p: p.value)
    def test_write_through_bypass_grid(self, suite, policy, bypass):
        config = base_architecture().with_(
            name=f"{policy.value}-{bypass.value}", write_policy=policy,
            write_buffer=write_through_buffer(),
            concurrency=ConcurrencyConfig(bypass=bypass))
        assert_identical(config, suite[:2])

    @pytest.mark.parametrize("enabled", (True, False))
    def test_tlb_switch(self, suite, enabled):
        config = base_architecture().with_(
            name=f"tlb-{enabled}", tlb=TLBConfig(enabled=enabled))
        assert_identical(config, suite[:4], level=4, time_slice=1_000)


class TestSchedulingShapes:
    def test_multiprogrammed(self, suite):
        assert_identical(base_architecture(), suite[:4], level=4,
                         time_slice=1_500)

    def test_level_eight_base_slice(self, suite):
        # The base scenario's shape: eight processes, 100k-cycle slices.
        assert_identical(base_architecture(), suite[:8], level=8,
                         time_slice=100_000)

    def test_level_eight_fig3_slice(self, suite):
        # Fig. 3's shortest slice at level 8: context switches dominate.
        assert_identical(base_architecture(), suite[:8], level=8,
                         time_slice=10_000)

    def test_tiny_time_slice(self, suite):
        # Slices far smaller than a chunk: the budget cap and the
        # mid-run deadline cut dominate.
        assert_identical(base_architecture(), suite[:2], time_slice=311)

    def test_slice_longer_than_batch(self, suite):
        assert_identical(base_architecture(), suite[:1], time_slice=90_000)

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    def test_policies_multiprogrammed(self, suite, policy):
        buffer = (base_write_buffer() if policy is WritePolicy.WRITE_BACK
                  else write_through_buffer())
        config = base_architecture().with_(
            name=f"mp-{policy.value}", write_policy=policy,
            write_buffer=buffer)
        assert_identical(config, suite[:3], level=3, time_slice=2_000)

    def test_warmup_discard(self, suite):
        assert_identical(base_architecture(), suite[:2],
                         warmup_instructions=4_000)


class TestAdversarialColumns:
    """Profiles that concentrate conflict, partial-store and syscall
    edge cases."""

    @staticmethod
    def _conflict_profile(seed):
        # A code region much larger than the L1-I with tiny loops, and
        # data traffic restricted to a handful of conflicting indices:
        # nearly every chain has heads and repairs in every chunk.
        return BenchmarkProfile(
            name=f"adversary{seed}", category="I",
            instructions=INSTRUCTIONS, syscalls=11,
            code=CodeProfile(code_words=65536, phase_regions=8,
                             loops_per_phase=4, loop_body_mean=6,
                             loop_trip_mean=2.0, phase_length=600,
                             far_call_prob=0.30),
            data=DataProfile(load_fraction=0.35, store_fraction=0.25,
                             partial_store_fraction=0.5,
                             hot_words=16, warm_words=65536,
                             warm_window_words=4096, warm_drift=2.0,
                             p_warm=0.45, p_stream=0.1, p_cold=0.01,
                             store_locality=1.0, store_run_q=0.0),
            seed=seed)

    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("seed", (1, 2))
    def test_conflict_storm(self, policy, seed):
        buffer = (base_write_buffer() if policy is WritePolicy.WRITE_BACK
                  else write_through_buffer())
        config = base_architecture().with_(
            name=f"storm-{policy.value}", write_policy=policy,
            write_buffer=buffer)
        assert_identical(config, [self._conflict_profile(seed)],
                         time_slice=1_024)

    def test_single_line_caches(self):
        # One-line L1s: every chain aliases onto index 0.
        config = base_architecture().with_(
            name="one-line",
            icache=CacheConfig(size_words=4, line_words=4),
            dcache=CacheConfig(size_words=4, line_words=4))
        assert_identical(config, [self._conflict_profile(3)],
                         time_slice=1_000)

    def test_no_tlb(self):
        config = base_architecture().with_(
            name="no-tlb", tlb=TLBConfig(enabled=False))
        assert_identical(config, [self._conflict_profile(4)])


class TestEngineSelection:
    def test_unknown_engine_rejected(self, suite):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Simulation(config=base_architecture(), profiles=suite[:1],
                       engine="vectorized-nonsense")

    def test_engine_recorded_in_state(self, suite):
        sim = Simulation(config=base_architecture(), profiles=suite[:1],
                         engine="native")
        assert sim.state_dict()["simulation"]["engine"] == "native"

    def test_native_is_the_default(self, suite):
        sim = Simulation(config=base_architecture(), profiles=suite[:1])
        assert sim.memsys.engine.name == "native"
