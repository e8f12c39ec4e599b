"""FaultConfig validation and FaultInjector determinism / independence."""

import pickle

import pytest

from repro.core.system import build_system
from repro.resilience.faults import (
    FaultConfig,
    FaultInjector,
    FaultSite,
    ScheduledFault,
)
from repro.sim.config import ConfigError, SystemConfig


class _FakeRequest:
    def __init__(self, request_id=1):
        self.request_id = request_id


class _FakePacket:
    """Just enough of a Packet for the injector's link hook."""

    def __init__(self, packet_id):
        self.packet_id = packet_id
        self.corrupted = False
        self.fault_bits = 0
        self.request = _FakeRequest(packet_id)


class TestFaultConfigValidation:
    @pytest.mark.parametrize("field", [
        "link_corrupt_rate", "link_drop_rate",
        "buffer_flip_rate", "sdram_bit_rate",
    ])
    def test_rates_bounded(self, field):
        with pytest.raises(ConfigError) as excinfo:
            FaultConfig(**{field: 1.5})
        assert excinfo.value.field == field
        with pytest.raises(ConfigError):
            FaultConfig(**{field: -0.1})

    def test_double_bit_fraction_bounded(self):
        with pytest.raises(ConfigError) as excinfo:
            FaultConfig(sdram_double_bit_fraction=2.0)
        assert excinfo.value.field == "sdram_double_bit_fraction"

    def test_schedule_must_be_tuple_of_faults(self):
        with pytest.raises(ConfigError) as excinfo:
            FaultConfig(schedule=[ScheduledFault(0, FaultSite.LINK_DROP)])
        assert excinfo.value.field == "schedule"
        with pytest.raises(ConfigError):
            FaultConfig(schedule=("not a fault",))

    def test_scheduled_fault_validation(self):
        with pytest.raises(ConfigError):
            ScheduledFault(cycle=-1, site=FaultSite.LINK_CORRUPT)
        with pytest.raises(ConfigError):
            ScheduledFault(cycle=0, site="link-corrupt")
        with pytest.raises(ConfigError):
            ScheduledFault(cycle=0, site=FaultSite.SDRAM_BIT, bits=0)

    @pytest.mark.parametrize("field,value", [
        ("crc_retry_limit", 0),
        ("retry_backoff_base", 0),
        ("dram_retry_limit", 0),
        ("watchdog_timeout", 0),
        ("watchdog_retry_limit", -1),
        ("max_packet_age", 0),
    ])
    def test_protection_knobs_validated(self, field, value):
        with pytest.raises(ConfigError) as excinfo:
            FaultConfig(**{field: value})
        assert excinfo.value.field == field

    def test_backoff_cap_must_cover_base(self):
        with pytest.raises(ConfigError) as excinfo:
            FaultConfig(retry_backoff_base=16, retry_backoff_cap=8)
        assert excinfo.value.field == "retry_backoff_cap"

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError):
            FaultConfig(link_drop_rate=3.0)


class TestFaultConfigBehavior:
    def test_uniform_scales_rates(self):
        config = FaultConfig.uniform(1e-2)
        assert config.link_corrupt_rate == 1e-2
        assert config.link_drop_rate == pytest.approx(2.5e-3)
        assert config.buffer_flip_rate == pytest.approx(1.25e-3)
        assert config.sdram_bit_rate == 1e-2

    def test_uniform_overrides(self):
        config = FaultConfig.uniform(1e-3, crc_retry_limit=2, sdram_bit_rate=0.0)
        assert config.crc_retry_limit == 2
        assert config.sdram_bit_rate == 0.0

    def test_uniform_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            FaultConfig.uniform(1.5)

    def test_backoff_exponential_with_cap(self):
        config = FaultConfig(retry_backoff_base=4, retry_backoff_cap=64)
        assert [config.backoff(n) for n in range(1, 7)] == [4, 8, 16, 32, 64, 64]
        with pytest.raises(ValueError):
            config.backoff(0)


class TestInjectorStreams:
    def _corrupted_ids(self, config, seed, flits=3000):
        injector = FaultInjector(config, seed=seed)
        hit = []
        for i in range(flits):
            packet = _FakePacket(i)
            injector.on_link_flit(0, node=0, port=None, packet=packet)
            if packet.corrupted:
                hit.append(i)
        return hit

    def test_same_seed_same_faults(self):
        config = FaultConfig(link_corrupt_rate=5e-3)
        assert self._corrupted_ids(config, 7) == self._corrupted_ids(config, 7)

    def test_different_seed_different_faults(self):
        config = FaultConfig(link_corrupt_rate=5e-3)
        assert self._corrupted_ids(config, 7) != self._corrupted_ids(config, 8)

    def test_config_seed_overrides_run_seed(self):
        config = FaultConfig(link_corrupt_rate=5e-3, seed=99)
        assert self._corrupted_ids(config, 1) == self._corrupted_ids(config, 2)

    def test_sites_sample_independently(self):
        # Enabling drops must not perturb the corrupt stream: each site
        # draws from its own derived RNG.
        corrupt_only = FaultConfig(link_corrupt_rate=5e-3)
        both = FaultConfig(link_corrupt_rate=5e-3, link_drop_rate=5e-3)
        only_ids = self._corrupted_ids(corrupt_only, 7)
        injector = FaultInjector(both, seed=7)
        for i in range(3000):
            packet = _FakePacket(i)
            injector.on_link_flit(0, node=0, port=None, packet=packet)
        assert injector.injected[FaultSite.LINK_CORRUPT] == len(only_ids)

    def test_pickled_injector_keeps_one_stream_per_site(self):
        """A restored injector's link draws continue the site streams
        ``_rngs`` owns, exactly where the original's would."""
        config = FaultConfig(link_corrupt_rate=5e-3, link_drop_rate=5e-3)
        original = FaultInjector(config, seed=7)
        for i in range(500):
            original.on_link_flit(0, node=0, port=None, packet=_FakePacket(i))
        restored = pickle.loads(pickle.dumps(original))
        assert restored._link_corrupt_rng is restored._rngs[FaultSite.LINK_CORRUPT]
        assert restored._link_drop_rng is restored._rngs[FaultSite.LINK_DROP]
        for injector in (original, restored):
            for i in range(500, 3000):
                injector.on_link_flit(
                    0, node=0, port=None, packet=_FakePacket(i)
                )
        assert restored.injected == original.injected
        assert all(
            restored._rngs[site].getstate() == original._rngs[site].getstate()
            for site in FaultSite
        )

    def test_disabled_injector_samples_nothing(self):
        injector = FaultInjector(FaultConfig(link_corrupt_rate=1.0), seed=7)
        injector.enabled = False
        packet = _FakePacket(0)
        injector.on_link_flit(0, node=0, port=None, packet=packet)
        assert not packet.corrupted
        assert injector.total_injected == 0

    def test_buffer_flip_without_network_is_noop(self):
        config = FaultConfig(
            schedule=(ScheduledFault(0, FaultSite.BUFFER_FLIP),)
        )
        injector = FaultInjector(config, seed=7)
        injector.tick(0)
        assert injector.total_injected == 0


class TestScheduledInjection:
    def test_forced_link_fault_poisons_next_flit(self):
        config = FaultConfig(
            schedule=(ScheduledFault(10, FaultSite.LINK_DROP),)
        )
        injector = FaultInjector(config, seed=7)
        injector.tick(10)
        packet = _FakePacket(0)
        injector.on_link_flit(10, node=2, port=None, packet=packet)
        assert packet.corrupted and packet.fault_bits == 1
        assert injector.injected[FaultSite.LINK_DROP] == 1
        # one-shot: the next flit is clean
        clean = _FakePacket(1)
        injector.on_link_flit(10, node=2, port=None, packet=clean)
        assert not clean.corrupted

    def test_node_restricted_fault_waits_for_its_node(self):
        config = FaultConfig(
            schedule=(ScheduledFault(0, FaultSite.LINK_CORRUPT, node=3),)
        )
        injector = FaultInjector(config, seed=7)
        injector.tick(0)
        elsewhere = _FakePacket(0)
        injector.on_link_flit(0, node=1, port=None, packet=elsewhere)
        assert not elsewhere.corrupted
        here = _FakePacket(1)
        injector.on_link_flit(0, node=3, port=None, packet=here)
        assert here.corrupted

    def test_forced_sdram_fault_reports_bits(self):
        config = FaultConfig(
            schedule=(ScheduledFault(0, FaultSite.SDRAM_BIT, bits=2),)
        )
        injector = FaultInjector(config, seed=7)
        injector.tick(0)
        assert injector.sdram_read_bits(0, _FakeRequest()) == 2
        assert injector.sdram_read_bits(0, _FakeRequest()) == 0
        assert injector.injected[FaultSite.SDRAM_BIT] == 1


class TestSystemLevelDeterminism:
    def _metrics(self, seed):
        config = SystemConfig(
            cycles=1_500, warmup=300, seed=seed,
            faults=FaultConfig.uniform(2e-3),
        )
        system = build_system(config)
        metrics = system.run()
        return metrics, dict(system.fault_injector.injected)

    def test_fault_runs_are_reproducible(self):
        a_metrics, a_injected = self._metrics(2010)
        b_metrics, b_injected = self._metrics(2010)
        assert a_metrics == b_metrics
        assert a_injected == b_injected
