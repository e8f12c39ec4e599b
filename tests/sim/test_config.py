"""SystemConfig validation and paper configuration enumeration."""

import pytest

from repro.sim.config import (
    ConfigError,
    DdrGeneration,
    NocDesign,
    PAPER_CLOCK_POINTS,
    SystemConfig,
    paper_configs,
)


class TestNocDesign:
    def test_gss_router_flags(self):
        assert NocDesign.GSS.uses_gss_router
        assert NocDesign.GSS_SAGM.uses_gss_router
        assert not NocDesign.CONV.uses_gss_router
        assert not NocDesign.SDRAM_AWARE.uses_gss_router

    def test_sagm_flag(self):
        assert NocDesign.GSS_SAGM.uses_sagm
        assert not NocDesign.GSS.uses_sagm

    def test_pfs_flag(self):
        assert NocDesign.CONV_PFS.uses_pfs
        assert NocDesign.SDRAM_AWARE_PFS.uses_pfs
        assert not NocDesign.GSS.uses_pfs


class TestDdrGeneration:
    def test_sagm_granularity(self):
        # Section IV-C: 2 data cycles (4 beats) on DDR I/II, 4 (8 beats) on DDR III
        assert DdrGeneration.DDR1.sagm_granularity_beats == 4
        assert DdrGeneration.DDR2.sagm_granularity_beats == 4
        assert DdrGeneration.DDR3.sagm_granularity_beats == 8


class TestSystemConfig:
    def test_defaults_valid(self):
        config = SystemConfig()
        assert config.app == "single_dtv"

    def test_pct_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(pct=0)
        with pytest.raises(ValueError):
            SystemConfig(pct=7)
        SystemConfig(pct=1)
        SystemConfig(pct=6)

    def test_warmup_must_be_less_than_cycles(self):
        with pytest.raises(ValueError):
            SystemConfig(cycles=100, warmup=100)
        SystemConfig(cycles=100, warmup=99)

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            SystemConfig(app="nonexistent")

    def test_positive_clock_required(self):
        with pytest.raises(ValueError):
            SystemConfig(clock_mhz=0)

    def test_with_returns_modified_copy(self):
        base = SystemConfig(clock_mhz=333)
        changed = base.with_(clock_mhz=400)
        assert changed.clock_mhz == 400
        assert base.clock_mhz == 333

    def test_label_mentions_design_and_clock(self):
        config = SystemConfig(design=NocDesign.GSS_SAGM, clock_mhz=333)
        assert "gss+sagm" in config.label
        assert "333MHz" in config.label

    def test_label_marks_sti(self):
        config = SystemConfig(design=NocDesign.GSS, sti=True)
        assert config.label.endswith("+sti")


class TestConfigError:
    def test_is_value_error_naming_the_field(self):
        with pytest.raises(ConfigError) as excinfo:
            SystemConfig(pct=0)
        assert excinfo.value.field == "pct"
        assert isinstance(excinfo.value, ValueError)
        assert str(excinfo.value).startswith("pct:")

    @pytest.mark.parametrize("kwargs,field", [
        (dict(clock_mhz=0), "clock_mhz"),
        (dict(cycles=100, warmup=100), "warmup"),
        (dict(app="nonexistent"), "app"),
        (dict(virtual_channels=0), "virtual_channels"),
        (dict(link_buffer_flits=0), "link_buffer_flits"),
        (dict(virtual_channels=3), "virtual_channels"),
    ])
    def test_every_rejection_names_its_field(self, kwargs, field):
        with pytest.raises(ConfigError) as excinfo:
            SystemConfig(**kwargs)
        assert excinfo.value.field == field

    def test_faults_field_must_be_fault_config(self):
        with pytest.raises(ConfigError) as excinfo:
            SystemConfig(faults="high")
        assert excinfo.value.field == "faults"

    def test_unknown_arbiter_lists_registered_backends(self):
        with pytest.raises(ConfigError) as excinfo:
            SystemConfig(arbiter="tdm")
        assert excinfo.value.field == "arbiter"
        message = str(excinfo.value)
        for name in ("engine", "memmax", "databahn", "dpq", "bank-reg"):
            assert name in message

    def test_registered_arbiter_accepted_and_labelled(self):
        config = SystemConfig(arbiter="dpq")
        assert config.arbiter == "dpq"
        assert config.label.endswith("/dpq")

    def test_default_arbiter_leaves_label_unchanged(self):
        base = SystemConfig().label
        assert SystemConfig(arbiter="dpq").label == f"{base}/dpq"

    def test_fault_config_accepted(self):
        from repro.resilience.faults import FaultConfig

        config = SystemConfig(faults=FaultConfig.uniform(1e-3))
        assert config.faults.link_corrupt_rate == 1e-3
        assert SystemConfig().faults is None
        assert SystemConfig().check_invariants is False


class TestPaperConfigs:
    def test_nine_points(self):
        configs = list(paper_configs(NocDesign.GSS, priority=False))
        assert len(configs) == 9
        apps = {c.app for c in configs}
        assert apps == {"bluray", "single_dtv", "dual_dtv"}

    def test_clock_points_match_paper(self):
        # Section V: blu-ray 133/266/533, single DTV 166/333/667, dual 200/400/800
        assert PAPER_CLOCK_POINTS["bluray"][DdrGeneration.DDR1] == 133
        assert PAPER_CLOCK_POINTS["single_dtv"][DdrGeneration.DDR3] == 667
        assert PAPER_CLOCK_POINTS["dual_dtv"][DdrGeneration.DDR2] == 400

    def test_overrides_forwarded(self):
        configs = list(paper_configs(NocDesign.GSS, priority=True, cycles=500, warmup=10))
        assert all(c.cycles == 500 for c in configs)
        assert all(c.priority_enabled for c in configs)
