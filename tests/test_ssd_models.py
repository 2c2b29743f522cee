"""Tests for the Table I device presets and registry."""

import pytest

from repro.cache import SupercapBackup
from repro.errors import ConfigurationError
from repro.nand import CellKind, EccScheme
from repro.ssd import models
from repro.units import GIB


class TestTableOnePresets:
    def test_drive_a_matches_table(self):
        a = models.ssd_a()
        assert a.capacity_bytes == 256 * GIB
        assert a.cell is CellKind.MLC
        assert a.ecc.name == "BCH"
        assert a.release_year == 2013
        assert a.cache_enabled

    def test_drive_b_matches_table(self):
        b = models.ssd_b()
        assert b.capacity_bytes == 120 * GIB
        assert b.cell is CellKind.TLC
        assert b.ecc.name == "LDPC"
        assert b.release_year == 2015

    def test_drive_c_matches_table(self):
        c = models.ssd_c()
        assert c.capacity_bytes == 120 * GIB
        assert c.cell is CellKind.MLC
        assert c.release_year is None

    def test_c_has_weakest_firmware(self):
        drives = [models.ssd_a(), models.ssd_b(), models.ssd_c()]
        probs = [d.ftl.page_recovery_prob for d in drives]
        assert min(probs) == models.ssd_c().ftl.page_recovery_prob

    def test_table_one_units_two_per_model(self):
        units = models.table_one_units()
        assert len(units) == 6
        names = sorted(units)
        assert names[0].startswith("ssd-a#")
        for name, config in units.items():
            assert config.name == name


class TestExtras:
    def test_supercap_preset(self):
        e = models.ssd_enterprise_supercap()
        assert isinstance(e.supercap, SupercapBackup)
        assert e.ftl.page_recovery_prob > models.ssd_a().ftl.page_recovery_prob

    def test_cache_disabled_variant(self):
        base = models.ssd_a()
        nocache = models.ssd_cache_disabled(base)
        assert not nocache.cache_enabled
        assert nocache.name.endswith("-nocache")
        # The base is untouched (configs are frozen).
        assert base.cache_enabled

    def test_hdd_like_control(self):
        hdd = models.hdd_like_control()
        assert hdd.cell is CellKind.SLC
        assert not hdd.cache_enabled
        assert hdd.interface_overhead_us > models.ssd_a().interface_overhead_us


class TestRegistry:
    def test_by_name_roundtrip(self):
        for name in models.preset_names():
            assert models.by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            models.by_name("ssd-z")

    def test_preset_names_sorted(self):
        names = models.preset_names()
        assert names == sorted(names)
        assert "ssd-a" in names and "ssd-b" in names and "ssd-c" in names
