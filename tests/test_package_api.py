"""Public-API integrity: exports, version, and docstring examples."""

import doctest
import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_symbols_present(self):
        # The README quickstart must keep working.
        from repro import Campaign, CampaignConfig, TestPlatform, WorkloadSpec

        assert Campaign and CampaignConfig and TestPlatform and WorkloadSpec


SUBPACKAGES = [
    "repro.sim",
    "repro.power",
    "repro.nand",
    "repro.ftl",
    "repro.cache",
    "repro.ssd",
    "repro.host",
    "repro.trace",
    "repro.workload",
    "repro.core",
    "repro.engine",
    "repro.analysis",
    "repro.fs",
    "repro.raid",
    "repro.nvme",
    "repro.stress",
]


class TestSubpackageExports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_resolves(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} needs a package docstring"
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol}"


DOCTEST_MODULES = [
    "repro.sim.kernel",
    "repro.sim.resources",
    "repro.power.psu",
    "repro.nand.geometry",
    "repro.nand.cell",
    "repro.nand.ecc",
    "repro.nand.threshold",
    "repro.engine.plan",
    "repro.engine.executors",
    "repro.ftl.mapping",
    "repro.ftl.extent_mapping",
    "repro.ftl.wear",
    "repro.cache.dram",
    "repro.workload.checksum",
    "repro.workload.spec",
    "repro.analysis.stats",
    "repro.analysis.report",
    "repro.nvme.controller",
]


class TestDocstringExamples:
    @pytest.mark.parametrize("name", DOCTEST_MODULES)
    def test_doctests_pass(self, name):
        module = importlib.import_module(name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{name}: {results.failed} doctest failures"
