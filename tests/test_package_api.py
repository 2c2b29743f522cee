"""Public-API integrity: exports, version, imports and docstring examples."""

import ast
import doctest
import importlib
import inspect
import pathlib
import pkgutil
import typing

import pytest

import repro
import repro.engine


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


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


class TestEngineAnnotations:
    def test_every_engine_function_annotation_resolves(self):
        # typing.get_type_hints raises NameError on an annotation that
        # names a module the engine never imported.
        for info in pkgutil.iter_modules(repro.engine.__path__, "repro.engine."):
            module = importlib.import_module(info.name)
            for value in vars(module).values():
                if inspect.isfunction(value) and value.__module__ == info.name:
                    typing.get_type_hints(value)


def unread_imports(source: str) -> list:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


class TestUnusedImports:
    def test_every_module_import_is_read(self):
        # Package __init__ modules import to re-export; every other module
        # imports only what it uses.
        src = pathlib.Path(repro.__file__).parent
        unread = {}
        for path in sorted(src.rglob("*.py")):
            if path.name != "__init__.py":
                names = unread_imports(path.read_text(encoding="utf-8"))
                if names:
                    unread[str(path.relative_to(src))] = names
        assert unread == {}


DOCTEST_MODULES = [
    "repro.sim.kernel",
    "repro.sim.process",
    "repro.power.psu",
    "repro.nand.chip",
    "repro.nand.geometry",
    "repro.nand.cell",
    "repro.nand.ecc",
    "repro.nand.threshold",
    "repro.engine.plan",
    "repro.engine.executors",
    "repro.ftl.ftl",
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
