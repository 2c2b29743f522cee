"""The docs name only files, commands and code that exist.

README.md, DESIGN.md, docs/MODEL.md, EXPERIMENTS.md and the verify recipe
point readers at repository paths, ``repro`` subcommands and package
names.  Every path they name under a source directory must exist, every
``repro WORD`` they show must be a subcommand of
:func:`repro.cli.build_parser`, and every backticked dotted ``repro.…``
name, and every name a ```` ```python ```` block imports from ``repro``,
must import (a module) or resolve by attribute lookup below one.
CHANGES.md and ROADMAP.md are history, so they are not checked.
"""

import argparse
import ast
import importlib
import pathlib
import re

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    "README.md",
    "DESIGN.md",
    "docs/MODEL.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
]
# A path under a source directory; ``<name>`` in it is a placeholder.
PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|scripts|benchmarks|examples|docs)/[\w./*<>-]*"
)
# `repro WORD`, python -m repro WORD, or a command line that runs repro.
COMMAND = re.compile(
    r"(?:`|python3? -m |^\s*(?:[A-Z_]+=\S*\s+)*)repro +([a-z][\w-]*)", re.M
)
# `repro.nand.chip.FlashChip`: a module, or a name inside one.
DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def path_exists(mention: str) -> bool:
    pattern = re.sub(r"<[^>]*>", "*", mention.rstrip("."))
    if "*" in pattern:
        return any(ROOT.glob(pattern.rstrip("/")))
    if (ROOT / pattern).exists():
        return True
    # ``benchmarks/_common.run_campaign`` names a function in a module.
    module, _, name = pattern.rpartition(".")
    source = ROOT / f"{module}.py"
    return source.is_file() and bool(
        re.search(rf"^(?:def|class) {name}\b", source.read_text(), re.M)
    )


def name_resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def python_block_imports(text: str) -> list:
    """``module.name`` for each ``from repro… import name`` in python blocks."""
    return [
        f"{node.module}.{alias.name}"
        for block in PYTHON_BLOCK.findall(text)
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]


def subcommands() -> set:
    return {
        name
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }


def test_docs_name_existing_paths_and_subcommands():
    commands = subcommands()
    broken = []
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        broken += [f"{doc}: {m}" for m in PATH.findall(text) if not path_exists(m)]
        broken += [
            f"{doc}: repro {word}" for word in COMMAND.findall(text)
            if word not in commands
        ]
        broken += [
            f"{doc}: {name}"
            for name in DOTTED.findall(text) + python_block_imports(text)
            if not name_resolves(name)
        ]
    assert not broken, "\n".join(broken)
