"""The docs name only files and commands that exist.

README.md, DESIGN.md, docs/MODEL.md, EXPERIMENTS.md and the verify recipe
point readers at repository paths and ``repro`` subcommands.  Every path
they name under a source directory must exist, and every ``repro WORD``
they show must be a subcommand of :func:`repro.cli.build_parser`.
CHANGES.md and ROADMAP.md are history, so they are not checked.
"""

import argparse
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
    assert not broken, "\n".join(broken)
