"""Smoke test: every example must run end-to-end.

Each script under ``examples/`` runs as its own process and must exit 0;
together they take well under a minute.  Quickstart is the one a new user
tries first, so its output is checked as well.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


class TestQuickstart:
    @pytest.mark.parametrize(
        "script", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
    )
    def test_quickstart_runs(self, script, tmp_path):
        # Some examples keep their artifacts in a temporary directory.
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "TMPDIR": str(tmp_path)},
        )
        assert result.returncode == 0, result.stderr[-2000:]
        if script.name == "quickstart.py":
            assert "data loss per power fault" in result.stdout
            assert "per-fault results" in result.stdout

    def test_all_examples_compile(self):
        for script in sorted(EXAMPLES.glob("*.py")):
            source = script.read_text()
            compile(source, str(script), "exec")
            assert '"""' in source, f"{script.name} needs a docstring"
            assert "def main()" in source, f"{script.name} needs a main()"
