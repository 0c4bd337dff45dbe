"""The package runs on the standard library alone: numpy is a test tool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_cli_imports_no_numpy():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    code = "import confhom.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_numpy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not any("numpy" in dep for dep in project.get("dependencies", []))
    extras = project["optional-dependencies"]
    assert [name for name, deps in extras.items() if any("numpy" in d for d in deps)] == ["test"]
