"""The package runs on the standard library alone: numpy is a test tool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports this checkout's package."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_cli_imports_no_numpy():
    proc = _run_fresh("import confhom.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_a_well_formed_command_imports_no_argparse():
    # argparse is imported only for help, usage errors and the forms the
    # CLI's own reader leaves to it
    proc = _run_fresh(
        "import sys, confhom.cli\n"
        "assert confhom.cli.main(['sign', '--p', '3', '--n', '9', '--q', '0']) == 0\n"
        "assert 'argparse' not in sys.modules\n"
        "assert confhom.cli.main(['sign', '--p=3', '--n', '9', '--q', '0']) == 0\n"
        "assert 'argparse' in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_numpy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not any("numpy" in dep for dep in project.get("dependencies", []))
    extras = project["optional-dependencies"]
    assert [name for name, deps in extras.items() if any("numpy" in d for d in deps)] == ["test"]
