"""The suite's own settings and the end-to-end script CI runs.

CI runs ``tests/installed_cli.sh`` against the installed console script;
here the same script runs against the source tree, with an ``ergolab``
stand-in on ``PATH`` that calls :func:`ergolab.cli.entry`.  The pytest
settings of ``pyproject.toml`` must let a failing property test be reported
without ending the run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_lets_the_next_test_run(tmp_path):
    # hypothesis' failure report imports mypy_extensions, whose
    # DeprecationWarning the "error" filter turned into INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


def test_installed_cli_script_passes_on_the_source_tree(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    stand_in = bin_dir / "ergolab"
    stand_in.write_text(f'#!/bin/sh\nexec "{sys.executable}" -c '
                        f'"from ergolab.cli import entry; entry()" "$@"\n')
    stand_in.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    work = tmp_path / "work"
    work.mkdir()
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(["bash", str(ROOT / "tests" / "installed_cli.sh")],
                          cwd=work, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert (work / "analyze.json").exists()
