"""Every script in demos/ runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsn_pathosim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_demos_to_run():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script, tmp_path):
    package_dir = Path(wsn_pathosim.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_dir))
    result = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
