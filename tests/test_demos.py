"""Every script in demos/ runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsn_pathosim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos_to_run():
    assert DEMOS


def _package_env() -> dict[str, str]:
    package_dir = Path(wsn_pathosim.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(package_dir))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script, tmp_path):
    result = subprocess.run([sys.executable, str(script)], env=_package_env(), cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_the_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    snippet = library[library.index("```python\n") + len("```python\n"):]
    snippet = snippet[:snippet.index("```")]
    result = subprocess.run([sys.executable, "-c", snippet], env=_package_env(), cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "-29.53" in result.stdout
