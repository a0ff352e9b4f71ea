"""Package surface: exported names resolve and the demos still run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prdna

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in prdna.__all__ if not hasattr(prdna, name)]
    assert not missing


@pytest.mark.parametrize(
    "demo",
    sorted(path.name for path in (ROOT / "demos").glob("[0-9]*.py")),
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
