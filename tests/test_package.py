"""Package surface: exported names resolve, have users, and the demos still run."""

import ast
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


def test_every_exported_name_has_a_user_outside_tests():
    # a name counts as used when the library, the bench or a demo reads
    # it, imports it or looks it up as an attribute; its own definition
    # and the package export do not count
    sources = [p for p in (ROOT / "src" / "prdna").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(prdna.__all__) - used) == []


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


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    # a fresh interpreter: this session has imported both for the oracles;
    # the library evaluates their kernels from scipy.special and its own Brent port
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys, prdna, prdna.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.optimize'))))"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
