"""Source hygiene checks that need no linter."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import fnequiv

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCES = sorted(p for p in Path(fnequiv.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` features aside) and never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport math\nimport os.path\n"
    source += "from x import a, b as c\nc(a)\n"
    assert unused_imports(source) == ["math (line 2)", "os (line 3)"]


def test_failing_property_reports_its_example(tmp_path):
    # A failing @given test under the repo's warning filters must print its
    # falsifying example rather than end in a pytest INTERNALERROR.
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n@given(st.integers())\n"
        "def test_small(n):\n    assert n < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
