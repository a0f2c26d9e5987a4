"""Source hygiene checks that need no linter."""

import ast
import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fnequiv

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SPANS = PYPROJECT.parent / "perfbench" / "spans.py"
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


def imported_modules(source: str) -> set[str]:
    """Every module an import statement of ``source`` names, with each
    ``from m import n`` also counted as ``m.n`` (n may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_stats_import(path):
    # scipy.stats costs about 70 MB and a second to import; the package
    # needs none of it.
    stats = [m for m in imported_modules(path.read_text()) if m.startswith("scipy.stats")]
    assert stats == []


def test_imported_modules_detector():
    source = "import scipy.stats.qmc\nfrom scipy import stats\nfrom scipy.stats import norm\n"
    assert imported_modules(source) == {
        "scipy.stats.qmc", "scipy", "scipy.stats", "scipy.stats.norm"
    }


def scipy_import_sites(source: str) -> list[str]:
    """Where ``source`` imports from scipy: the name of the function whose
    own body holds the import statement, or ``<module>`` when no function
    does (module level, or a class body)."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                sites.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sites


# The only functions that may load scipy, each for one kernel: the one MILP
# solve and the sigmoid.  The distances, the equivalence decisions, the
# sample points, the amplification check and the bounds load none of it.
SCIPY_IMPORT_SITES = {
    ("nncore.py", "_apply"), ("empirical.py", "_milp_count"),
}  # fmt: skip


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_imports_are_function_local_and_allowed(path):
    sites = {(path.name, owner) for owner in scipy_import_sites(path.read_text())}
    assert sites <= SCIPY_IMPORT_SITES


def test_scipy_import_site_detector():
    source = "import scipy\n\n\ndef f():\n    from scipy.special import expit\n\n"
    source += "    def g():\n        import scipy.optimize as opt\n\n"
    source += "    if True:\n        from scipy import integrate\n\n\n"
    source += "class C:\n    from scipy.spatial import distance\n\n    def h(self):\n"
    source += "        import numpy\n        from .scipy import x\n"
    assert scipy_import_sites(source) == ["<module>", "f", "g", "f", "<module>"]


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


# Every public name of the package.  A name may only be dropped on purpose:
# edit this list with it.
PUBLIC_NAMES = [
    "Activation", "AmplificationCheck", "Architecture", "BasinSummary", "BoundConfig",
    "CanonicalForm", "EntropyComparison", "EquivalenceVerdict", "IDENTITY", "InitScheme",
    "MetricSpaceSample", "Network", "NetworkParams", "NeuronSymmetry", "OptimizerConfig",
    "RELU", "SIGMOID", "SymmetryProfile", "TANH", "TrainRun", "activation_from_tag",
    "amplification_check", "apply_permutation", "apply_scaling", "apply_sign_flip",
    "basin_experiment", "canonicalize", "compose", "decide_equivalence", "deep_covering_bound",
    "effective_volume", "entropy_comparison", "exact_covering_number", "exact_packing_number",
    "forward", "forward_batch", "function_class_sample", "gradient", "greedy_covering_estimate",
    "greedy_packing_estimate", "grid_sample", "hidden_range_bound", "initialize", "inverse",
    "leaky_relu", "load_network", "orbit_membership", "sampled_sup_distance", "save_network",
    "shallow_covering_bound", "stirling_bracket", "symmetry_profile", "train",
    "volume_covering_bound",
]


def test_public_names_pinned():
    # Submodules are attributes too, but which ones are depends on what was
    # imported first, so they are left out.
    exported = sorted(
        name
        for name, value in vars(fnequiv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def module_level_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """The names a module's own top-level statements define (functions,
    classes and assigned names; imports and dunders aside), each with the
    statement that defines it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        defined[node.id] = stmt
    return {name: stmt for name, stmt in defined.items() if not name.startswith("__")}


def referenced_names(node: ast.AST) -> set[str]:
    """Names ``node`` reads as a variable or an attribute, or imports;
    strings and docstrings that mention a name do not count."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_names(sources: dict[str, str]) -> list[str]:
    """Module-level names of the ``sources`` (file name -> text) that no
    statement of the package reads or imports, other than the one that
    defines them."""
    defined, used = {}, set()
    for source in sources.values():
        tree = ast.parse(source)
        own = module_level_names(tree)
        defined.update(own)
        for stmt in tree.body:
            used |= referenced_names(stmt) - {n for n, s in own.items() if s is stmt}
    return sorted(set(defined) - used)


def test_unreferenced_name_detector():
    sources = {
        "a.py": '"""Mentions dead."""\nX = 1\nY = X\n\n\ndef dead():\n    return dead()\n',
        "b.py": "from .a import Y\nimport a\n\n\nclass C:\n    z = a.live\n\n\ndef live():\n    pass\n",
    }
    assert unreferenced_names(sources) == ["C", "dead"]


def test_no_test_only_library_code():
    # Library code that only tests call belongs in the tests; a name stays
    # when the package reads it or exports it.
    package = Path(fnequiv.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert [n for n in unreferenced_names(sources) if n not in PUBLIC_NAMES] == []


def traced_functions() -> list[tuple[str, str]]:
    """The benchmark's ``TRACED`` (module, function) pairs, read from its
    source without importing it."""
    for stmt in ast.parse(SPANS.read_text()).body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["TRACED"]:
            return list(ast.literal_eval(stmt.value))
    raise AssertionError("perfbench/spans.py defines no TRACED")


@pytest.mark.parametrize(
    "module,name", [pytest.param(*pair, id=".".join(pair)) for pair in traced_functions()]
)
def test_traced_function_exists(module, name):
    # The traced benchmark run wraps each of these by name; a rename would
    # otherwise break only that run.
    assert callable(getattr(importlib.import_module(f"fnequiv.{module}"), name, None))


def forward_backward_sites(source: str) -> list[str]:
    """Where ``source`` multiplies matrices (``@``, ``@=``, ``matmul``,
    ``dot``, ``einsum``) or applies an activation (``_apply``, ``_slope``),
    as "line: what" in line order."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in (
            "matmul", "dot", "einsum", "_apply", "_slope"
        ):
            sites.append((node.lineno, node.attr))
    return [f"{line}: {what}" for line, what in sorted(sites)]


def test_basin_runs_no_forward_or_backward_of_its_own():
    # The forward/backward pass lives in nncore only; basin trains through it.
    basin = Path(fnequiv.__file__).parent / "basin.py"
    assert forward_backward_sites(basin.read_text()) == []


def test_forward_backward_site_detector():
    source = "@dataclass\nclass C:\n    pass\n\n\nz = h @ W\nz @= W\n"
    source += "np.matmul(a, b, out=c)\nnp.dot(a, b)\nact._apply(z, z)\nact._slope(y)\n"
    assert forward_backward_sites(source) == [
        "6: @", "7: @", "8: matmul", "9: dot", "10: _apply", "11: _slope"
    ]


PACKAGE_MODULES = {p.stem for p in SOURCES}


def broken_references(module: str, source: str) -> list[str]:
    """Cross-references in the text of ``fnequiv.<module>`` that name
    nothing: each ``m.name`` whose ``m`` is a package module must be an
    attribute of ``fnequiv.m``, and each (see ``name``) one of the module
    itself."""
    broken = [
        f"{m}.{name}"
        for m, name in re.findall(r"``(\w+)\.(\w+)", source)
        if m in PACKAGE_MODULES and not hasattr(importlib.import_module(f"fnequiv.{m}"), name)
    ]
    own = importlib.import_module(f"fnequiv.{module}")
    return broken + [n for n in re.findall(r"\(see[\s#]+``(\w+)``", source) if not hasattr(own, n)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_references_resolve(path):
    assert broken_references(path.stem, path.read_text()) == []


def test_broken_reference_detector():
    source = "See ``nncore.stack_block`` and ``nncore.gone``, not ``np.gone``.\n"
    source += "# (see ``forward_batch``) (see\n# ``missing``) (see ``basin.also_gone``)\n"
    assert broken_references("nncore", source) == ["nncore.gone", "basin.also_gone", "missing"]
