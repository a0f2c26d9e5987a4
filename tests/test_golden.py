"""Byte-for-byte pins of CLI outputs that refactors must leave unchanged.

Each case runs the CLI from a fixed working directory with relative input
and output paths, so the echoed configuration holds no temporary path.  The
sha256 of everything written to stdout is pinned; for ``basin``, so are the
files it writes under its relative ``--output-prefix``.

The pins hold for floating-point kernels with fused multiply-add (FMA).
Under ``OPENBLAS_CORETYPE=Prescott``, which has none, 5 of them fail, with
changes only in the last digits of floats.  ``test_kernel_changes_no_decision``
reruns those 5 cases under such kernels and checks that every decision
stays the same and every float within a stated bound.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fnequiv
from fnequiv.cli import OUTPUT_DIR_ENV, main
from test_cli import scipy_modules_after

BOUND_CONFIG = {
    "arch": {"d0": 2, "hidden": [3], "out": 1, "activations": ["relu"]},
    "B": 1.5,
    "B_x": 1.0,
    "epsilon": 0.5,
}
SWEEP = {"epsilon": [0.01, 2.0], "B": [1.0, 2.0], "hidden": [[3], [4, 4], [170]]}
# From width 171 the Stirling sides leave the double range, and from 1559 d!
# has more digits than Python converts to a string: their cells print empty.
WIDE_SWEEP = {"hidden": [[171], [1559]]}

TANH_NET = {
    "arch": {"d0": 2, "hidden": [3], "out": 1, "activations": ["tanh"]},
    "layers": [
        {"W": [[0.5, -1.25], [0.1, 0.3], [-2.0, 0.7]], "b": [0.2, -0.4, 0.0]},
        {"W": [[1.5, -0.6, 0.9]], "b": [0.05]},
    ],
}
RELU_NET = {**TANH_NET, "arch": {**TANH_NET["arch"], "activations": ["relu"]}}
# TANH_NET with its hidden neurons permuted by [2, 0, 1].
TANH_PERMUTED = {
    "arch": TANH_NET["arch"],
    "layers": [
        {"W": [[-2.0, 0.7], [0.5, -1.25], [0.1, 0.3]], "b": [0.0, 0.2, -0.4]},
        {"W": [[0.9, 1.5, -0.6]], "b": [0.05]},
    ],
}

TRANSFORMS = {
    "perm.json": {"kind": "permutation", "perms": [[2, 0, 1]]},
    "scale.json": {"kind": "scaling", "layer": 1, "alpha": [2.0, 0.5, 3.0]},
    "flip.json": {"kind": "sign_flip", "layer": 1, "signs": [-1, 1, -1]},
}

OVERRIDES = ["--epsilon", "0.25", "--B", "2", "--bx", "0.5"]

CASES = {
    "bounds_sweep_csv": ["bounds", "--config", "cfg.json", "--sweep", "sweep.json"],
    "bounds_sweep_json": [
        "bounds", "--config", "cfg.json", "--sweep", "sweep.json", "--format", "json",
    ],
    "bounds_overrides_csv": ["bounds", "--config", "cfg.json", *OVERRIDES],
    "bounds_wide_csv": ["bounds", "--config", "cfg.json", "--sweep", "wide.json"],
    "bounds_overrides_json": ["bounds", "--config", "cfg.json", *OVERRIDES, "--format", "json"],
    "entropy_csv": ["entropy-compare", "--config", "cfg.json", "--epsilon", "2", "--format", "csv"],
    "entropy_json": ["entropy-compare", "--config", "cfg.json", *OVERRIDES],
    "transform_permutation": ["transform", "--network", "tanh.json", "--transform", "perm.json"],
    "transform_scaling": ["transform", "--network", "relu.json", "--transform", "scale.json"],
    "transform_sign_flip": ["transform", "--network", "tanh.json", "--transform", "flip.json"],
    "canonicalize": ["canonicalize", "--network", "tanh.json"],
    "check_equiv": ["check-equiv", "--first", "tanh.json", "--second", "tanh_permuted.json"],
    "covering_sweep_greedy": [
        "covering-sweep", "--dim", "2", "--points-per-axis", "5", "--epsilons", "0.3,0.6",
    ],
    "covering_sweep_exact": [
        "covering-sweep", "--dim", "2", "--points-per-axis", "5", "--epsilons", "0.3,0.6",
        "--exact",
    ],
    # The grid of the fclass-cover benchmark workload.
    "covering_sweep_exact_grid12": [
        "covering-sweep", "--dim", "2", "--points-per-axis", "12", "--epsilons",
        "0.1875,0.375,0.75", "--exact",
    ],
    "verify_sandwich": ["verify", "sandwich"],
    "verify_amplification": ["verify", "amplification"],
    "verify_permutation": ["verify", "permutation"],
}

DIGESTS = {
    "bounds_sweep_csv": "fd84540fee1a6b1c7cae0cfe433d85c318cf1163717c6061be223b42a46f566f",
    "bounds_sweep_json": "6dd6f8ce653836fd597a3693d53dc26025ad7725c5951cf432360b59ac1cd82c",
    "bounds_overrides_csv": "bd11581fb74431830b82a1e38c1818b77ef33ab8466624bb6bae5b52300b332a",
    "bounds_overrides_json": "bb3bde4e1a49bf58ec58218525eb7ed21626005601f66bac3044aa6aa04d0e9c",
    "bounds_wide_csv": "b8beb3549e6106940b7ee2fba7b793d3cf99fbc60efd9a39ec3de708bd2f305e",
    "entropy_csv": "d87953c3183cba2b6063c2d7986762ac73f1218c57314c22c0c82072e3c5d7ac",
    "entropy_json": "fd8c4502f1058469902e5db526e84c4371db92a8c3e7c87e118a7a50d7b1ff6b",
    "transform_permutation": "592f5ec8867fd3f5b56655d6c8f89862a24a4acfd46913be444a5e7b576bea4b",
    "transform_scaling": "8ee1d0df2830723d2fc74152c354f3184414da76573ff82d30ed2c02c3b23d4c",
    "transform_sign_flip": "a77189216f5c151484a4839bea4dfad1f0f991cd6931465b07764c432f2b29f3",
    "canonicalize": "0ef94f7fcc57342a5a588df161288d74592d154432555287c71ce45977be6536",
    "check_equiv": "4dfa74632e813b0c3295892a796f01ee3f7d23ea34f7fb557be69d6c66207ee0",
    "covering_sweep_greedy": "f5c9485f89139a9fbadfd247f0cf2922050f4c0da0282053ed137dd8a1f881d9",
    "covering_sweep_exact": "947b36493bcbf828240189607a87d5346d629ed47b37912667429f65598cb8b3",
    "covering_sweep_exact_grid12": "ac194a3ac1d80c16674fbf076ce9d8401b428fea012fd67a18ade9ba7eead5e8",
    "verify_sandwich": "c932e2a1dae185fa8597e4af9e9d2897728d4a98c70ddeb8ac4002ca24ebccc4",
    "verify_amplification": "1bf3463866b7fb3946a0a351d5f03a0fb860b6aa2eaed9c1ca9687b52eba693e",
    "verify_permutation": "0a6ce24df1df6b576001d7ac655ed948c14ffc1f76df56a1a626d4aa0dd31aec",
}

BASIN = [
    "basin", "--arch", "2-3-1", "--n-runs", "6", "--iters", "200", "--step-size", "0.5",
    "--grad-threshold", "1e-3",
]
# (argv, output prefix); the files checked are <prefix>.summary.json and <prefix>.runs.csv.
BASIN_CASES = {
    "basin_xor": ([*BASIN, "--jobs", "2", "--output-prefix", "xor"], "xor"),
    "basin_teacher": (
        [
            *BASIN, "--dataset", "teacher", "--teacher-network", "tanh.json", "--n-points", "8",
            "--bx", "2", "--output-prefix", "teacher",
        ],
        "teacher",
    ),
    "basin_xor_tolerance": (
        [*BASIN, "--dataset", "xor", "--cluster-tolerance", "0.05", "--output-prefix", "xortol"],
        "xortol",
    ),
    # Half of these runs stop short of convergence, so their cluster cells are empty.
    "basin_xor_partial": (
        ["basin", "--arch", "2-3-1", "--n-runs", "6", "--iters", "50", "--step-size", "0.5",
         "--grad-threshold", "1e-3", "--output-prefix", "partial"],
        "partial",
    ),
}

BASIN_DIGESTS = {
    "basin_xor": "d4168ce5589118b363347d34b7455718d99141f09fa654ebae2b0d8b49db742a",
    "basin_teacher": "df59c7196d40b6a11b647c478d48c8f3140a5b3b1ce3c57a9d82324637c33f3e",
    "basin_xor_tolerance": "2408967ab555b5c5d3509a88747b9720e9bd8124b53e953dd1550cf3396a60eb",
    "basin_xor_partial": "99cde11541bc48de674941ce59c05515960cbd05b8e570721ca593f523bacb2d",
}


def write_inputs(directory) -> None:
    files = {
        "cfg.json": BOUND_CONFIG,
        "sweep.json": SWEEP,
        "wide.json": WIDE_SWEEP,
        "tanh.json": TANH_NET,
        "relu.json": RELU_NET,
        "tanh_permuted.json": TANH_PERMUTED,
        **TRANSFORMS,
    }
    for name, doc in files.items():
        (directory / name).write_text(json.dumps(doc))


def stdout_digest(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_pinned(case, tmp_path, monkeypatch, capsys):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert stdout_digest(CASES[case], capsys) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(BASIN_CASES))
def test_basin_output_files_pinned(case, tmp_path, monkeypatch, capsys):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    argv, prefix = BASIN_CASES[case]
    digest = hashlib.sha256(stdout_digest(argv, capsys).encode())
    for suffix in (".summary.json", ".runs.csv"):
        digest.update((tmp_path / (prefix + suffix)).read_bytes())
    assert digest.hexdigest() == BASIN_DIGESTS[case]


def test_certified_sweep_loads_no_milp_solver():
    # Every exact count of this sweep is certified without the solver, and
    # the distances are the package's own, so a fresh process imports no
    # scipy module at all.
    case = "covering_sweep_exact_grid12"
    code = "import contextlib, hashlib, io, sys; from fnequiv.cli import main\n"
    code += "out = io.StringIO()\nwith contextlib.redirect_stdout(out):\n"
    code += f"    assert main({CASES[case]!r}) == 0\n"
    code += f"assert hashlib.sha256(out.getvalue().encode()).hexdigest() == {DIGESTS[case]!r}\n"
    code += "assert 'scipy.optimize' not in sys.modules"
    assert scipy_modules_after(code) == "[]"


# Numeric environments with other floating-point kernels: OpenBLAS without
# FMA, and numpy with its AVX2/FMA and AVX-512 loops switched off.
KERNEL_ENVS = {
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_no_avx2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}
# The pinned cases whose bytes depend on the kernel.
KERNEL_CASES = (
    "transform_permutation", "basin_xor", "basin_teacher", "basin_xor_tolerance",
    "basin_xor_partial",
)
# The transform's self-check is a rounding residue (2.2e-16 to 4.4e-16
# measured); the basin's final losses, cluster tolerance and delta_min move
# by at most 3.5e-12 relative.
SELF_CHECK_MAX = 1e-14
BASIN_FLOAT_RTOL = 1e-9
SELF_CHECK = "self-check: sampled sup distance to original = "

RUN_CASES = """import contextlib, io, json, sys
from fnequiv.cli import main
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    results[name] = [status, out.getvalue()]
print(json.dumps(results))
"""


def kernel_case_outputs(directory, extra_env) -> tuple[dict, dict]:
    """Run ``KERNEL_CASES`` in ``directory``, in a fresh interpreter whose
    environment adds ``extra_env``, and split each case's outputs into its
    decisions, to compare exactly, and its floats that the kernel may move:
    the transform's self-check distance, and the basin's cluster
    tolerance, delta_min and final losses."""
    directory.mkdir()
    write_inputs(directory)
    argvs = {c: CASES[c] if c in CASES else BASIN_CASES[c][0] for c in KERNEL_CASES}
    paths = [str(Path(fnequiv.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra_env}
    env.pop(OUTPUT_DIR_ENV, None)
    run = subprocess.run(
        [sys.executable, "-c", RUN_CASES, json.dumps(argvs)],
        cwd=directory, env=env, capture_output=True, text=True, check=True,
    )
    decisions, floats = {}, {}
    for case, (status, out) in json.loads(run.stdout).items():
        if case not in BASIN_CASES:
            document, _, residue = out.rpartition(SELF_CHECK)
            decisions[case] = (status, document)
            floats[case] = [float(residue)]
            continue
        prefix = BASIN_CASES[case][1]
        doc = json.loads((directory / f"{prefix}.summary.json").read_text())
        summary = doc["summary"]
        floats[case] = [summary.pop("cluster_tolerance")]
        if summary["reference_profile"] is not None:
            floats[case].append(summary["reference_profile"].pop("delta_min"))
        lines = (directory / f"{prefix}.runs.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        loss = rows[0].index("final_loss")
        floats[case] += [float(row.pop(loss)) for row in rows[1:]]
        decisions[case] = (status, out, doc, rows)
    return decisions, floats


@pytest.fixture(scope="module")
def default_kernel_outputs(tmp_path_factory):
    return kernel_case_outputs(tmp_path_factory.mktemp("kernels") / "default", {})


@pytest.mark.parametrize("env_name", sorted(KERNEL_ENVS))
def test_kernel_changes_no_decision(env_name, default_kernel_outputs, tmp_path):
    # Exit codes, the transformed network, iteration counts,
    # converged/diverged flags, cluster ids and sizes are equal; only
    # floats may move, within the bounds above.
    want_decisions, want_floats = default_kernel_outputs
    decisions, floats = kernel_case_outputs(tmp_path / env_name, KERNEL_ENVS[env_name])
    assert decisions == want_decisions
    for case in KERNEL_CASES:
        if case in BASIN_CASES:
            np.testing.assert_allclose(floats[case], want_floats[case], rtol=BASIN_FLOAT_RTOL, atol=0)
        else:
            assert max(floats[case] + want_floats[case]) <= SELF_CHECK_MAX
