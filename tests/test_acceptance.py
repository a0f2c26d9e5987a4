"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``); ``pytest -v``
shows one line per criterion either way.  Criteria with runtime targets
assert them.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fnequiv.basin import (
    InitScheme,
    OptimizerConfig,
    amplification_check,
    initialize,
    teacher_dataset,
    train,
)
from fnequiv.bounds import (
    BoundConfig,
    deep_covering_bound,
    shallow_covering_bound,
    stirling_bracket,
    volume_covering_bound,
)
from fnequiv.canonical import canonicalize, distinct_permutation_images, effective_volume, symmetry_profile
from fnequiv.cli import main as cli_main
from fnequiv.empirical import (
    exact_covering_number,
    exact_packing_number,
    function_class_sample,
    greedy_covering_estimate,
    grid_sample,
)
from fnequiv.equivalence import ball_points
from fnequiv.errors import UnsupportedTransformError
from fnequiv.nncore import (
    Architecture,
    Network,
    NetworkParams,
    RELU,
    SIGMOID,
    TANH,
    forward_batch,
    leaky_relu,
    params_identical,
    random_params,
    save_network,
)
from fnequiv.transforms import (
    apply_permutation,
    apply_scaling,
    apply_sign_flip,
    random_spec,
)

from oracles import mp_deep_log, mp_shallow_log, params_max_diff

TABLE_ACTIVATIONS = (RELU, leaky_relu(0.1), TANH, SIGMOID)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


def test_criterion_01_permutation_equivalence_suite():
    with criterion(1, "permutation equivalence on 100 archs x 10 perms x 1000 inputs"):
        start = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            L = int(rng.integers(1, 4))
            widths = tuple(int(w) for w in rng.integers(1, 9, L))
            acts = tuple(
                TABLE_ACTIVATIONS[rng.integers(0, len(TABLE_ACTIVATIONS))] for _ in range(L)
            )
            arch = Architecture(int(rng.integers(1, 5)), widths, acts)
            params = random_params(arch, rng)
            X = ball_points(arch.input_dim, 1000, 1.0, seed=int(rng.integers(2**31)))
            base = forward_batch(arch, params, X)
            for _ in range(10):
                spec = random_spec(arch, rng)
                permuted = apply_permutation(params, spec)
                gap = float(np.abs(forward_batch(arch, permuted, X) - base).max())
                worst = max(worst, gap)
        elapsed = time.time() - start
        assert worst <= 1e-9, f"max gap {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_activation_gating_matrix():
    with criterion(2, "scaling/sign-flip gating matches activation capabilities"):
        rng = np.random.default_rng(7)
        scaling_ok = {"relu", "leaky_relu"}
        flip_ok = {"tanh"}
        for act in TABLE_ACTIVATIONS:
            for trial in range(25):
                width = int(rng.integers(1, 6))
                arch = Architecture(int(rng.integers(1, 4)), (width,), (act,))
                params = random_params(arch, rng)
                alpha = (float(rng.uniform(0.5, 2.0)),) * width
                if act.name in scaling_ok:
                    scaled = apply_scaling(arch, params, 1, alpha)
                    X = ball_points(arch.input_dim, 200, 1.0, seed=trial)
                    gap = np.abs(
                        forward_batch(arch, scaled, X) - forward_batch(arch, params, X)
                    ).max()
                    assert gap <= 1e-9
                else:
                    with pytest.raises(UnsupportedTransformError):
                        apply_scaling(arch, params, 1, alpha)
                signs = rng.choice([-1.0, 1.0], width)
                if act.name in flip_ok:
                    flipped = apply_sign_flip(arch, params, 1, signs)
                    X = ball_points(arch.input_dim, 200, 1.0, seed=trial)
                    gap = np.abs(
                        forward_batch(arch, flipped, X) - forward_batch(arch, params, X)
                    ).max()
                    assert gap <= 1e-9
                else:
                    with pytest.raises(UnsupportedTransformError):
                        apply_sign_flip(arch, params, 1, signs)


def _full_unit_duplicate_shallow():
    W1 = [[0.5], [0.5], [-0.25], [0.75]]
    b1 = [0.1, 0.1, 0.4, -0.3]
    W2 = [[0.2, 0.2, 0.7, -0.6]]
    return NetworkParams(((W1, b1), (W2, [0.0]))), 12  # 4!/2!


def _full_unit_duplicate_deep():
    # layer 2 duplicates neurons 0 and 1 in full (row of (W2|b2) and column
    # of W3); layer 1 rows all distinct
    W1 = [[0.3], [-0.6], [0.9]]
    b1 = [0.2, -0.1, 0.4]
    W2 = [[0.5, 0.1, -0.2], [0.5, 0.1, -0.2], [0.7, -0.3, 0.6]]
    b2 = [0.25, 0.25, -0.5]
    W3 = [[0.4, 0.4, -0.8]]
    params = NetworkParams(((W1, b1), (W2, b2), (W3, [0.0])))
    return params, math.factorial(3) * 3  # 6 * (3!/2!)


def test_criterion_03_canonicalization_orbit_collapse_and_counting():
    with criterion(3, "canonical orbit collapse (1000 pairs) and exact image counts"):
        rng = np.random.default_rng(99)
        archs = [
            Architecture(2, (3,), (TANH,)),
            Architecture(1, (4, 2), (RELU, TANH)),
            Architecture(3, (2, 3, 2), (TANH, SIGMOID, RELU)),
        ]
        for i in range(1000):
            arch = archs[i % len(archs)]
            params = random_params(arch, rng)
            spec = random_spec(arch, rng)
            c1 = canonicalize(params).params
            c2 = canonicalize(apply_permutation(params, spec)).params
            assert params_identical(c1, c2)

        # exact counting: all-distinct rows give the full factorial product
        for arch in (Architecture(1, (4,), (TANH,)), Architecture(1, (3, 2), (TANH, TANH))):
            params = random_params(arch, rng)
            profile = symmetry_profile(params)
            images = distinct_permutation_images(params)
            expected = 1
            for d in arch.hidden_widths:
                expected *= math.factorial(d)
            assert len(images) == expected == profile.total_multiplicity

        # duplicated-row cases (entire neurons duplicated)
        for params, expected in (_full_unit_duplicate_shallow(), _full_unit_duplicate_deep()):
            profile = symmetry_profile(params)
            images = distinct_permutation_images(params)
            assert len(images) == expected == profile.total_multiplicity


def test_criterion_04_bound_formula_fidelity():
    with criterion(4, "bound formulas vs high-precision oracle; exact discounts; Stirling"):
        rng = np.random.default_rng(41)
        for i in range(50):
            d0 = int(rng.integers(1, 6))
            B = float(rng.uniform(1.0, 3.0))
            Bx = float(rng.uniform(0.2, 2.5))
            eps = float(rng.uniform(0.005, 1.5))
            if i < 25:
                d1 = int(rng.integers(1, 9))
                rho = float(rng.uniform(0.2, 2.0))
                cfg = BoundConfig(
                    Architecture(d0, (d1,), (TANH,)), B, Bx, eps, rho=(rho,)
                )
                got = shallow_covering_bound(cfg)
                want = mp_shallow_log(d0, d1, B, Bx, rho, eps)
                assert got == pytest.approx(want, rel=1e-10)
            else:
                L = int(rng.integers(1, 4))
                hidden = tuple(int(w) for w in rng.integers(1, 9, L))
                rhos = tuple(float(r) for r in rng.uniform(0.2, 1.5, L))
                cfg = BoundConfig(
                    Architecture(d0, hidden, (TANH,) * L), B, Bx, eps, rho=rhos
                )
                got = deep_covering_bound(cfg)
                want = mp_deep_log(d0, hidden, B, Bx, rhos, eps)
                assert got == pytest.approx(want, rel=1e-10)

        # the permutation discount is exactly -sum_l log(d_l!)
        disc = -Architecture(2, (3, 5), (TANH, TANH)).log_permutation_count
        assert disc == -(math.lgamma(4) + math.lgamma(6))

        for d in range(1, 171):
            br = stirling_bracket(d)
            assert br.lower < br.factorial < br.upper


# radii clear of attainable grid distances, so every comparison is exact
SANDWICH_EPSILONS = (0.11, 0.17, 0.23, 0.29, 0.37, 0.43, 0.55, 0.71, 0.93, 1.27)


def test_criterion_05_sandwich_and_volume_bound():
    with criterion(5, "packing/covering sandwich and volume bound on exact oracles"):
        for dim, per_axis in ((1, 11), (2, 11), (3, 5)):
            space = grid_sample(dim, per_axis)
            assert len(space) <= 150
            for eps in SANDWICH_EPSILONS:
                n_eps = exact_covering_number(space, eps)
                m_2eps = exact_packing_number(space, 2.0 * eps)
                m_half = exact_packing_number(space, eps / 2.0)
                assert m_2eps <= n_eps <= m_half, (dim, eps)
                assert m_half <= volume_covering_bound(dim, 2.0**dim, eps), (dim, eps)


def test_criterion_06_empirical_below_theory():
    with criterion(6, "empirical function-class cover below the shallow bound"):
        arch = Architecture(1, (2,), (RELU,))
        sample = function_class_sample(arch, B=1.0, grid_resolution=3, B_x=1.0, n_eval_points=16)
        estimate = greedy_covering_estimate(sample, 0.5)
        cfg = BoundConfig(arch, B=1.0, B_x=1.0, epsilon=0.5)
        assert math.log(estimate) <= shallow_covering_bound(cfg)


def test_criterion_07_geometric_amplification():
    with criterion(7, "orbit-hit probability amplification on 2e5 raw draws"):
        start = time.time()
        arch = Architecture(1, (2,), (RELU,))
        theta_star = NetworkParams(
            (
                (np.array([[0.5], [-0.5]]), np.array([0.25, -0.25])),
                (np.array([[0.5, -0.5]]), np.array([0.0])),
            )
        )
        scheme = InitScheme("uniform", seed=7, low=-1.0, high=1.0)
        result = amplification_check(arch, scheme, theta_star, 200_000)
        assert result.predicted_ratio == 2
        assert abs(result.ratio - 2.0) <= 3.0 * result.se_ratio, (
            f"ratio {result.ratio:.4f}, 3se {3 * result.se_ratio:.4f}"
        )

        theta_dup = NetworkParams(
            (
                (np.array([[0.5], [0.5]]), np.array([0.25, 0.25])),
                (np.array([[0.5, 0.5]]), np.array([0.0])),
            )
        )
        dup = amplification_check(arch, scheme, theta_dup, 200_000, tolerance=0.5)
        assert dup.ratio == 1.0
        elapsed = time.time() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_08_gradient_descent_equivariance():
    with criterion(8, "training commutes with permutation over 50 seeded runs"):
        arch = Architecture(1, (3,), (TANH,))
        rng = np.random.default_rng(80)
        teacher = random_params(arch, rng)
        dataset = teacher_dataset(arch, teacher, 16, 1.0, seed=81)
        cfg = OptimizerConfig(step_size=0.2, max_iters=300, grad_threshold=0.0)
        for seed in range(50):
            theta0 = initialize(arch, InitScheme("uniform", seed=seed))
            spec = random_spec(arch, np.random.default_rng(seed + 1000))
            plain = train(arch, theta0, dataset, cfg)
            permuted = train(arch, apply_permutation(theta0, spec), dataset, cfg)
            drift = params_max_diff(
                apply_permutation(plain.final_params, spec), permuted.final_params
            )
            assert drift <= 1e-8, f"seed {seed}: drift {drift:.2e}"


def test_criterion_09_vanishing_effective_volume():
    with criterion(9, "effective volume of 1-d-1 shrinks below 1e-6 by d=32"):
        # the factorial overtakes 2^S from d=8 on, so the monotone window
        # starts there; the limit statement itself is asymptotic
        logs = [
            effective_volume(Architecture(1, (d,), (RELU,)), 1.0).log_effective
            for d in range(8, 33)
        ]
        assert all(a > b for a, b in zip(logs, logs[1:]))
        assert math.exp(logs[-1]) < 1e-6


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "every CLI subcommand is byte-deterministic"):
        arch = Architecture(1, (2,), (TANH,))
        params = NetworkParams((([[1.0], [2.0]], [3.0, 4.0]), ([[5.0, 6.0]], [7.0])))
        net_a = tmp_path / "a.json"
        save_network(Network(arch, params), net_a)
        net_b = tmp_path / "b.json"
        save_network(
            Network(arch, apply_permutation(params, random_spec(arch, np.random.default_rng(3)))),
            net_b,
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "permutation", "perms": [[1, 0]]}))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "arch": {"d0": 1, "hidden": [2], "out": 1, "activations": ["relu"]},
                    "B": 1.0,
                    "B_x": 1.0,
                    "epsilon": 0.5,
                }
            )
        )
        commands = {
            "transform": ["transform", "--network", str(net_a), "--transform", str(spec_file)],
            "canonicalize": ["canonicalize", "--network", str(net_a)],
            "check-equiv": ["check-equiv", "--first", str(net_a), "--second", str(net_b)],
            "bounds": ["bounds", "--config", str(cfg_file)],
            "entropy-compare": ["entropy-compare", "--config", str(cfg_file)],
            "covering-sweep": [
                "covering-sweep",
                "--dim",
                "1",
                "--points-per-axis",
                "9",
                "--epsilons",
                "0.375,0.75",
                "--exact",
            ],
            "basin": [
                "basin",
                "--arch",
                "2-3-1",
                "--n-runs",
                "4",
                "--iters",
                "150",
                "--step-size",
                "0.5",
                "--grad-threshold",
                "1e-3",
            ],
            "verify": ["verify", "permutation"],
        }
        for name, base_args in commands.items():
            args = list(base_args)
            files = []
            if name == "basin":
                prefix = tmp_path / "exp"
                args += ["--output-prefix", str(prefix)]
                files = [tmp_path / "exp.summary.json", tmp_path / "exp.runs.csv"]
            else:
                out = tmp_path / f"{name}.out"
                args += ["--output", str(out)]
                files = [out]
            snapshots = []
            for _ in range(2):
                code = cli_main(args)
                stdout = capsys.readouterr().out
                assert code == 0, name
                snapshots.append((stdout, [f.read_bytes() for f in files]))
            assert snapshots[0] == snapshots[1], f"{name} output not deterministic"
