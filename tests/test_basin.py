import math
import tracemalloc

import numpy as np
import pytest

from fnequiv.basin import (
    InitScheme,
    OptimizerConfig,
    amplification_check,
    basin_experiment,
    dataset_from_csv,
    dataset_to_csv,
    initialize,
    initialize_batch,
    orbit_membership,
    teacher_dataset,
    train,
    xor_dataset,
)
from fnequiv.canonical import symmetry_profile
from fnequiv.errors import DomainError
from fnequiv.nncore import (
    Architecture,
    NetworkParams,
    RELU,
    TANH,
    mse_loss,
    params_max_diff,
    random_params,
)
from fnequiv.transforms import PermutationSpec, apply_permutation, random_spec
from oracles import gd_reference


def two_distinct_rows_params():
    return NetworkParams(
        (
            (np.array([[0.5], [-0.5]]), np.array([0.25, -0.25])),
            (np.array([[0.5, -0.5]]), np.array([0.0])),
        )
    )


def duplicated_rows_params():
    return NetworkParams(
        (
            (np.array([[0.5], [0.5]]), np.array([0.25, 0.25])),
            (np.array([[0.5, 0.5]]), np.array([0.0])),
        )
    )


class TestInitialize:
    def test_degenerate_uniform_gives_zeros(self):
        arch = Architecture(1, (2,), (RELU,))
        params = initialize(arch, InitScheme("uniform", seed=0, low=0.0, high=0.0))
        assert params.max_abs() == 0.0

    def test_reproducible_from_seed(self):
        arch = Architecture(2, (3,), (TANH,))
        a = initialize(arch, InitScheme("normal", seed=9, sigma=0.5))
        b = initialize(arch, InitScheme("normal", seed=9, sigma=0.5))
        assert params_max_diff(a, b) == 0.0

    def test_xavier_layer_variance(self):
        arch = Architecture(1, (2,), (TANH,))
        draws = initialize_batch(arch, InitScheme("xavier", seed=1), 100_000)
        # layer-1 weights occupy the first 2 flat slots; fan_in=1, fan_out=2
        w = draws[:, :2].ravel()
        assert w.var() == pytest.approx(2.0 / 3.0, rel=0.02)
        # biases are zero
        assert np.all(draws[:, 2:4] == 0.0)

    def test_he_layer_variance(self):
        arch = Architecture(4, (3,), (RELU,))
        draws = initialize_batch(arch, InitScheme("he", seed=2), 50_000)
        w = draws[:, : 4 * 3].ravel()
        assert w.var() == pytest.approx(2.0 / 4.0, rel=0.02)

    def test_entries_exchangeable_within_layer(self):
        arch = Architecture(1, (2,), (TANH,))
        draws = initialize_batch(arch, InitScheme("uniform", seed=3), 100_000)
        w11, w21 = draws[:, 0], draws[:, 1]
        n = draws.shape[0]
        se_mean = w11.std() / math.sqrt(n)
        assert abs(w11.mean() - w21.mean()) < 3 * se_mean * math.sqrt(2)
        se_var = w11.var() * math.sqrt(2.0 / n)
        assert abs(w11.var() - w21.var()) < 3 * se_var * math.sqrt(2)

    def test_permuted_init_same_distribution(self):
        # empirical check of the distributional identity behind the
        # amplification factor
        arch = Architecture(1, (2,), (TANH,))
        draws = initialize_batch(arch, InitScheme("uniform", seed=4), 50_000)
        spec = random_spec(arch, np.random.default_rng(5))
        from fnequiv.nncore import params_from_flat

        permuted = np.stack(
            [apply_permutation(params_from_flat(arch, d), spec).flat() for d in draws[:2000]]
        )
        base = draws[:2000]
        assert abs(base.mean() - permuted.mean()) < 1e-12  # same multiset of entries
        assert np.allclose(np.sort(base, axis=None), np.sort(permuted, axis=None))

    def test_invalid_schemes(self):
        with pytest.raises(DomainError):
            InitScheme("uniform", low=1.0, high=0.0)
        with pytest.raises(DomainError):
            InitScheme("normal", sigma=-1.0)
        with pytest.raises(DomainError):
            InitScheme("orthogonal")


class TestTrain:
    def test_self_generated_data_converges_immediately(self):
        arch = Architecture(1, (2,), (TANH,))
        theta0 = initialize(arch, InitScheme("uniform", seed=6))
        X, Y = teacher_dataset(arch, theta0, 8, 1.0, seed=7)
        run = train(arch, theta0, (X, Y), OptimizerConfig(0.1, 100))
        assert run.converged and run.iterations == 0
        assert run.final_loss == 0.0

    def test_permuted_teacher_is_a_global_minimum(self):
        arch = Architecture(1, (2,), (RELU,))
        rng = np.random.default_rng(8)
        teacher = random_params(arch, rng)
        X, Y = teacher_dataset(arch, teacher, 16, 1.0, seed=9)
        student0 = apply_permutation(teacher, random_spec(arch, rng))
        run = train(arch, student0, (X, Y), OptimizerConfig(0.1, 100))
        assert run.final_loss <= 1e-24
        assert run.converged and run.iterations == 0

    def test_divergence_flagged_not_raised(self):
        arch = Architecture(1, (2,), (RELU,))
        theta0 = initialize(arch, InitScheme("uniform", seed=10))
        X, Y = xor_dataset()[0][:, :1], xor_dataset()[1]
        run = train(arch, theta0, (X, Y), OptimizerConfig(step_size=1e6, max_iters=200))
        assert run.diverged and not run.converged

    def test_empty_dataset_rejected(self):
        arch = Architecture(1, (2,), (RELU,))
        theta0 = initialize(arch, InitScheme("uniform", seed=11))
        with pytest.raises(DomainError):
            train(arch, theta0, (np.zeros((0, 1)), np.zeros((0, 1))), OptimizerConfig(0.1, 10))

    def test_loss_invariant_under_permutation(self):
        arch = Architecture(2, (4,), (TANH,))
        rng = np.random.default_rng(12)
        params = random_params(arch, rng)
        X, Y = xor_dataset()
        base = mse_loss(arch, params, X, Y)
        for _ in range(10):
            permuted = apply_permutation(params, random_spec(arch, rng))
            assert abs(mse_loss(arch, permuted, X, Y) - base) <= 1e-12


class TestGDEquivariance:
    def test_training_commutes_with_permutation(self):
        arch = Architecture(1, (3,), (TANH,))
        rng = np.random.default_rng(13)
        teacher = random_params(arch, rng)
        dataset = teacher_dataset(arch, teacher, 16, 1.0, seed=14)
        cfg = OptimizerConfig(step_size=0.2, max_iters=300, grad_threshold=0.0)
        for seed in range(10):
            theta0 = initialize(arch, InitScheme("uniform", seed=seed))
            spec = random_spec(arch, np.random.default_rng(seed + 100))
            plain = train(arch, theta0, dataset, cfg)
            permuted = train(arch, apply_permutation(theta0, spec), dataset, cfg)
            drift = params_max_diff(
                apply_permutation(plain.final_params, spec), permuted.final_params
            )
            assert drift <= 1e-8


class TestOrbitMembership:
    def test_permutation_image_is_member(self):
        rng = np.random.default_rng(15)
        arch = Architecture(1, (3,), (TANH,))
        theta = random_params(arch, rng)
        image = apply_permutation(theta, random_spec(arch, rng))
        assert orbit_membership(image, theta, 0.0)

    def test_row_perturbation_leaves_orbit(self):
        theta = two_distinct_rows_params()
        delta = symmetry_profile(theta).delta_min
        layers = list(theta.layers)
        W, b = layers[0]
        W = np.array(W)
        W[0, 0] += delta
        layers[0] = (W, b)
        moved = NetworkParams(tuple(layers))
        assert not orbit_membership(moved, theta, delta / 4.0)

    def test_far_point_not_member(self):
        theta = two_distinct_rows_params()
        far = NetworkParams(
            tuple((np.asarray(W) + 10.0, np.asarray(b) + 10.0) for W, b in theta.layers)
        )
        assert not orbit_membership(far, theta, 1.0)


class TestBasinExperiment:
    def test_degenerate_orbit_fraction_one(self):
        # every init sits exactly at the (single-point) solution orbit
        arch = Architecture(1, (2,), (TANH,))
        zero = initialize(arch, InitScheme("uniform", seed=0, low=0.0, high=0.0))
        dataset = teacher_dataset(arch, zero, 8, 1.0, seed=16)
        summary = basin_experiment(
            arch,
            InitScheme("uniform", seed=0, low=0.0, high=0.0),
            dataset,
            5,
            OptimizerConfig(0.1, 50),
            cluster_tolerance=1e-9,
        )
        assert summary.n_converged == 5
        assert summary.orbit_fraction == 1.0
        assert summary.single_fraction == 1.0
        assert summary.predicted_orbit_fraction == 1.0  # all rows identical

    def test_xor_finds_multiple_clusters(self):
        arch = Architecture(2, (4,), (TANH,))
        summary = basin_experiment(
            arch,
            InitScheme("uniform", seed=123),
            xor_dataset(),
            200,
            OptimizerConfig(step_size=0.5, max_iters=1500, grad_threshold=1e-3),
        )
        assert summary.n_converged > 0
        assert len(summary.cluster_sizes) >= 2
        assert sum(summary.cluster_sizes) == summary.n_converged

    def test_no_converged_runs_flagged(self):
        arch = Architecture(2, (2,), (TANH,))
        summary = basin_experiment(
            arch,
            InitScheme("uniform", seed=1),
            xor_dataset(),
            3,
            OptimizerConfig(step_size=1e-9, max_iters=3, grad_threshold=1e-12),
        )
        assert summary.no_converged_runs
        assert summary.n_converged == 0 and summary.cluster_sizes == ()

    def test_zero_tolerance_reported_without_converged_runs(self):
        summary = basin_experiment(
            Architecture(2, (2,), (TANH,)),
            InitScheme("uniform"),
            xor_dataset(),
            2,
            OptimizerConfig(0.1, 0),
            cluster_tolerance=0.0,
        )
        assert summary.no_converged_runs
        assert summary.cluster_tolerance == 0.0

    def test_cluster_ids_assigned(self):
        arch = Architecture(2, (3,), (TANH,))
        summary = basin_experiment(
            arch,
            InitScheme("uniform", seed=2),
            xor_dataset(),
            6,
            OptimizerConfig(step_size=0.5, max_iters=800, grad_threshold=1e-3),
        )
        for run in summary.runs:
            if run.converged:
                assert run.cluster_id is not None

    def test_result_independent_of_worker_count(self):
        arch = Architecture(2, (3,), (TANH,))
        scheme = InitScheme("uniform", seed=5)
        cfg = OptimizerConfig(step_size=0.5, max_iters=400, grad_threshold=1e-3)
        serial = basin_experiment(arch, scheme, xor_dataset(), 6, cfg)
        parallel = basin_experiment(arch, scheme, xor_dataset(), 6, cfg, n_jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()
        for a, b in zip(serial.runs, parallel.runs):
            assert params_max_diff(a.final_params, b.final_params) == 0.0


def _teacher_3_5_2_dataset():
    arch = Architecture(3, (5,), (TANH,), 2)
    teacher = random_params(arch, np.random.default_rng(1))
    return teacher_dataset(arch, teacher, 32, 1.0, seed=1)


# name -> (arch, scheme, dataset, optimizer, run outcomes the one lockstep
# batch of 16 runs must mix)
LOCKSTEP_CASES = {
    "xor_2_3_1_tanh": (
        Architecture(2, (3,), (TANH,)),
        InitScheme("uniform", seed=4),
        xor_dataset(),
        OptimizerConfig(step_size=0.5, max_iters=100, grad_threshold=1e-3),
        {"converged", "max_iters"},
    ),
    "xor_2_4_3_1_tanh_relu": (
        Architecture(2, (4, 3), (TANH, RELU)),
        InitScheme("uniform", seed=4),
        xor_dataset(),
        OptimizerConfig(step_size=0.5, max_iters=100, grad_threshold=1e-3),
        {"converged", "max_iters"},
    ),
    "teacher_3_5_2_tanh": (
        Architecture(3, (5,), (TANH,), 2),
        InitScheme("uniform", seed=4),
        _teacher_3_5_2_dataset(),
        OptimizerConfig(step_size=0.45, max_iters=30, grad_threshold=1e-2),
        {"converged", "diverged", "max_iters"},
    ),
    "xor_relu_diverging": (
        Architecture(2, (4,), (RELU,)),
        InitScheme("normal", seed=4),
        xor_dataset(),
        OptimizerConfig(step_size=50.0, max_iters=100, grad_threshold=1e-3),
        {"diverged"},
    ),
}


def _outcome(run):
    if run.diverged:
        return "diverged"
    return "converged" if run.converged else "max_iters"


def _bits(x):
    return np.float64(x).tobytes()


class TestLockstepTraining:
    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_runs_match_per_run_reference_bit_for_bit(self, name):
        arch, scheme, (X, Y), cfg, outcomes = LOCKSTEP_CASES[name]
        summary = basin_experiment(arch, scheme, (X, Y), 16, cfg)
        assert {_outcome(r) for r in summary.runs} == outcomes
        acts = [a.name for a in arch.activations]
        for run in summary.runs:
            layers, loss, iterations, converged, diverged = gd_reference(
                run.init_params.layers, acts, X, Y,
                cfg.step_size, cfg.max_iters, cfg.grad_threshold,
            )  # fmt: skip
            assert (run.iterations, run.converged, run.diverged) == (
                iterations, converged, diverged
            )
            assert _bits(run.final_loss) == _bits(loss)
            for (W, b), (W_ref, b_ref) in zip(run.final_params.layers, layers):
                assert W.tobytes() == W_ref.tobytes() and b.tobytes() == b_ref.tobytes()

    def test_one_run_blocks_change_nothing(self, monkeypatch):
        import fnequiv.basin as basin_mod

        arch, scheme, dataset, cfg, _ = LOCKSTEP_CASES["teacher_3_5_2_tanh"]
        together = basin_experiment(arch, scheme, dataset, 16, cfg)
        monkeypatch.setattr("fnequiv.nncore.STACK_BLOCK_BYTES", 1)
        alone = basin_experiment(arch, scheme, dataset, 16, cfg)
        assert together.to_json_dict() == alone.to_json_dict()
        for a, b in zip(together.runs, alone.runs):
            assert (a.seed, a.iterations, a.converged, a.diverged, a.cluster_id) == (
                b.seed, b.iterations, b.converged, b.diverged, b.cluster_id
            )
            assert _bits(a.final_loss) == _bits(b.final_loss)
            assert a.final_params.flat().tobytes() == b.final_params.flat().tobytes()
            assert a.canonical_flat.tobytes() == b.canonical_flat.tobytes()


class TestAmplification:
    def test_two_distinct_rows_ratio_near_two(self):
        arch = Architecture(1, (2,), (RELU,))
        result = amplification_check(
            arch, InitScheme("uniform", seed=7), two_distinct_rows_params(), 30_000
        )
        assert result.predicted_ratio == 2
        assert result.n_images == 2
        assert result.within(3.0)
        # default tolerance is half the minimal row gap
        assert result.tolerance == pytest.approx(0.5)

    def test_duplicated_rows_ratio_exactly_one(self):
        arch = Architecture(1, (2,), (RELU,))
        result = amplification_check(
            arch,
            InitScheme("uniform", seed=7),
            duplicated_rows_params(),
            10_000,
            tolerance=0.5,
        )
        assert result.n_images == 1
        assert result.ratio == 1.0
        assert result.p_orbit == result.p_single

    def test_within_one_block_equals_up_front_draws(self):
        arch = Architecture(1, (2,), (RELU,))
        scheme = InitScheme("uniform", seed=7)
        theta_star = two_distinct_rows_params()
        result = amplification_check(arch, scheme, theta_star, 30_000)
        draws = initialize_batch(arch, scheme, 30_000)
        swapped = apply_permutation(theta_star, PermutationSpec(([1, 0],)))
        images = [theta_star.flat(), swapped.flat()]
        hit = np.stack([np.abs(draws - img).max(axis=1) <= 0.5 for img in images])
        assert result.p_single == hit[0].sum() / 30_000
        assert result.p_orbit == hit.any(axis=0).sum() / 30_000

    def test_memory_bounded_by_block(self):
        import fnequiv.nncore as nncore_mod

        arch = Architecture(1, (3,), (RELU,))
        theta_star = NetworkParams(
            (
                (np.array([[-0.5], [0.5], [-0.5]]), np.array([-0.5, -0.5, 0.5])),
                (np.array([[0.1, -0.2, 0.3]]), np.array([0.0])),
            )
        )
        tracemalloc.start()
        try:
            result = amplification_check(
                arch, InitScheme("uniform", seed=3), theta_star, 2_000_000
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_images == 6
        assert peak <= 2 * nncore_mod.STACK_BLOCK_BYTES

    def test_all_identical_rows_requires_tolerance(self):
        arch = Architecture(1, (2,), (RELU,))
        with pytest.raises(DomainError):
            amplification_check(
                arch, InitScheme("uniform", seed=7), duplicated_rows_params(), 100
            )


class TestDatasets:
    def test_xor_shape(self):
        X, y = xor_dataset()
        assert X.shape == (4, 2) and y.shape == (4, 1)

    def test_teacher_points_in_ball(self):
        arch = Architecture(3, (2,), (TANH,))
        teacher = random_params(arch, np.random.default_rng(17))
        X, Y = teacher_dataset(arch, teacher, 50, 0.7, seed=18)
        assert np.linalg.norm(X, axis=1).max() <= 0.7 + 1e-12
        assert Y.shape == (50, 1)

    def test_csv_round_trip(self, tmp_path):
        X, Y = xor_dataset()
        path = tmp_path / "data.csv"
        dataset_to_csv(X, Y, path)
        X2, Y2 = dataset_from_csv(path)
        assert np.array_equal(X, X2) and np.array_equal(Y, Y2)
