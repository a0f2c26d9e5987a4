import math
import tracemalloc

import numpy as np
import pytest

from fnequiv.basin import (
    InitScheme,
    OptimizerConfig,
    amplification_check,
    basin_experiment,
    initialize,
    initialize_batch,
    orbit_membership,
    teacher_dataset,
    train,
    xor_dataset,
    _draw,
    _layer_draw,
    _train_lockstep,
)
from fnequiv.canonical import (
    canonicalize,
    distinct_permutation_images,
    group_rows,
    symmetry_profile,
)
from fnequiv.errors import BudgetExceededError, DomainError
from fnequiv.nncore import (
    Architecture,
    NetworkParams,
    RELU,
    TANH,
    mse_gradient,
    params_from_flat,
    random_params,
    _flatten,
    _unflatten,
)
from fnequiv.transforms import NeuronSymmetry, apply_permutation, random_spec
from oracles import (
    amplification_counts_reference,
    basin_summary_reference,
    blocked_draws_reference,
    gd_reference,
    params_max_diff,
)


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


DRAW_ARCH = Architecture(3, (4, 2), (TANH, RELU), output_dim=2)


def hand_drawn_layers(kind, rng, n):
    """``n`` draws of ``DRAW_ARCH`` for ``InitScheme(kind, low=-0.5,
    high=2.0, mu=0.25, sigma=1.5)``, made from ``rng`` layer by layer."""
    want = []
    for fan_in, fan_out in [(3, 4), (4, 2), (2, 2)]:
        if kind == "uniform":
            want += [rng.uniform(-0.5, 2.0, (n, fan_out * fan_in))]
            want += [rng.uniform(-0.5, 2.0, (n, fan_out))]
        elif kind == "normal":
            want += [rng.normal(0.25, 1.5, (n, fan_out * fan_in))]
            want += [rng.normal(0.25, 1.5, (n, fan_out))]
        else:
            var = 2.0 / (fan_in + fan_out) if kind == "xavier" else 2.0 / fan_in
            want += [rng.normal(0.0, math.sqrt(var), (n, fan_out * fan_in))]
            want += [np.zeros((n, fan_out))]
    return np.concatenate(want, axis=1)


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

    @pytest.mark.parametrize("kind", ["uniform", "normal", "xavier", "he"])
    def test_draws_equal_hand_drawn_layers_bit_for_bit(self, kind):
        scheme = InitScheme(kind, seed=21, low=-0.5, high=2.0, mu=0.25, sigma=1.5)
        got = initialize_batch(DRAW_ARCH, scheme, 5)
        assert got.tobytes() == hand_drawn_layers(kind, np.random.default_rng(21), 5).tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "normal", "xavier", "he"])
    def test_one_row_draw_equals_the_layer_by_layer_stream(self, kind):
        # A one-row uniform or normal draw is one generator call over the
        # row; it must continue the stream exactly as layer-by-layer draws.
        scheme = InitScheme(kind, seed=21, low=-0.5, high=2.0, mu=0.25, sigma=1.5)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            got = _draw(DRAW_ARCH, scheme, rng, 1)
            assert got.tobytes() == hand_drawn_layers(kind, ref, 1).tobytes()

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
        with pytest.raises(DomainError):
            InitScheme("normal", mu=math.nan)
        with pytest.raises(DomainError):
            InitScheme("uniform", low=-math.inf)


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
        base = mse_gradient(arch, params, X, Y)[0]
        for _ in range(10):
            permuted = apply_permutation(params, random_spec(arch, rng))
            assert abs(mse_gradient(arch, permuted, X, Y)[0] - base) <= 1e-12


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
        for run in summary.runs:
            layers, loss, iterations, converged, diverged = gd_reference(
                run.init_params.layers, arch.activations, X, Y,
                cfg.step_size, cfg.max_iters, cfg.grad_threshold,
            )  # fmt: skip
            assert (run.iterations, run.converged, run.diverged) == (
                iterations, converged, diverged
            )
            assert _bits(run.final_loss) == _bits(loss)
            for (W, b), (W_ref, b_ref) in zip(run.final_params.layers, layers):
                assert W.tobytes() == W_ref.tobytes() and b.tobytes() == b_ref.tobytes()

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_canonical_flat_matches_per_run_canonicalize(self, name):
        # Runs that stop at the same step are canonicalized together.
        arch, scheme, dataset, cfg, _ = LOCKSTEP_CASES[name]
        summary = basin_experiment(arch, scheme, dataset, 16, cfg)
        assert len({r.iterations for r in summary.runs}) < len(summary.runs)
        for run in summary.runs:
            expected = canonicalize(run.final_params).params.flat()
            assert run.canonical_flat.tobytes() == expected.tobytes()

    def test_canonical_flat_is_read_only(self):
        # Like the run's NetworkParams, on both training entry points.
        arch, scheme, dataset, cfg, _ = LOCKSTEP_CASES[sorted(LOCKSTEP_CASES)[0]]
        runs = basin_experiment(arch, scheme, dataset, 4, cfg).runs
        runs += (train(arch, initialize(arch, scheme), dataset, cfg),)
        for run in runs:
            assert not run.canonical_flat.flags.writeable
            assert not run.final_params.layers[0][0].flags.writeable

    def test_run_params_are_read_only_views_of_the_stack_rows(self):
        # Bit for bit what params_from_flat gives for each start and final
        # row, on both training entry points, and never writable.
        arch, scheme, dataset, cfg, _ = LOCKSTEP_CASES["xor_2_4_3_1_tanh_relu"]
        children = np.random.SeedSequence(scheme.seed).spawn(6)
        draws = [initialize_batch(arch, InitScheme("uniform", c), 1) for c in children]
        starts = np.concatenate(draws)
        final = _train_lockstep(arch, starts, dataset, cfg)[0]
        runs = basin_experiment(arch, scheme, dataset, 6, cfg).runs
        runs += (train(arch, params_from_flat(arch, starts[0]), dataset, cfg),)
        for run, start, end in zip(runs, [*starts, starts[0]], [*final, final[0]]):
            for params, row in ((run.init_params, start), (run.final_params, end)):
                want = params_from_flat(arch, row)
                assert len(params.layers) == len(want.layers)
                for got, ref in zip(params.layers, want.layers):
                    for a, b in zip(got, ref):
                        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
                        assert not a.flags.writeable
                        with pytest.raises(ValueError, match="read-only"):
                            a[...] = 0.0

    def test_nan_and_inf_losses_stop_as_diverged(self):
        # 2-2-1 tanh on XOR, S = 9: (W1, b1, W2, b2).  Equal positive hidden
        # units under output weights (+inf, -inf) give a NaN output; an
        # output bias of 1e200 gives a finite output whose squared error
        # overflows to +inf.  Both stop at iteration 0; the two ordinary
        # runs around them go on as the per-run reference does.
        arch = Architecture(2, (2,), (TANH,))
        X, Y = xor_dataset()
        cfg = OptimizerConfig(step_size=0.5, max_iters=50, grad_threshold=1e-3)
        rng = np.random.default_rng(3)
        nan_run = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, math.inf, -math.inf, 0.0]
        inf_run = [*rng.uniform(-1, 1, 8), 1e200]
        starts = np.array([rng.uniform(-1, 1, 9), nan_run, inf_run, rng.uniform(-1, 1, 9)])
        with pytest.warns(RuntimeWarning, match="overflow"):
            final, _, loss, iters, converged, diverged = _train_lockstep(
                arch, starts, (X, Y), cfg
            )
        assert math.isnan(loss[1]) and loss[2] == math.inf
        assert iters[1] == iters[2] == 0 and diverged[1:3].all() and not converged[1:3].any()
        assert iters[0] > 0 and iters[3] > 0
        for i in (0, 3):
            layers, ref_loss, ref_iters, ref_conv, ref_div = gd_reference(
                _unflatten(arch, starts[i]), arch.activations, X, Y,
                cfg.step_size, cfg.max_iters, cfg.grad_threshold,
            )  # fmt: skip
            assert (iters[i], converged[i], diverged[i]) == (ref_iters, ref_conv, ref_div)
            assert _bits(loss[i]) == _bits(ref_loss)
            assert final[i].tobytes() == _flatten(layers).tobytes()

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_views_rebuilt_only_when_runs_stop(self, monkeypatch, name):
        # One block of 16 runs: the (W, b) views of P and G are made at its
        # start and again at each iteration where some, but not all, of the
        # active runs stop (every distinct stopping iteration but the last),
        # and the block's canonical forms unflatten its final stack once.
        import fnequiv.basin as basin_mod
        import fnequiv.nncore as nncore_mod

        arch, scheme, dataset, cfg, _ = LOCKSTEP_CASES[name]
        runs = basin_experiment(arch, scheme, dataset, 16, cfg).runs
        starts = np.stack([run.init_params.flat() for run in runs])
        calls = []
        unflatten = nncore_mod._unflatten
        counted = lambda *args: calls.append(1) or unflatten(*args)
        monkeypatch.setattr(basin_mod, "_unflatten", counted)
        monkeypatch.setattr(nncore_mod, "_unflatten", counted)
        iters = _train_lockstep(arch, starts, dataset, cfg)[3]
        assert iters.tolist() == [run.iterations for run in runs]
        assert len(calls) == 2 * len(set(iters.tolist())) + 1 < cfg.max_iters

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


def _assert_summary_matches_reference(summary, cluster_tolerance):
    fields, cluster_ids = basin_summary_reference(summary.runs, cluster_tolerance)
    assert {name: getattr(summary, name) for name in fields} == fields
    assert [r.cluster_id for r in summary.runs] == cluster_ids


class TestBasinSummaryReference:
    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_lockstep_cases(self, name):
        arch, scheme, dataset, cfg, _ = LOCKSTEP_CASES[name]
        summary = basin_experiment(arch, scheme, dataset, 16, cfg)
        _assert_summary_matches_reference(summary, None)

    def test_explicit_tolerance(self):
        summary = basin_experiment(
            Architecture(2, (3,), (TANH,)),
            InitScheme("uniform", seed=0),
            xor_dataset(),
            24,
            OptimizerConfig(step_size=0.5, max_iters=400, grad_threshold=1e-3),
            cluster_tolerance=0.3,
        )
        # The largest cluster is not the first, and orbit and single hits differ.
        assert np.argmax(np.bincount([r.cluster_id for r in summary.runs if r.converged])) > 0
        assert summary.orbit_fraction > summary.single_fraction
        _assert_summary_matches_reference(summary, 0.3)

    def test_provisional_tolerance_from_the_largest_cluster(self, monkeypatch):
        # Starts that every run keeps (no step, any gradient counts as
        # converged): two near copies of A, then three of B.  Only B's row
        # gap (0.25; A's is 1) gives the final tolerance.
        a = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.5, 1.0, 1.0, 0.0])
        b = np.array([1.0, 0.0, 1.0, 0.25, 0.0, 0.0, 1.0, 1.0, 0.0])
        rows = iter([a, a + 1e-4, b, b + 1e-4, b - 1e-4])
        monkeypatch.setattr(
            "fnequiv.basin._draw", lambda arch, scheme, rng, n, out: np.copyto(out, next(rows))
        )
        summary = basin_experiment(
            Architecture(2, (2,), (TANH,)),
            InitScheme("uniform"),
            xor_dataset(),
            5,
            OptimizerConfig(step_size=0.1, max_iters=0, grad_threshold=math.inf),
        )
        assert summary.cluster_sizes == (3, 2)
        assert summary.cluster_tolerance == 0.25 / 4.0
        _assert_summary_matches_reference(summary, None)

    @pytest.mark.parametrize("cluster_tolerance", [None, 0.0, 0.25])
    def test_no_converged_runs(self, cluster_tolerance):
        summary = basin_experiment(
            Architecture(2, (2,), (TANH,)),
            InitScheme("uniform", seed=1),
            xor_dataset(),
            3,
            OptimizerConfig(step_size=1e-9, max_iters=3, grad_threshold=1e-12),
            cluster_tolerance=cluster_tolerance,
        )
        assert summary.no_converged_runs
        _assert_summary_matches_reference(summary, cluster_tolerance)


# The basin-xor benchmark's experiment at seed 1: 600 XOR runs of 2-4-1 tanh.
BASIN_XOR = (
    Architecture(2, (4,), (TANH,)),
    InitScheme("uniform", seed=1),
    xor_dataset(),
    600,
    OptimizerConfig(step_size=0.5, max_iters=1000, grad_threshold=1e-3),
)


class TestBasinXorCounts:
    def test_first_fit_iterates_only_over_rows_with_a_neighbour(self, monkeypatch):
        # Each _first_fit iteration makes one kernel pass.  Nearly every
        # converged canonical form is a cluster of its own here (594 of
        # 599 at the final tolerance), and group_rows settles those rows
        # before first fit, which then iterates at most once per row that
        # has another row within the tolerance: 0 and 9 of them, against
        # 599 and 594 iterations when first fit took every row.
        import fnequiv.basin as basin_mod
        import fnequiv.canonical as canonical_mod

        kernel, passes, calls = canonical_mod._chebyshev, [], []
        monkeypatch.setattr(
            canonical_mod, "_chebyshev", lambda p, c: passes.append(1) or kernel(p, c)
        )

        def counted(rows, tolerance):
            before = len(passes)
            out = group_rows(rows, tolerance)
            calls.append((rows, tolerance, len(passes) - before))
            return out

        monkeypatch.setattr(basin_mod, "group_rows", counted)
        summary = basin_experiment(*BASIN_XOR)
        assert (summary.n_converged, len(summary.cluster_sizes)) == (599, 594)
        assert len(calls) == 2
        for rows, tolerance, iterations in calls:
            near = [(np.abs(rows - row).max(axis=1) <= tolerance).sum() for row in rows]
            crowded = sum(count > 1 for count in near)
            assert iterations <= crowded < len(rows) // 50

    def test_train_runs_makes_no_params_post_init_call(self, monkeypatch):
        # Each run's two NetworkParams are views of the start and final
        # stacks, made without the copy and check of __post_init__ (1200
        # calls when built through params_from_flat).
        import fnequiv.basin as basin_mod

        post_init, train_runs, made = NetworkParams.__post_init__, basin_mod._train_runs, []
        monkeypatch.setattr(
            NetworkParams, "__post_init__", lambda self: made.append(1) or post_init(self)
        )
        during = []

        def counted(*args):
            before = len(made)
            runs = train_runs(*args)
            during.append(len(made) - before)
            return runs

        monkeypatch.setattr(basin_mod, "_train_runs", counted)
        assert len(basin_experiment(*BASIN_XOR).runs) == 600
        assert during == [0]


class TestRunStackBudget:
    def test_refused_before_any_draw_past_the_budget(self, monkeypatch):
        # 2-2-1 has S = 9: three stacks of 9 doubles take 216 bytes a run.
        arch, cfg = Architecture(2, (2,), (TANH,)), OptimizerConfig(0.1, 0)
        monkeypatch.setattr("fnequiv.basin._RUN_STACK_BYTES", 2 * 216)
        assert basin_experiment(arch, InitScheme("uniform"), xor_dataset(), 2, cfg).n_runs == 2

        def no_draws(*args, **kwargs):
            raise AssertionError("drew starts past the budget")

        monkeypatch.setattr("fnequiv.basin._draw", no_draws)
        with pytest.raises(BudgetExceededError, match="n_runs = 3 ") as err:
            basin_experiment(arch, InitScheme("uniform"), xor_dataset(), 3, cfg)
        assert err.value.required == 3 * 216


class TestClusterToleranceChecked:
    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejected_before_any_draw(self, tolerance, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew starts for an invalid tolerance")

        monkeypatch.setattr("fnequiv.basin._draw", no_draws)
        with pytest.raises(DomainError, match="cluster tolerance"):
            basin_experiment(
                Architecture(2, (2,), (TANH,)),
                InitScheme("uniform"),
                xor_dataset(),
                2,
                OptimizerConfig(0.1, 0),
                cluster_tolerance=tolerance,
            )


class TestToleranceChecked:
    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, -math.inf])
    def test_amplification_rejects_before_any_draw(self, tolerance, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew for an invalid tolerance")

        monkeypatch.setattr("fnequiv.basin._layer_draw", no_draws)
        arch = Architecture(1, (2,), (RELU,))
        with pytest.raises(DomainError, match="tolerance"):
            amplification_check(
                arch, InitScheme("uniform", seed=7), two_distinct_rows_params(), 100, tolerance
            )
        # The patch is on the check's draw path: a valid tolerance reaches it.
        with pytest.raises(AssertionError, match="drew"):
            amplification_check(
                arch, InitScheme("uniform", seed=7), two_distinct_rows_params(), 100, 0.5
            )

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, -math.inf])
    def test_orbit_membership_rejects(self, tolerance):
        theta = two_distinct_rows_params()
        with pytest.raises(DomainError, match="tolerance"):
            orbit_membership(theta, theta, tolerance)


class TestAmplification:
    def test_two_distinct_rows_ratio_near_two(self):
        arch = Architecture(1, (2,), (RELU,))
        result = amplification_check(
            arch, InitScheme("uniform", seed=7), two_distinct_rows_params(), 30_000
        )
        assert result.predicted_ratio == 2
        assert result.n_images == 2
        assert result.within(3.0)
        # default tolerance is half the image separation
        assert result.tolerance == pytest.approx(0.5)

    def test_tied_rows_feeding_different_weights_are_two_images(self):
        # Both hidden rows are (0.5 | 0.2), but they feed 0.8 and -0.6, so
        # the swap is a second image, 1.4 away.
        theta_star = NetworkParams(
            (
                (np.array([[0.5], [0.5]]), np.array([0.2, 0.2])),
                (np.array([[0.8, -0.6]]), np.array([0.0])),
            )
        )
        arch = Architecture(1, (2,), (RELU,))
        result = amplification_check(arch, InitScheme("uniform", seed=1), theta_star, 400_000)
        assert result.n_images == result.predicted_ratio == 2
        assert result.tolerance == 0.7
        assert result.within(3.0)

    def test_tolerance_is_half_the_nearest_image_distance(self):
        # Rows 0 and 1 tie on (incoming | bias) and feed 0.30 and 0.31, so
        # swapping them moves theta_star by 0.01 only.
        theta_star = NetworkParams(
            (
                (np.array([[0.5], [0.5], [-0.5]]), np.array([0.2, 0.2, -0.3])),
                (np.array([[0.30, 0.31, 0.4]]), np.array([0.0])),
            )
        )
        arch = Architecture(1, (3,), (RELU,))
        result = amplification_check(arch, InitScheme("uniform", seed=1), theta_star, 1)
        assert result.predicted_ratio == 6
        assert result.tolerance == 0.0050000000000000044

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
        swapped = apply_permutation(theta_star, NeuronSymmetry(([1, 0],)))
        images = [theta_star.flat(), swapped.flat()]
        hit = np.stack([np.abs(draws - img).max(axis=1) <= 0.5 for img in images])
        assert result.p_single == hit[0].sum() / 30_000
        assert result.p_orbit == hit.any(axis=0).sum() / 30_000

    @pytest.mark.parametrize(
        "theta_star, scheme, tolerance",
        [
            # Hidden rows that differ in every entry.
            (
                NetworkParams(
                    (
                        (np.array([[-0.5], [0.5], [-0.25]]), np.array([-0.5, 0.25, 0.5])),
                        (np.array([[0.1, -0.2, 0.3]]), np.array([0.0])),
                    )
                ),
                InitScheme("uniform", seed=5),
                0.75,
            ),
            # Equal incoming and outgoing weights: the images differ only in
            # the hidden biases.
            (
                NetworkParams(
                    (
                        (np.array([[0.5], [0.5], [0.5]]), np.array([-0.5, 0.5, -0.5])),
                        (np.array([[0.25, 0.25, 0.25]]), np.array([0.25])),
                    )
                ),
                InitScheme("uniform", seed=6),
                0.75,
            ),
            # Every draw is exactly 0.5, at distance exactly 0.5 from the
            # output bias 0.0 and within 0.5 of every other entry.
            (
                NetworkParams(
                    (
                        (np.array([[0.25], [0.75], [1.0]]), np.array([0.0, 0.5, 1.0])),
                        (np.array([[0.5, 0.25, 0.75]]), np.array([0.0])),
                    )
                ),
                InitScheme("normal", seed=7, mu=0.5, sigma=0.0),
                0.5,
            ),
            # The output bias lies 4 beyond the init range, so no draw hits.
            (
                NetworkParams(
                    (
                        (np.array([[-0.5], [0.5], [-0.5]]), np.array([-0.5, -0.5, 0.5])),
                        (np.array([[0.1, -0.2, 0.3]]), np.array([5.0])),
                    )
                ),
                InitScheme("uniform", seed=8),
                0.5,
            ),
        ],
        ids=["distinct-rows", "shared-weights", "exact-boundary", "no-hit"],
    )
    def test_counts_equal_every_row_reference(self, theta_star, scheme, tolerance):
        arch = Architecture(1, (3,), (RELU,))
        n = 50_000
        result = amplification_check(arch, scheme, theta_star, n, tolerance)
        images = np.stack([img.flat() for img in distinct_permutation_images(theta_star)])
        star = int(np.flatnonzero((images == theta_star.flat()).all(axis=1))[0])
        # n is below one block, so the draws are initialize_batch's.
        single, orbit = amplification_counts_reference(
            initialize_batch(arch, scheme, n), images, star, tolerance
        )
        assert (result.p_single, result.p_orbit) == (single / n, orbit / n)
        # Plain floats, so the result's repr is that of the reference count.
        assert type(result.p_single) is type(result.p_orbit) is float
        if scheme.kind == "normal":
            assert orbit == n
        elif theta_star.layers[-1][1][0] > 1.0:
            assert orbit == 0
        else:
            assert single > 0

    @pytest.mark.parametrize(
        "scheme", [InitScheme("uniform", seed=5), InitScheme("normal", seed=6, sigma=0.5)]
    )
    def test_counts_equal_blocked_reference_across_blocks(self, monkeypatch, scheme):
        arch = Architecture(1, (3,), (RELU,))
        theta_star = NetworkParams(
            (
                (np.array([[-0.5], [0.5], [-0.5]]), np.array([-0.5, -0.5, 0.5])),
                (np.array([[0.1, -0.2, 0.3]]), np.array([0.0])),
            )
        )
        images = np.stack([img.flat() for img in distinct_permutation_images(theta_star)])
        # 16 (S + k) bytes per draw give 3000-draw blocks: three full blocks
        # and a partial one of 1007 draws.
        block, n, tolerance = 3000, 10_007, 0.8
        monkeypatch.setattr(
            "fnequiv.nncore.STACK_BLOCK_BYTES", 16 * (arch.param_count + len(images)) * block
        )
        result = amplification_check(arch, scheme, theta_star, n, tolerance)
        a, b = (scheme.low, scheme.high) if scheme.kind == "uniform" else (scheme.mu, scheme.sigma)
        draws = blocked_draws_reference(
            [(3, 1), (1, 3)], scheme.kind, a, b, scheme.seed, n, block
        )
        single, orbit = amplification_counts_reference(draws, images, 0, tolerance)
        assert 0 < single < orbit
        assert (result.p_single, result.p_orbit) == (single / n, orbit / n)

    @pytest.mark.parametrize(
        "scheme",
        [
            InitScheme("uniform", seed=5),
            InitScheme("normal", seed=6, sigma=0.5),
            InitScheme("xavier", seed=7),
            InitScheme("he", seed=8),
        ],
        ids=lambda scheme: scheme.kind,
    )
    def test_counts_equal_blocked_reference_across_chunks(self, monkeypatch, scheme):
        # 1003-draw blocks, three full ones and a partial one of 491 draws,
        # each drawn and tested in chunks of 96 rows (the 100 rows of the
        # patched budget, rounded down to whole mask bytes), so every block
        # ends on a chunk of 43 or 11 rows and a mask byte with padding.
        arch = Architecture(1, (3,), (RELU,))
        theta_star = NetworkParams(
            (
                (np.array([[-0.5], [0.5], [-0.5]]), np.array([-0.5, -0.5, 0.5])),
                (np.array([[0.1, -0.2, 0.3]]), np.array([0.0])),
            )
        )
        images = np.stack([img.flat() for img in distinct_permutation_images(theta_star)])
        block, n, tolerance = 1003, 3500, 0.8
        monkeypatch.setattr(
            "fnequiv.nncore.STACK_BLOCK_BYTES", 16 * (arch.param_count + len(images)) * block
        )
        monkeypatch.setattr("fnequiv.basin._DISTANCE_BLOCK_BYTES", 8 * 3 * 100)
        result = amplification_check(arch, scheme, theta_star, n, tolerance)
        a, b = (scheme.low, scheme.high) if scheme.kind == "uniform" else (scheme.mu, scheme.sigma)
        draws = blocked_draws_reference(
            [(3, 1), (1, 3)], scheme.kind, a, b, scheme.seed, n, block
        )
        single, orbit = amplification_counts_reference(draws, images, 0, tolerance)
        assert 0 < single < orbit
        assert (result.p_single, result.p_orbit) == (single / n, orbit / n)

    @pytest.mark.parametrize("kind", ["uniform", "normal", "xavier", "he"])
    @pytest.mark.parametrize("rows", [1, 8, 13, 1000])
    def test_row_chunks_continue_the_stream(self, kind, rows):
        # Chunked parts fill the same array as whole ones, bit for bit.
        arch = Architecture(2, (3, 2), (TANH, RELU), 2)
        scheme = InitScheme(kind, seed=4, sigma=0.5)
        chunked = np.full((100, arch.param_count), np.nan)
        chunks = _layer_draw(arch, scheme, np.random.default_rng(4), 100, rows)
        for col, first, part in chunks:
            assert len(part) == min(rows, 100 - first)
            chunked[first : first + len(part), col : col + part.shape[1]] = part
        assert chunked.tobytes() == initialize_batch(arch, scheme, 100).tobytes()

    def test_memory_bounded_by_block(self):
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
        # The packed mask of a 131,072-draw block and one chunk, against
        # 32 MiB for the block's whole draw.
        assert peak <= 2 * 2**20

    def test_non_finite_theta_star_rejected(self):
        # The distance kernel skips NaN coordinates, so a NaN entry would
        # otherwise read as a hit.
        arch = Architecture(1, (2,), (RELU,))
        (W, b), out = two_distinct_rows_params().layers
        theta_star = NetworkParams(((W, np.array([math.nan, -0.25])), out))
        with pytest.raises(DomainError, match="finite"):
            amplification_check(arch, InitScheme("uniform", seed=7), theta_star, 100, 0.5)

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
