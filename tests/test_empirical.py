import math

import numpy as np
import pytest

from fnequiv.bounds import BoundConfig, shallow_covering_bound, volume_covering_bound
from fnequiv.empirical import (
    METRIC_FUNCTION,
    MetricSpaceSample,
    exact_covering_number,
    exact_packing_number,
    function_class_sample,
    greedy_covering_estimate,
    greedy_packing_estimate,
    grid_sample,
)
from fnequiv.equivalence import ball_points
from fnequiv.errors import BudgetExceededError, DomainError
from fnequiv.nncore import Architecture, IDENTITY, RELU, TANH

from oracles import exhaustive_max_packing, exhaustive_min_cover, function_class_reference

# distances on these grids are multiples of exactly representable spacings,
# and the radii stay clear of every attainable value, so all comparisons in
# the sandwich checks are exact
BINARY_EPSILONS = (0.1875, 0.3125, 0.4375, 0.625, 0.8125, 1.1875)


def line(points):
    return MetricSpaceSample(np.asarray(points, dtype=float).reshape(-1, 1))


class TestGreedyEstimates:
    def test_single_point(self):
        assert greedy_covering_estimate(line([0.3]), 0.1) == 1
        assert greedy_packing_estimate(line([0.3]), 0.1) == 1

    def test_two_points_cover(self):
        space = line([0.0, 1.0])
        assert greedy_covering_estimate(space, 0.4) == 2
        assert greedy_covering_estimate(space, 1.1) == 1

    def test_three_point_packing(self):
        space = line([0.0, 1.0, 2.0])
        assert greedy_packing_estimate(space, 0.4) == 3  # gaps 1 > 0.8
        assert greedy_packing_estimate(space, 0.6) == 2  # need > 1.2

    def test_empty_and_bad_epsilon(self):
        with pytest.raises(DomainError):
            greedy_covering_estimate(MetricSpaceSample(np.zeros((0, 2))), 0.5)
        with pytest.raises(DomainError):
            greedy_packing_estimate(line([0.0]), 0.0)

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(0)
        space = MetricSpaceSample(rng.uniform(-1, 1, (60, 2)))
        a = [greedy_covering_estimate(space, 0.3) for _ in range(3)]
        b = [greedy_packing_estimate(space, 0.15) for _ in range(3)]
        assert len(set(a)) == 1 and len(set(b)) == 1


class TestExactOracles:
    def test_grid_11x11_cover(self):
        space = grid_sample(2, 11)
        exact = exact_covering_number(space, 0.5)
        greedy = greedy_covering_estimate(space, 0.5)
        # balls of L-inf radius 0.5 tile the square in a 3x3 pattern
        assert exact == 9
        assert exact <= greedy <= 2 * exact

    def test_matches_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(1)
        for trial in range(6):
            pts = rng.uniform(-1, 1, (9, 2))
            space = MetricSpaceSample(pts)
            D = space.distance_matrix()
            eps = float(rng.uniform(0.2, 0.8))
            assert exact_covering_number(space, eps) == exhaustive_min_cover(D, eps)
            assert exact_packing_number(space, eps) == exhaustive_max_packing(D, eps)

    def test_greedy_brackets_exact(self):
        rng = np.random.default_rng(2)
        for trial in range(6):
            pts = rng.uniform(-1, 1, (12, 2))
            space = MetricSpaceSample(pts)
            eps = float(rng.uniform(0.2, 0.7))
            assert greedy_covering_estimate(space, eps) >= exact_covering_number(space, eps)
            assert greedy_packing_estimate(space, eps) <= exact_packing_number(space, eps)

    def test_size_guard(self):
        space = MetricSpaceSample(np.random.default_rng(3).uniform(0, 1, (300, 1)))
        with pytest.raises(DomainError):
            exact_covering_number(space, 0.1)


class TestSandwichAndVolume:
    @pytest.mark.parametrize("dim,per_axis", [(1, 9), (2, 9)])
    def test_sandwich_inequality(self, dim, per_axis):
        space = grid_sample(dim, per_axis)
        for eps in BINARY_EPSILONS:
            n_eps = exact_covering_number(space, eps)
            m_2eps = exact_packing_number(space, 2.0 * eps)
            m_half = exact_packing_number(space, eps / 2.0)
            assert m_2eps <= n_eps <= m_half, (dim, eps)

    @pytest.mark.parametrize("dim,per_axis", [(1, 9), (2, 9), (3, 5)])
    def test_volume_bound(self, dim, per_axis):
        space = grid_sample(dim, per_axis)
        for eps in BINARY_EPSILONS:
            m_half = exact_packing_number(space, eps / 2.0)
            assert m_half <= volume_covering_bound(dim, 2.0**dim, eps)


class TestFunctionClassSample:
    def test_identity_net_enumeration(self):
        arch = Architecture(1, (1,), (IDENTITY,))
        sample = function_class_sample(arch, 1.0, 3, 1.0, 8)
        assert sample.provenance["n_enumerated"] == 81  # 3^4
        assert len(sample) == 81
        assert sample.metric == METRIC_FUNCTION
        unique = {row.tobytes() for row in sample.points}
        assert len(unique) <= 81

    def test_canonical_dedup_ratio_within_orbit_size(self):
        arch = Architecture(1, (2,), (RELU,))
        sample = function_class_sample(arch, 1.0, 3, 1.0, 8, dedup_canonical=True)
        ratio = sample.provenance["dedup_ratio"]
        assert 1.0 <= ratio <= 2.0  # at most d_1! = 2

    def test_dedup_preserves_function_vectors(self):
        arch = Architecture(1, (2,), (RELU,))
        full = function_class_sample(arch, 1.0, 3, 1.0, 8)
        dedup = function_class_sample(arch, 1.0, 3, 1.0, 8, dedup_canonical=True)
        full_set = {row.tobytes() for row in full.points}
        dedup_set = {row.tobytes() for row in dedup.points}
        assert full_set == dedup_set

    def test_empirical_cover_below_theory(self):
        arch = Architecture(1, (2,), (RELU,))
        sample = function_class_sample(arch, 1.0, 3, 1.0, 16)
        estimate = greedy_covering_estimate(sample, 0.5)
        cfg = BoundConfig(arch, B=1.0, B_x=1.0, epsilon=0.5)
        assert math.log(estimate) <= shallow_covering_bound(cfg)

    def test_budget_guard(self):
        arch = Architecture(2, (3,), (RELU,))  # S = 13
        with pytest.raises(BudgetExceededError) as exc:
            function_class_sample(arch, 1.0, 5, 1.0, 4, budget=10_000)
        assert exc.value.required == 5**13

    def test_grid_values_hit_box_corners(self):
        arch = Architecture(1, (1,), (IDENTITY,))
        sample = function_class_sample(arch, 1.0, 2, 1.0, 4)
        assert sample.provenance["n_enumerated"] == 16

    @pytest.mark.parametrize("dedup", [False, True], ids=["all", "dedup"])
    @pytest.mark.parametrize(
        "arch,resolution",
        [(Architecture(1, (2,), (RELU,)), 3), (Architecture(2, (2,), (TANH,)), 2)],
        ids=["1-2-1_relu_r3", "2-2-1_tanh_r2"],
    )
    def test_matches_per_network_reference(self, monkeypatch, arch, resolution, dedup):
        sample = function_class_sample(arch, 1.0, resolution, 1.0, 5, dedup_canonical=dedup)
        X = ball_points(arch.input_dim, 5, 1.0, seed=0)
        expected = function_class_reference(arch, 1.0, resolution, X, dedup)
        assert sample.provenance["n_kept"] == len(expected)
        np.testing.assert_allclose(sample.points, expected, rtol=0, atol=1e-12)
        # One network per block.
        monkeypatch.setattr("fnequiv.nncore.STACK_BLOCK_BYTES", 1)
        alone = function_class_sample(arch, 1.0, resolution, 1.0, 5, dedup_canonical=dedup)
        assert alone.points.tobytes() == sample.points.tobytes()
        assert alone.provenance == sample.provenance


class TestMetricSpaceSample:
    def test_metric_axioms_spot_check(self):
        rng = np.random.default_rng(4)
        space = MetricSpaceSample(rng.uniform(-1, 1, (20, 3)))
        D = space.distance_matrix()
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        for _ in range(50):
            i, j, k = rng.integers(0, 20, 3)
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-12

    def test_unknown_metric_tag(self):
        with pytest.raises(DomainError):
            MetricSpaceSample(np.zeros((2, 2)), metric="l2")
