import math
import tracemalloc

import numpy as np
import pytest

from fnequiv import empirical
from fnequiv.bounds import BoundConfig, shallow_covering_bound, volume_covering_bound
from fnequiv.empirical import (
    METRIC_FUNCTION,
    MetricSpaceSample,
    _edge_clique_cover,
    _greedy_cover_centers,
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

from oracles import (
    edge_packing_number,
    exhaustive_max_packing,
    exhaustive_min_cover,
    function_class_reference,
    greedy_cover_centers_reference,
    greedy_pack_reference,
)

# distances on these grids are multiples of exactly representable spacings,
# and the radii stay clear of every attainable value, so all comparisons in
# the sandwich checks are exact
BINARY_EPSILONS = (0.1875, 0.3125, 0.4375, 0.625, 0.8125, 1.1875)


def line(points):
    return MetricSpaceSample(np.asarray(points, dtype=float).reshape(-1, 1))


@pytest.fixture(scope="module")
def fclass_sample():
    """The 8704-point function-class sample the benchmark covers."""
    sample = function_class_sample(
        Architecture(1, (2,), (RELU,)), 1.0, 4, 1.0, 32, dedup_canonical=True
    )
    assert len(sample) == 8704
    return sample


class TestGreedyEstimates:
    def test_single_point(self):
        assert greedy_covering_estimate(line([0.3]), 0.1) == 1
        assert greedy_packing_estimate(line([0.3]), 0.1) == 1

    def test_two_points_cover(self):
        assert greedy_covering_estimate(line([0.0, 1.0]), 0.4) == 2
        assert greedy_covering_estimate(line([0.0, 1.0]), 1.1) == 1

    def test_three_point_packing(self):
        space = line([0.0, 1.0, 2.0])
        assert greedy_packing_estimate(space, 0.4) == 3  # gaps 1 > 0.8
        assert greedy_packing_estimate(space, 0.6) == 2  # need > 1.2

    def test_empty_and_bad_epsilon(self):
        with pytest.raises(DomainError):
            greedy_covering_estimate(MetricSpaceSample(np.zeros((0, 2))), 0.5)
        with pytest.raises(DomainError):
            greedy_packing_estimate(line([0.0]), 0.0)

    @pytest.mark.parametrize(
        "oracle",
        [
            greedy_covering_estimate,
            greedy_packing_estimate,
            exact_covering_number,
            exact_packing_number,
        ],
    )
    @pytest.mark.parametrize("eps", [math.nan, -math.inf, -1.0, -0.0])
    def test_epsilon_not_positive_rejected(self, oracle, eps):
        # NaN fails every comparison, so "epsilon <= 0" alone would let it in.
        with pytest.raises(DomainError, match="epsilon"):
            oracle(grid_sample(2, 5), eps)

    def test_deterministic_reruns(self):
        # A fresh sample per cover call, so each call runs its own pass.
        pts = np.random.default_rng(0).uniform(-1, 1, (60, 2))
        space = MetricSpaceSample(pts)
        a = [greedy_covering_estimate(MetricSpaceSample(pts), 0.3) for _ in range(3)]
        b = [greedy_packing_estimate(space, 0.15) for _ in range(3)]
        assert len(set(a)) == 1 and len(set(b)) == 1


    def test_function_class_sample_matches_reference(self, fclass_sample):
        for eps in (0.2, 0.4):
            centers, _ = _greedy_cover_centers(fclass_sample, eps)
            assert centers.tolist() == greedy_cover_centers_reference(fclass_sample.points, eps)
            assert greedy_covering_estimate(MetricSpaceSample(fclass_sample.points), eps) == len(
                centers
            )
            assert greedy_packing_estimate(fclass_sample, eps) == greedy_pack_reference(
                fclass_sample.points, eps
            )

    @pytest.mark.parametrize("eps", [0.2, 0.4])
    def test_cover_memory_bounded_by_the_points(self, fclass_sample, eps):
        greedy_covering_estimate(line([0.0, 1.0]), 0.5)  # loads the distance kernel
        space = MetricSpaceSample(fclass_sample.points)  # no record: the call runs a pass
        tracemalloc.start()
        try:
            greedy_covering_estimate(space, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * fclass_sample.points.nbytes


class TestGreedyCoverRecord:
    """One farthest-first pass answers every eps at or above its own."""

    def test_samples_of_the_same_points_keep_their_own_record(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        a, b = MetricSpaceSample(pts), MetricSpaceSample(pts)
        assert greedy_covering_estimate(a, 1.5) == 2
        assert b._cover_record is None
        assert greedy_covering_estimate(b, 0.5) == 3
        assert a._cover_record[0] == 1.5 and b._cover_record[0] == 0.5
        assert "_cover_record" not in repr(a)

    def test_smaller_eps_runs_a_new_pass(self, monkeypatch):
        passes = []

        def counted(space, eps):
            passes.append(eps)
            return _greedy_cover_centers(space, eps)

        monkeypatch.setattr(empirical, "_greedy_cover_centers", counted)
        pts = np.random.default_rng(4).uniform(-1, 1, (80, 2))
        space = MetricSpaceSample(pts)
        for eps in (0.4, 0.4, 0.8, 0.2, 0.3, 0.2, 0.05):
            assert greedy_covering_estimate(space, eps) == len(
                greedy_cover_centers_reference(pts, eps)
            )
        assert passes == [0.4, 0.2, 0.05]

    def test_radius_equal_to_eps_is_covered(self):
        # Centers 0, 3, 2, 1 are picked at radii 3, 1, 1: eps equal to a
        # radius stops the cover before the center picked at that radius.
        space = line([0.0, 2.0, 1.0, 3.0])
        for eps, size in ((0.5, 4), (1.0, 2), (3.0, 1)):
            assert greedy_covering_estimate(space, eps) == size  # from the 0.5 record
            assert greedy_covering_estimate(line([0.0, 2.0, 1.0, 3.0]), eps) == size

    def test_infinite_eps(self):
        # Every radius is finite, so eps = inf keeps only the first center,
        # whether it runs the pass or reads a finite pass's record.
        space = line([0.0, 2.0, 1.0, 3.0])
        assert greedy_covering_estimate(space, 0.5) == 4
        assert [greedy_covering_estimate(space, math.inf) for _ in range(2)] == [1, 1]
        fresh = line([0.0, 2.0, 1.0, 3.0])
        assert [greedy_covering_estimate(fresh, math.inf) for _ in range(2)] == [1, 1]
        assert greedy_covering_estimate(fresh, 0.5) == 4

    def test_writes_to_the_callers_array_do_not_reach_the_sample(self):
        # Each sample holds its own copy, so a record of the old points stays
        # true to the sample's points, and the caller's array stays writable.
        a = np.array([[0.0], [1.0], [3.0]])
        spaces = (MetricSpaceSample(a), MetricSpaceSample(a[:]))
        assert [greedy_covering_estimate(space, 0.5) for space in spaces] == [3, 3]
        a[2] = 0.5
        for space in spaces:
            assert space.points[:, 0].tolist() == [0.0, 1.0, 3.0]
            assert greedy_covering_estimate(space, 0.6) == 3
            assert greedy_covering_estimate(MetricSpaceSample(space.points), 0.6) == 3
        assert greedy_covering_estimate(MetricSpaceSample(a), 0.6) == 2


class TestGreedyCoverPruning:
    """Hand-built boundaries of the test that lets a new center c skip the
    points of a center a with d(a, c) >= 2R, R being c's own distance."""

    def test_point_as_far_from_new_center_as_from_its_own(self):
        # a = row 0, then row 1; c = row 2 has R = 1 and d(a, c) = 2 = 2R;
        # row 3 is 1 from a and 1 from c, so c leaves it live and it is last.
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        assert greedy_cover_centers_reference(pts, 0.5) == [0, 1, 2, 3]
        assert _greedy_cover_centers(MetricSpaceSample(pts), 0.5)[0].tolist() == [0, 1, 2, 3]

    def test_distance_rounded_to_exactly_2r(self):
        # Row 2, c = (2 - 2**-52, 0), has R = 1.5 (to row 1), and its true
        # distance 3 - 2**-52 to row 0 rounds to 3.0 = 2R.  Row 3 is 1.5 from
        # row 0 but 1.5 - 2**-52 from c, which covers it at this eps: a test
        # of d(a, c) < 2R without a margin would skip row 3 and add a center.
        x = 2.0 - 2.0**-52
        pts = np.array([[-1.0, 0.0], [x, 1.5], [x, 0.0], [0.5, 0.0]])
        eps = 1.5 - 2.0**-52
        assert np.abs(pts[2] - pts[0]).max() == 3.0
        assert greedy_cover_centers_reference(pts, eps) == [0, 1, 2]
        assert _greedy_cover_centers(MetricSpaceSample(pts), eps)[0].tolist() == [0, 1, 2]


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


def assert_edge_clique_cover(conflict, cliques):
    """Every row is a clique of at least two vertices, and every edge lies
    in some row."""
    n = len(conflict)
    assert cliques.dtype == bool and cliques.shape == (len(cliques), n)
    covered = np.zeros((n, n), dtype=bool)
    for row in cliques:
        idx = np.flatnonzero(row)
        assert len(idx) >= 2
        inside = conflict[np.ix_(idx, idx)]
        assert inside[~np.eye(len(idx), dtype=bool)].all()
        covered[np.ix_(idx, idx)] = True
    assert not (conflict & ~covered).any()


def random_graph(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return upper | upper.T


class TestEdgeCliqueCover:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60, 200])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.7, 0.95, 1.0])
    def test_random_graphs(self, n, density):
        rng = np.random.default_rng(1000 * n + int(100 * density))
        for _ in range(3):
            conflict = random_graph(rng, n, density)
            assert_edge_clique_cover(conflict, _edge_clique_cover(conflict))

    @pytest.mark.parametrize("eps", [0.1875, 0.375, 0.75])
    def test_grid_conflict_graphs(self, eps):
        conflict = grid_sample(2, 12).distance_matrix() <= 2.0 * eps
        np.fill_diagonal(conflict, False)
        assert_edge_clique_cover(conflict, _edge_clique_cover(conflict))

    def test_solver_gets_fewer_rows_than_pairs(self, monkeypatch):
        # 12x12 grid at eps = 0.75: the pair formulation has 8640 rows.
        import scipy.optimize

        space = grid_sample(2, 12)
        n_pairs = int(np.triu(space.distance_matrix() <= 1.5, k=1).sum())
        real_milp, rows = scipy.optimize.milp, []

        def milp(*args, constraints, **kwargs):
            rows.append(constraints.A.shape[0])
            return real_milp(*args, constraints=constraints, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        assert exact_packing_number(space, 0.75) == 4
        assert n_pairs == 8640 and rows and rows[0] < n_pairs


class TestCliquePackingMatchesPairFormulation:
    @pytest.mark.parametrize("eps", [0.1875, 0.375, 0.75])
    def test_workload_grid(self, eps):
        space = grid_sample(2, 12)
        D = space.distance_matrix()
        assert exact_packing_number(space, eps) == edge_packing_number(D, eps)

    @pytest.mark.parametrize("per_axis", [5, 12])
    def test_two_eps_equal_to_a_grid_distance(self, per_axis):
        space = grid_sample(2, per_axis)
        D = space.distance_matrix()
        for d in np.unique(D)[1:7]:
            eps = d / 2.0
            assert (D == 2.0 * eps).any()
            assert exact_packing_number(space, eps) == edge_packing_number(D, eps), d

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets_with_duplicated_rows(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        pool = rng.uniform(-1, 1, (int(rng.integers(1, 120)), dim))
        if seed % 2:
            pool = np.round(pool * 4) / 4  # a 0.25 grid: exact ties at 2 eps
        pts = pool[rng.integers(0, len(pool), int(rng.integers(1, 201)))]
        space = MetricSpaceSample(pts)
        D = space.distance_matrix()
        i, j = rng.integers(0, len(pts), 2)
        # A duplicated pair is at distance 0, which is no radius: use 0.125.
        for eps in (float(rng.uniform(0.05, 0.6)), D[i, j] / 2.0 or 0.125, 0.25):
            assert exact_packing_number(space, eps) == edge_packing_number(D, eps), eps

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_infinite_epsilon(self, n):
        space = MetricSpaceSample(np.random.default_rng(n).uniform(-1, 1, (n, 2)))
        assert exact_packing_number(space, math.inf) == 1
        assert edge_packing_number(space.distance_matrix(), math.inf) == 1


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

    @pytest.mark.parametrize(
        "rows",
        [[[0.0], [np.nan], [5.0]], [[np.nan], [0.0], [5.0]], [[0.0], [np.inf]], [[-np.inf, 1.0]]],
        ids=["nan_inside", "nan_first", "inf", "minus_inf"],
    )
    def test_non_finite_points_rejected(self, rows):
        # Unchecked, a NaN row skews both greedy counts without an error.
        with pytest.raises(DomainError):
            MetricSpaceSample(np.array(rows))
