import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnequiv import canonical, empirical, nncore
from fnequiv.bounds import BoundConfig, shallow_covering_bound, volume_covering_bound
from fnequiv.canonical import _canonical_layers, _first_fit, group_rows
from fnequiv.empirical import (
    DEFAULT_GRID_BUDGET,
    METRIC_FUNCTION,
    MetricSpaceSample,
    _certified_count,
    _cover_milp,
    _edge_clique_cover,
    _greedy_cover_centers,
    _greedy_set_cover,
    _packing_milp,
    exact_covering_number,
    exact_packing_number,
    function_class_sample,
    greedy_covering_estimate,
    greedy_packing_estimate,
    grid_sample,
)
from fnequiv.equivalence import ball_points
from fnequiv.errors import BudgetExceededError, DomainError, NumericError
from fnequiv.nncore import Architecture, IDENTITY, RELU, TANH, _chebyshev

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

    @pytest.mark.parametrize(
        "rows, eps, count",
        [
            # 1 + 2**-52 - (-1) rounds to 2.0 = 2 eps, so row 1 is dropped,
            # though its key lies past fl(-1 + 2 eps); and the mirror image.
            ([-1.0, 1.0 + 2.0**-52], 1.0, 1),
            ([1.0, -1.0 - 2.0**-52], 1.0, 1),
            # Subnormal: the margin vanishes and row 1 sits exactly on the
            # slab's upper end, 2 eps from row 0.
            ([0.0, 4 * 5e-324, 9 * 5e-324], 2 * 5e-324, 2),
        ],
    )
    def test_packing_drops_rows_on_and_past_the_slab_ends(self, rows, eps, count):
        pts = np.array(rows).reshape(-1, 1)
        assert greedy_pack_reference(pts, eps) == count
        assert greedy_packing_estimate(MetricSpaceSample(pts), eps) == count

    def test_deterministic_reruns(self):
        # A fresh sample per cover call, so each call runs its own pass.
        pts = np.random.default_rng(0).uniform(-1, 1, (60, 2))
        space = MetricSpaceSample(pts)
        a = [greedy_covering_estimate(MetricSpaceSample(pts), 0.3) for _ in range(3)]
        b = [greedy_packing_estimate(space, 0.15) for _ in range(3)]
        assert len(set(a)) == 1 and len(set(b)) == 1


    def test_function_class_sample_matches_reference(self, fclass_sample):
        for eps in (0.2, 0.4):
            centers, radii = _greedy_cover_centers(fclass_sample, eps)
            ref_centers, ref_radii = greedy_cover_centers_reference(fclass_sample.points, eps)
            assert centers.tolist() == ref_centers
            assert radii.tobytes() == np.array(ref_radii).tobytes()
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

    def test_distance_matrix_memory_bounded_by_the_result(self):
        space = MetricSpaceSample(np.random.default_rng(6).uniform(-1, 1, (200, 35)))
        space.distance_matrix()
        tracemalloc.start()
        try:
            D = space.distance_matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * D.nbytes


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
                greedy_cover_centers_reference(pts, eps)[0]
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


class TestSortRecord:
    """A sample sorts its points on their widest column once, for every
    greedy cover and pack and first-fit certificate that follows."""

    def test_one_sort_serves_every_pass(self, monkeypatch):
        sorts = []

        def counted(pts):
            sorts.append(len(pts))
            return canonical._widest_column_order(pts)

        monkeypatch.setattr(empirical, "_widest_column_order", counted)
        pts = np.random.default_rng(5).uniform(-1, 1, (60, 3))
        space = MetricSpaceSample(pts)
        for eps in (0.4, 0.1, 0.8):
            assert greedy_packing_estimate(space, eps) == greedy_pack_reference(pts, eps)
            assert greedy_covering_estimate(space, eps) == len(
                greedy_cover_centers_reference(pts, eps)[0]
            )
        exact_covering_number(space, 0.8)
        assert sorts == [60]
        widest = pts[:, int(np.argmax(np.ptp(pts, axis=0)))]
        assert space._sort_record[2][0].tobytes() == np.sort(widest).tobytes()
        assert "_sort_record" not in repr(space)

    def test_no_coordinates_records_nothing(self):
        space = MetricSpaceSample(np.zeros((3, 0)))
        assert greedy_packing_estimate(space, 0.5) == greedy_covering_estimate(space, 0.5) == 1
        assert space._sort_record is None


class TestGreedyCoverPruning:
    """Hand-built boundaries of distance pruning, where a skipped point must
    be one the new center c cannot take: distances equal to R or 2R, R being
    c's own distance, and a slab edge fl(c + R) that rounds below c + R.
    Each cover must match a full rescan."""

    def test_point_as_far_from_new_center_as_from_its_own(self):
        # a = row 0, then row 1; c = row 2 has R = 1 and d(a, c) = 2 = 2R;
        # row 3 is 1 from a and 1 from c, so c leaves it live and it is last.
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        assert greedy_cover_centers_reference(pts, 0.5)[0] == [0, 1, 2, 3]
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
        assert greedy_cover_centers_reference(pts, eps)[0] == [0, 1, 2]
        assert _greedy_cover_centers(MetricSpaceSample(pts), eps)[0].tolist() == [0, 1, 2]

    def test_points_at_the_slab_edges_and_one_inside(self):
        # Center 2 = (5, 5) is picked at R = 5; rows 0 and 1 lie exactly R
        # from it on the sorted first column and keep their distance 0.
        # Row 3 lies 3.5 from it, more than R/2 on that column, and moves
        # from 4.5 to 3.5, so it is picked at 3.5, or not at all at eps 4.
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0], [1.5, 4.5]])
        for eps, size in ((1.0, 4), (4.0, 3)):
            centers, radii = _greedy_cover_centers(MetricSpaceSample(pts), eps)
            assert (centers.tolist(), radii.tolist()) == greedy_cover_centers_reference(pts, eps)
            assert centers.tolist() == [0, 1, 2, 3][:size]
            assert radii.tolist() == [10.0, 5.0, 3.5][: size - 1]

    @pytest.mark.parametrize("offset", [1.0, 2.0**20, -(2.0**20)])
    def test_slab_edge_rounded_below_c_plus_r(self, offset):
        # Row 2 is picked at R = 1.25 ulp(offset) (a tie with row 3, which
        # has the higher index).  fl(c + R) rounds down to c + ulp, the key
        # of row 3, which row 2 moves to distance ulp: a slab of half-width
        # R would end at row 3 and leave it to be picked as a fourth center.
        # A negative offset mirrors the key column: the lower edge fl(c - R)
        # then rounds up onto row 3's key, which the slab's closed lower end
        # keeps.
        u = np.spacing(abs(offset)) * np.sign(offset)
        y = 1.25 * abs(u)
        pts = np.array([[offset, 0.0], [offset - 8 * u, 0.0], [offset, y], [offset + u, y]])
        assert offset + 1.25 * u == offset + u
        eps = abs(u)
        centers, radii = _greedy_cover_centers(MetricSpaceSample(pts), eps)
        assert (centers.tolist(), radii.tolist()) == greedy_cover_centers_reference(pts, eps)
        assert centers.tolist() == [0, 1, 2]
        assert radii.tolist() == [8 * abs(u), y]

    def test_pivot_bound_keeps_most_slab_rows_from_the_kernel(self, monkeypatch):
        # Past its first call, the kernel reads only the slab rows whose gaps
        # to the center on all three pivot columns are below their distance
        # so far: here 7 % of them, where signed gaps would pass 30 %.
        slab_rows, kernel_rows = [], []

        def slab(*args):
            lo, hi = canonical._slab(*args)
            slab_rows.append(hi - lo)
            return lo, hi

        def kernel(points, centers):
            kernel_rows.append(len(centers))
            return nncore._chebyshev(points, centers)

        monkeypatch.setattr(empirical, "_slab", slab)
        monkeypatch.setattr(empirical, "_chebyshev", kernel)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (1000, 6)) * np.array([4, 2, 1, 1, 0.5, 0.5])
        centers, radii = _greedy_cover_centers(MetricSpaceSample(pts), 0.1)
        assert (centers.tolist(), radii.tolist()) == greedy_cover_centers_reference(pts, 0.1)
        assert sum(kernel_rows[1:]) <= 0.1 * sum(slab_rows)

    def test_pivot_bound_keeps_most_slab_rows_from_the_pack_kernel(self, monkeypatch):
        # On slabs of more than _PIVOT_MIN_ROWS rows, first fit sends the
        # kernel only the live rows within the threshold of the kept row on
        # every pivot column past the slab's sort column: here 2,797 of the
        # 56,552 slab rows, where the live ones alone are 22,624.
        slab_rows, kernel_rows, plain_slab = [], [], canonical._slab

        def slab(*args):
            lo, hi = plain_slab(*args)
            slab_rows.append(hi - lo)
            return lo, hi

        def kernel(points, centers):
            kernel_rows.append(len(centers))
            return nncore._chebyshev(points, centers)

        monkeypatch.setattr(canonical, "_slab", slab)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (1000, 6)) * np.array([4, 2, 1, 1, 0.5, 0.5])
        assert len(_first_fit(pts, 0.5, kernel)[0]) == greedy_pack_reference(pts, 0.25)
        assert sum(kernel_rows) <= 0.1 * sum(slab_rows)

    def test_one_column_pack_has_no_pivot_past_the_sort_column(self):
        # Slabs of about 180 and 300 rows, past _PIVOT_MIN_ROWS, with no
        # pivot left to bound them: the kernel alone decides.
        pts = np.random.default_rng(8).uniform(-1, 1, (300, 1))
        for eps in (0.3, 0.6):
            assert greedy_packing_estimate(MetricSpaceSample(pts), eps) == greedy_pack_reference(
                pts, eps
            )

    def test_gaps_beyond_a_double_are_infinite_without_a_warning(self):
        # Coordinates +-1.5e308 are a finite 3e308 apart, beyond a double:
        # the kernel, the column widths and the pivot gaps give +inf, as
        # cdist did, and warnings are errors under pytest.  Rows 4 and 5
        # share the sorted column's key, so one's slab holds the other; 30
        # copies of each row make that slab long enough for first fit's
        # pivot bound.
        v = np.array([1.5e308, -1.5e308, 1e308, 0.0])
        w = np.array([0.0, 1.5e308, 0.0, 0.0])
        pts = np.array([0 * v, v, -v, 0.5 * v, w, -w])
        with np.errstate(over="ignore"):
            reference = greedy_cover_centers_reference(pts, 1.0)
            packed = greedy_pack_reference(pts, 1.0)
        assert _chebyshev(pts[1:2], pts[2:3]).tolist() == [[math.inf]]
        assert _chebyshev(pts, pts)[4, 5] == math.inf
        centers, radii = _greedy_cover_centers(MetricSpaceSample(pts), 1.0)
        assert (centers.tolist(), radii.tolist()) == reference
        assert greedy_packing_estimate(MetricSpaceSample(pts), 1.0) == packed == 6
        assert group_rows(pts, 1.0)[1] == [0, 1, 2, 3, 4, 5]
        assert group_rows(np.repeat(pts, 30, axis=0), 1.0)[1] == list(range(0, 180, 30))

    @pytest.mark.parametrize("points", [np.zeros((3, 0)), np.array([]), np.array([[0.5, -2.0]])])
    def test_samples_of_one_distinct_point(self, points):
        # Rows with no coordinates are all at distance 0 from each other.
        for eps in (0.1, math.inf):
            assert greedy_covering_estimate(MetricSpaceSample(points), eps) == 1
            assert greedy_packing_estimate(MetricSpaceSample(points), eps) == 1
        centers, radii = _greedy_cover_centers(MetricSpaceSample(points), 0.1)
        assert centers.tolist() == [0] and radii.size == 0


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

    def test_oracles_share_one_distance_matrix(self, monkeypatch):
        # The sample's D is built once for every call, and its bracket runs
        # once per eps in a row; each count equals that of a fresh sample.
        builds, brackets, certified = [], [], empirical._certified_count

        def kernel(points, centers):
            if len(points) == len(centers) == 144:
                builds.append(1)
            return nncore._chebyshev(points, centers)

        def bracket(space, D, epsilon):
            brackets.append(epsilon)
            return certified(space, D, epsilon)

        calls = [
            (exact_covering_number, 0.375, 9),
            (exact_packing_number, 0.375, 9),
            (exact_packing_number, 0.75, 4),
            (exact_covering_number, 0.75, 4),
            (exact_covering_number, 0.1875, 16),
            (exact_packing_number, 0.375, 9),
        ]
        fresh = [oracle(grid_sample(2, 12), eps) for oracle, eps, _ in calls]
        monkeypatch.setattr(empirical, "_chebyshev", kernel)
        monkeypatch.setattr(empirical, "_certified_count", bracket)
        space = grid_sample(2, 12)
        assert [oracle(space, eps) for oracle, eps, _ in calls] == fresh
        assert fresh == [count for _, _, count in calls]
        assert len(builds) == 1
        assert brackets == [0.375, 0.75, 0.1875, 0.375]

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
        # 12x12 grid at eps = 0.75: the pair formulation has 8640 rows.  The
        # oracle answers this grid from its certificate, so the solver step
        # is called directly.
        import scipy.optimize

        D = grid_sample(2, 12).distance_matrix()
        n_pairs = int(np.triu(D <= 1.5, k=1).sum())
        real_milp, rows = scipy.optimize.milp, []

        def milp(*args, constraints, **kwargs):
            rows.append(constraints.A.shape[0])
            return real_milp(*args, constraints=constraints, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        assert _packing_milp(D, 0.75) == 4
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


@st.composite
def bracket_cases(draw):
    """At most 40 points and a radius: a small grid, or a pool on a 0.25
    grid drawn with repeats, so rows are duplicated and pair distances fall
    exactly on eps or 2 eps."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 2))
        pts = grid_sample(dim, draw(st.integers(2, 40 if dim == 1 else 6))).points
    else:
        dim = draw(st.integers(1, 3))
        row = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
        pool = np.array(draw(st.lists(row, min_size=1, max_size=15)), dtype=float) / 4
        pts = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))]
    gaps = [float(g) for g in np.unique(MetricSpaceSample(pts).distance_matrix()) if g > 0]
    radii = [g / 2 for g in gaps] + gaps
    eps = draw(st.sampled_from(radii) | st.floats(0.01, 2.5) if radii else st.floats(0.01, 2.5))
    return pts, eps


def spy_milp(monkeypatch):
    """The list that each ``scipy.optimize.milp`` call appends to."""
    import scipy.optimize

    real_milp, calls = scipy.optimize.milp, []

    def milp(*args, **kwargs):
        calls.append(1)
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", milp)
    return calls


def table_kernel(table):
    """A distance kernel reading the distance of rows i / 1000 and j / 1000
    off ``table``: a semi-metric free to miss the triangle inequality.  Its
    distances are at least the coordinate gaps, as the slabs assume."""

    def kernel(a, b):
        row = lambda pts: np.rint(pts[:, 0] * 1000).astype(int)
        return table[np.ix_(row(a), row(b))]

    return kernel


def semi_metric(n, pairs):
    """Distances 3 between n points, except ``pairs``: {(i, j): distance}."""
    table = np.full((n, n), 3.0)
    np.fill_diagonal(table, 0.0)
    for (i, j), d in pairs.items():
        table[i, j] = table[j, i] = d
    return table


# At eps = 1.  Ball 0 holds points 1 and 2, which are 3 apart: the greedy
# cover {0} is as small as the first-fit packing {0}, yet {1, 2} packs.
BALL_NOT_A_CLIQUE = semi_metric(3, {(0, 1): 1.0, (0, 2): 1.0})
# At eps = 1.  First-fit keeps {0, 1, 2} and the greedy cover takes balls
# 0, 2 and 1, each a clique at 2 eps; but ball 3 holds points 0 and 1 of
# the packing, and balls 3 and 4 cover everything.
BALL_HOLDS_TWO_PACKED = semi_metric(
    7,
    {
        **dict.fromkeys([(0, 3), (1, 3), (2, 4), (4, 5), (4, 6), (0, 5), (0, 6), (5, 6)], 1.0),
        **dict.fromkeys([(3, 5), (3, 6)], 1.5),
    },
)


class TestCertifiedBracket:
    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(bracket_cases())
    def test_bounds_bracket_the_solver(self, case):
        pts, eps = case
        space = MetricSpaceSample(pts)
        D = space.distance_matrix()
        lower = len(_first_fit(pts, 2.0 * eps, _chebyshev)[0])
        upper = len(_greedy_set_cover(D <= eps))
        n_opt, m_opt = _cover_milp(D, eps), _packing_milp(D, eps)
        assert lower <= m_opt <= n_opt <= upper
        count = _certified_count(space, D, eps)
        if count is not None:
            assert count == n_opt == m_opt == edge_packing_number(D, eps)
            if len(pts) <= 10:
                assert count == exhaustive_min_cover(D, eps)
        assert exact_covering_number(space, eps) == n_opt
        assert exact_packing_number(space, eps) == m_opt

    @pytest.mark.parametrize(
        "per_axis, eps, count",
        # The 5x5 grid has spacing 0.5: pairs lie exactly at eps.
        [(12, 0.1875, 16), (12, 0.375, 9), (12, 0.75, 4), (5, 0.5, 4), (5, 1.0, 1)],
    )
    def test_closed_bracket_runs_no_solver(self, monkeypatch, per_axis, eps, count):
        calls = spy_milp(monkeypatch)
        space = grid_sample(2, per_axis)
        assert exact_covering_number(space, eps) == count
        assert exact_packing_number(space, eps) == count
        assert not calls

    def test_open_bracket_runs_the_solver(self, monkeypatch):
        calls = spy_milp(monkeypatch)
        space = MetricSpaceSample(np.random.default_rng(0).uniform(-1, 1, (40, 2)))
        D = space.distance_matrix()
        assert len(_first_fit(space.points, 0.5, _chebyshev)[0]) == 9
        assert len(_greedy_set_cover(D <= 0.25)) == 17
        assert exact_covering_number(space, 0.25) == 15
        assert exact_packing_number(space, 0.25) == 10
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "table, cover, pack", [(BALL_NOT_A_CLIQUE, 1, 2), (BALL_HOLDS_TWO_PACKED, 2, 3)]
    )
    def test_checks_refuse_a_kernel_that_misses_the_triangle_inequality(
        self, monkeypatch, table, cover, pack
    ):
        monkeypatch.setattr(empirical, "_chebyshev", table_kernel(table))
        space = MetricSpaceSample(np.arange(len(table))[:, None] / 1000)
        D = space.distance_matrix()
        assert (D == table).all()
        kept = _first_fit(space.points, 2.0, empirical._chebyshev)[0]
        assert len(kept) == len(_greedy_set_cover(D <= 1.0))
        assert _certified_count(space, D, 1.0) is None
        assert exact_covering_number(space, 1.0) == _cover_milp(D, 1.0) == cover
        assert exact_packing_number(space, 1.0) == _packing_milp(D, 1.0) == pack


class TestGridSample:
    def test_budget_checked_before_allocation(self, monkeypatch):
        def no_mesh(*args, **kwargs):
            raise AssertionError("allocated an oversized grid")

        monkeypatch.setattr(np, "meshgrid", no_mesh)
        with pytest.raises(BudgetExceededError) as exc:
            grid_sample(8, 100)
        assert exc.value.required == 100**8

    def test_count_past_the_int_print_limit(self):
        # 3**10000 has 4772 digits; by default Python refuses to print an
        # int of more than 4300.
        with pytest.raises(BudgetExceededError, match=r"3\*\*10000 points"):
            grid_sample(10_000, 3)

    def test_huge_exponent_refused_before_the_power(self):
        # 3**10**7 alone takes seconds to form; any dim of at least the
        # budget's bit length is over it whatever the base.
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"3\*\*10000000 points") as exc:
            grid_sample(10**7, 3)
        assert exc.value.required is None
        arch = Architecture(1, (10**7,), (RELU,))
        with pytest.raises(BudgetExceededError, match="parameter vectors") as exc:
            function_class_sample(arch, 1.0, 2, 1.0, 4)
        assert exc.value.required is None
        assert time.perf_counter() - start < 0.5

    def test_early_refusal_starts_at_the_budget_bit_length(self, monkeypatch):
        monkeypatch.setattr("fnequiv.empirical.DEFAULT_GRID_BUDGET", 7)  # bit length 3
        assert len(grid_sample(2, 2)) == 4
        with pytest.raises(BudgetExceededError) as exc:
            grid_sample(2, 3)
        assert exc.value.required == 9
        with pytest.raises(BudgetExceededError) as exc:
            grid_sample(3, 2)
        assert exc.value.required is None

    def test_widest_grid_a_double_holds(self):
        # The axis spans 2 * half_width, the largest double; the greedy
        # searches add a coordinate to a distance beyond it without a warning.
        space = grid_sample(2, 3, sys.float_info.max / 2)
        assert np.isfinite(space.points).all()
        assert greedy_covering_estimate(space, 0.5) == greedy_packing_estimate(space, 0.5) == 9

    def test_budget_is_inclusive(self):
        assert len(grid_sample(2, 1000)) == DEFAULT_GRID_BUDGET
        with pytest.raises(BudgetExceededError) as exc:
            grid_sample(2, 1001)
        assert exc.value.required == 1001**2


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

    def test_budget_guard_past_the_int_print_limit(self):
        arch = Architecture(1, (3000,), (RELU,))  # 5**9001 has 6292 digits
        with pytest.raises(BudgetExceededError, match=r"5\*\*9001 parameter vectors"):
            function_class_sample(arch, 1.0, 5, 1.0, 4)

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
        monkeypatch.setattr("fnequiv.empirical._DISTANCE_BLOCK_BYTES", 1)
        blocks = []
        forward = empirical._forward_checked
        monkeypatch.setattr(
            "fnequiv.empirical._forward_checked", lambda *args: blocks.append(1) or forward(*args)
        )
        alone = function_class_sample(arch, 1.0, resolution, 1.0, 5, dedup_canonical=dedup)
        assert len(blocks) == len(expected) > 1
        assert alone.points.tobytes() == sample.points.tobytes()
        assert alone.provenance == sample.provenance

    def test_memory_bounded_as_documented(self):
        # fclass-cover's class: G = 8 total S bytes of grid, K = 8 kept S
        # bytes of kept rows, V = 8 kept m bytes of values; the docstring
        # bounds the peak by about max(4 G, K + V, 1.125 V) plus one
        # evaluation block.  A second copy of the values breaks it.
        arch = Architecture(1, (2,), (RELU,))
        function_class_sample(arch, 1.0, 4, 1.0, 32, dedup_canonical=True)
        tracemalloc.start()
        try:
            sample = function_class_sample(arch, 1.0, 4, 1.0, 32, dedup_canonical=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        G = 8 * sample.provenance["n_enumerated"] * arch.param_count
        K = 8 * sample.provenance["n_kept"] * arch.param_count
        V = sample.points.nbytes
        assert peak <= max(4 * G, K + V, 1.125 * V) + nncore._DISTANCE_BLOCK_BYTES

    def test_dedup_step_memory(self):
        # The sampler's dedup step on fclass-cover's 16384 x 7 grid (G bytes,
        # built inside the trace): canonical rows, their flat copy and one
        # sorted copy in group_rows stay under 4 G; a second sorted copy
        # (3.93 MB) does not.
        arch = Architecture(1, (2,), (RELU,))

        def dedup():
            thetas = empirical._grid_rows(np.linspace(-1.0, 1.0, 4), arch.param_count)
            canon = nncore._flatten(_canonical_layers(nncore._unflatten(arch, thetas))[0])
            return thetas, thetas[group_rows(canon, 0.0)[1]]

        dedup()
        tracemalloc.start()
        try:
            thetas, kept = dedup()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert thetas.shape == (16384, 7) and len(kept) == 8704
        assert peak <= 4 * thetas.nbytes

    @pytest.mark.parametrize("per_block", [None, 1], ids=["default_block", "one_net_per_block"])
    def test_overflow_names_its_layer(self, monkeypatch, per_block):
        # At B = 1e200 every first-layer pre-activation is finite and the
        # second layer's products of two such weights overflow.
        if per_block is not None:
            monkeypatch.setattr("fnequiv.empirical._DISTANCE_BLOCK_BYTES", per_block)
        arch = Architecture(1, (2,), (RELU,))
        with pytest.raises(NumericError, match="at layer 2$") as exc:
            function_class_sample(arch, 1e200, 4, 1.0, 32, dedup_canonical=True)
        assert exc.value.layer == 2


class TestMetricSpaceSample:
    def test_points_are_a_private_read_only_copy(self):
        rows = np.arange(6.0).reshape(3, 2)
        space = MetricSpaceSample(rows)
        assert not np.shares_memory(space.points, rows)
        assert not space.points.flags.writeable
        rows[0, 0] = 99.0
        assert space.points[0, 0] == 0.0

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
