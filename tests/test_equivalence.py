import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnequiv import equivalence
from fnequiv.equivalence import (
    DISTINGUISHED,
    NUMERICALLY_EQUIVALENT,
    STRUCTURALLY_EQUAL,
    ball_points,
    decide_equivalence,
    sampled_sup_distance,
)
from fnequiv.errors import BudgetExceededError, DomainError, ShapeError
from fnequiv.nncore import (
    Architecture,
    Network,
    NetworkParams,
    RELU,
    TANH,
    forward,
    forward_batch,
    params_identical,
    random_params,
)
from fnequiv.transforms import apply_permutation, apply_scaling, random_spec

from oracles import ball_points_reference


def random_net(arch, seed):
    return Network(arch, random_params(arch, np.random.default_rng(seed)))


def perturbed_pair():
    """A tanh net and a copy with one output weight moved by 0.5."""
    arch = Architecture(2, (3,), (TANH,))
    net = random_net(arch, 9)
    layers = list(net.params.layers)
    W, b = layers[1]
    W = np.array(W)
    W[0, 0] += 0.5
    layers[1] = (W, b)
    return net, Network(arch, NetworkParams(tuple(layers)))


def orbit_equiv_pair():
    """A 4-64-16-1 (tanh, relu) net and a permuted copy with every entry
    moved by 1e-3, like the orbit-equiv benchmark's perturbed pairs."""
    arch = Architecture(4, (64, 16), (TANH, RELU))
    net = random_net(arch, 17)
    copy = apply_permutation(net.params, random_spec(arch, np.random.default_rng(18)))
    moved = NetworkParams(tuple((W + 1e-3, b + 1e-3) for W, b in copy.layers))
    return net, Network(arch, moved)


class TestBallPoints:
    def test_inside_ball_and_deterministic(self):
        pts = ball_points(3, 256, 2.0, seed=5)
        assert np.linalg.norm(pts, axis=1).max() <= 2.0 + 1e-12
        again = ball_points(3, 256, 2.0, seed=5)
        assert np.array_equal(pts, again)

    def test_contains_origin_and_axis_points(self):
        pts = ball_points(2, 16, 1.5, seed=0)
        assert any(np.all(p == 0.0) for p in pts)
        for axis in ([1.5, 0.0], [0.0, -1.5]):
            assert any(np.array_equal(p, axis) for p in pts)

    @pytest.mark.parametrize(
        "dim, n, radius, seed",
        [(4, 4096, 1.0, 0), (1, 1, 0.5, 3), (1, 64, 2.0, 0), (3, 256, 2.0, 5), (2, 17, 1.5, 7)],
    )
    def test_matches_uncached_reference_bit_for_bit(self, dim, n, radius, seed):
        expected = ball_points_reference(dim, n, radius, seed)
        for _ in range(2):
            pts = ball_points(dim, n, radius, seed=seed)
            assert pts.dtype == expected.dtype
            assert pts.tobytes() == expected.tobytes()

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        st.integers(1, 12),
        st.integers(1, 5000),
        st.integers(0, 2**63 - 1),
        st.floats(0.0, 1e300, exclude_min=True),
    )
    def test_any_set_matches_uncached_reference(self, dim, n, seed, radius):
        expected = ball_points_reference(dim, n, radius, seed)
        assert ball_points(dim, n, radius, seed=seed).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_drawn_points_are_uniform_in_the_ball(self, dim):
        # Under the uniform law on the d-ball, |x| <= r 2^(-1/d) with
        # probability 1/2 and each coordinate has mean 0 and variance
        # r^2 / (d + 2); every statistic must sit within 4 sigma.
        n, radius = 4096, 1.5
        drawn = ball_points(dim, n, radius, seed=2024)[:n]
        norms = np.linalg.norm(drawn, axis=1)
        # Normalizing a direction can round its length a few ulps past 1.
        assert norms.max() <= radius * (1.0 + 4 * np.finfo(float).eps)
        inner = np.mean(norms <= radius * 2.0 ** (-1.0 / dim))
        assert abs(inner - 0.5) <= 4 * math.sqrt(0.25 / n)
        sigma_mean = radius / math.sqrt((dim + 2) * n)
        assert np.all(np.abs(drawn.mean(axis=0)) <= 4 * sigma_mean)

    def test_returned_points_are_read_only(self):
        pts = ball_points(2, 32, 1.0, seed=1)
        with pytest.raises(ValueError):
            pts[0, 0] = 5.0
        assert ball_points_reference(2, 32, 1.0, 1).tobytes() == pts.tobytes()

    def test_numpy_integer_seed_is_the_same_set(self):
        assert ball_points(2, 32, 1.0, seed=np.int64(4)) is ball_points(2, 32, 1.0, seed=4)

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), 1.0, 0.5, None])
    def test_non_integer_seed_is_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            ball_points(2, 8, 1.0, seed=seed)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(DomainError, match="radius"):
            ball_points(2, 8, radius)

    def test_cache_holds_a_bounded_number_of_sets(self):
        limit = equivalence._BALL_POINTS_CACHE_SIZE
        for seed in range(1000, 1000 + 3 * limit):
            ball_points(2, 8, 1.0, seed=seed)
            assert equivalence._ball_points.cache_info().currsize <= limit
        assert equivalence._ball_points.cache_info().currsize == limit


class TestSampleBudget:
    def test_ball_points_refused_just_past_the_budget(self, monkeypatch):
        # A 2-D set holds its n points, the origin and 4 axis points.
        monkeypatch.setattr(equivalence, "_SAMPLE_ENTRY_LIMIT", 100)
        assert ball_points(2, 45, 1.0, seed=11).shape == (50, 2)
        with pytest.raises(BudgetExceededError, match="sample point count n = 46 ") as err:
            ball_points(2, 46, 1.0, seed=11)
        assert err.value.required == 102

    def test_forward_activations_count_at_the_widest_layer(self, monkeypatch):
        # 2-8-1: the 8-wide hidden activations bound the sample, not its 2-D points.
        monkeypatch.setattr(equivalence, "_SAMPLE_ENTRY_LIMIT", 400)
        arch = Architecture(2, (8,), (TANH,))
        f1, f2 = random_net(arch, 1), random_net(arch, 2)
        assert sampled_sup_distance(f1, f2, 1.0, 45) > 0.0
        assert decide_equivalence(f1, f2, 1.0, n_samples=45).kind == DISTINGUISHED
        with pytest.raises(BudgetExceededError, match="n_samples = 46 "):
            sampled_sup_distance(f1, f2, 1.0, 46)
        for second in (f1, f2):  # either route
            with pytest.raises(BudgetExceededError, match="n_samples = 46 "):
                decide_equivalence(f1, second, 1.0, n_samples=46)

    def test_a_trillion_samples_refused_before_any_draw(self):
        net = random_net(Architecture(2, (3,), (TANH,)), 1)
        with pytest.raises(BudgetExceededError, match="limit"):
            ball_points(2, 10**12, 1.0)
        with pytest.raises(BudgetExceededError, match="limit"):
            sampled_sup_distance(net, net, 1.0, 10**12)


class TestSampledSupDistance:
    def test_identical_nets_zero(self):
        net = random_net(Architecture(2, (3,), (TANH,)), 0)
        assert sampled_sup_distance(net, net, 1.0, 128) == 0.0

    def test_permutation_image_below_tolerance(self):
        arch = Architecture(2, (4,), (TANH,))
        net = random_net(arch, 1)
        permuted = Network(arch, apply_permutation(net.params, random_spec(arch, np.random.default_rng(2))))
        assert sampled_sup_distance(net, permuted, 1.0, 512) <= 1e-9

    def test_output_bias_shift_is_one(self):
        arch = Architecture(1, (2,), (TANH,))
        net = random_net(arch, 3)
        layers = list(net.params.layers)
        W, b = layers[-1]
        layers[-1] = (W, b + 1.0)
        shifted = Network(arch, NetworkParams(tuple(layers)))
        assert sampled_sup_distance(net, shifted, 1.0, 64) >= 1.0 - 1e-12

    def test_dimension_mismatch(self):
        a = random_net(Architecture(2, (2,), (TANH,)), 4)
        b = random_net(Architecture(3, (2,), (TANH,)), 5)
        with pytest.raises(ShapeError):
            sampled_sup_distance(a, b, 1.0, 16)


class TestDecideEquivalence:
    def test_permutation_orbit_structural(self):
        arch = Architecture(2, (3, 3), (TANH, TANH))
        net = random_net(arch, 6)
        spec = random_spec(arch, np.random.default_rng(7))
        other = Network(arch, apply_permutation(net.params, spec))
        verdict = decide_equivalence(net, other, 1.0)
        assert verdict.kind == STRUCTURALLY_EQUAL
        assert verdict.witness is not None
        assert params_identical(apply_permutation(net.params, verdict.witness), other.params)

    def test_scaled_relu_numerically_equivalent(self):
        arch = Architecture(1, (3,), (RELU,))
        net = random_net(arch, 8)
        scaled = Network(arch, apply_scaling(arch, net.params, 1, (2.0,) * 3))
        verdict = decide_equivalence(net, scaled, 1.0)
        assert verdict.kind == NUMERICALLY_EQUIVALENT
        assert verdict.sup_distance_estimate <= 1e-9

    def test_perturbed_weight_distinguished(self):
        arch = Architecture(2, (3,), (TANH,))
        net = random_net(arch, 9)
        layers = list(net.params.layers)
        W, b = layers[1]
        W = np.array(W)
        W[0, 0] += 0.5
        layers[1] = (W, b)
        other = Network(arch, NetworkParams(tuple(layers)))
        verdict = decide_equivalence(net, other, 1.0)
        assert verdict.kind == DISTINGUISHED
        assert verdict.distinguishing_input is not None

    def test_repeated_sampled_fallbacks_build_the_points_once(self):
        net, other = perturbed_pair()
        equivalence._ball_points.cache_clear()
        verdicts = [decide_equivalence(net, other, 1.0, n_samples=300, seed=11) for _ in range(10)]
        assert equivalence._ball_points.cache_info().misses == 1
        assert {v.kind for v in verdicts} == {DISTINGUISHED}
        assert len({v.sup_distance_estimate for v in verdicts}) == 1

    def test_distinguishing_input_is_a_private_copy(self):
        net, other = perturbed_pair()
        verdict = decide_equivalence(net, other, 1.0, n_samples=300, seed=11)
        cached = ball_points(net.arch.input_dim, 300, 1.0, seed=11)
        x = verdict.distinguishing_input
        assert x.flags.writeable
        assert not np.shares_memory(x, cached)
        assert any(np.array_equal(x, p) for p in cached)
        x[:] = 9.0
        assert ball_points_reference(net.arch.input_dim, 300, 1.0, 11).tobytes() == cached.tobytes()

    def test_distinguished_witness_reproducible(self):
        arch = Architecture(2, (2,), (TANH,))
        net = random_net(arch, 10)
        layers = list(net.params.layers)
        W, b = layers[0]
        W = np.array(W)
        W[0, 0] += 0.7
        layers[0] = (W, b)
        other = Network(arch, NetworkParams(tuple(layers)))
        verdict = decide_equivalence(net, other, 1.0, tolerance=1e-7)
        gap = abs(
            forward(net.arch, net.params, verdict.distinguishing_input)[0]
            - forward(other.arch, other.params, verdict.distinguishing_input)[0]
        )
        assert gap > 1e-7
        assert gap == pytest.approx(verdict.sup_distance_estimate, rel=1e-12)

    def test_structural_complete_on_orbits(self):
        # never falls through to sampling on a permutation orbit
        arch = Architecture(2, (4,), (TANH,))
        rng = np.random.default_rng(11)
        for _ in range(1000):
            params = random_params(arch, rng)
            spec = random_spec(arch, rng)
            verdict = decide_equivalence(
                Network(arch, params),
                Network(arch, apply_permutation(params, spec)),
                1.0,
            )
            assert verdict.kind == STRUCTURALLY_EQUAL

    def test_symmetric_verdicts(self):
        arch = Architecture(2, (3,), (TANH,))
        pairs = []
        base = random_net(arch, 12)
        pairs.append((base, Network(arch, apply_permutation(base.params, random_spec(arch, np.random.default_rng(13))))))
        layers = list(base.params.layers)
        W, b = layers[0]
        W = np.array(W)
        W[0, 0] += 0.4
        layers[0] = (W, b)
        pairs.append((base, Network(arch, NetworkParams(tuple(layers)))))
        for f1, f2 in pairs:
            k12 = decide_equivalence(f1, f2, 1.0).kind
            k21 = decide_equivalence(f2, f1, 1.0).kind
            assert k12 == k21

    def test_architecture_mismatch(self):
        a = random_net(Architecture(2, (2,), (TANH,)), 14)
        b = random_net(Architecture(2, (2,), (RELU,)), 15)
        with pytest.raises(ShapeError):
            decide_equivalence(a, b, 1.0)

    def test_params_checked_against_their_architecture(self):
        # Same 1-2-1 parameters under a 1-3-1 architecture: no route may
        # decide on them, the structural one included.
        params = random_net(Architecture(1, (2,), (TANH,)), 16).params
        arch = Architecture(1, (3,), (TANH,))
        with pytest.raises(ShapeError):
            decide_equivalence(Network(arch, params), Network(arch, params), 1.0)

    @pytest.mark.parametrize(
        "B_x,tolerance", [(1.0, np.nan), (1.0, -1e-9), (np.nan, 1e-7), (np.inf, 1e-7), (0.0, 1e-7)]
    )
    def test_invalid_tolerance_or_radius_rejected_on_both_routes(self, B_x, tolerance):
        net, far = perturbed_pair()
        for pair in [(net, net), (net, far)]:  # structural, then sampled
            with pytest.raises(DomainError):
                decide_equivalence(*pair, B_x, tolerance=tolerance)

    def test_verdict_serialization(self):
        arch = Architecture(1, (2,), (TANH,))
        net = random_net(arch, 16)
        verdict = decide_equivalence(net, net, 1.0)
        doc = verdict.to_json_dict()
        assert doc["kind"] == STRUCTURALLY_EQUAL
        assert isinstance(doc["witness"], list)


class TestStagedSample:
    """Rows per ``forward_batch`` call: the first stage holds 64 random
    points, the origin and the 2·d axis points (73 rows in 4-D), the
    whole default set 4096 + 9 = 4105."""

    @pytest.fixture
    def rows(self, monkeypatch):
        calls = []

        def counting(arch, params, X):
            calls.append(len(X))
            return forward_batch(arch, params, X)

        monkeypatch.setattr(equivalence, "forward_batch", counting)
        return calls

    def test_perturbed_pair_stops_after_the_first_stage(self, rows):
        verdict = decide_equivalence(*orbit_equiv_pair(), 1.0)
        assert verdict.kind == DISTINGUISHED
        assert rows == [73, 73]

    def test_pair_under_tolerance_reaches_the_whole_set(self, rows):
        verdict = decide_equivalence(*orbit_equiv_pair(), 1.0, tolerance=1e9)
        assert verdict.kind == NUMERICALLY_EQUIVALENT
        assert rows == [73, 73, 4105, 4105]

    def test_stage_maximum_equal_to_tolerance_goes_on(self, rows):
        f1, f2 = orbit_equiv_pair()
        whole = sampled_sup_distance(f1, f2, 1.0)
        first = decide_equivalence(f1, f2, 1.0).sup_distance_estimate
        rows.clear()
        verdict = decide_equivalence(f1, f2, 1.0, tolerance=first)
        assert rows == [73, 73, 4105, 4105]
        assert verdict.sup_distance_estimate == whole

    def test_sampled_sup_distance_evaluates_the_whole_set_once(self, rows):
        sampled_sup_distance(*orbit_equiv_pair(), 1.0)
        assert rows == [4105, 4105]

    @pytest.mark.parametrize("n_samples, expected", [(64, [73, 73]), (65, [73, 73, 74, 74])])
    def test_a_set_of_at_most_64_points_is_one_stage(self, rows, n_samples, expected):
        decide_equivalence(*orbit_equiv_pair(), 1.0, tolerance=1e9, n_samples=n_samples)
        assert rows == expected
