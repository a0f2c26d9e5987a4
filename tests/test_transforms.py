import numpy as np
import pytest

from fnequiv.equivalence import ball_points
from fnequiv.errors import DomainError, ShapeError, UnsupportedTransformError
from fnequiv.nncore import (
    Architecture,
    EQUIV_ATOL,
    IDENTITY,
    NetworkParams,
    RELU,
    SIGMOID,
    TANH,
    forward_batch,
    leaky_relu,
    params_identical,
    random_params,
)
from fnequiv.transforms import (
    PermutationSpec,
    PoolingPartition,
    ScalingSpec,
    _permute_neurons,
    apply_permutation,
    apply_pooling_permutation,
    apply_scaling,
    apply_sign_flip,
    attention_forward,
    attention_permutation_equivalent,
    compose,
    identity_spec_for,
    inverse,
    pooled_forward,
    random_spec,
    residual_equivalence_check,
    uniform_scaling,
)

from oracles import attention_oracle


def forward_gap(arch, p1, p2, n=1000, seed=0, radius=1.0):
    X = ball_points(arch.input_dim, n, radius, seed=seed)
    return float(np.abs(forward_batch(arch, p1, X) - forward_batch(arch, p2, X)).max())


class TestPermutation:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(0)
        arch = Architecture(2, (3, 4), (TANH, RELU))
        params = random_params(arch, rng)
        out = apply_permutation(params, identity_spec_for(arch))
        assert params_identical(out, params)

    def test_hand_swap(self):
        params = NetworkParams(
            (([[1.0], [2.0]], [3.0, 4.0]), ([[5.0, 6.0]], [7.0]))
        )
        spec = PermutationSpec((np.array([1, 0]),))
        out = apply_permutation(params, spec)
        assert out.weight(1).tolist() == [[2.0], [1.0]]
        assert out.bias(1).tolist() == [4.0, 3.0]
        assert out.weight(2).tolist() == [[6.0, 5.0]]
        assert out.bias(2).tolist() == [7.0]

    def test_forward_preserved_random(self):
        rng = np.random.default_rng(1)
        arch = Architecture(2, (3, 3), (TANH, TANH))
        params = random_params(arch, rng)
        spec = random_spec(arch, rng)
        assert forward_gap(arch, params, apply_permutation(params, spec)) <= EQUIV_ATOL

    def test_group_law_bit_exact(self):
        rng = np.random.default_rng(2)
        arch = Architecture(3, (4, 2, 5), (TANH, RELU, SIGMOID))
        params = random_params(arch, rng)
        pi1, pi2 = random_spec(arch, rng), random_spec(arch, rng)
        seq = apply_permutation(apply_permutation(params, pi1), pi2)
        combined = apply_permutation(params, compose(pi2, pi1))
        assert params_identical(seq, combined)

    def test_stacked_gather_matches_plain_in_c_order(self):
        # One permutation per stacked network gives each network's plain
        # result, and every gathered array stays C-contiguous.
        rng = np.random.default_rng(3)
        arch = Architecture(3, (5, 4), (TANH, RELU), 2)
        nets = [random_params(arch, rng) for _ in range(3)]
        specs = [random_spec(arch, rng) for _ in nets]
        stacked = [tuple(map(np.stack, zip(*wbs))) for wbs in zip(*(n.layers for n in nets))]
        for l in (1, 2):
            _permute_neurons(stacked, l, np.stack([s.perms[l - 1] for s in specs]))
        for i, (net, spec) in enumerate(zip(nets, specs)):
            plain = apply_permutation(net, spec)
            assert params_identical(plain, NetworkParams(tuple((W[i], b[i]) for W, b in stacked)))
            assert all(a.flags.c_contiguous for wb in plain.layers for a in wb)
        assert all(a.flags.c_contiguous for wb in stacked for a in wb)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        arch = Architecture(1, (4,), (RELU,))
        params = random_params(arch, rng)
        spec = random_spec(arch, rng)
        back = apply_permutation(apply_permutation(params, spec), inverse(spec))
        assert params_identical(back, params)
        assert compose(spec, inverse(spec)) == identity_spec_for(arch)

    def test_box_closure(self):
        rng = np.random.default_rng(4)
        arch = Architecture(2, (3,), (TANH,))
        params = random_params(arch, rng, bound=0.7)
        spec = random_spec(arch, rng)
        assert apply_permutation(params, spec).within_box(0.7)

    def test_size_mismatch(self):
        rng = np.random.default_rng(5)
        arch = Architecture(1, (3,), (RELU,))
        params = random_params(arch, rng)
        with pytest.raises(ShapeError):
            apply_permutation(params, PermutationSpec((np.array([1, 0]),)))

    def test_not_a_permutation(self):
        with pytest.raises(DomainError):
            PermutationSpec((np.array([0, 0]),))

    def test_json_round_trip(self):
        spec = PermutationSpec((np.array([2, 0, 1]), np.array([1, 0])))
        assert PermutationSpec.from_json_list(spec.to_json_list()) == spec


class TestScaling:
    def test_all_ones_unchanged(self):
        rng = np.random.default_rng(6)
        arch = Architecture(1, (3,), (RELU,))
        params = random_params(arch, rng)
        out = apply_scaling(arch, params, uniform_scaling(1, 1.0, 3))
        assert params_identical(out, params)

    def test_uniform_doubling(self):
        rng = np.random.default_rng(7)
        arch = Architecture(2, (3,), (RELU,))
        params = random_params(arch, rng)
        out = apply_scaling(arch, params, uniform_scaling(1, 2.0, 3))
        assert np.array_equal(out.weight(1), 2.0 * params.weight(1))
        assert np.array_equal(out.bias(1), 2.0 * params.bias(1))
        assert np.array_equal(out.weight(2), params.weight(2) / 2.0)
        assert forward_gap(arch, params, out) <= EQUIV_ATOL

    def test_per_neuron_factors(self):
        rng = np.random.default_rng(8)
        arch = Architecture(2, (3,), (leaky_relu(0.2),))
        params = random_params(arch, rng)
        out = apply_scaling(arch, params, ScalingSpec(1, (0.5, 2.0, 3.0)))
        assert forward_gap(arch, params, out) <= EQUIV_ATOL

    def test_tanh_rejected(self):
        rng = np.random.default_rng(9)
        arch = Architecture(1, (2,), (TANH,))
        params = random_params(arch, rng)
        with pytest.raises(UnsupportedTransformError):
            apply_scaling(arch, params, uniform_scaling(1, 2.0, 2))

    def test_sigmoid_rejected(self):
        rng = np.random.default_rng(10)
        arch = Architecture(1, (2,), (SIGMOID,))
        params = random_params(arch, rng)
        with pytest.raises(UnsupportedTransformError):
            apply_scaling(arch, params, uniform_scaling(1, 2.0, 2))

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(DomainError):
            ScalingSpec(1, (0.0, 1.0))
        with pytest.raises(DomainError):
            ScalingSpec(1, (-2.0,))


class TestSignFlip:
    def test_all_plus_unchanged(self):
        rng = np.random.default_rng(11)
        arch = Architecture(1, (2,), (TANH,))
        params = random_params(arch, rng)
        out = apply_sign_flip(arch, params, 1, [1.0, 1.0])
        assert params_identical(out, params)

    def test_flip_both_neurons_preserves_function(self):
        rng = np.random.default_rng(12)
        arch = Architecture(1, (2,), (TANH,))
        params = random_params(arch, rng)
        out = apply_sign_flip(arch, params, 1, [-1.0, -1.0])
        assert forward_gap(arch, params, out) <= EQUIV_ATOL

    def test_partial_flip_preserves_function(self):
        rng = np.random.default_rng(13)
        arch = Architecture(2, (3,), (TANH,))
        params = random_params(arch, rng)
        out = apply_sign_flip(arch, params, 1, [-1.0, 1.0, -1.0])
        assert forward_gap(arch, params, out) <= EQUIV_ATOL

    @pytest.mark.parametrize("act", [SIGMOID, RELU, leaky_relu(0.1)])
    def test_non_odd_rejected(self, act):
        rng = np.random.default_rng(14)
        arch = Architecture(1, (2,), (act,))
        params = random_params(arch, rng)
        with pytest.raises(UnsupportedTransformError):
            apply_sign_flip(arch, params, 1, [-1.0, 1.0])

    def test_box_closure(self):
        rng = np.random.default_rng(15)
        arch = Architecture(1, (2,), (TANH,))
        params = random_params(arch, rng, bound=0.9)
        out = apply_sign_flip(arch, params, 1, [-1.0, -1.0])
        assert out.within_box(0.9)


# Identity is both positively homogeneous and odd, so each call below has
# exactly one invalid input.
@pytest.mark.parametrize(
    "call,error",
    [
        (lambda a, p: apply_scaling(a, p, uniform_scaling(2, 2.0, 2)), DomainError),
        (lambda a, p: apply_scaling(a, p, uniform_scaling(1, 2.0, 3)), ShapeError),
        (lambda a, p: apply_sign_flip(a, p, 0, [1.0, -1.0]), DomainError),
        (lambda a, p: apply_sign_flip(a, p, 1, [1.0, -1.0, 1.0]), ShapeError),
        (lambda a, p: apply_sign_flip(a, p, 1, [1.0, 0.5]), DomainError),
    ],
    ids=["scaling_layer", "scaling_width", "flip_layer", "flip_width", "flip_sign"],
)
def test_singly_invalid_rescale_keeps_its_error_type(call, error):
    arch = Architecture(1, (2,), (IDENTITY,))
    with pytest.raises(error):
        call(arch, random_params(arch, np.random.default_rng(16)))


class TestPooling:
    def setup_method(self):
        rng = np.random.default_rng(16)
        self.W = rng.uniform(-1, 1, (4, 3))
        self.b = rng.uniform(-1, 1, 4)
        self.partition = PoolingPartition(((0, 1), (2, 3)), "max")

    def test_singleton_regions_identity_only(self):
        part = PoolingPartition(((0,), (1,), (2,), (3,)), "max")
        W2, b2 = apply_pooling_permutation(self.W, self.b, part, [0, 1, 2, 3])
        assert np.array_equal(W2, self.W) and np.array_equal(b2, self.b)
        with pytest.raises(DomainError):
            apply_pooling_permutation(self.W, self.b, part, [1, 0, 2, 3])

    @pytest.mark.parametrize("kind", ["max", "min", "avg"])
    def test_within_region_swap_preserves_pooled_output(self, kind):
        part = PoolingPartition(((0, 1), (2, 3)), kind)
        W2, b2 = apply_pooling_permutation(self.W, self.b, part, [1, 0, 2, 3])
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x = rng.uniform(-1, 1, 3)
            got = pooled_forward(W2, b2, part, x)
            want = pooled_forward(self.W, self.b, part, x)
            assert np.abs(got - want).max() == 0.0

    def test_row_multisets_preserved_per_region(self):
        W2, b2 = apply_pooling_permutation(self.W, self.b, self.partition, [1, 0, 3, 2])
        for region in self.partition.regions:
            rows = {tuple(np.append(self.W[i], self.b[i])) for i in region}
            rows2 = {tuple(np.append(W2[i], b2[i])) for i in region}
            assert rows == rows2

    def test_cross_region_swap_rejected(self):
        with pytest.raises(DomainError):
            apply_pooling_permutation(self.W, self.b, self.partition, [0, 2, 1, 3])

    def test_partition_must_cover(self):
        part = PoolingPartition(((0, 1),), "max")
        with pytest.raises(DomainError):
            apply_pooling_permutation(self.W, self.b, part, [1, 0, 2, 3])


class TestAttention:
    def test_identity_permutation(self):
        rng = np.random.default_rng(18)
        W_Q, W_K, W_V = rng.uniform(-1, 1, (3, 2, 2))
        Q2, K2, V2 = attention_permutation_equivalent(W_Q, W_K, W_V, [0, 1])
        assert np.array_equal(Q2, W_Q) and np.array_equal(K2, W_K) and np.array_equal(V2, W_V)

    def test_column_swap_preserves_attention(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(-1, 1, (3, 2))
        W_Q, W_K, W_V = rng.uniform(-1, 1, (3, 2, 2))
        Q2, K2, V2 = attention_permutation_equivalent(W_Q, W_K, W_V, [1, 0])
        base = attention_forward(X, W_Q, W_K, W_V)
        swapped = attention_forward(X, Q2, K2, V2)
        assert np.abs(base - swapped).max() < 1e-12

    def test_cyclic_permutation_many_inputs(self):
        rng = np.random.default_rng(20)
        W_Q = rng.uniform(-1, 1, (2, 3))
        W_K = rng.uniform(-1, 1, (2, 3))
        W_V = rng.uniform(-1, 1, (2, 2))
        Q2, K2, V2 = attention_permutation_equivalent(W_Q, W_K, W_V, [2, 0, 1])
        for _ in range(100):
            X = rng.uniform(-1, 1, (4, 2))
            assert (
                np.abs(
                    attention_forward(X, W_Q, W_K, W_V) - attention_forward(X, Q2, K2, V2)
                ).max()
                < 1e-12
            )

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(-1, 1, (4, 3))
        W_Q, W_K = rng.uniform(-1, 1, (2, 3, 2))
        W_V = rng.uniform(-1, 1, (3, 3))
        got = attention_forward(X, W_Q, W_K, W_V)
        assert np.abs(got - attention_oracle(X, W_Q, W_K, W_V)).max() < 1e-12

    def test_bad_permutation_rejected(self):
        rng = np.random.default_rng(22)
        W_Q, W_K, W_V = rng.uniform(-1, 1, (3, 2, 2))
        with pytest.raises(DomainError):
            attention_permutation_equivalent(W_Q, W_K, W_V, [0, 0])
        with pytest.raises(DomainError):
            attention_permutation_equivalent(W_Q, W_K, W_V, [0, 1, 2])


class TestResidual:
    def test_equal_maps(self):
        f = lambda x: np.tanh(x)
        xs = np.random.default_rng(23).uniform(-1, 1, (50, 3))
        assert residual_equivalence_check(f, f, xs)

    def test_permuted_inner_network(self):
        rng = np.random.default_rng(24)
        arch = Architecture(3, (4,), (TANH,), output_dim=3)
        params = random_params(arch, rng)
        permuted = apply_permutation(params, random_spec(arch, rng))
        f1 = lambda x: forward_batch(arch, params, x[None, :])[0]
        f2 = lambda x: forward_batch(arch, permuted, x[None, :])[0]
        xs = rng.uniform(-1, 1, (100, 3))
        assert residual_equivalence_check(f1, f2, xs)

    def test_constant_offset_detected(self):
        f1 = lambda x: np.tanh(x)
        f2 = lambda x: np.tanh(x) + 0.1
        xs = np.random.default_rng(25).uniform(-1, 1, (20, 2))
        assert not residual_equivalence_check(f1, f2, xs, tolerance=1e-6)

    def test_dimension_mismatch(self):
        f1 = lambda x: x
        f2 = lambda x: x[:1]
        with pytest.raises(ShapeError):
            residual_equivalence_check(f1, f2, np.zeros((3, 2)))


class TestFunctionPreservationSweep:
    """Randomized battery across all transform kinds."""

    def test_hundred_random_nets_per_kind(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            d0 = int(rng.integers(1, 4))
            width = int(rng.integers(1, 6))
            # permutation: any activation
            arch = Architecture(d0, (width,), (TANH,))
            params = random_params(arch, rng)
            spec = random_spec(arch, rng)
            assert forward_gap(arch, params, apply_permutation(params, spec), n=64) <= EQUIV_ATOL
            # scaling: positively homogeneous
            arch_s = Architecture(d0, (width,), (RELU,))
            params_s = random_params(arch_s, rng)
            alpha = tuple(float(a) for a in rng.uniform(0.25, 4.0, width))
            scaled = apply_scaling(arch_s, params_s, ScalingSpec(1, alpha))
            assert forward_gap(arch_s, params_s, scaled, n=64) <= EQUIV_ATOL
            # sign flip: odd
            signs = rng.choice([-1.0, 1.0], width)
            flipped = apply_sign_flip(arch, params, 1, signs)
            assert forward_gap(arch, params, flipped, n=64) <= EQUIV_ATOL
