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
    NeuronSymmetry,
    _permute_neurons,
    apply_permutation,
    apply_scaling,
    apply_sign_flip,
    compose,
    inverse,
    random_spec,
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
        out = apply_permutation(params, NeuronSymmetry(tuple(map(np.arange, arch.hidden_widths))))
        assert params_identical(out, params)

    def test_hand_swap(self):
        params = NetworkParams(
            (([[1.0], [2.0]], [3.0, 4.0]), ([[5.0, 6.0]], [7.0]))
        )
        spec = NeuronSymmetry((np.array([1, 0]),))
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
        assert compose(spec, inverse(spec)) == NeuronSymmetry(tuple(map(np.arange, arch.hidden_widths)))

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
            apply_permutation(params, NeuronSymmetry((np.array([1, 0]),)))

    def test_not_a_permutation(self):
        with pytest.raises(DomainError):
            NeuronSymmetry((np.array([0, 0]),))

    def test_json_round_trip(self):
        spec = NeuronSymmetry((np.array([2, 0, 1]), np.array([1, 0])))
        assert NeuronSymmetry.from_json_list(spec.to_json_list()) == spec


class TestNeuronSymmetry:
    @pytest.mark.parametrize("factor", [0.0, np.nan, np.inf, -np.inf])
    def test_zero_or_non_finite_factor_rejected(self, factor):
        with pytest.raises(DomainError):
            NeuronSymmetry(([1, 0],), ([1.0, factor],))

    def test_one_factor_per_neuron(self):
        with pytest.raises(ShapeError):
            NeuronSymmetry(([1, 0],), ([1.0, 1.0, 1.0],))

    def test_factors_other_than_one_have_no_json_form(self):
        flip = NeuronSymmetry(([1, 0],), ([1.0, -1.0],))
        assert not flip.is_identity()
        assert flip != NeuronSymmetry(([1, 0],))
        with pytest.raises(DomainError):
            flip.to_json_list()

    def test_sign_flip_of_a_permuted_layer(self):
        # New neuron 0 is old neuron 1 negated; new neuron 1 is old neuron 0.
        params = NetworkParams((([[1.0], [2.0]], [3.0, 4.0]), ([[5.0, 6.0]], [7.0])))
        arch = Architecture(1, (2,), (TANH,))
        out = NeuronSymmetry(([1, 0],), ([-1.0, 1.0],)).apply(params, arch)
        assert out.weight(1).tolist() == [[-2.0], [1.0]]
        assert out.bias(1).tolist() == [-4.0, 3.0]
        assert out.weight(2).tolist() == [[-6.0, 5.0]]


class TestScaling:
    def test_all_ones_unchanged(self):
        rng = np.random.default_rng(6)
        arch = Architecture(1, (3,), (RELU,))
        params = random_params(arch, rng)
        out = apply_scaling(arch, params, 1, (1.0,) * 3)
        assert params_identical(out, params)

    def test_uniform_doubling(self):
        rng = np.random.default_rng(7)
        arch = Architecture(2, (3,), (RELU,))
        params = random_params(arch, rng)
        out = apply_scaling(arch, params, 1, (2.0,) * 3)
        assert np.array_equal(out.weight(1), 2.0 * params.weight(1))
        assert np.array_equal(out.bias(1), 2.0 * params.bias(1))
        assert np.array_equal(out.weight(2), params.weight(2) / 2.0)
        assert forward_gap(arch, params, out) <= EQUIV_ATOL

    def test_per_neuron_factors(self):
        rng = np.random.default_rng(8)
        arch = Architecture(2, (3,), (leaky_relu(0.2),))
        params = random_params(arch, rng)
        out = apply_scaling(arch, params, 1, (0.5, 2.0, 3.0))
        assert forward_gap(arch, params, out) <= EQUIV_ATOL

    def test_tanh_rejected(self):
        rng = np.random.default_rng(9)
        arch = Architecture(1, (2,), (TANH,))
        params = random_params(arch, rng)
        with pytest.raises(UnsupportedTransformError):
            apply_scaling(arch, params, 1, (2.0,) * 2)

    def test_sigmoid_rejected(self):
        rng = np.random.default_rng(10)
        arch = Architecture(1, (2,), (SIGMOID,))
        params = random_params(arch, rng)
        with pytest.raises(UnsupportedTransformError):
            apply_scaling(arch, params, 1, (2.0,) * 2)

    def test_nonpositive_factor_rejected(self):
        arch = Architecture(1, (2,), (RELU,))
        with pytest.raises(DomainError):
            NeuronSymmetry.scaling(arch, 1, (0.0, 1.0))
        with pytest.raises(DomainError):
            NeuronSymmetry.scaling(arch, 1, (-2.0,))


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
        (lambda a, p: apply_scaling(a, p, 2, (2.0,) * 2), DomainError),
        (lambda a, p: apply_scaling(a, p, 1, (2.0,) * 3), ShapeError),
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
    """A linear map followed by pooling over fixed row regions (the CNN case):
    permuting rows within their regions leaves every region's max, min and
    mean unchanged, and moving a row across regions does not."""

    REGIONS = (np.array([0, 1, 2]), np.array([3, 4]))
    REDUCE = {"max": np.max, "min": np.min, "avg": np.mean}

    def pooled(self, W, b, X, kind):
        Z = X @ W.T + b
        return np.stack([self.REDUCE[kind](Z[:, r], axis=1) for r in self.REGIONS], axis=1)

    def setup_method(self):
        rng = np.random.default_rng(16)
        self.W, self.b = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, 5)
        self.X = rng.uniform(-1, 1, (1000, 3))

    @pytest.mark.parametrize("kind", ["max", "min", "avg"])
    def test_within_region_swap_preserves_pooled_output(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = np.concatenate([rng.permutation(r) for r in self.REGIONS])
            got = self.pooled(self.W[p], self.b[p], self.X, kind)
            # A mean sums its region in the permuted order.
            tol = EQUIV_ATOL if kind == "avg" else 0.0
            assert np.abs(got - self.pooled(self.W, self.b, self.X, kind)).max() <= tol

    @pytest.mark.parametrize("kind", ["max", "min", "avg"])
    def test_cross_region_swap_changes_pooled_output(self, kind):
        p = np.array([3, 1, 2, 0, 4])
        got = self.pooled(self.W[p], self.b[p], self.X, kind)
        assert np.abs(got - self.pooled(self.W, self.b, self.X, kind)).max() > EQUIV_ATOL


class TestAttention:
    """softmax(X W_Q (X W_K)^T / sqrt(d_k)) X W_V depends on W_Q and W_K only
    through W_K W_Q^T, the map of the net x -> W_K (W_Q^T x) with one hidden
    identity layer of width d_k; so every element acting on that net
    preserves the attention output."""

    @pytest.mark.parametrize("kind", ["permutation", "signed_permutation", "scaling"])
    def test_neuron_symmetry_preserves_attention(self, kind):
        d_model, d_k = 3, 4
        rng = np.random.default_rng(18)
        W_Q, W_K = rng.uniform(-1, 1, (2, d_model, d_k))
        W_V = rng.uniform(-1, 1, (d_model, 2))
        arch = Architecture(d_model, (d_k,), (IDENTITY,), d_model)
        params = NetworkParams(((W_Q.T, np.zeros(d_k)), (W_K, np.zeros(d_model))))
        factors = {
            "permutation": np.ones(d_k),
            "signed_permutation": rng.choice([-1.0, 1.0], d_k),
            "scaling": rng.uniform(0.25, 4.0, d_k),
        }[kind]
        perm = np.arange(d_k) if kind == "scaling" else rng.permutation(d_k)
        out = NeuronSymmetry((perm,), (factors,)).apply(params, arch)
        W_Q2, W_K2 = out.weight(1).T, out.weight(2)
        for _ in range(20):
            X = rng.uniform(-1, 1, (5, d_model))
            gap = attention_oracle(X, W_Q2, W_K2, W_V) - attention_oracle(X, W_Q, W_K, W_V)
            assert np.abs(gap).max() <= EQUIV_ATOL


class TestResidual:
    def test_permuted_inner_network(self):
        # x + f(x) is unchanged when f's hidden neurons are permuted.
        rng = np.random.default_rng(24)
        arch = Architecture(3, (4,), (TANH,), output_dim=3)
        params = random_params(arch, rng)
        permuted = apply_permutation(params, random_spec(arch, rng))
        X = rng.uniform(-1, 1, (100, 3))
        gap = (X + forward_batch(arch, params, X)) - (X + forward_batch(arch, permuted, X))
        assert np.abs(gap).max() <= EQUIV_ATOL


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
            scaled = apply_scaling(arch_s, params_s, 1, alpha)
            assert forward_gap(arch_s, params_s, scaled, n=64) <= EQUIV_ATOL
            # sign flip: odd
            signs = rng.choice([-1.0, 1.0], width)
            flipped = apply_sign_flip(arch, params, 1, signs)
            assert forward_gap(arch, params, flipped, n=64) <= EQUIV_ATOL
