import json
import math
import tracemalloc

import numpy as np
import pytest

from fnequiv.equivalence import ball_points
from fnequiv.errors import DomainError, NumericError, ShapeError
from fnequiv.nncore import (
    Activation,
    Architecture,
    IDENTITY,
    Network,
    NetworkParams,
    RELU,
    SIGMOID,
    TANH,
    activation_from_tag,
    forward,
    forward_batch,
    gradient,
    hidden_range_bound,
    leaky_relu,
    mse_gradient,
    network_from_json_dict,
    network_to_json_dict,
    params_from_flat,
    params_identical,
    random_params,
    _forward_checked,
    _mse_value_and_grad,
    _unflatten,
)

from oracles import (
    fd_gradient,
    first_non_finite_layer,
    forward_trace_reference,
    params_max_diff,
    scalar_forward,
)

ALL_ACTIVATIONS = (RELU, TANH, SIGMOID, IDENTITY, leaky_relu(0.1))


def tiny_identity_net():
    arch = Architecture(1, (1,), (IDENTITY,))
    params = NetworkParams((([[1.0]], [0.0]), ([[1.0]], [0.0])))
    return arch, params


class TestActivations:
    def test_flags_match_transform_table(self):
        assert RELU.is_positive_homogeneous and not RELU.is_odd
        lk = leaky_relu(0.1)
        assert lk.is_positive_homogeneous and not lk.is_odd
        assert TANH.is_odd and not TANH.is_positive_homogeneous
        assert not SIGMOID.is_odd and not SIGMOID.is_positive_homogeneous

    @pytest.mark.parametrize("act", [RELU, leaky_relu(0.3), TANH, SIGMOID, IDENTITY])
    def test_lipschitz_constant_bounds_difference_quotients(self, act):
        rng = np.random.default_rng(7)
        M = 3.0
        rho = act.lipschitz
        xs = rng.uniform(-M, M, 500)
        ys = rng.uniform(-M, M, 500)
        quot = np.abs(act(xs) - act(ys)) / np.abs(xs - ys)
        assert np.nanmax(quot) <= rho + 1e-12

    @pytest.mark.parametrize("act", [RELU, TANH, SIGMOID], ids=lambda a: a.name)
    def test_scalar_call_returns_a_float(self, act):
        for x in (-2.0, 0.0, 1.5):
            y = act(x)
            assert isinstance(y, float)
            assert json.dumps(y) == json.dumps(float(act(np.array([x]))[0]))

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_call_leaves_its_input_unchanged(self, act):
        z = np.array([[-1.5, 0.0], [2.0, -0.25]])
        before = z.tobytes()
        out = act(z)
        assert z.tobytes() == before
        # identity hands back its float input, as it always has.
        assert (out is z) == (act.name == "identity")

    def test_tag_round_trip(self):
        for act in (RELU, TANH, SIGMOID, IDENTITY, leaky_relu(0.05), leaky_relu(3.0)):
            assert activation_from_tag(act.tag()) == act
        assert activation_from_tag("leaky_relu") == leaky_relu(0.01)

    def test_bad_tags(self):
        bad = ("swish", "relu:0.1", "tanh:1", "leaky_relu:0", "leaky_relu:nan", "leaky_relu:abc")
        for tag in bad:
            with pytest.raises(DomainError):
                activation_from_tag(tag)
        with pytest.raises(DomainError):
            leaky_relu(-1.0)

    @pytest.mark.parametrize(
        "name, param",
        [
            ("swish", None),
            ("relu", 0.1),
            ("tanh", 0.1),
            ("sigmoid", 0.1),
            ("identity", 0.1),
            ("leaky_relu", None),
            ("leaky_relu", 0.0),
            ("leaky_relu", -1.0),
            ("leaky_relu", math.nan),
        ],
    )
    def test_kind_checked_at_construction(self, name, param):
        with pytest.raises(DomainError):
            Activation(name, param)


class TestArchitecture:
    def test_param_count_matches_sum(self):
        arch = Architecture(3, (4, 5), (TANH, TANH))
        # S = (3*4+4) + (4*5+5) + (5*1+1)
        assert arch.param_count == 16 + 25 + 6
        assert arch.hidden_unit_count == 9

    def test_invalid(self):
        with pytest.raises(ShapeError):
            Architecture(2, (), ())
        with pytest.raises(ShapeError):
            Architecture(2, (0,), (TANH,))
        with pytest.raises(ShapeError):
            Architecture(2, (3,), (TANH, TANH))


class TestForward:
    def test_identity_composition(self):
        arch, params = tiny_identity_net()
        assert forward(arch, params, [3.0]) == pytest.approx(3.0)

    def test_relu_abs_construction(self):
        arch = Architecture(1, (2,), (RELU,))
        params = NetworkParams((([[1.0], [-1.0]], [0.0, 0.0]), ([[1.0, 1.0]], [0.0])))
        assert forward(arch, params, [-2.0])[0] == 2.0
        assert forward(arch, params, [1.5])[0] == 1.5

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(12)
        arch = Architecture(2, (3, 3), (TANH, TANH))
        params = random_params(arch, rng)
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            x *= min(1.0, 1.0 / np.linalg.norm(x))
            got = forward(arch, params, x)
            want = scalar_forward(arch, params, x)
            assert np.abs(got - want).max() < 1e-12

    def test_shape_mismatch(self):
        arch, params = tiny_identity_net()
        with pytest.raises(ShapeError):
            forward(arch, params, [1.0, 2.0])
        bad = NetworkParams((([[1.0, 2.0]], [0.0]), ([[1.0]], [0.0])))
        with pytest.raises(ShapeError):
            forward(arch, bad, [1.0])

    def test_nonfinite_reports_layer(self):
        arch = Architecture(1, (1,), (IDENTITY,))
        params = NetworkParams((([[1e154]], [0.0]), ([[1e308]], [0.0])))
        # layer 1 stays finite (1e154 * 1e154 just fits); layer 2 overflows
        with pytest.raises(NumericError) as exc:
            forward(arch, params, [1e154])
        assert exc.value.layer == 2

    def test_no_mutation(self):
        arch, params = tiny_identity_net()
        before = params.flat().copy()
        forward(arch, params, [1.0])
        assert np.array_equal(params.flat(), before)

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_read_only_points_and_params_never_written(self, act):
        # Writing into either read-only array would raise.
        arch = Architecture(4, (8, 5), (act, act))
        params = random_params(arch, np.random.default_rng(3))
        X = ball_points(4, 64, 1.0)
        assert not X.flags.writeable
        assert not any(a.flags.writeable for layer in params.layers for a in layer)
        X_before, flat_before = X.tobytes(), params.flat().tobytes()
        out = forward_batch(arch, params, X)
        _, post = forward_trace_reference(arch.activations, params.layers, X)
        assert out.tobytes() == post[-1].tobytes()
        assert X.tobytes() == X_before
        assert params.flat().tobytes() == flat_before

    def test_checked_forward_holds_about_one_layer(self):
        # A 4-64-16-1 net at 4105 points: keeping every layer's
        # pre-activation and activation peaks at about 2.6 times the widest
        # layer's bytes.
        arch = Architecture(4, (64, 16), (TANH, RELU))
        params = random_params(arch, np.random.default_rng(0))
        X = ball_points(4, 4096, 1.0)
        forward_batch(arch, params, X)
        tracemalloc.start()
        try:
            forward_batch(arch, params, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * X.shape[0] * max(arch.widths) * 8


def overflow_layers(act, layer, rng):
    """(W, b) layers of a 2-3-3-3-1 net with ``act`` in every hidden layer.
    Positive weights in [0.5, 1] and biases of 2 keep every activation
    finite and at least tanh(2 - sqrt(2) / 2) > 0.8 on the unit ball, so
    all-1e308 weights and bias at ``layer`` overflow there first."""
    dims = (2, 3, 3, 3, 1)
    layers = []
    for l, (d_in, d_out) in enumerate(zip(dims, dims[1:]), start=1):
        if l == layer:
            layers.append((np.full((d_out, d_in), 1e308), np.full(d_out, 1e308)))
        else:
            layers.append((rng.uniform(0.5, 1.0, (d_out, d_in)), np.full(d_out, 2.0)))
    return Architecture(2, (3, 3, 3), (act,) * 3), layers


class TestOverflowLayer:
    @pytest.mark.parametrize("layer", [1, 2, 4])
    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_plain_layer_matches_reference(self, act, layer):
        arch, layers = overflow_layers(act, layer, np.random.default_rng(layer))
        X = ball_points(2, 64, 1.0)
        pre, _ = forward_trace_reference(arch.activations, layers, X)
        assert first_non_finite_layer(pre) == layer
        with pytest.raises(NumericError) as exc:
            forward_batch(arch, NetworkParams(tuple(layers)), X)
        assert exc.value.layer == layer

    @pytest.mark.parametrize("layer", [1, 2, 4])
    def test_stacked_layer_matches_reference(self, layer):
        # Only the second of three stacked networks overflows.
        rng = np.random.default_rng(layer)
        arch, bad = overflow_layers(TANH, layer, rng)
        nets = [overflow_layers(TANH, None, rng)[1], bad, overflow_layers(TANH, None, rng)[1]]
        stacked = [tuple(map(np.stack, zip(*per_net))) for per_net in zip(*nets)]
        X = ball_points(2, 64, 1.0)
        pre, _ = forward_trace_reference(arch.activations, stacked, X)
        assert first_non_finite_layer(pre) == layer
        with pytest.raises(NumericError) as exc:
            _forward_checked(arch, stacked, X)
        assert exc.value.layer == layer


class TestGradient:
    @pytest.mark.parametrize("outputs", [1, 3])
    def test_mse_value_is_mean_of_row_sums_bit_for_bit(self, outputs):
        # 13 inputs, so the sum over them is pairwise past its first 8.
        rng = np.random.default_rng(21)
        arch = Architecture(3, (5, 4), (TANH, RELU), outputs)
        X = rng.uniform(-1, 1, (13, 3))
        Y = rng.uniform(-1, 1, (13, outputs))
        P = rng.uniform(-1, 1, (6, arch.param_count))
        G = np.empty_like(P)
        stacked = _mse_value_and_grad(arch, _unflatten(arch, P), X, Y, _unflatten(arch, G))
        resid = _forward_checked(arch, _unflatten(arch, P), X) - Y
        want = np.mean(np.sum(resid * resid, axis=-1), axis=-1)
        assert stacked.tobytes() == want.tobytes()
        for row, grad_row, value in zip(P, G, want):
            params = params_from_flat(arch, row)
            resid = forward_batch(arch, params, X) - Y
            plain, grad = mse_gradient(arch, params, X, Y)
            assert np.float64(plain).tobytes() == value.tobytes()
            assert plain == np.mean(np.sum(resid * resid, axis=-1), axis=-1)
            assert grad.flat().tobytes() == grad_row.tobytes()

    def test_hand_chain_rule(self):
        arch, params = tiny_identity_net()
        g = gradient(arch, params, [1.0], [0.0])
        # f = w2*(w1*x+b1)+b2 = 1; dL/dw1 = 2*f*w2*x = 2
        assert g.weight(1)[0, 0] == pytest.approx(2.0)
        assert g.weight(2)[0, 0] == pytest.approx(2.0)
        assert g.bias(1)[0] == pytest.approx(2.0)
        assert g.bias(2)[0] == pytest.approx(2.0)

    def test_zero_at_own_output(self):
        # The residual f(x) - f(x) is exactly 0, so every partial is +-0.
        rng = np.random.default_rng(3)
        x = np.array([0.3, -0.2])
        for act in ALL_ACTIVATIONS:
            arch = Architecture(2, (3, 2), (act, act), output_dim=2)
            params = random_params(arch, rng)
            g = gradient(arch, params, x, forward(arch, params, x))
            assert g.max_abs() == 0.0, act.tag()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        arch = Architecture(2, (2,), (TANH,))
        for _ in range(5):
            params = random_params(arch, rng)
            x = rng.uniform(-1, 1, 2)
            target = rng.uniform(-1, 1, 1)
            got = gradient(arch, params, x, target).flat()
            want = fd_gradient(arch, params, x, target)
            denom = np.maximum(np.abs(want), 1e-3)
            assert (np.abs(got - want) / denom).max() < 1e-6

    def test_finite_difference_battery_smooth_activations(self):
        # 100 random smooth nets, relative error within 1e-5
        rng = np.random.default_rng(55)
        worst = 0.0
        for i in range(100):
            act = (TANH, SIGMOID)[i % 2]
            arch = Architecture(int(rng.integers(1, 4)), (int(rng.integers(1, 5)),), (act,))
            params = random_params(arch, rng)
            x = rng.uniform(-1, 1, arch.input_dim)
            target = rng.uniform(-1, 1, 1)
            got = gradient(arch, params, x, target).flat()
            want = fd_gradient(arch, params, x, target)
            denom = np.maximum(np.abs(want), 1e-2)
            worst = max(worst, float((np.abs(got - want) / denom).max()))
        assert worst <= 1e-5

    def test_mse_gradient_matches_single_point_average(self):
        rng = np.random.default_rng(9)
        arch = Architecture(1, (3,), (SIGMOID,))
        params = random_params(arch, rng)
        X = rng.uniform(-1, 1, (4, 1))
        Y = rng.uniform(-1, 1, (4, 1))
        value, g = mse_gradient(arch, params, X, Y)
        resid = forward_batch(arch, params, X) - Y
        assert value == pytest.approx(np.mean(np.sum(resid * resid, axis=1)))
        per_point = [gradient(arch, params, x, y).flat() for x, y in zip(X, Y)]
        assert np.abs(g.flat() - np.mean(per_point, axis=0)).max() < 1e-12


class TestHiddenRangeBound:
    def test_empty_product(self):
        arch = Architecture(1, (2,), (RELU,))
        assert hidden_range_bound(arch, 1.0, 1.0, 1) == 2.0

    def test_second_layer_arithmetic(self):
        arch = Architecture(1, (3, 2), (RELU, RELU))
        # (2B)^2 * rho_1 * d_1 with rho_1 = 1, d_1 = 3
        assert hidden_range_bound(arch, 1.0, 1.0, 2) == 12.0
        assert hidden_range_bound(arch, 1.0, 1.0, 2, rho=(1.0, 1.0)) == 12.0

    def test_index_out_of_range(self):
        arch = Architecture(1, (2,), (RELU,))
        with pytest.raises(DomainError):
            hidden_range_bound(arch, 1.0, 1.0, 2)

    def test_monte_carlo_sup_never_exceeds(self):
        rng = np.random.default_rng(42)
        arch = Architecture(1, (2, 2), (RELU, RELU))
        B = B_x = 1.0
        bounds = [hidden_range_bound(arch, B, B_x, i) for i in (1, 2)]
        worst = [0.0, 0.0]
        X = rng.uniform(-B_x, B_x, (100, 1))
        for _ in range(1000):
            params = random_params(arch, rng, bound=B)
            h = X
            for l in range(2):
                W, b = params.layers[l]
                z = h @ W.T + b
                worst[l] = max(worst[l], float(np.abs(z).max()))
                h = arch.activations[l](z)
        assert worst[0] <= bounds[0]
        assert worst[1] <= bounds[1]


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        arch = Architecture(2, (3,), (leaky_relu(0.2),))
        params = random_params(arch, rng)
        doc = network_to_json_dict(Network(arch, params))
        import json

        doc2 = json.loads(json.dumps(doc))
        net2 = network_from_json_dict(doc2)
        assert net2.arch == arch
        assert params_identical(net2.params, params)

    def test_malformed_document(self):
        with pytest.raises(ShapeError):
            network_from_json_dict({"arch": {"d0": 1}})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden", [2.9]),
            ("d0", True),
            ("hidden", ["2"]),
            ("d0", 1.0),
            ("extra", 1),
            ("activations", [1]),
        ],
    )
    def test_malformed_arch_fields_rejected(self, field, value):
        arch = {"d0": 1, "hidden": [2], "out": 1, "activations": ["tanh"], field: value}
        layers = [{"W": [[1.0], [2.0]], "b": [0.0, 0.0]}, {"W": [[1.0, 1.0]], "b": [0.0]}]
        with pytest.raises(ShapeError):
            network_from_json_dict({"arch": arch, "layers": layers})

    @pytest.mark.parametrize(
        "layer,field,value",
        [
            (0, "W", [["0.5"], [2.0]]),
            (0, "W", [[True], [2.0]]),
            (0, "W", [[math.nan], [2.0]]),
            (0, "W", [[math.inf], [2.0]]),
            (0, "W", [1.0, 2.0]),
            (1, "b", ["0.5"]),
            (1, "b", [False]),
            (1, "b", [math.nan]),
            (1, "b", 0.0),
            (1, "extra", 1),
        ],
        ids=[
            "string_weight",
            "bool_weight",
            "nan_weight",
            "inf_weight",
            "flat_weight",
            "string_bias",
            "bool_bias",
            "nan_bias",
            "scalar_bias",
            "unknown_layer_field",
        ],
    )
    def test_malformed_layer_fields_rejected(self, layer, field, value):
        arch = {"d0": 1, "hidden": [2], "out": 1, "activations": ["tanh"]}
        layers = [{"W": [[1.0], [2.0]], "b": [0.0, 0.0]}, {"W": [[1.0, 1.0]], "b": [0.0]}]
        layers[layer][field] = value
        with pytest.raises(ShapeError):
            network_from_json_dict({"arch": arch, "layers": layers})

    def test_unknown_top_level_field_rejected(self):
        arch = {"d0": 1, "hidden": [1], "out": 1, "activations": ["tanh"]}
        layers = [{"W": [[1.0]], "b": [0.0]}, {"W": [[1.0]], "b": [0.0]}]
        net = network_from_json_dict({"arch": arch, "layers": layers, "config": {}})
        assert net.arch.depth == 1
        with pytest.raises(ShapeError):
            network_from_json_dict({"arch": arch, "layers": layers, "extra": 1})


class TestFlatRoundTrip:
    def test_flat_and_back(self):
        rng = np.random.default_rng(2)
        arch = Architecture(3, (2, 4), (TANH, RELU))
        params = random_params(arch, rng)
        again = params_from_flat(arch, params.flat())
        assert params_identical(params, again)

    def test_wrong_length(self):
        arch = Architecture(1, (1,), (TANH,))
        with pytest.raises(ShapeError):
            params_from_flat(arch, np.zeros(3))


def nan_bias_params(first_bias=math.nan):
    """A 1-2-1 net with finite weights of magnitude at most 1 and the given
    first layer-1 bias."""
    return NetworkParams(
        (
            ([[1.0], [-0.5]], [first_bias, 0.25]),
            ([[0.5, -1.0]], [0.0]),
        )
    )


class TestEntrywiseReductions:
    def test_max_abs_propagates_nan(self):
        params = nan_bias_params()
        assert math.isnan(params.max_abs())
        assert not params.within_box(2.0)

    def test_max_abs_of_finite_params(self):
        assert nan_bias_params(-1.5).max_abs() == 1.5
        assert nan_bias_params(0.0).within_box(1.0)
        assert not nan_bias_params(-1.5).within_box(1.0)

    def test_max_diff_propagates_nan(self):
        assert math.isnan(params_max_diff(nan_bias_params(), nan_bias_params(0.0)))
        assert math.isnan(params_max_diff(nan_bias_params(0.0), nan_bias_params()))

    def test_max_diff_of_finite_params(self):
        assert params_max_diff(nan_bias_params(2.0), nan_bias_params(-0.5)) == 2.5
        assert params_max_diff(nan_bias_params(0.0), nan_bias_params(-0.0)) == 0.0

    def test_max_diff_rejects_mismatched_shapes(self):
        other = NetworkParams((([[1.0, 0.0]], [0.0]), ([[1.0]], [0.0])))
        with pytest.raises(ShapeError):
            params_max_diff(nan_bias_params(0.0), other)

    def test_identical_compares_bits_and_shapes(self):
        assert params_identical(nan_bias_params(), nan_bias_params())
        assert not params_identical(nan_bias_params(0.0), nan_bias_params(-0.0))
        # Same flat bytes, different layer shapes.
        a = NetworkParams((([[1.0], [2.0]], [3.0, 4.0]), ([[5.0, 6.0]], [7.0])))
        b = NetworkParams((([[1.0, 2.0]], [3.0]), ([[4.0], [5.0]], [6.0, 7.0])))
        assert a.flat().tobytes() == b.flat().tobytes()
        assert not params_identical(a, b)
        assert not params_identical(a, NetworkParams(a.layers[:1]))
