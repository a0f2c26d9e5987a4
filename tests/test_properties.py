"""Property-based tests: the neuron-symmetry group laws and action,
canonical-form invariance, the first permutation image, the amplification
check's image count and default tolerance, the stacked canonical sort, the
pair canonicalization, the checked forward pass and training trace, the
activation slopes, the hidden-layer range bound, the first-fit row grouper,
the distance kernel, the greedy covering and packing oracles, the exact
packing oracle and the staged sampled equivalence fallback against
brute-force references."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fnequiv.basin import InitScheme, amplification_check, initialize_batch, orbit_membership
from fnequiv.canonical import (
    _canonical_layers,
    _canonical_pair,
    _first_fit,
    _lone_rows,
    canonicalize,
    distinct_permutation_images,
    group_rows,
)
from fnequiv.empirical import (
    MetricSpaceSample,
    _greedy_cover_centers,
    exact_packing_number,
    greedy_covering_estimate,
    greedy_packing_estimate,
)
from fnequiv.equivalence import (
    DISTINGUISHED,
    NUMERICALLY_EQUIVALENT,
    STRUCTURALLY_EQUAL,
    ball_points,
    decide_equivalence,
    sampled_sup_distance,
)
from fnequiv.errors import DomainError, UnsupportedTransformError
from fnequiv.nncore import (
    IDENTITY,
    RELU,
    SIGMOID,
    TANH,
    Architecture,
    Network,
    NetworkParams,
    _DISTANCE_BLOCK_BYTES,
    _chebyshev,
    _forward_checked,
    forward_batch,
    hidden_range_bound,
    leaky_relu,
    params_identical,
)
from fnequiv.transforms import NeuronSymmetry, apply_permutation, compose, inverse

from oracles import (
    _ref_act_deriv,
    canonical_sort,
    exhaustive_max_packing,
    first_fit_row_groups,
    forward_trace_reference,
    greedy_cover_centers_reference,
    greedy_cover_reference,
    greedy_pack_reference,
    neuron_symmetry_reference,
    orbit_hits_reference,
    permutation_images_reference,
)

# Derandomized so that the suite is reproducible; no deadline, because the
# machine running the suite may be loaded.
PROPERTY = settings(deadline=None, derandomize=True, max_examples=100)

# Small value sets make ties and signed zeros common; the float range covers
# generic values.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)

hidden_widths = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)


def perm_specs(widths):
    return st.tuples(*[st.permutations(range(d)) for d in widths]).map(
        lambda perms: NeuronSymmetry(tuple(np.array(p, dtype=np.int64) for p in perms))
    )


SIGNS = st.sampled_from([-1.0, 1.0])
SCALES = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.25, 4.0))
# VALUES without subnormals; scaled by factors in [1/4, 4], twice over, they
# stay normal doubles, whose rounding is bounded in ulps.
NORMAL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
    st.floats(1e-300, 4.0),
    st.floats(-4.0, -1e-300),
)
# Per factor kind, the factors, an activation that admits them and the
# network entries to act on.
FACTOR_KINDS = {"sign": (SIGNS, TANH, VALUES), "scale": (SCALES, RELU, NORMAL_VALUES)}


def elements(widths, factors=SIGNS):
    """Neuron-symmetry elements on ``widths`` with factors drawn from ``factors``."""
    return st.builds(
        NeuronSymmetry,
        st.tuples(*[st.permutations(range(d)) for d in widths]),
        st.tuples(*[st.lists(factors, min_size=d, max_size=d) for d in widths]),
    )


@st.composite
def widths_and_specs(draw, n_specs):
    widths = draw(hidden_widths)
    return widths, [draw(elements(widths)) for _ in range(n_specs)]


@st.composite
def networks(draw, widths, values=VALUES):
    dims = (draw(st.integers(1, 3)), *widths, draw(st.integers(1, 2)))
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        W = draw(hnp.arrays(float, (d_out, d_in), elements=values))
        b = draw(hnp.arrays(float, (d_out,), elements=values))
        layers.append((W, b))
    return NetworkParams(tuple(layers))


@st.composite
def network_and_spec(draw):
    widths = draw(hidden_widths)
    return draw(networks(widths)), draw(perm_specs(widths))


def identity(widths):
    return NeuronSymmetry(tuple(np.arange(d) for d in widths))


class TestGroupLaws:
    @PROPERTY
    @given(widths_and_specs(1))
    def test_identity(self, ws):
        widths, (a,) = ws
        assert compose(a, identity(widths)) == a
        assert compose(identity(widths), a) == a

    @PROPERTY
    @given(widths_and_specs(1))
    def test_inverse(self, ws):
        widths, (a,) = ws
        assert compose(inverse(a), a) == identity(widths)
        assert compose(a, inverse(a)) == identity(widths)

    @PROPERTY
    @given(widths_and_specs(3))
    def test_associativity(self, ws):
        _, (a, b, c) = ws
        assert compose(c, compose(b, a)) == compose(compose(c, b), a)


@PROPERTY
@given(st.data())
def test_apply_composed_equals_applying_in_turn(data):
    widths = data.draw(hidden_widths)
    params = data.draw(networks(widths))
    a = data.draw(perm_specs(widths))
    b = data.draw(perm_specs(widths))
    in_turn = apply_permutation(apply_permutation(params, a), b)
    assert params_identical(apply_permutation(params, compose(b, a)), in_turn)


def arch_for(params, act):
    """The architecture of ``params`` with activation ``act`` on every hidden layer."""
    widths = tuple(len(b) for _, b in params.layers[:-1])
    d_in, d_out = params.weight(1).shape[1], params.weight(len(widths) + 1).shape[0]
    return Architecture(d_in, widths, (act,) * len(widths), d_out)


# A weight between two hidden layers is multiplied by one factor and divided
# by another.  Applied in turn, two elements round it 4 times; composed, the
# factor products are rounded and then the weight twice.  Each side is thus
# within 4 roundings (4 u relative, u = 2^-53) of the exact value, so the two
# are within 8 u relative, which is at most 8 ulps of the larger.  An element
# and its inverse round the weight 4 times and the inverse's factors 1/f
# twice: 6 u from the weight itself.  Measured on 40000 random cases: 4 and
# 3 ulps.
SCALE_ULPS = 8


def within_ulps(p, q, ulps):
    a, b = p.flat(), q.flat()
    return bool(np.all(np.abs(a - b) <= ulps * np.spacing(np.maximum(np.abs(a), np.abs(b)))))


@st.composite
def acted_on(draw, n_elements):
    """A factor kind, a network, the architecture that admits the kind, and
    ``n_elements`` elements with factors of that kind."""
    kind = draw(st.sampled_from(sorted(FACTOR_KINDS)))
    factors, act, values = FACTOR_KINDS[kind]
    widths = draw(hidden_widths)
    params = draw(networks(widths, values))
    gs = [draw(elements(widths, factors)) for _ in range(n_elements)]
    return kind, params, arch_for(params, act), gs


class TestNeuronSymmetryAction:
    @PROPERTY
    @given(st.data())
    def test_matches_neuron_loop(self, data):
        widths = data.draw(hidden_widths)
        params = data.draw(networks(widths))
        g = data.draw(elements(widths, st.tuples(SIGNS, SCALES).map(lambda t: t[0] * t[1])))
        image = g.apply(params, arch_for(params, IDENTITY))
        expected = neuron_symmetry_reference(params.layers, g.perms, g.factors)
        assert params_identical(image, NetworkParams(tuple(expected)))

    @PROPERTY
    @given(acted_on(2))
    def test_apply_composed_equals_applying_in_turn(self, case):
        kind, params, arch, (g, h) = case
        in_turn = g.apply(h.apply(params, arch), arch)
        composed = compose(g, h).apply(params, arch)
        if kind == "sign":
            assert params_identical(composed, in_turn)
        else:
            assert within_ulps(composed, in_turn, SCALE_ULPS)

    @PROPERTY
    @given(acted_on(1))
    def test_inverse_undoes_apply(self, case):
        kind, params, arch, (g,) = case
        back = inverse(g).apply(g.apply(params, arch), arch)
        if kind == "sign":
            assert params_identical(back, params)
        else:
            assert within_ulps(back, params, SCALE_ULPS)

    @PROPERTY
    @given(acted_on(1))
    def test_forward_preserved(self, case):
        _, params, arch, (g,) = case
        X = np.linspace(-1.0, 1.0, 7 * arch.input_dim).reshape(7, arch.input_dim)
        base = forward_batch(arch, params, X)
        moved = forward_batch(arch, g.apply(params, arch), X)
        assert np.all(np.abs(moved - base) <= 1e-12 * (1.0 + np.abs(base)))

    @PROPERTY
    @given(st.data())
    def test_gate(self, data):
        # One neuron gets a factor; a negative one needs an odd activation,
        # one of magnitude other than 1 a positively homogeneous one.
        widths = data.draw(hidden_widths)
        params = data.draw(networks(widths))
        l = data.draw(st.integers(0, len(widths) - 1))
        i = data.draw(st.integers(0, widths[l] - 1))
        factor = data.draw(st.sampled_from([-1.0, 0.5, 2.0, -2.0]))
        factors = [np.ones(d) for d in widths]
        factors[l][i] = factor
        g = NeuronSymmetry(tuple(np.arange(d) for d in widths), tuple(factors))
        admits = {IDENTITY: True, TANH: abs(factor) == 1.0, RELU: factor > 0.0}
        for act, ok in admits.items():
            if ok:
                g.apply(params, arch_for(params, act))
            else:
                with pytest.raises(UnsupportedTransformError):
                    g.apply(params, arch_for(params, act))
        with pytest.raises(UnsupportedTransformError):
            apply_permutation(params, g)


class TestCanonicalize:
    @PROPERTY
    @given(hidden_widths.flatmap(networks))
    def test_idempotent(self, params):
        once = canonicalize(params)
        twice = canonicalize(once.params)
        assert params_identical(twice.params, once.params)
        assert twice.witness.is_identity()

    @PROPERTY
    @given(network_and_spec())
    def test_constant_on_orbit_with_distinct_keys(self, net_spec):
        params, spec = net_spec
        for W, b in params.layers[:-1]:
            keys = np.column_stack([b, W]).tolist()
            # Keys compare by value, so 0.0 and -0.0 tie.
            assume(len(set(map(tuple, keys))) == len(keys))
        permuted = apply_permutation(params, spec)
        assert params_identical(canonicalize(permuted).params, canonicalize(params).params)


@st.composite
def tied_networks(draw):
    """A net with 1-2 hidden layers of width 1-4 whose entries come from a
    set with both signed zeros, and whose first two neurons of each hidden
    layer share their incoming row and bias."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple))
    dims = (draw(st.integers(1, 2)), *widths, 1)
    tie = st.sampled_from([-0.0, 0.0, 0.5])
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        W = draw(hnp.arrays(float, (d_out, d_in), elements=tie))
        b = draw(hnp.arrays(float, (d_out,), elements=tie))
        if len(layers) < len(widths) and d_out > 1:
            W[1], b[1] = W[0], b[0]
        layers.append((W, b))
    return NetworkParams(tuple(layers))


class TestPermutationImages:
    @PROPERTY
    @given(tied_networks())
    def test_first_image_is_the_net_itself(self, params):
        assert params_identical(distinct_permutation_images(params)[0], params)


@st.composite
def one_hidden_layer_nets(draw):
    """A 1-d-1 net, d <= 4, with entries in {-0.5, 0, 0.5}, so that hidden
    rows tie often, with equal or different outgoing weights."""
    d = draw(st.integers(1, 4))
    tie = st.sampled_from([-0.5, 0.0, 0.5])
    shapes = [((d, 1), (d,)), ((1, d), (1,))]
    return NetworkParams(
        tuple(
            (draw(hnp.arrays(float, w, elements=tie)), draw(hnp.arrays(float, b, elements=tie)))
            for w, b in shapes
        )
    )


class TestAmplificationOrbit:
    @PROPERTY
    @given(one_hidden_layer_nets())
    def test_prediction_and_tolerance_read_off_the_orbit(self, theta_star):
        arch = Architecture(1, (theta_star.weight(1).shape[0],), (RELU,))
        images = [
            np.concatenate([a.ravel() for pair in img for a in pair])
            for img in permutation_images_reference(list(theta_star.layers))
        ]
        scheme = InitScheme("uniform", seed=0)
        if len(images) == 1:
            with pytest.raises(DomainError):
                amplification_check(arch, scheme, theta_star, 1)
            return
        result = amplification_check(arch, scheme, theta_star, 1)
        assert result.predicted_ratio == result.n_images == len(images)
        separation = min(
            np.abs(a - b).max() for i, a in enumerate(images) for b in images[i + 1 :]
        )
        assert 2.0 * result.tolerance == separation


@st.composite
def amplification_cases(draw):
    """An amplification check's arguments on a small net whose entries come
    from at most three values, so rows tie and images share values: a
    layer-symmetric init that can draw those values exactly (a zero-width
    uniform, a zero sigma, or the zero biases of xavier and he), a draw
    count within one block, and a tolerance that is 0, one of the gaps
    between the values, or any in [0, 2]."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
    arch = Architecture(draw(st.integers(1, 2)), widths, (RELU,) * len(widths))
    grid = [-0.5, 0.0, 0.5]
    tie = st.sampled_from(draw(st.lists(st.sampled_from(grid), min_size=1, unique=True)))
    theta_star = NetworkParams(
        tuple(
            (draw(hnp.arrays(float, w, elements=tie)), draw(hnp.arrays(float, b, elements=tie)))
            for w, b in arch.layer_shapes()
        )
    )
    kind = draw(st.sampled_from(["uniform", "normal", "xavier", "he"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "uniform":
        low, high = sorted(draw(st.lists(st.sampled_from([*grid, 1.0]), min_size=2, max_size=2)))
        scheme = InitScheme(kind, seed, low=low, high=high)
    else:
        scheme = InitScheme(
            kind, seed, mu=draw(st.sampled_from(grid)), sigma=draw(st.sampled_from([0.0, 0.5]))
        )
    tolerance = draw(st.one_of(st.sampled_from([0.5, 0.25, 1.0, 0.0]), st.floats(0.0, 2.0)))
    return arch, theta_star, scheme, draw(st.integers(1, 2000)), tolerance


class TestAmplificationCounts:
    @PROPERTY
    @given(amplification_cases())
    def test_counts_equal_brute_force_reference(self, case):
        arch, theta_star, scheme, n, tolerance = case
        images = np.stack(
            [
                np.concatenate([a.ravel() for pair in img for a in pair])
                for img in permutation_images_reference(list(theta_star.layers))
            ]
        )
        result = amplification_check(arch, scheme, theta_star, n, tolerance)
        # n is within one block, so the check's draws are initialize_batch's.
        single, orbit = orbit_hits_reference(initialize_batch(arch, scheme, n), images, tolerance)
        assert (result.p_single, result.p_orbit) == (single / n, orbit / n)
        assert result.n_images == len(images)


@st.composite
def stacks(draw):
    """R networks of one shape, stacked, with entries from a 3-value set so
    that sort keys tie within and across layers."""
    widths = draw(hidden_widths)
    dims = (draw(st.integers(1, 3)), *widths, draw(st.integers(1, 2)))
    R = draw(st.integers(1, 6))
    tie = st.sampled_from([-1.0, 0.0, 1.0])
    return [
        (
            draw(hnp.arrays(float, (R, d_out, d_in), elements=tie)),
            draw(hnp.arrays(float, (R, d_out), elements=tie)),
        )
        for d_in, d_out in zip(dims, dims[1:])
    ]


class TestStackedCanonicalize:
    @PROPERTY
    @given(stacks())
    def test_matches_oracle_and_per_network_canonicalize(self, layers):
        canon, orders = _canonical_layers(layers)
        for r in range(layers[0][0].shape[0]):
            net = [(W[r], b[r]) for W, b in layers]
            expected, expected_orders = canonical_sort(net)
            form = canonicalize(NetworkParams(tuple(net)))
            assert [order[r].tolist() for order in orders] == expected_orders
            assert form.witness.to_json_list() == expected_orders
            for (W, b), (W_ref, b_ref), (W_one, b_one) in zip(
                canon, expected, form.params.layers
            ):
                assert W[r].tobytes() == W_ref.tobytes() == W_one.tobytes()
                assert b[r].tobytes() == b_ref.tobytes() == b_one.tobytes()


@st.composite
def pairs(draw):
    """Two same-shaped networks: a permuted copy, a permuted copy with the
    sign of some zero entries flipped, or an independent draw.  Entries come
    from ``VALUES``, so sort keys tie and signed zeros are common."""
    widths = draw(hidden_widths)
    params = draw(networks(widths))
    kind = draw(st.sampled_from(["permuted", "signed_zeros", "independent"]))
    if kind == "independent":
        other = [
            tuple(draw(hnp.arrays(float, a.shape, elements=VALUES)) for a in layer)
            for layer in params.layers
        ]
        return params, NetworkParams(tuple(other))
    copy = apply_permutation(params, draw(perm_specs(widths)))
    if kind == "signed_zeros":
        flips = [
            tuple(draw(hnp.arrays(bool, a.shape)) & (a == 0.0) for a in layer)
            for layer in copy.layers
        ]
        copy = NetworkParams(
            tuple(
                tuple(np.where(flip, -a, a) for a, flip in zip(layer, layer_flips))
                for layer, layer_flips in zip(copy.layers, flips)
            )
        )
    return params, copy


def two_call_verdict(f1, f2, B_x, n_samples):
    """``decide_equivalence``'s verdict by the route of one ``canonicalize``
    call per network, bit-exact comparison and a composed witness."""
    c1, c2 = canonicalize(f1.params), canonicalize(f2.params)
    if params_identical(c1.params, c2.params):
        return STRUCTURALLY_EQUAL, 0.0, compose(inverse(c2.witness), c1.witness).to_json_list()
    dist = sampled_sup_distance(f1, f2, B_x, n_samples)
    return (NUMERICALLY_EQUIVALENT if dist <= 1e-7 else DISTINGUISHED), dist, None


class TestPairCanonicalization:
    @PROPERTY
    @given(pairs())
    def test_matches_two_canonicalize_calls(self, pair):
        a, b = pair
        flats, witness = _canonical_pair(a, b)
        c1, c2 = canonicalize(a), canonicalize(b)
        assert flats[0].tobytes() == c1.params.flat().tobytes()
        assert flats[1].tobytes() == c2.params.flat().tobytes()
        assert witness == compose(inverse(c2.witness), c1.witness)
        for tol in (0.0, 0.5):
            expected = np.abs(c1.params.flat() - c2.params.flat()).max() <= tol
            assert orbit_membership(a, b, tol) == expected

    @PROPERTY
    @given(pairs())
    def test_verdict_matches_two_call_route(self, pair):
        a, b = pair
        *hidden, d_out = [W.shape[0] for W, _ in a.layers]
        arch = Architecture(a.layers[0][0].shape[1], hidden, (TANH,) * len(hidden), d_out)
        f1, f2 = Network(arch, a), Network(arch, b)
        verdict = decide_equivalence(f1, f2, 1.0, n_samples=8)
        kind, dist, witness = two_call_verdict(f1, f2, 1.0, 8)
        assert verdict.kind == kind
        assert verdict.sup_distance_estimate == dist
        assert json.dumps(verdict.to_json_dict()["witness"]) == json.dumps(witness)


ACTIVATIONS = st.sampled_from([RELU, TANH, SIGMOID, IDENTITY, leaky_relu(0.1), leaky_relu(3.0)])


@st.composite
def forward_cases(draw):
    """An architecture with 1-3 hidden layers and any of the five
    activations, R >= 1 stacked parameterizations of it, and inputs."""
    widths = draw(hidden_widths)
    dims = (draw(st.integers(1, 3)), *widths, draw(st.integers(1, 2)))
    acts = tuple(draw(ACTIVATIONS) for _ in widths)
    arch = Architecture(dims[0], widths, acts, dims[-1])
    R = draw(st.integers(1, 4))
    layers = [
        (
            draw(hnp.arrays(float, (R, d_out, d_in), elements=VALUES)),
            draw(hnp.arrays(float, (R, d_out), elements=VALUES)),
        )
        for d_in, d_out in zip(dims, dims[1:])
    ]
    X = draw(hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(dims[0])), elements=VALUES))
    return arch, layers, X


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestForwardMatchesTraceReference:
    @PROPERTY
    @given(forward_cases())
    def test_checked_plain_and_stacked(self, case):
        arch, layers, X = case
        _, post = forward_trace_reference(arch.activations, layers, X)
        assert same_bits(_forward_checked(arch, layers, X), post[-1])
        for r in range(layers[0][0].shape[0]):
            net = NetworkParams(tuple((W[r], b[r]) for W, b in layers))
            _, post_r = forward_trace_reference(arch.activations, net.layers, X)
            assert same_bits(forward_batch(arch, net, X), post_r[-1])
            assert same_bits(post_r[-1], post[-1][r])

    @PROPERTY
    @given(forward_cases())
    def test_training_trace(self, case):
        arch, layers, X = case
        trace = [X]
        _forward_checked(arch, layers, X, trace)
        _, post = forward_trace_reference(arch.activations, layers, X)
        assert len(trace) == len(post)
        assert all(same_bits(g, w) for g, w in zip(trace, post))


# Every float class: signed zeros, subnormals, the overflow edges of tanh and
# expit, infinities and NaN, besides generic values.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 710.0, -710.0, 1e308, -1e308]
SPECIAL_FLOATS += [math.inf, -math.inf, math.nan]


class TestActivationSlope:
    @PROPERTY
    @given(
        ACTIVATIONS,
        hnp.arrays(
            float,
            hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
            elements=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
        ),
    )
    def test_deriv_matches_input_formula(self, act, x):
        with np.errstate(over="ignore"):  # a leaky slope above 1 may overflow sigma(x)
            slope = act._slope(act(x))
        assert same_bits(np.asarray(slope), np.asarray(_ref_act_deriv(act, x)))


@st.composite
def range_bound_cases(draw):
    """A d0-(hidden)-1 architecture with d0 in 1..4 and any of the five
    activations, B >= max(1, B_x), and a seed for the Monte Carlo draws."""
    widths = draw(hidden_widths)
    arch = Architecture(draw(st.integers(1, 4)), widths, tuple(draw(ACTIVATIONS) for _ in widths))
    B = draw(st.floats(1.0, 4.0))
    return arch, B, B * draw(st.floats(0.1, 1.0)), draw(st.integers(0, 2**32 - 1))


class TestHiddenRangeBound:
    @PROPERTY
    @given(range_bound_cases())
    def test_monte_carlo_pre_activations_within_bound(self, case):
        # 64 nets with each entry at -B or B or uniform in between, each on
        # 16 random inputs of norm B_x and on one input along each of its
        # first-layer rows, where that layer's sup is reached.  The bound is
        # a real-number sup that float sums may meet, hence the 1e-12.
        arch, B, B_x, seed = case
        rng = np.random.default_rng(seed)
        dims = (arch.input_dim, *arch.hidden_widths)
        layers = []
        for d_in, d_out in zip(dims, dims[1:]):
            entries = rng.uniform(-B, B, (64, d_out, d_in + 1))
            corner = rng.random(entries.shape) < 0.5
            entries[corner] = B * np.sign(entries[corner])
            layers.append((entries[..., :-1], entries[..., -1]))
        X = rng.normal(size=(64, 16, arch.input_dim))
        X = np.concatenate([X, layers[0][0]], axis=1)
        h = B_x * X / np.linalg.norm(X, axis=-1, keepdims=True)
        for i, (W, b) in enumerate(layers, start=1):
            z = h @ np.swapaxes(W, -1, -2) + b[:, None, :]
            assert np.abs(z).max() <= hidden_range_bound(arch, B, B_x, i) * (1 + 1e-12)
            h = arch.activations[i - 1](z)


def assert_matches_oracle(rows, tolerance):
    assignment, reps = group_rows(rows, tolerance)
    groups = first_fit_row_groups(rows, tolerance)
    assert [np.flatnonzero(assignment == k).tolist() for k in range(len(reps))] == groups
    assert reps == [g[0] for g in groups]


class TestGroupRows:
    @PROPERTY
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 4)),
            elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        )
    )
    def test_bit_identity_at_zero_tolerance(self, rows):
        assert_matches_oracle(rows, 0.0)

    @PROPERTY
    @given(st.data())
    def test_first_fit_near_ties(self, data):
        tol = data.draw(st.sampled_from([1e-3, 0.1, 0.25]))
        # Offsets at, just inside and just outside the tolerance.
        near = [0.0, -0.0, tol, -tol, 2 * tol, np.nextafter(tol, 1.0), np.nextafter(tol, 0.0)]
        shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 4)))
        base = data.draw(st.sampled_from([0.0, 1.0, -3.0]))
        rows = base + data.draw(hnp.arrays(float, shape, elements=st.sampled_from(near)))
        assert_matches_oracle(rows, tol)

    @PROPERTY
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 64), st.integers(1, 4)),
            elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf]),
        )
    )
    def test_bit_identity_with_non_finite_entries(self, rows):
        # -np.nan carries the sign bit, so it is a second NaN bit pattern.
        assert_matches_oracle(rows, 0.0)

    def test_bit_identity_many_rows(self):
        rng = np.random.default_rng(0)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
        rows = values[rng.integers(0, values.size, size=(5000, 3))]
        assert_matches_oracle(rows, 0.0)

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(st.data())
    def test_first_fit_many_rows(self, data):
        # Enough rows, spread over [-1, 1], that each kept row's slab leaves
        # most rows out.  Clusters on a 1/8 grid plus offsets at, just
        # inside and just outside the tolerance give exact ties; half the
        # rows get a continuous jitter on top, so rows lie near several
        # kept rows.
        tol = data.draw(st.sampled_from([1e-3, 0.125, 0.25]))
        n, d, k = (data.draw(st.integers(*r)) for r in ((1, 300), (1, 5), (1, 20)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        near = np.array(
            [0.0, -0.0, tol, -tol, 2 * tol, np.nextafter(tol, 1.0), np.nextafter(tol, 0.0)]
        )
        centers = rng.integers(-8, 9, (k, d)) / 8.0
        rows = centers[rng.integers(0, k, n)] + near[rng.integers(0, near.size, (n, d))]
        rows += rng.uniform(-tol, tol, (n, d)) * (rng.random((n, 1)) < 0.5)
        assert_matches_oracle(rows, tol)

    @PROPERTY
    @given(st.data())
    def test_lone_rows_settled_first_match_first_fit(self, data):
        # group_rows settles the rows _lone_rows marks before first fit; its
        # groups must be first fit's over all rows, and a marked row must
        # have no other row within tol.  Pair blocks are cut to one pair
        # half the time.  Which rows the pass marks:
        # - sparse: keys 0.75 tol apart on the widest column, neighbours in
        #   key 2 tol apart on the next, and only the two highest keys
        #   exactly tol apart; the pass runs to the end and marks exactly
        #   the rows with no other row within tol;
        # - dense: over 257 rows within tol / 2, so more than 128 pairs a
        #   row, and one row 3 tol below them; the pass is skipped, so not
        #   even that row, which it would settle first, is marked;
        # - clustered: three such clusters of 5-20 rows, 3 tol apart, and
        #   one row 3 tol above them; the pass stops once most settled rows
        #   have a neighbour, before it settles that row;
        # - tied rows on a 0.25 grid, and slab-margin near ties among
        #   far-apart filler rows: -1 and 1 + 2**-52 are a computed 2.0
        #   apart, but fl(-1 + 2) = 1 lies below the second, so only
        #   _slab's margin keeps the pair.
        kind = data.draw(st.sampled_from(["sparse", "dense", "clustered", "tied", "margin"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tol = data.draw(st.sampled_from([2.0**-10, 0.25, 0.5]))
        d = data.draw(st.integers(2, 4) if kind == "sparse" else st.integers(1, 4))
        if kind == "sparse":
            n = data.draw(st.integers(5, 60))
            rows = rng.integers(-4, 5, (n, d)) * (tol / 4)
            rows[:, 0] = np.arange(n) * (0.75 * tol)
            rows[:, 1] = np.arange(n) % 2 * (2 * tol)
            rows[-1, 1:] = rows[-2, 1:]
            rows[-1, 1] += tol
        elif kind in ("dense", "clustered"):
            sizes = [data.draw(st.integers(258, 300))] if kind == "dense" else [
                data.draw(st.integers(5, 20)) for _ in range(3)
            ]
            rows = [rng.uniform(-tol / 4, tol / 4, (m, d)) for m in sizes]
            for k, cluster in enumerate(rows):
                cluster[:, 0] += 3 * k * tol
            rows.append(np.zeros((1, d)))
            rows[-1][0, 0] = -3 * tol if kind == "dense" else 3 * len(sizes) * tol
            rows = np.concatenate(rows)
        elif kind == "tied":
            tol = data.draw(st.sampled_from([0.25, 0.5]))
            rows = rng.integers(-8, 9, (data.draw(st.integers(1, 60)), d)) * 0.25
        else:
            tol = 2.0
            m = data.draw(st.integers(2, 8))
            ends = np.array([-1.0, 1.0 + 2**-52, 1.0, -1.0 - 2**-52])
            near = rng.choice([-1.5, 0.0, 1.0], (m, d))
            near[:, 0] = ends[rng.integers(0, 4, m)]
            filler = np.zeros((12, d))
            filler[:, 0] = 10.0 + 5.0 * np.arange(12)
            rows = np.concatenate([near, filler])
        shuffle = rng.permutation(len(rows))
        rows = rows[shuffle]
        with pytest.MonkeyPatch.context() as patch:
            if data.draw(st.booleans()):
                patch.setattr("fnequiv.canonical._DISTANCE_BLOCK_BYTES", 8 * d)
            assignment, reps = group_rows(rows, tol)
            lone = _lone_rows(rows, tol)
        kept, want = _first_fit(rows, tol, _chebyshev)
        assert assignment.tolist() == want.tolist() and reps == kept.tolist()
        alone = np.array([(np.abs(rows - row).max(axis=1) <= tol).sum() == 1 for row in rows])
        assert not (lone & ~alone).any()
        last = np.argsort(shuffle)[-1]  # the sparse pair's or the one far row's place
        if kind == "sparse":
            assert lone.tolist() == alone.tolist() and alone.sum() == len(rows) - 2
        elif kind in ("dense", "clustered"):
            assert alone[last] and not lone[last] and (kind == "clustered" or not lone.any())

    @pytest.mark.parametrize("tolerance", [0.0, 0.1])
    def test_rows_without_columns_form_one_group(self, tolerance):
        assignment, reps = group_rows(np.zeros((3, 0)), tolerance)
        assert assignment.tolist() == [0, 0, 0] and reps == [0]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    @pytest.mark.parametrize("tolerance", [0.0, 0.1])
    def test_no_rows_no_groups(self, shape, tolerance):
        assignment, reps = group_rows(np.zeros(shape), tolerance)
        assert assignment.tolist() == [] and reps == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_at_positive_tolerance(self, bad):
        rows = np.array([[0.0, 1.0], [bad, 0.0], [0.5, 1.0]])
        with pytest.raises(DomainError, match="finite"):
            group_rows(rows, 0.1)
        # Bit identity needs no arithmetic on the entries.
        assert group_rows(rows, 0.0)[1] == [0, 1, 2]

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan])
    def test_tolerance_out_of_range_rejected(self, tolerance):
        with pytest.raises(DomainError, match="tolerance"):
            group_rows(np.zeros((2, 1)), tolerance)


@st.composite
def grid_point_sets(draw, max_size=16):
    """Rows with coordinates on a 0.25 grid, some of them repeated, so that
    distances are exact and often equal to eps or 2 * eps."""
    dim = draw(st.integers(1, 3))
    grid = st.integers(-4, 4).map(lambda k: 0.25 * k)
    base = draw(hnp.arrays(float, st.tuples(st.integers(1, 8), st.just(dim)), elements=grid))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=max_size))
    return base[picks]


class TestGreedyOracles:
    @PROPERTY
    @given(grid_point_sets(), st.sampled_from([0.1, 0.125, 0.25, 0.5, 0.75]))
    def test_match_reference(self, pts, eps):
        space = MetricSpaceSample(pts)
        assert greedy_covering_estimate(space, eps) == greedy_cover_reference(pts, eps)
        assert greedy_packing_estimate(space, eps) == greedy_pack_reference(pts, eps)


class TestGreedyCoverRecord:
    @PROPERTY
    @given(
        grid_point_sets(max_size=40),
        st.lists(
            st.sampled_from([0.1, 0.125, 0.25, 0.3, 0.5, 0.75, 1.0, 1.5, math.inf]), min_size=1
        ),
    )
    def test_any_order_of_eps_matches_reference(self, pts, epsilons):
        # Grid distances are multiples of 0.25, so most of these eps equal
        # a radius the cover attains; one sample answers every call.
        space = MetricSpaceSample(pts)
        for eps in epsilons:
            assert greedy_covering_estimate(space, eps) == greedy_cover_reference(pts, eps)


class TestExactPacking:
    @PROPERTY
    @given(grid_point_sets(max_size=9), st.sampled_from([0.1, 0.125, 0.25, 0.5, 0.75]))
    def test_matches_exhaustive_search(self, pts, eps):
        space = MetricSpaceSample(pts)
        assert exact_packing_number(space, eps) == exhaustive_max_packing(
            space.distance_matrix(), eps
        )


class TestChebyshevKernel:
    def test_matrix_row_blocks_match_plain_numpy(self, monkeypatch):
        # A budget of three rows of differences fills the 7-row matrix in
        # blocks of 3, 3 and 1 rows through one 3-row buffer.
        rng = np.random.default_rng(0)
        points, centers = rng.normal(size=(7, 4)), rng.normal(size=(50, 4))
        monkeypatch.setattr("fnequiv.nncore._DISTANCE_BLOCK_BYTES", 8 * 3 * len(centers))
        plain = np.abs(points[:, None] - centers).max(axis=2)
        assert _chebyshev(points, centers).tobytes() == plain.tobytes()
        assert _chebyshev(points[:1], centers).tobytes() == plain[:1].tobytes()

    @PROPERTY
    @given(st.data())
    def test_one_row_first_matches_plain_numpy(self, data):
        # Coordinates of very different scales, signed zeros, subnormals
        # and +-1.5e308, whose gap is beyond a double, so that |a - b|
        # rounds in every way it can.  Some inputs have no rows or no
        # columns, and some more rows than one block of the one-row form.
        extremes = st.sampled_from([5e-324, -5e-324, 1.5e308, -1.5e308])
        coord = st.one_of(VALUES, st.floats(-1e300, 1e300), extremes)
        dim = data.draw(st.integers(0, 6))
        shape = st.tuples(st.integers(0, 40), st.just(dim))
        rows = data.draw(hnp.arrays(float, shape, elements=coord))
        if data.draw(st.booleans()):
            block = _DISTANCE_BLOCK_BYTES // (8 * max(1, dim))
            rows = np.resize(rows, (data.draw(st.integers(block + 1, 3 * block)), dim))
        center = data.draw(hnp.arrays(float, (1, dim), elements=coord))
        fast = _chebyshev(center, rows)[0]
        with np.errstate(over="ignore"):
            plain = np.abs(rows - center).max(axis=1) if dim else np.zeros(len(rows))
        assert fast.tobytes() == plain.tobytes()
        assert fast.tobytes() == _chebyshev(rows, center)[:, 0].tobytes()
        others_shape = st.tuples(st.integers(0, 6), st.just(dim))
        others = data.draw(hnp.arrays(float, others_shape, elements=coord))
        matrix = _chebyshev(others, rows)
        assert matrix.shape == (len(others), len(rows))
        for i in range(len(others)):
            assert matrix[i].tobytes() == _chebyshev(others[i : i + 1], rows)[0].tobytes()


@st.composite
def cover_point_sets(draw):
    """1-400 rows picked from a pool of 1-400 rows with coordinates either
    continuous or on a 0.25 grid: enough rows that most of them lie outside
    a new center's slab, with repeated rows and (on the grid) exact
    distances and key gaps equal to eps or R."""
    dim = draw(st.integers(1, 3))
    coords = draw(
        st.sampled_from(
            [st.floats(-1.0, 1.0, allow_nan=False), st.integers(-4, 4).map(lambda k: 0.25 * k)]
        )
    )
    # fill=nothing() draws every entry, rather than mostly one fill value.
    pool_shape = st.tuples(st.integers(1, 400), st.just(dim))
    pool = draw(hnp.arrays(float, pool_shape, elements=coords, fill=st.nothing()))
    picks = st.integers(0, len(pool) - 1)
    picks = draw(hnp.arrays(np.intp, st.integers(1, 400), elements=picks, fill=st.nothing()))
    return pool[picks]


@st.composite
def wide_point_sets(draw):
    """1-400 rows of 4-12 columns, picked with repeats from a pool of 1-400
    rows with coordinates either continuous or on a 0.25 grid, each column
    scaled by its own power of two (so grid distances stay exact): the
    columns past the three widest still set many distances, so the pivot
    bound skips some slab rows and lets others through to the kernel."""
    dim = draw(st.integers(4, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pool = draw(st.integers(1, 400))
    if draw(st.booleans()):
        pool = rng.uniform(-1.0, 1.0, (n_pool, dim))
    else:
        pool = rng.integers(-4, 5, (n_pool, dim)) * 0.25
    pool *= 2.0 ** rng.integers(-2, 3, dim)
    return pool[rng.integers(0, n_pool, draw(st.integers(1, 400)))]


ULP_1E6 = float(np.spacing(1e6))


@st.composite
def offset_point_sets(draw):
    """1-60 rows whose columns each sit at 0, 1e6 or -1e6 and spread over
    +-8 ulps of 1e6: rows near 1e6 differ by a few ulps, while the rows near
    0 carry the fine bits, so a center's key plus its radius often rounds."""
    dim = draw(st.integers(1, 3))
    offsets = draw(hnp.arrays(float, dim, elements=st.sampled_from([0.0, 1e6, -1e6])))
    spread = st.floats(-8 * ULP_1E6, 8 * ULP_1E6)
    shape = st.tuples(st.integers(1, 60), st.just(dim))
    return offsets + draw(hnp.arrays(float, shape, elements=spread, fill=st.nothing()))


def assert_cover_matches_reference(pts, eps):
    centers, radii = _greedy_cover_centers(MetricSpaceSample(pts), eps)
    ref_centers, ref_radii = greedy_cover_centers_reference(pts, eps)
    assert centers.tolist() == ref_centers
    assert radii.tobytes() == np.array(ref_radii, dtype=float).tobytes()


class TestGreedyCoverCenters:
    @PROPERTY
    @given(cover_point_sets(), st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.3, 0.5]))
    def test_match_reference(self, pts, eps):
        assert_cover_matches_reference(pts, eps)

    @PROPERTY
    @given(offset_point_sets(), st.sampled_from([0.25, 0.5, 1.0, 1.25, 2.5]))
    def test_match_reference_near_large_offsets(self, pts, eps_ulps):
        assert_cover_matches_reference(pts, eps_ulps * ULP_1E6)

    @PROPERTY
    @given(wide_point_sets(), st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    def test_match_reference_past_the_pivot_columns(self, pts, eps):
        assert_cover_matches_reference(pts, eps)
        space = MetricSpaceSample(pts)
        assert greedy_packing_estimate(space, eps) == greedy_pack_reference(pts, eps)



@st.composite
def staged_cases(draw):
    """Two independent networks of one architecture with 1-2 hidden layers
    of widths 1-8 and any activations, a sample of at most 64 points or of
    more, a seed, and a tolerance as a multiple of the whole set's or the
    first stage's maximum gap."""
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2).map(tuple))
    a = draw(networks(widths))
    b = [
        tuple(draw(hnp.arrays(float, x.shape, elements=VALUES)) for x in layer)
        for layer in a.layers
    ]
    acts = tuple(draw(ACTIVATIONS) for _ in widths)
    arch = Architecture(a.layers[0][0].shape[1], widths, acts, a.layers[-1][0].shape[0])
    n_samples = draw(st.one_of(st.integers(1, 64), st.integers(65, 300)))
    seed = draw(st.integers(0, 3))
    base = draw(st.sampled_from(["whole", "stage"]))
    scales = st.sampled_from([0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0])
    scale = draw(st.one_of(scales, st.floats(0.0, 2.0)))
    return Network(arch, a), Network(arch, NetworkParams(tuple(b))), n_samples, seed, base, scale


def batch_gaps(f1, f2, X):
    """Each row's largest output gap, from one ``forward_batch`` call per network."""
    y1, y2 = forward_batch(f1.arch, f1.params, X), forward_batch(f2.arch, f2.params, X)
    return np.abs(y1 - y2).max(axis=1)


class TestStagedSampledFallback:
    @PROPERTY
    @given(staged_cases())
    def test_matches_the_whole_set_and_its_evaluated_rows(self, case):
        f1, f2, n, seed, base, scale = case
        X = ball_points(f1.arch.input_dim, n, 1.0, seed=seed)
        whole = sampled_sup_distance(f1, f2, 1.0, n, seed)
        assert whole == batch_gaps(f1, f2, X).max()
        # The first stage: the first 64 random points, the origin and the axes.
        first = np.concatenate([X[:64], X[n:]])
        stage = batch_gaps(f1, f2, first).max()
        tolerance = scale * (whole if base == "whole" else stage)
        verdict = decide_equivalence(f1, f2, 1.0, tolerance=tolerance, n_samples=n, seed=seed)
        assume(verdict.kind != STRUCTURALLY_EQUAL)
        if abs(tolerance - whole) > 1e-9 * whole:
            assert verdict.kind == (DISTINGUISHED if whole > tolerance else NUMERICALLY_EQUIVALENT)
        rows = first if n > 64 and stage > tolerance else X
        gaps = batch_gaps(f1, f2, rows)
        assert verdict.sup_distance_estimate == gaps.max()
        assert verdict.sup_distance_estimate <= whole * (1 + 1e-12)
        if verdict.kind == DISTINGUISHED:
            at = (rows == verdict.distinguishing_input).all(axis=1)
            assert verdict.sup_distance_estimate in gaps[at]
