"""Property-based tests: permutation group laws, canonical-form invariance,
the stacked canonical sort, the pair canonicalization, the checked forward
pass, the first-fit row grouper, the distance kernel, the greedy covering and
packing oracles and the exact packing oracle against brute-force references."""

import json
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fnequiv.basin import orbit_membership
from fnequiv.canonical import _canonical_layers, _canonical_pair, canonicalize, group_rows
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
    decide_equivalence,
    sampled_sup_distance,
)
from fnequiv.nncore import (
    IDENTITY,
    RELU,
    SIGMOID,
    TANH,
    Architecture,
    Network,
    NetworkParams,
    _chebyshev,
    _forward_checked,
    _forward_trace,
    forward_batch,
    leaky_relu,
    params_identical,
)
from fnequiv.transforms import PermutationSpec, apply_permutation, compose, inverse

from oracles import (
    canonical_sort,
    exhaustive_max_packing,
    first_fit_row_groups,
    forward_trace_reference,
    greedy_cover_centers_reference,
    greedy_cover_reference,
    greedy_pack_reference,
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
        lambda perms: PermutationSpec(tuple(np.array(p, dtype=np.int64) for p in perms))
    )


@st.composite
def widths_and_specs(draw, n_specs):
    widths = draw(hidden_widths)
    return widths, [draw(perm_specs(widths)) for _ in range(n_specs)]


@st.composite
def networks(draw, widths):
    dims = (draw(st.integers(1, 3)), *widths, draw(st.integers(1, 2)))
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        W = draw(hnp.arrays(float, (d_out, d_in), elements=VALUES))
        b = draw(hnp.arrays(float, (d_out,), elements=VALUES))
        layers.append((W, b))
    return NetworkParams(tuple(layers))


@st.composite
def network_and_spec(draw):
    widths = draw(hidden_widths)
    return draw(networks(widths)), draw(perm_specs(widths))


def identity(widths):
    return PermutationSpec(tuple(np.arange(d) for d in widths))


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
        trace = _forward_trace(arch, layers, X)
        for got, want in zip(trace, forward_trace_reference(arch.activations, layers, X)):
            assert len(got) == len(want)
            assert all(same_bits(g, w) for g, w in zip(got, want))


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
    @PROPERTY
    @given(st.data())
    def test_one_row_first_matches_plain_numpy(self, data):
        # Coordinates of very different scales, signed zeros and
        # subnormals, so that |a - b| rounds in every way it can.
        coord = st.one_of(VALUES, st.floats(-1e300, 1e300), st.sampled_from([5e-324, -5e-324]))
        dim = data.draw(st.integers(1, 6))
        shape = st.tuples(st.integers(1, 40), st.just(dim))
        rows = data.draw(hnp.arrays(float, shape, elements=coord))
        center = data.draw(hnp.arrays(float, (1, dim), elements=coord))
        fast = _chebyshev(center, rows)[0]
        assert fast.tobytes() == np.abs(rows - center).max(axis=1).tobytes()
        assert fast.tobytes() == _chebyshev(rows, center)[:, 0].tobytes()


@st.composite
def cover_point_sets(draw):
    """1-400 rows picked from a pool of 1-400 rows with coordinates either
    continuous or on a 0.25 grid: enough centers that most of them lie
    beyond 2R of a new one, with repeated rows and (on the grid) exact
    distances equal to eps or 2R."""
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


class TestGreedyCoverCenters:
    @PROPERTY
    @given(cover_point_sets(), st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.3, 0.5]))
    def test_match_reference(self, pts, eps):
        centers, _ = _greedy_cover_centers(MetricSpaceSample(pts), eps)
        assert centers.tolist() == greedy_cover_centers_reference(pts, eps)
