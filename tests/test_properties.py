"""Property-based tests: permutation group laws, canonical-form invariance,
the stacked canonical sort and the first-fit row grouper against
brute-force oracles."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fnequiv.canonical import _canonical_layers, canonicalize, group_rows
from fnequiv.nncore import NetworkParams, params_identical
from fnequiv.transforms import PermutationSpec, apply_permutation, compose, inverse

from oracles import canonical_sort, first_fit_row_groups

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

    def test_bit_identity_many_rows(self):
        rng = np.random.default_rng(0)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
        rows = values[rng.integers(0, values.size, size=(5000, 3))]
        assert_matches_oracle(rows, 0.0)
