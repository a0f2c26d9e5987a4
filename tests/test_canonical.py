import math
import tracemalloc

import numpy as np
import pytest

from fnequiv import canonical
from fnequiv.canonical import (
    canonicalize,
    distinct_permutation_images,
    effective_volume,
    symmetry_profile,
)
from fnequiv.errors import BudgetExceededError, DomainError
from fnequiv.nncore import (
    Architecture,
    NetworkParams,
    RELU,
    TANH,
    params_from_flat,
    params_identical,
    random_params,
)
from fnequiv.transforms import apply_permutation, random_spec

from oracles import min_row_gap_reference, permutation_images_reference


def permute_calls(monkeypatch, params) -> int:
    """Calls ``distinct_permutation_images(params)`` makes to
    ``_permute_neurons``: one per hidden layer and block of permutations."""
    calls = []
    permute = canonical._permute_neurons
    monkeypatch.setattr(canonical, "_permute_neurons", lambda *a: calls.append(1) or permute(*a))
    distinct_permutation_images(params)
    return len(calls)


def net_1_3_1(b1, W1=None, W2=None):
    W1 = [[1.0], [2.0], [3.0]] if W1 is None else W1
    W2 = [[4.0, 5.0, 6.0]] if W2 is None else W2
    return NetworkParams(((W1, list(b1)), (W2, [0.0])))


def full_unit_duplicate_params():
    """1-4-1 net where rows 0 and 1 are entire duplicated neurons."""
    W1 = [[0.5], [0.5], [-0.25], [0.75]]
    b1 = [0.1, 0.1, 0.4, -0.3]
    W2 = [[0.2, 0.2, 0.7, -0.6]]
    return NetworkParams(((W1, b1), (W2, [0.0])))


class TestCanonicalize:
    def test_already_sorted_identity_witness(self):
        params = net_1_3_1([3.0, 2.0, 1.0])
        form = canonicalize(params)
        assert form.witness.is_identity()
        assert params_identical(form.params, params)

    def test_hand_sort(self):
        params = net_1_3_1([1.0, 3.0, 2.0])
        form = canonicalize(params)
        assert form.params.bias(1).tolist() == [3.0, 2.0, 1.0]
        # rows and outgoing columns follow their bias entries
        assert form.params.weight(1).tolist() == [[2.0], [3.0], [1.0]]
        assert form.params.weight(2).tolist() == [[5.0, 6.0, 4.0]]

    def test_descending_bias_always_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            arch = Architecture(2, (4, 3), (TANH, TANH))
            form = canonicalize(random_params(arch, rng))
            for l in (1, 2):
                b = form.params.bias(l)
                assert np.all(np.diff(b) <= 0)

    def test_witness_reproduces_canonical_bit_exact(self):
        rng = np.random.default_rng(1)
        arch = Architecture(3, (4, 2), (TANH, RELU))
        params = random_params(arch, rng)
        form = canonicalize(params)
        assert params_identical(apply_permutation(params, form.witness), form.params)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        arch = Architecture(2, (5,), (TANH,))
        params = random_params(arch, rng)
        once = canonicalize(params).params
        twice = canonicalize(once).params
        assert params_identical(once, twice)

    def test_orbit_collapse_random(self):
        rng = np.random.default_rng(3)
        arch = Architecture(2, (3, 4), (TANH, TANH))
        for _ in range(200):
            params = random_params(arch, rng)
            spec = random_spec(arch, rng)
            c1 = canonicalize(params).params
            c2 = canonicalize(apply_permutation(params, spec)).params
            assert params_identical(c1, c2)

    def test_bias_tie_broken_by_weights(self):
        params = net_1_3_1([1.0, 1.0, 1.0])
        form = canonicalize(params)
        # equal biases: weight rows decide, descending
        assert form.params.weight(1).tolist() == [[3.0], [2.0], [1.0]]


class TestSymmetryProfile:
    def test_all_identical_rows(self):
        params = NetworkParams((([[1.0], [1.0], [1.0]], [0.5, 0.5, 0.5]), ([[1.0, 1.0, 1.0]], [0.0])))
        profile = symmetry_profile(params)
        assert profile.distinct_perm_counts == (1,)
        assert math.isinf(profile.delta_min)
        assert profile.total_multiplicity == 1

    def test_all_distinct_rows(self):
        params = net_1_3_1([1.0, 2.0, 3.0])
        profile = symmetry_profile(params)
        assert profile.distinct_perm_counts == (6,)
        assert profile.total_multiplicity == 6

    def test_one_duplicate_pair(self):
        # rows: r, r, r' with ||r - r'||_inf = 0.5
        params = NetworkParams(
            ((np.array([[1.0], [1.0], [1.5]]), np.array([0.2, 0.2, 0.2])), (np.ones((1, 3)), [0.0]))
        )
        profile = symmetry_profile(params)
        assert profile.distinct_perm_counts == (3,)
        assert profile.delta_min == 0.5

    @pytest.mark.parametrize("tolerance", [0.0, 0.5, 1.0])
    def test_delta_min_matches_pairwise_reference(self, tolerance):
        # Entries on a 0.5 grid give exact ties and gaps equal to the
        # tolerance; signed zeros give distinct rows at gap 0.
        rng = np.random.default_rng(11)
        arch = Architecture(1, (6, 4), (TANH, TANH))
        S = arch.param_count
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=S)
            params = params_from_flat(arch, 0.5 * rng.integers(-1, 2, size=S) * signs)
            expected = min_row_gap_reference(params.layers, tolerance)
            assert symmetry_profile(params, tolerance).delta_min == expected

    def test_multi_layer_product(self):
        rng = np.random.default_rng(4)
        arch = Architecture(1, (3, 2), (TANH, TANH))
        params = random_params(arch, rng)
        profile = symmetry_profile(params)
        assert profile.distinct_perm_counts == (6, 2)
        assert profile.total_multiplicity == 12

    def test_row_tolerance_groups_near_ties(self):
        params = NetworkParams(
            ((np.array([[1.0], [1.0 + 1e-9], [2.0]]), np.array([0.0, 0.0, 0.0])), (np.ones((1, 3)), [0.0]))
        )
        assert symmetry_profile(params).distinct_perm_counts == (6,)
        assert symmetry_profile(params, row_tolerance=1e-6).distinct_perm_counts == (3,)

    def test_json_dict(self):
        params = net_1_3_1([1.0, 2.0, 3.0])
        doc = symmetry_profile(params).to_json_dict()
        assert doc["d_star"] == [6]
        assert doc["multiplicity"] == "6"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DomainError):
            symmetry_profile(net_1_3_1([1.0, 2.0, 3.0]), row_tolerance=-1.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(DomainError):
            symmetry_profile(net_1_3_1([1.0, 2.0, 3.0]), row_tolerance=float("nan"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected_at_positive_tolerance(self, bad):
        params = net_1_3_1([1.0, 2.0, 3.0], W1=[[1.0], [bad], [3.0]])
        with pytest.raises(DomainError, match="finite"):
            symmetry_profile(params, row_tolerance=0.1)
        assert symmetry_profile(params).distinct_perm_counts == (6,)


class TestCountingConsistency:
    def test_distinct_rows_full_factorial(self):
        rng = np.random.default_rng(5)
        arch = Architecture(1, (4,), (TANH,))
        params = random_params(arch, rng)
        images = distinct_permutation_images(params)
        assert len(images) == 24 == symmetry_profile(params).total_multiplicity

    def test_deep_product_count(self):
        rng = np.random.default_rng(6)
        arch = Architecture(1, (3, 3), (TANH, TANH))
        params = random_params(arch, rng)
        images = distinct_permutation_images(params)
        assert len(images) == 36 == symmetry_profile(params).total_multiplicity

    def test_full_unit_duplicates_collapse(self):
        params = full_unit_duplicate_params()
        profile = symmetry_profile(params)
        assert profile.distinct_perm_counts == (12,)  # 4!/2!
        assert len(distinct_permutation_images(params)) == 12

    def test_canonical_forms_collapse_orbit(self):
        params = full_unit_duplicate_params()
        canon = {canonicalize(img).params.flat().tobytes() for img in distinct_permutation_images(params)}
        assert len(canon) == 1

    def test_separation_at_least_delta(self):
        rng = np.random.default_rng(7)
        for params in (random_params(Architecture(1, (4,), (TANH,)), rng), full_unit_duplicate_params()):
            profile = symmetry_profile(params)
            images = [img.flat() for img in distinct_permutation_images(params)]
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    assert np.abs(images[i] - images[j]).max() >= profile.delta_min - 1e-15

    def test_budget_guard(self):
        rng = np.random.default_rng(8)
        arch = Architecture(1, (9,), (TANH,))
        with pytest.raises(BudgetExceededError):
            distinct_permutation_images(random_params(arch, rng))

    @pytest.mark.parametrize(
        "params",
        [
            # 2-5-1, neurons 1 and 3 duplicated whole: 120 permutations, 60 images.
            NetworkParams(
                (
                    (
                        [[0.5, -1.0], [0.25, 0.75], [-0.5, 0.5], [0.25, 0.75], [1.0, 0.0]],
                        [0.1, -0.2, 0.3, -0.2, 0.0],
                    ),
                    ([[0.4, 0.6, -0.7, 0.6, 0.2]], [0.5]),
                )
            ),
            # 1-3-3-1, neurons 0 and 2 of the first layer duplicated: 18 images.
            NetworkParams(
                (
                    ([[0.5], [-1.0], [0.5]], [0.25, 0.0, 0.25]),
                    ([[1.0, 2.0, 1.0], [0.5, -0.5, 0.5], [-1.0, 0.0, -1.0]], [0.1, 0.2, 0.3]),
                    ([[0.7, -0.3, 0.9]], [0.0]),
                )
            ),
        ],
        ids=["2-5-1", "1-3-3-1"],
    )
    def test_images_independent_of_block_size(self, monkeypatch, params):
        expected = [
            b"".join(a.tobytes() for pair in image for a in pair)
            for image in permutation_images_reference(params.layers)
        ]
        whole = distinct_permutation_images(params)
        # 16 bytes per parameter of one permutation: 7 permutations per block.
        monkeypatch.setattr("fnequiv.canonical._DISTANCE_BLOCK_BYTES", 7 * 16 * params.flat().size)
        blocked = distinct_permutation_images(params)
        hidden = params.n_layers - 1
        perms = math.prod(math.factorial(len(params.bias(l))) for l in range(1, hidden + 1))
        assert permute_calls(monkeypatch, params) == hidden * math.ceil(perms / 7) > hidden
        for images in (whole, blocked):
            assert [img.flat().tobytes() for img in images] == expected

    def test_memory_bounded_by_block(self, monkeypatch):
        # 1-8-1 with eight identical neurons: 40320 permutations, one image.
        params = NetworkParams((([[0.5]] * 8, [0.25] * 8), ([[0.3] * 8], [0.0])))
        tracemalloc.start()
        try:
            images = distinct_permutation_images(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(images) == 1 and params_identical(images[0], params)
        assert peak <= 4 * canonical._DISTANCE_BLOCK_BYTES
        per_block = canonical._DISTANCE_BLOCK_BYTES // (16 * params.flat().size)
        assert permute_calls(monkeypatch, params) == math.ceil(40320 / per_block) > 1


class TestEffectiveVolume:
    def test_width_one_effective_equals_total(self):
        vol = effective_volume(Architecture(1, (1,), (TANH,)), 1.0)
        assert vol.log_effective == vol.log_total

    def test_1_2_1_arithmetic(self):
        vol = effective_volume(Architecture(1, (2,), (RELU,)), 1.0)
        assert vol.total == pytest.approx(128.0, rel=1e-12)
        assert vol.effective == pytest.approx(64.0, rel=1e-12)

    def test_log_consistency(self):
        arch = Architecture(2, (5, 7), (TANH, TANH))
        vol = effective_volume(arch, 1.5)
        discount = sum(math.lgamma(d + 1) for d in arch.hidden_widths)
        assert vol.log_effective + discount == pytest.approx(vol.log_total, rel=1e-12)

    def test_vanishing_with_width(self):
        # in 1-d-1 the factorial overtakes 2^S beyond d = 8; strictly
        # decreasing from there and far below 1e-6 by d = 32
        vols = [
            effective_volume(Architecture(1, (d,), (RELU,)), 1.0).log_effective
            for d in range(8, 33)
        ]
        assert all(a > b for a, b in zip(vols, vols[1:]))
        assert math.exp(vols[-1]) < 1e-6

    def test_log_space_survives_huge_widths(self):
        vol = effective_volume(Architecture(64, (512, 512), (RELU, RELU)), 2.0)
        assert math.isfinite(vol.log_total) and math.isfinite(vol.log_effective)
        assert vol.total is None  # too large for a double

    def test_invalid_B(self):
        with pytest.raises(DomainError):
            effective_volume(Architecture(1, (2,), (RELU,)), 0.0)
