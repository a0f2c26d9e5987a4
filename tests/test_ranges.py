"""The one range check every scalar argument goes through, and the
arguments it guards."""

import math

import numpy as np
import pytest

from fnequiv.basin import (
    InitScheme,
    OptimizerConfig,
    amplification_check,
    orbit_membership,
    teacher_dataset,
)
from fnequiv.bounds import volume_covering_bound
from fnequiv.canonical import effective_volume, symmetry_profile
from fnequiv.empirical import (
    exact_covering_number,
    function_class_sample,
    greedy_covering_estimate,
    grid_sample,
)
from fnequiv.equivalence import ball_points, decide_equivalence
from fnequiv.errors import ConfigError, DomainError, check_range
from fnequiv.nncore import (
    RELU,
    TANH,
    Architecture,
    Network,
    NetworkParams,
    hidden_range_bound,
    random_params,
)
from fnequiv.verify import run_suite

NAN, INF = math.nan, math.inf
ARCH = Architecture(2, (3,), (TANH,))
DEEP = Architecture(2, (3, 3, 3), (TANH,) * 3)
TINY = Architecture(1, (1,), (TANH,))
PARAMS = random_params(ARCH, np.random.default_rng(0))
NET = Network(ARCH, PARAMS)


class TestCheckRange:
    @pytest.mark.parametrize("low_open", [False, True])
    @pytest.mark.parametrize("high_open", [False, True])
    def test_nan_fails_every_bound(self, low_open, high_open):
        with pytest.raises(DomainError):
            check_range("x", NAN, -INF, INF, low_open=low_open, high_open=high_open)

    @pytest.mark.parametrize(
        "value,low,high,low_open,high_open,ok",
        [
            (0.0, 0, INF, False, True, True),
            (0.0, 0, INF, True, True, False),
            (INF, 0, INF, False, True, False),
            (INF, 0, INF, False, False, True),
            (3, 1, 3, False, False, True),
            (3, 1, 3, False, True, False),
            (-INF, -INF, INF, True, True, False),
        ],
    )
    def test_ends_open_or_closed(self, value, low, high, low_open, high_open, ok):
        if ok:
            check_range("x", value, low, high, low_open=low_open, high_open=high_open)
        else:
            with pytest.raises(DomainError):
                check_range("x", value, low, high, low_open=low_open, high_open=high_open)

    def test_message_names_argument_interval_and_value(self):
        with pytest.raises(DomainError, match=r"^step size must be in \(0, inf\), got -1\.5$"):
            check_range("step size", -1.5, 0, low_open=True)
        with pytest.raises(ConfigError, match=r"^B must be in \[1, inf\), got nan$"):
            check_range("B", NAN, 1, error=ConfigError)


# One row per hole: a library call that, before the range check was
# shared, returned a value or raised something other than DomainError.
HOLES = [
    ("hidden_range_bound B", lambda v: hidden_range_bound(ARCH, v, 1.0, 1), NAN),
    ("hidden_range_bound B", lambda v: hidden_range_bound(ARCH, v, 1.0, 1), INF),
    ("hidden_range_bound rho", lambda v: hidden_range_bound(DEEP, 1.0, 1.0, 3, (v, 1, 1)), -1.0),
    ("hidden_range_bound rho", lambda v: hidden_range_bound(DEEP, 1.0, 1.0, 3, (1, v, 1)), NAN),
    ("hidden_range_bound rho", lambda v: hidden_range_bound(DEEP, 1.0, 1.0, 3, (v, 1, 1)), 0.0),
    ("hidden_range_bound rho", lambda v: hidden_range_bound(DEEP, 1.0, 1.0, 3, (1, 1, v)), INF),
    ("effective_volume B", lambda v: effective_volume(ARCH, v), NAN),
    ("effective_volume B", lambda v: effective_volume(ARCH, v), INF),
    ("volume bound epsilon", lambda v: volume_covering_bound(2, 4.0, v), NAN),
    ("volume bound epsilon", lambda v: volume_covering_bound(2, 4.0, v), INF),
    ("volume bound volume", lambda v: volume_covering_bound(2, v, 0.5), INF),
    ("function_class_sample B", lambda v: function_class_sample(TINY, v, 2, 1.0, 3), NAN),
    ("function_class_sample B", lambda v: function_class_sample(TINY, v, 2, 1.0, 3), INF),
    ("function_class_sample B", lambda v: function_class_sample(TINY, v, 2, 1.0, 3), 1e308),
    ("decide_equivalence n_samples", lambda v: decide_equivalence(NET, NET, 1.0, n_samples=v), 0),
    ("decide_equivalence n_samples", lambda v: decide_equivalence(NET, NET, 1.0, n_samples=v), -5),
    ("OptimizerConfig grad_threshold", lambda v: OptimizerConfig(0.1, 10, v), NAN),
    ("OptimizerConfig grad_threshold", lambda v: OptimizerConfig(0.1, 10, v), -1.0),
    ("teacher_dataset B_x", lambda v: teacher_dataset(ARCH, PARAMS, 8, v), -1.0),
    ("teacher_dataset B_x", lambda v: teacher_dataset(ARCH, PARAMS, 8, v), 0.0),
    ("teacher_dataset B_x", lambda v: teacher_dataset(ARCH, PARAMS, 8, v), NAN),
    ("teacher_dataset n_points", lambda v: teacher_dataset(ARCH, PARAMS, v, 1.0), 0),
    ("grid_sample half_width", lambda v: grid_sample(2, 3, v), -1.0),
    ("grid_sample half_width", lambda v: grid_sample(2, 3, v), 0.0),
    ("grid_sample half_width", lambda v: grid_sample(2, 3, v), 1e308),
    ("ball_points dim", lambda v: ball_points(v, 4, 1.0), 0),
    ("ball_points dim", lambda v: ball_points(v, 4, 1.0), -1),
    ("ball_points seed", lambda v: ball_points(2, 8, 1.0, seed=v), -1),
    ("ball_points seed", lambda v: ball_points(2, 8, 1.0, seed=v), np.int64(-2**40)),
    ("InitScheme seed", lambda v: InitScheme("uniform", seed=v), -1),
    ("InitScheme seed", lambda v: InitScheme("he", seed=v), np.int32(-7)),
    ("InitScheme seed", lambda v: InitScheme("uniform", seed=v), 1.5),
    ("teacher_dataset seed", lambda v: teacher_dataset(ARCH, PARAMS, 8, 1.0, seed=v), -1),
    ("teacher_dataset seed", lambda v: teacher_dataset(ARCH, PARAMS, 8, 1.0, seed=v), 1.5),
    ("run_suite seed", lambda v: run_suite("permutation", seed=v), -1),
    ("run_suite seed", lambda v: run_suite("sandwich", seed=v), -3),
    ("run_suite seed", lambda v: run_suite("permutation", seed=v), 1.5),
]


@pytest.mark.parametrize("name,call,value", HOLES, ids=[f"{h[0]}={h[2]}" for h in HOLES])
def test_out_of_range_argument_raises_domain_error(name, call, value):
    with pytest.raises(DomainError):
        call(value)


def test_hidden_range_bound_needs_one_rho_per_hidden_layer():
    # A short rho used to raise IndexError; BoundConfig makes the same check.
    with pytest.raises(ConfigError, match="need 3 Lipschitz constants"):
        hidden_range_bound(DEEP, 1.0, 1.0, 3, (1.0, 1.0))


# +inf stays a valid tolerance, oracle radius and gradient threshold.
INF_ACCEPTED = [
    lambda: decide_equivalence(NET, NET, 1.0, tolerance=INF),
    lambda: orbit_membership(PARAMS, PARAMS, INF),
    lambda: amplification_check(ARCH, InitScheme("uniform"), PARAMS, 10, tolerance=INF),
    lambda: symmetry_profile(PARAMS, INF),
    lambda: greedy_covering_estimate(grid_sample(1, 3), INF),
    lambda: exact_covering_number(grid_sample(1, 3), INF),
    lambda: OptimizerConfig(0.1, 10, INF),
]


@pytest.mark.parametrize("call", INF_ACCEPTED)
def test_infinite_tolerance_still_accepted(call):
    call()


def test_seed_sequence_init_seed_is_left_alone():
    scheme = InitScheme("uniform", seed=np.random.SeedSequence(3))
    assert amplification_check(ARCH, scheme, PARAMS, 10, tolerance=1.0).n_draws == 10


# A one-image theta*: ratio 1 with standard error 0, where inf * 0 is NaN.
ONE_IMAGE = NetworkParams(
    (
        (np.array([[0.5], [0.5]]), np.array([0.2, 0.2])),
        (np.array([[0.3, 0.3]]), np.array([0.0])),
    )
)


@pytest.mark.parametrize("n_standard_errors", [NAN, -1.0, -1e-300, INF, -INF])
def test_within_checks_its_argument(n_standard_errors):
    result = amplification_check(
        Architecture(1, (2,), (RELU,)), InitScheme("uniform", seed=1), ONE_IMAGE, 2000, 0.5
    )
    assert result.n_images == 1 and result.within(0.0)
    with pytest.raises(DomainError, match="n_standard_errors"):
        result.within(n_standard_errors)
