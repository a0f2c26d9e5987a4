import math
import sys

import mpmath
import numpy as np
import pytest

from fnequiv.bounds import (
    BoundConfig,
    EntropyComparison,
    deep_covering_bound,
    entropy_comparison,
    log_volume_covering_bound,
    shallow_covering_bound,
    stirling_bracket,
    volume_covering_bound,
)
from fnequiv.errors import ConfigError, DomainError
from fnequiv.nncore import Architecture, RELU, SIGMOID, TANH

from oracles import mp_deep_log, mp_shallow_log, mp_stirling_bracket


def relu_arch(d0, hidden):
    return Architecture(d0, hidden, (RELU,) * len(hidden))


def cfg_of(d0=1, hidden=(2,), B=1.0, B_x=1.0, epsilon=1.0, rho=None, acts=None):
    acts = acts or (RELU,) * len(hidden)
    return BoundConfig(Architecture(d0, hidden, acts), B, B_x, epsilon, rho)


class TestBoundConfig:
    def test_default_rho_from_activations(self):
        cfg = cfg_of(hidden=(2, 3), acts=(RELU, SIGMOID))
        assert cfg.rho == (1.0, 0.25)
        cfg2 = cfg_of(hidden=(2,), acts=(TANH,))
        assert cfg2.rho == (1.0,)

    def test_B_below_one_rejected(self):
        with pytest.raises(ConfigError):
            cfg_of(B=0.5)

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            cfg_of(epsilon=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field,error",
        [("B", ConfigError), ("B_x", DomainError), ("epsilon", DomainError), ("rho", DomainError)],
    )
    def test_non_finite_value_rejected(self, field, error, value):
        with pytest.raises(error):
            cfg_of(**{field: (value,) if field == "rho" else value})


class TestShallowBound:
    def test_frozen_example(self):
        # d0=1, d1=2, B=Bx=rho=eps=1: (64)^7 / 2! = 2**41
        cfg = cfg_of()
        assert shallow_covering_bound(cfg) == pytest.approx(math.log(2**41), rel=1e-14)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            d0 = int(rng.integers(1, 6))
            d1 = int(rng.integers(1, 9))
            B = float(rng.uniform(1.0, 3.0))
            Bx = float(rng.uniform(0.3, 2.0))
            rho = float(rng.uniform(0.2, 2.0))
            eps = float(rng.uniform(0.01, 1.5))
            cfg = cfg_of(d0=d0, hidden=(d1,), B=B, B_x=Bx, epsilon=eps, rho=(rho,))
            want = mp_shallow_log(d0, d1, B, Bx, rho, eps)
            assert shallow_covering_bound(cfg) == pytest.approx(want, rel=1e-10)

    def test_halving_epsilon_adds_S_log2(self):
        cfg = cfg_of(d0=2, hidden=(3,), epsilon=0.8)
        half = cfg_of(d0=2, hidden=(3,), epsilon=0.4)
        S = cfg.arch.param_count
        assert shallow_covering_bound(half) - shallow_covering_bound(cfg) == pytest.approx(
            S * math.log(2.0), rel=1e-9
        )

    def test_rho_one_drops_lipschitz_term(self):
        with_rho = shallow_covering_bound(cfg_of(rho=(1.0,)))
        default = shallow_covering_bound(cfg_of())
        assert with_rho == default
        # and a rho != 1 shifts by exactly S_h * log(rho)
        rho = 0.5
        shifted = shallow_covering_bound(cfg_of(rho=(rho,)))
        S_h = 1 * 2 + 2
        assert shifted - default == pytest.approx(S_h * math.log(rho), rel=1e-12)

    def test_deep_arch_rejected(self):
        with pytest.raises(ConfigError):
            shallow_covering_bound(cfg_of(hidden=(2, 2)))


class TestDeepBound:
    def test_frozen_example(self):
        cfg = cfg_of(d0=1, hidden=(1,))
        assert deep_covering_bound(cfg) == pytest.approx(4 * math.log(128), rel=1e-14)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(12):
            L = int(rng.integers(1, 4))
            hidden = tuple(int(w) for w in rng.integers(1, 9, L))
            d0 = int(rng.integers(1, 5))
            B = float(rng.uniform(1.0, 2.5))
            Bx = float(rng.uniform(0.3, 2.0))
            rhos = tuple(float(r) for r in rng.uniform(0.2, 1.5, L))
            eps = float(rng.uniform(0.05, 1.0))
            cfg = cfg_of(d0=d0, hidden=hidden, B=B, B_x=Bx, epsilon=eps, rho=rhos)
            want = mp_deep_log(d0, hidden, B, Bx, rhos, eps)
            assert deep_covering_bound(cfg) == pytest.approx(want, rel=1e-10)

    def test_factorial_discount_exact(self):
        assert -relu_arch(2, (3, 4)).log_permutation_count == -(math.lgamma(4) + math.lgamma(5))

    def test_width_increment_bookkeeping(self):
        # growing one hidden width by 1 changes the discount by exactly
        # -log(d_l + 1)
        a1 = relu_arch(2, (3, 5))
        a2 = relu_arch(2, (3, 6))
        assert -a2.log_permutation_count - -a1.log_permutation_count == pytest.approx(
            -math.log(6.0), rel=1e-12
        )
        assert a2.param_count > a1.param_count

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("L", [2, 3])
    def test_equal_width_regrouping(self, d, L):
        # with equal widths the bound regroups as
        #   S*log(C/eps) + L*S*log(d) - L*log(d!)
        # where C collects every width-independent factor
        cfg = cfg_of(d0=1, hidden=(d,) * L, B=1.5, B_x=0.8, epsilon=0.25)
        S = cfg.arch.param_count
        C = 4 * (L + 1) * (cfg.B_x + 1) * (2 * cfg.B) ** (L + 2) * math.prod(cfg.rho) * cfg.arch.input_dim
        regrouped = (
            S * (math.log(C) - math.log(cfg.epsilon))
            + L * S * math.log(d)
            - L * math.lgamma(d + 1)
        )
        assert deep_covering_bound(cfg) == pytest.approx(regrouped, rel=1e-10)

    def test_monotone_in_epsilon_and_B(self):
        base = cfg_of(d0=2, hidden=(3, 2), epsilon=0.5)
        assert deep_covering_bound(cfg_of(d0=2, hidden=(3, 2), epsilon=0.25)) > deep_covering_bound(base)
        assert deep_covering_bound(cfg_of(d0=2, hidden=(3, 2), B=2.0, epsilon=0.5)) > deep_covering_bound(base)

    def test_randomized_monotonicity_sweep(self):
        # nonincreasing in epsilon, nondecreasing in B and B_x, for both
        # bound families
        rng = np.random.default_rng(3)
        for _ in range(20):
            d0 = int(rng.integers(1, 5))
            hidden = (int(rng.integers(1, 7)),)
            B = float(rng.uniform(1.0, 2.0))
            Bx = float(rng.uniform(0.3, 2.0))
            eps = float(rng.uniform(0.05, 1.0))
            base = cfg_of(d0=d0, hidden=hidden, B=B, B_x=Bx, epsilon=eps)
            for fn in (shallow_covering_bound, deep_covering_bound):
                v = fn(base)
                assert fn(cfg_of(d0=d0, hidden=hidden, B=B, B_x=Bx, epsilon=eps * 0.5)) >= v
                assert fn(cfg_of(d0=d0, hidden=hidden, B=B * 1.5, B_x=Bx, epsilon=eps)) >= v
                assert fn(cfg_of(d0=d0, hidden=hidden, B=B, B_x=Bx * 1.5, epsilon=eps)) >= v


class TestStirling:
    def test_d1_bracket(self):
        br = stirling_bracket(1)
        assert br.factorial == 1
        assert br.lower == pytest.approx(0.99590, abs=1e-4)
        assert br.upper == pytest.approx(1.00227, abs=1e-4)
        assert br.lower < 1 < br.upper

    def test_d5_strictly_inside(self):
        br = stirling_bracket(5)
        assert br.lower < 120 < br.upper

    def test_d20_relative_width(self):
        br = stirling_bracket(20)
        assert (br.upper - br.lower) / br.factorial < 1e-3

    def test_strict_bracketing_up_to_170(self):
        for d in range(1, 171):
            br = stirling_bracket(d)
            assert br.lower < br.factorial < br.upper, d

    def test_sides_past_double_range_are_none(self):
        br = stirling_bracket(171)
        assert (br.lower, br.upper) == (None, None)
        assert br.factorial == math.factorial(171)

    def test_factorial_past_string_digit_limit_is_none(self):
        # Under the default 4300-digit limit, 1558! is the last d! that prints.
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert stirling_bracket(1558).factorial == math.factorial(1558)
            assert stirling_bracket(1559).factorial is None
        finally:
            sys.set_int_max_str_digits(limit)

    def test_matches_high_precision_oracle(self):
        for d in (1, 7, 40, 170):
            lo, hi = mp_stirling_bracket(d)
            br = stirling_bracket(d)
            assert br.lower == pytest.approx(lo, rel=1e-12)
            assert br.upper == pytest.approx(hi, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            stirling_bracket(0)


class TestEntropyComparison:
    def test_L1_specialization(self):
        cfg = cfg_of(d0=2, hidden=(3,), B=1.5, B_x=2.0, epsilon=0.5)
        comp = entropy_comparison(cfg)
        S = cfg.arch.param_count
        rs = math.prod(cfg.rho) * math.exp(cfg.log_s_bar)
        want = S * math.log(rs * cfg.B_x / (math.factorial(3) * cfg.epsilon))
        assert comp.raw["permutation_aware"] == pytest.approx(want, rel=1e-12)

    def test_doubling_epsilon_quarters_spectral(self):
        c1 = entropy_comparison(cfg_of(d0=2, hidden=(4,), B_x=2.0, epsilon=0.25))
        c2 = entropy_comparison(cfg_of(d0=2, hidden=(4,), B_x=2.0, epsilon=0.5))
        assert c1.spectral_2017 == pytest.approx(4.0 * c2.spectral_2017, rel=1e-12)

    def test_factorial_gain_grows_with_width(self):
        # the permutation-aware row falls away from the pseudo-dimension row
        # as width grows
        diffs = []
        for d in (4, 8, 16, 32):
            cfg = cfg_of(d0=1, hidden=(d, d), B=1.0, B_x=1.0, epsilon=0.1)
            comp = entropy_comparison(cfg)
            diffs.append(comp.permutation_aware - comp.pdim_2019)
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_flooring_flags(self):
        # B_x < eps makes the pseudo-dimension row negative; factorials make
        # the permutation-aware row negative
        cfg = cfg_of(d0=1, hidden=(8,), B_x=0.5, epsilon=1.0)
        comp = entropy_comparison(cfg)
        assert "pdim_2019" in comp.floored
        assert comp.pdim_2019 == 0.0
        assert comp.raw["pdim_2019"] < 0.0
        assert all(getattr(comp, n) >= 0.0 for n in EntropyComparison.ROW_NAMES)

    def test_width_one_spectral_zero(self):
        comp = entropy_comparison(cfg_of(d0=1, hidden=(1,)))
        assert comp.spectral_2017 == 0.0
        assert "spectral_2017" not in comp.floored


class TestBeyondDoubleRange:
    def test_entropies_from_logs_match_mpmath(self):
        # rs^2 overflows and B_x^2 underflows on the way to in-range
        # results, which come from the logs of their factors.
        cfg = cfg_of(d0=2, hidden=(4, 4), B=1e100, B_x=1e-200, epsilon=1e-100)
        comp = entropy_comparison(cfg)
        S, L = cfg.arch.param_count, 2
        with mpmath.workdps(40):
            rs = mpmath.mpf(cfg.B) ** 2 * mpmath.sqrt(2 * 4) * mpmath.sqrt(4 * 4)
            bx_eps = mpmath.mpf(cfg.B_x) / mpmath.mpf(cfg.epsilon)
            lin = float(bx_eps * rs * S**2 * L)
            spectral = float(bx_eps**2 * rs**2 * 8 * mpmath.log(4))
            pdim = L * S * math.log(S) * float(mpmath.log(bx_eps))
        assert comp.lin_2019 == pytest.approx(lin, rel=1e-12)
        assert comp.spectral_2017 == pytest.approx(spectral, rel=1e-12)
        assert comp.raw["pdim_2019"] == pytest.approx(pdim, rel=1e-12)

    def test_rho_product_beyond_a_double(self):
        cfg = cfg_of(d0=1, hidden=(2, 2), rho=(1e300, 1e300))
        assert math.prod(cfg.rho) == math.inf
        assert cfg.log_rho_bar == pytest.approx(2 * math.log(1e300), rel=1e-15)
        assert math.isfinite(deep_covering_bound(cfg))
        assert entropy_comparison(cfg).lin_2019 is None

    def test_volume_bound_steps_out_of_range(self):
        assert volume_covering_bound(2, 1e308, 1e-10) == math.inf
        assert volume_covering_bound(2, 4.0, 1e-200) == math.inf
        # (2 / eps)^2 underflows to 0 though the bound is a normal double.
        assert volume_covering_bound(2, 1e300, 1e300) == pytest.approx(4e-300, rel=1e-12)
        assert log_volume_covering_bound(2, 4.0, 1e-200) == pytest.approx(
            math.log(4.0) + 2 * math.log(2e200), rel=1e-15
        )

    def test_volume_as_a_power(self):
        # (x, k) stands for x**k: in range it is the same product, bit for
        # bit; out of range it is taken from its log.
        for d, x, eps in [(2, 3.0, 0.5), (3, 0.7, 0.1), (7, 2.0, 0.25)]:
            assert log_volume_covering_bound(d, (x, d), eps) == log_volume_covering_bound(
                d, x**d, eps
            )
            assert volume_covering_bound(d, (x, d), eps) == volume_covering_bound(d, x**d, eps)
        for x in (2e300, 2e-300):
            assert log_volume_covering_bound(2, (x, 2), 0.5) == pytest.approx(
                2 * math.log(x) + 2 * math.log(4.0), rel=1e-15
            )
        with pytest.raises(DomainError, match="volume"):
            log_volume_covering_bound(2, (0.0, 2), 0.5)


class TestVolumeCoveringBound:
    def test_unit_interval(self):
        assert volume_covering_bound(1, 1.0, 2.0) == 1.0

    def test_square(self):
        assert volume_covering_bound(2, 4.0, 0.5) == 64.0

    def test_composition_with_effective_volume(self):
        from fnequiv.canonical import effective_volume

        vol = effective_volume(relu_arch(1, (2,)), 1.0)
        got = volume_covering_bound(7, vol.effective, 0.5)
        assert got == pytest.approx(64.0 * 4**7, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            volume_covering_bound(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            volume_covering_bound(1, -1.0, 1.0)
        with pytest.raises(DomainError):
            volume_covering_bound(1, 1.0, 0.0)
