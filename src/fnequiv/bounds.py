"""Closed-form covering-number and metric-entropy calculators.

All covering bounds are computed and returned in natural-log space; their
linear values overflow doubles at modest widths.  Metric entropies
(log covering numbers) are nonnegative floats, or None beyond a double.  A
step out of the double range falls back on logs (``nncore.monomial``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, check_range
from .nncore import MAX_LOG_LINEAR, Architecture, linear_or_none, lipschitz_constants
from .nncore import log_monomial, monomial


@dataclass(frozen=True)
class BoundConfig:
    """Inputs shared by every bound formula.

    ``rho`` defaults to per-layer Lipschitz constants of the activations on
    the whole line (1 for ReLU, identity and tanh, max(1, slope) for
    LeakyReLU, 1/4 for sigmoid); pass explicit values to override.
    """

    arch: Architecture
    B: float
    B_x: float
    epsilon: float
    rho: tuple[float, ...] = None

    def __post_init__(self):
        check_range("parameter box B", self.B, 1, error=ConfigError)
        check_range("B_x", self.B_x, 0, low_open=True)
        check_range("covering radius epsilon", self.epsilon, 0, low_open=True)
        object.__setattr__(self, "rho", lipschitz_constants(self.arch, self.rho))

    @property
    def log_rho_bar(self) -> float:
        return log_monomial(*((r, 1) for r in self.rho))

    @property
    def log_s_bar(self) -> float:
        w = self.arch.widths
        return sum(
            log_monomial((self.B, 1), (math.sqrt(w[i] * w[i - 1]), 1))
            for i in range(1, self.arch.depth + 1)
        )


def shallow_covering_bound(cfg: BoundConfig) -> float:
    """Log covering number of the one-hidden-layer class.

    log N <= S*log(16 B^2 (B_x+1) sqrt(d0) d1 / eps) + S_h*log(rho) - log(d1!)
    with S = d0*d1 + 2*d1 + 1 and S_h = d0*d1 + d1.
    """
    arch = cfg.arch
    if arch.depth != 1:
        raise ConfigError("the shallow bound requires exactly one hidden layer")
    if arch.output_dim != 1:
        raise ConfigError("the shallow bound is stated for scalar outputs")
    d0, d1 = arch.input_dim, arch.hidden_widths[0]
    S = arch.param_count
    S_h = d0 * d1 + d1
    log_base = log_monomial(
        (16.0, 1), (cfg.B, 2), (cfg.B_x + 1.0, 1), (math.sqrt(d0), 1), (d1, 1)
    ) - math.log(cfg.epsilon)
    return S * log_base + S_h * math.log(cfg.rho[0]) - arch.log_permutation_count


def deep_covering_bound(cfg: BoundConfig) -> float:
    """Log covering number of the deep class.

    log N <= S*log(4 (L+1) (B_x+1) (2B)^(L+2) rho_bar prod_j d_j / eps)
             - sum_l log(d_l!)
    where the width product runs over d_0..d_L.  At L=1 this dominates the
    shallow bound up to a different constant family; the two are not
    numerically equal.
    """
    arch = cfg.arch
    if arch.output_dim != 1:
        raise ConfigError("the deep bound is stated for scalar outputs")
    L = arch.depth
    S = arch.param_count
    log_widths = sum(math.log(d) for d in (arch.input_dim, *arch.hidden_widths))
    log_base = (
        log_monomial((4.0, 1), (L + 1, 1), (cfg.B_x + 1.0, 1))
        + (L + 2) * log_monomial((2.0, 1), (cfg.B, 1))
        + cfg.log_rho_bar
        + log_widths
        - math.log(cfg.epsilon)
    )
    return S * log_base - arch.log_permutation_count


@dataclass(frozen=True)
class StirlingBracket:
    lower: float | None
    factorial: int | None
    upper: float | None


def stirling_bracket(d: int) -> StirlingBracket:
    """Strict two-sided factorial bracket with the exact d! in the middle.

    sqrt(2 pi d) (d/e)^d e^(1/(12d+1)) < d! < sqrt(2 pi d) (d/e)^d e^(1/(12d)).
    A side that does not fit in a double (from d = 171 on) is None, and so is
    d! once it has more digits than the interpreter converts to a string
    (``sys.get_int_max_str_digits``; from d = 1559 at the default 4300).
    """
    check_range("Stirling bracket d", d, 1)
    log_core = 0.5 * math.log(2.0 * math.pi * d) + d * (math.log(d) - 1.0)
    lower, upper = (linear_or_none(log_core + 1.0 / k) for k in (12 * d + 1, 12 * d))
    factorial = math.factorial(d)
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if max_digits and factorial >= 10**max_digits:
        factorial = None
    return StirlingBracket(lower, factorial, upper)


@dataclass(frozen=True)
class EntropyComparison:
    """Five metric-entropy estimates for one config, order-level constants.

    Values are natural-log covering numbers, floored at 0 (entropies are
    nonnegative); ``floored`` lists the rows whose raw expression went
    negative, and ``raw`` keeps the unfloored values.  The first three are
    None where they exceed a double.
    """

    spectral_2017: float | None
    pacbayes_2017: float | None
    lin_2019: float | None
    pdim_2019: float
    permutation_aware: float
    floored: tuple[str, ...]
    raw: dict = field(repr=False)

    ROW_NAMES = ("spectral_2017", "pacbayes_2017", "lin_2019", "pdim_2019", "permutation_aware")

    def values(self) -> dict:
        return {name: getattr(self, name) for name in self.ROW_NAMES}


def entropy_comparison(cfg: BoundConfig) -> EntropyComparison:
    """Evaluate the five comparable metric-entropy expressions.

    spectral_2017: B_x^2 (rho_bar s_bar)^2 U log(W) / eps^2
    pacbayes_2017: B_x^2 (rho_bar s_bar)^2 S L^2 log(W L) / eps^2
    lin_2019:      B_x (rho_bar s_bar) S^2 L / eps
    pdim_2019:     L S log(S) log(B_x / eps)
    permutation_aware:
                   L S log(rho_bar s_bar B_x^(1/L) / (d_1! ... d_L! eps)^(1/L))
    with the spectral proxy s_i = B sqrt(d_i d_{i-1}).
    """
    arch = cfg.arch
    L = arch.depth
    S = arch.param_count
    U = arch.hidden_unit_count
    W = max(arch.hidden_widths)
    eps = cfg.epsilon
    log_rs = cfg.log_rho_bar + cfg.log_s_bar
    rs = math.exp(log_rs) if log_rs <= MAX_LOG_LINEAR else math.inf
    bx = cfg.B_x
    # Each monomial's factors in the order of the formula above.
    raw = {
        "spectral_2017": monomial((bx, 2), (rs, 2, log_rs), (U, 1), (math.log(W), 1), (eps, -2)),
        "pacbayes_2017": monomial(
            (bx, 2), (rs, 2, log_rs), (S, 1), (L, 2), (math.log(W * L), 1), (eps, -2)
        ),
        "lin_2019": monomial((bx, 1), (rs, 1, log_rs), (S, 2), (L, 1), (eps, -1)),
        "pdim_2019": L * S * math.log(S) * log_monomial((bx, 1), (eps, -1)),
        "permutation_aware": L
        * S
        * (log_rs + (math.log(cfg.B_x) - arch.log_permutation_count - math.log(eps)) / L),
    }
    floored = tuple(name for name, v in raw.items() if v is not None and v < 0.0)
    vals = {name: None if v is None else max(v, 0.0) for name, v in raw.items()}
    return EntropyComparison(floored=floored, raw=raw, **vals)


def volume_covering_bound(d: int, volume, epsilon: float) -> float:
    """V * (2/eps)^d, the volume bound on covering/packing of a d-dim set;
    +inf beyond the double range.  ``volume`` is V, or a pair ``(x, k)``
    standing for V = x**k, which may itself leave the double range."""
    value = monomial(*_volume_factors(d, volume, epsilon))
    return math.inf if value is None else value


def log_volume_covering_bound(d: int, volume, epsilon: float) -> float:
    """log(V * (2/eps)^d), finite for every admissible input; ``volume`` as
    in ``volume_covering_bound``."""
    return log_monomial(*_volume_factors(d, volume, epsilon))


def _volume_factors(d: int, volume, epsilon: float) -> tuple:
    check_range("dimension", d, 1)
    x, k = volume if isinstance(volume, tuple) else (volume, 1)
    check_range("volume", x, 0, low_open=True)
    check_range("epsilon", epsilon, 0, low_open=True)
    return (x, k), (2.0 / epsilon, d, math.log(2.0) - math.log(epsilon))
