"""Closed-form covering-number and metric-entropy calculators.

All covering bounds are computed and returned in natural-log space; their
linear values overflow doubles at modest widths.  Metric entropies
(log covering numbers) are nonnegative floats, or None beyond a double.  A
step out of the double range falls back on logs (``nncore.monomial``).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import ConfigError, DomainError, IntegrationFailureError, check_range
from .nncore import MAX_LOG_LINEAR, Architecture, linear_or_none, lipschitz_constants
from .nncore import log_monomial, monomial

DUDLEY_ABS_TOL = 1e-6
DUDLEY_CONSTANT = 12.0
# Divergence sentinel: entropies growing at least this fast near 0 make the
# sqrt-integrand non-integrable.
_DIVERGENCE_EXPONENT = 2.0

PDIM_EXACT_MAX_D = 300
PDIM_EXACT_MAX_N = 100_000


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
    def rho_bar(self) -> float:
        return math.prod(self.rho)

    @property
    def log_rho_bar(self) -> float:
        return log_monomial(*((r, 1) for r in self.rho))

    @property
    def spectral_proxies(self) -> tuple[float, ...]:
        """s_i = B * sqrt(d_i * d_{i-1}) for the hidden weight matrices."""
        w = self.arch.widths
        return tuple(
            self.B * math.sqrt(w[i] * w[i - 1]) for i in range(1, self.arch.depth + 1)
        )

    @property
    def log_s_bar(self) -> float:
        w = self.arch.widths
        return sum(
            log_monomial((self.B, 1), (math.sqrt(w[i] * w[i - 1]), 1))
            for i in range(1, self.arch.depth + 1)
        )

    @property
    def max_hidden_width(self) -> int:
        return max(self.arch.hidden_widths)


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
    return S * log_base + S_h * math.log(cfg.rho[0]) + permutation_discount(arch)


def permutation_discount(arch: Architecture) -> float:
    """The -sum_l log(d_l!) term contributed by hidden-layer permutations."""
    return -arch.log_permutation_count


def deep_covering_bound(cfg: BoundConfig, discount: bool = True) -> float:
    """Log covering number of the deep class.

    log N <= S*log(4 (L+1) (B_x+1) (2B)^(L+2) rho_bar prod_j d_j / eps)
             - sum_l log(d_l!)
    where the width product runs over d_0..d_L.  At L=1 this dominates the
    shallow bound up to a different constant family; the two are not
    numerically equal.  Pass ``discount=False`` to drop the
    factorial term.
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
    size_term = S * log_base
    if not discount:
        return size_term
    return size_term + permutation_discount(arch)


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
    W = cfg.max_hidden_width
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
        * (log_rs + (math.log(cfg.B_x) + permutation_discount(arch) - math.log(eps)) / L),
    }
    floored = tuple(name for name, v in raw.items() if v is not None and v < 0.0)
    vals = {name: None if v is None else max(v, 0.0) for name, v in raw.items()}
    return EntropyComparison(floored=floored, raw=raw, **vals)


def dudley_rademacher_bound(
    entropy_fn: Callable[[float], float],
    n: int,
    upper_limit: float,
) -> float:
    """12 * integral_0^limit sqrt(entropy_fn(eps) / n) d(eps).

    ``entropy_fn`` must be nonnegative and nonincreasing.  The quadrature is
    split at the point where the entropy reaches 0 (the integrand has a kink
    there).  Entropies growing like eps^-2 or faster near 0 make the integral
    diverge; that raises IntegrationFailureError carrying the value over a
    truncated range.
    """
    check_range("sample size", n, 1)
    check_range("integration limit", upper_limit, 0, low_open=True)
    probe = [upper_limit * t for t in (1e-9, 1e-4, 0.3, 1.0)]
    vals = [float(entropy_fn(p)) for p in probe]
    if any(v < 0 for v in vals):
        raise DomainError("entropy function must be nonnegative")
    if any(a < b - 1e-12 for a, b in zip(vals, vals[1:])):
        raise DomainError("entropy function must be nonincreasing")
    from scipy import integrate

    integrand = lambda e: math.sqrt(float(entropy_fn(e)) / n)

    # Estimate the growth exponent near 0 to detect divergence before quad
    # burns its subdivision budget on it.
    a, b = upper_limit * 1e-9, upper_limit * 1e-7
    ea, eb = float(entropy_fn(a)), float(entropy_fn(b))
    if eb > 0 and ea > eb:
        exponent = math.log(ea / eb) / math.log(b / a)
        if exponent >= _DIVERGENCE_EXPONENT - 1e-3:
            cutoff = upper_limit * 1e-6
            partial, _ = integrate.quad(integrand, cutoff, upper_limit, limit=200)
            raise IntegrationFailureError(
                f"entropy grows like eps^-{exponent:.2f} near 0; integral diverges",
                partial_value=DUDLEY_CONSTANT * partial,
            )

    # Locate where the (nonincreasing) entropy first reaches 0.
    split = upper_limit
    if float(entropy_fn(upper_limit)) == 0.0:
        lo, hi = 0.0, upper_limit
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(entropy_fn(mid)) > 0.0:
                lo = mid
            else:
                hi = mid
        split = hi

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            total, _ = integrate.quad(integrand, 0.0, split, epsabs=DUDLEY_ABS_TOL, limit=200)
        except integrate.IntegrationWarning as exc:
            cutoff = upper_limit * 1e-6
            partial, _ = integrate.quad(integrand, cutoff, split, limit=200)
            raise IntegrationFailureError(
                f"quadrature did not converge: {exc}",
                partial_value=DUDLEY_CONSTANT * partial,
            ) from exc
    return DUDLEY_CONSTANT * total


def volume_covering_bound(d: int, volume: float, epsilon: float) -> float:
    """V * (2/eps)^d, the volume bound on covering/packing of a d-dim set;
    +inf beyond the double range."""
    value = monomial(*_volume_factors(d, volume, epsilon))
    return math.inf if value is None else value


def log_volume_covering_bound(d: int, volume: float, epsilon: float) -> float:
    """log(V * (2/eps)^d), finite for every admissible input."""
    return log_monomial(*_volume_factors(d, volume, epsilon))


def _volume_factors(d: int, volume: float, epsilon: float) -> tuple:
    check_range("dimension", d, 1)
    check_range("volume", volume, 0, low_open=True)
    check_range("epsilon", epsilon, 0, low_open=True)
    return (volume, 1), (2.0 / epsilon, d, math.log(2.0) - math.log(epsilon))


@dataclass(frozen=True)
class PdimCoveringBound:
    value: float
    method: str  # "exact_sum" or "closed_form"


def pdim_uniform_covering_bound(
    d: int, n: int, B_range: float, epsilon: float
) -> PdimCoveringBound:
    """Uniform covering number bound for a class of pseudo-dimension d.

    Exact sum over i of C(n, i) (B/eps)^i in rational arithmetic when n and d
    are small; otherwise the (e n B / (eps d))^d closed form, which dominates
    the sum for n >= d.
    """
    check_range("pseudo-dimension", d, 1)
    check_range("sample size", n, 1)
    check_range("range bound", B_range, 0, low_open=True)
    check_range("epsilon", epsilon, 0, low_open=True)
    if d <= PDIM_EXACT_MAX_D and n <= PDIM_EXACT_MAX_N:
        ratio = Fraction(B_range) / Fraction(epsilon)
        total = Fraction(0)
        power = Fraction(1)
        for i in range(1, min(d, n) + 1):
            power *= ratio
            total += math.comb(n, i) * power
        return PdimCoveringBound(float(total), "exact_sum")
    log_value = d * (math.log(math.e * n * B_range) - math.log(epsilon * d))
    value = math.exp(log_value) if log_value <= MAX_LOG_LINEAR else math.inf
    return PdimCoveringBound(value, "closed_form")
