"""Named, seeded property suites runnable from the CLI.

Each suite re-checks a family of invariants with fixed seeds; ``run_suite``
reports its checks machine-readably, and the CLI maps a failing suite to a
nonzero exit.
"""

from __future__ import annotations

import numpy as np

from . import bounds, empirical, transforms
from .basin import InitScheme, amplification_check
from .equivalence import ball_points
from .errors import check_seed
from .nncore import (
    Architecture,
    EQUIV_ATOL,
    NetworkParams,
    RELU,
    SIGMOID,
    TANH,
    forward_batch,
    leaky_relu,
    params_identical,
    random_params,
)

SUITES = ("permutation", "sandwich", "amplification")

_ACTIVATION_POOL = (RELU, leaky_relu(0.1), TANH, SIGMOID)

# Random architectures, permutations per architecture and inputs per
# forward comparison in the permutation suite; draws per amplification check.
N_ARCHS, N_PERMS, N_INPUTS = 30, 3, 200
N_DRAWS = 200_000


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _random_arch(rng) -> Architecture:
    L = int(rng.integers(1, 4))
    widths = tuple(int(rng.integers(1, 9)) for _ in range(L))
    acts = tuple(_ACTIVATION_POOL[rng.integers(0, len(_ACTIVATION_POOL))] for _ in range(L))
    d0 = int(rng.integers(1, 5))
    return Architecture(d0, widths, acts)


def suite_permutation(seed: int = 0) -> list:
    """Function preservation, group structure, and box closure of the
    hidden-neuron permutation transform."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(N_ARCHS):
        arch = _random_arch(rng)
        params = random_params(arch, rng)
        X = ball_points(arch.input_dim, N_INPUTS, 1.0, seed=int(rng.integers(2**31)))
        base = forward_batch(arch, params, X)
        for _ in range(N_PERMS):
            spec = transforms.random_spec(arch, rng)
            permuted = transforms.apply_permutation(params, spec)
            worst = max(
                worst, float(np.abs(forward_batch(arch, permuted, X) - base).max())
            )
    checks = [
        _check(
            "forward_invariance",
            worst <= EQUIV_ATOL,
            f"max |f(x;theta) - f(x;permuted)| = {worst:.3e} (tol {EQUIV_ATOL:g})",
        )
    ]

    arch = Architecture(2, (4, 3), (TANH, RELU))
    params = random_params(arch, rng)
    pi1 = transforms.random_spec(arch, rng)
    pi2 = transforms.random_spec(arch, rng)
    lhs = transforms.apply_permutation(transforms.apply_permutation(params, pi1), pi2)
    rhs = transforms.apply_permutation(params, transforms.compose(pi2, pi1))
    checks.append(
        _check(
            "composition_law",
            params_identical(lhs, rhs),
            "sequential application equals composed permutation bit-exactly",
        )
    )
    checks.append(
        _check(
            "box_closure",
            transforms.apply_permutation(params, pi1).within_box(params.max_abs()),
            "permutation preserves the entry bound",
        )
    )
    return checks


def suite_sandwich() -> list:
    """Packing/covering sandwich and the volume bound on exact grid oracles."""
    checks = []
    cases = [(1, 9), (2, 7)]
    epsilons = (0.1875, 0.3125, 0.375, 0.625, 0.75, 1.25)
    for dim, per_axis in cases:
        space = empirical.grid_sample(dim, per_axis)
        for eps in epsilons:
            n_eps = empirical.exact_covering_number(space, eps)
            m_2eps = empirical.exact_packing_number(space, 2.0 * eps)
            m_half = empirical.exact_packing_number(space, eps / 2.0)
            ok = m_2eps <= n_eps <= m_half
            checks.append(
                _check(
                    f"sandwich_d{dim}_eps{eps:g}",
                    ok,
                    f"M(2e)={m_2eps} <= N(e)={n_eps} <= M(e/2)={m_half}",
                )
            )
            vol_bound = bounds.volume_covering_bound(dim, 2.0**dim, eps)
            checks.append(
                _check(
                    f"volume_d{dim}_eps{eps:g}",
                    m_half <= vol_bound,
                    f"M(e/2)={m_half} <= V(2/e)^d={vol_bound:.6g}",
                )
            )
    return checks


def suite_amplification(seed: int = 0) -> list:
    """Orbit-hit probability equals image count times single-image probability
    for layer-symmetric initialization (no optimizer involved)."""
    arch = Architecture(1, (2,), (RELU,))
    theta_star = NetworkParams(
        (
            (np.array([[0.5], [-0.5]]), np.array([0.25, -0.25])),
            (np.array([[0.5, -0.5]]), np.array([0.0])),
        )
    )
    scheme = InitScheme("uniform", seed=seed, low=-1.0, high=1.0)
    result = amplification_check(arch, scheme, theta_star, N_DRAWS)
    checks = [
        _check(
            "distinct_rows_ratio",
            result.within(3.0),
            f"ratio {result.ratio:.4f} vs predicted {result.predicted_ratio} "
            f"(3 SE = {3 * result.se_ratio:.4f}, p_single = {result.p_single:.5f})",
        )
    ]
    theta_dup = NetworkParams(
        (
            (np.array([[0.5], [0.5]]), np.array([0.25, 0.25])),
            (np.array([[0.5, 0.5]]), np.array([0.0])),
        )
    )
    dup = amplification_check(arch, scheme, theta_dup, N_DRAWS // 4, tolerance=0.5)
    checks.append(
        _check(
            "duplicated_rows_ratio",
            dup.ratio == 1.0 and dup.n_images == 1,
            f"singleton orbit: ratio {dup.ratio}, images {dup.n_images}",
        )
    )
    return checks


def run_suite(name: str, seed: int = 0) -> dict:
    check_seed(seed)
    if name == "permutation":
        checks = suite_permutation(seed=seed)
    elif name == "sandwich":
        checks = suite_sandwich()
    elif name == "amplification":
        checks = suite_amplification(seed=seed)
    else:
        raise KeyError(name)
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}
