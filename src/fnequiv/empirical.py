"""Brute-force covering and packing estimators on finite samples.

A point set with an L-infinity metric stands in for both parameter boxes and
(sampled) function classes.  Packing follows the ball-disjointness
convention: an eps-packing keeps pairwise distances strictly above 2*eps.
Some texts use "> eps" instead; the sandwich inequality holds either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.spatial.distance import cdist

from .canonical import _canonical_layers, group_rows
from .equivalence import ball_points
from .errors import BudgetExceededError, DomainError
from .nncore import Architecture, _flatten, _forward_checked, _unflatten, stack_block

METRIC_PARAMS = "linf_params"
METRIC_FUNCTION = "sampled_sup_function"

DEFAULT_GRID_BUDGET = 1_000_000
EXACT_ORACLE_MAX_POINTS = 200


@dataclass(frozen=True, eq=False)
class MetricSpaceSample:
    """A finite point set under the L-infinity metric on its rows."""

    points: np.ndarray
    metric: str = METRIC_PARAMS
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.metric not in (METRIC_PARAMS, METRIC_FUNCTION):
            raise DomainError(f"unknown metric tag {self.metric!r}")

    def __len__(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        return cdist(self.points, self.points, metric="chebyshev")


def grid_sample(dim: int, points_per_axis: int, half_width: float = 1.0) -> MetricSpaceSample:
    """Uniform grid on [-half_width, half_width]^dim."""
    if dim < 1 or points_per_axis < 2:
        raise DomainError("need dim >= 1 and at least two points per axis")
    axis = np.linspace(-half_width, half_width, points_per_axis)
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return MetricSpaceSample(
        pts,
        METRIC_PARAMS,
        {"kind": "grid", "dim": dim, "points_per_axis": points_per_axis, "half_width": half_width},
    )


def greedy_covering_estimate(space: MetricSpaceSample, epsilon: float) -> int:
    """Size of a farthest-point greedy eps-cover; upper-bounds the exact one.

    Deterministic given point order: starts at index 0 and breaks ties toward
    the lowest index.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    pts = space.points
    if len(pts) == 0:
        raise DomainError("empty point set")
    min_dist = np.abs(pts - pts[0]).max(axis=1)
    count = 1
    while True:
        uncovered = min_dist > epsilon
        if not uncovered.any():
            return count
        candidate = np.where(uncovered, min_dist, -np.inf)
        idx = int(np.argmax(candidate))  # argmax returns the first maximizer
        count += 1
        min_dist = np.minimum(min_dist, np.abs(pts - pts[idx]).max(axis=1))


def greedy_packing_estimate(space: MetricSpaceSample, epsilon: float) -> int:
    """Size of a maximal greedy eps-packing (pairwise distances > 2*eps).

    First-fit in index order; maximal (no remaining point can be added) but
    not necessarily maximum.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    pts = space.points
    if len(pts) == 0:
        raise DomainError("empty point set")
    kept = [0]
    threshold = 2.0 * epsilon
    for i in range(1, len(pts)):
        d = np.abs(pts[list(kept)] - pts[i]).max(axis=1)
        if (d > threshold).all():
            kept.append(i)
    return len(kept)


def _check_exact_size(n: int) -> None:
    if n > EXACT_ORACLE_MAX_POINTS:
        raise DomainError(
            f"exact oracles are limited to {EXACT_ORACLE_MAX_POINTS} points (got {n})"
        )


def exact_covering_number(space: MetricSpaceSample, epsilon: float) -> int:
    """Minimum number of eps-balls centered at sample points covering the
    sample, via integer programming (branch and bound)."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    n = len(space)
    if n == 0:
        raise DomainError("empty point set")
    _check_exact_size(n)
    covers = (space.distance_matrix() <= epsilon).astype(float)
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(covers, lb=np.ones(n), ub=np.full(n, np.inf)),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise DomainError(f"set-cover solve failed: {res.message}")
    return int(round(res.fun))


def exact_packing_number(space: MetricSpaceSample, epsilon: float) -> int:
    """Maximum number of sample points with pairwise distances > 2*eps,
    via integer programming on the conflict pairs."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    n = len(space)
    if n == 0:
        raise DomainError("empty point set")
    _check_exact_size(n)
    D = space.distance_matrix()
    ii, jj = np.where(np.triu(D <= 2.0 * epsilon, k=1))
    if ii.size == 0:
        return n
    A = np.zeros((ii.size, n))
    A[np.arange(ii.size), ii] = 1.0
    A[np.arange(ii.size), jj] = 1.0
    res = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(A, lb=np.zeros(ii.size), ub=np.ones(ii.size)),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise DomainError(f"packing solve failed: {res.message}")
    return int(round(-res.fun))


def function_class_sample(
    arch: Architecture,
    B: float,
    grid_resolution: int,
    B_x: float,
    n_eval_points: int,
    budget: int = DEFAULT_GRID_BUDGET,
    dedup_canonical: bool = False,
    eval_seed: int = 0,
) -> MetricSpaceSample:
    """Enumerate the parameter grid and sample each network as a function.

    Parameters run over the uniform ``grid_resolution``-point grid on
    [-B, B] per coordinate; each network is evaluated on a fixed
    deterministic point set in the B_x ball, and the resulting value vectors
    form the sample (their L-infinity metric is the max gap over the
    evaluation points, a finite surrogate for the sup norm).

    With ``dedup_canonical`` the grid is first collapsed to one
    representative per canonical form; the reduction ratio lands in the
    provenance.  Deduplication never changes the set of value vectors, since
    members of one canonical class implement the same function.
    """
    if B <= 0 or B_x <= 0:
        raise DomainError("B and B_x must be positive")
    if grid_resolution < 2:
        raise DomainError("grid resolution must be at least 2")
    if n_eval_points < 1:
        raise DomainError("need at least one evaluation point")
    S = arch.param_count
    total = grid_resolution**S
    if total > budget:
        raise BudgetExceededError(
            f"grid has {total} parameter vectors, budget is {budget}",
            required=total,
        )
    axis = np.linspace(-B, B, grid_resolution)
    digits = np.unravel_index(np.arange(total), (grid_resolution,) * S)
    thetas = np.stack([axis[d] for d in digits], axis=1)

    if dedup_canonical:
        canon, _ = _canonical_layers(_unflatten(arch, thetas))
        thetas = thetas[group_rows(_flatten(canon), 0.0)[1]]

    X = ball_points(arch.input_dim, n_eval_points, B_x, seed=eval_seed)
    # Float64 pre-activations and activations of every layer, per network.
    block = stack_block(16 * X.shape[0] * sum(arch.widths[1:]))
    values = np.concatenate(
        [
            _forward_checked(arch, _unflatten(arch, thetas[start : start + block]), X)
            .reshape(-1, X.shape[0] * arch.output_dim)
            for start in range(0, len(thetas), block)
        ]
    )
    return MetricSpaceSample(
        values,
        METRIC_FUNCTION,
        {
            "kind": "function_class_grid",
            "arch": arch.describe(),
            "B": B,
            "B_x": B_x,
            "grid_resolution": grid_resolution,
            "eval_seed": eval_seed,
            "n_eval_points": X.shape[0],
            "n_enumerated": int(total),
            "n_kept": int(thetas.shape[0]),
            "dedup_ratio": total / thetas.shape[0],
        },
    )
