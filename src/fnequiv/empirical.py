"""Brute-force covering and packing estimators on finite samples.

A point set with an L-infinity metric stands in for both parameter boxes and
(sampled) function classes.  Packing follows the ball-disjointness
convention: an eps-packing keeps pairwise distances strictly above 2*eps.
Some texts use "> eps" instead; the sandwich inequality holds either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import _canonical_layers, group_rows
from .equivalence import ball_points
from .errors import BudgetExceededError, DomainError, check_range
from .nncore import Architecture, _chebyshev, _flatten, _forward_checked, _unflatten, forward_block

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
    _cover_record: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.points, dtype=float))  # a private copy
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.metric not in (METRIC_PARAMS, METRIC_FUNCTION):
            raise DomainError(f"unknown metric tag {self.metric!r}")
        if not np.isfinite(pts).all():
            raise DomainError("points must be finite (no NaN or infinity)")

    def __len__(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        return _chebyshev(self.points, self.points)


def grid_sample(dim: int, points_per_axis: int, half_width: float = 1.0) -> MetricSpaceSample:
    """Uniform grid on [-half_width, half_width]^dim."""
    check_range("dim", dim, 1)
    check_range("points per axis", points_per_axis, 2)
    check_range("half_width", half_width, 0, low_open=True)
    axis = np.linspace(-half_width, half_width, points_per_axis)
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return MetricSpaceSample(
        pts,
        METRIC_PARAMS,
        {"kind": "grid", "dim": dim, "points_per_axis": points_per_axis, "half_width": half_width},
    )


def _check_oracle_args(space: MetricSpaceSample, epsilon: float) -> None:
    check_range("epsilon", epsilon, 0, low_open=True, high_open=False)
    if len(space) == 0:
        raise DomainError("empty point set")


# Relative slack on the greedy cover's pruning test; see _greedy_cover_centers.
PRUNE_MARGIN = 1e-9


def greedy_covering_estimate(space: MetricSpaceSample, epsilon: float) -> int:
    """Size of a farthest-point greedy eps-cover; upper-bounds the exact one.

    Deterministic given point order: starts at index 0 and breaks ties toward
    the lowest index.  Each new center costs one distance pass over the
    points of the centers within 2R of it, R being its own distance to the
    centers before it (see ``_greedy_cover_centers``).

    The center order does not depend on eps: a pass at eps0 picks center
    k >= 1 at R_k > eps0, the largest distance of a live point to the
    centers before it, and every dropped point lies within eps0, so R_k is
    the largest distance over all points.  A pass at eps >= eps0 thus picks
    the same centers, ties alike, and stops at the first R_k <= eps: its
    size is 1 + #{k >= 1 : R_k > eps}.  The sample records eps0 and the R_k
    of its last pass and answers any eps >= eps0 from them; a smaller eps
    runs a new pass, which replaces the record.
    """
    _check_oracle_args(space, epsilon)
    record = space._cover_record
    if record is None or epsilon < record[0]:
        record = (epsilon, _greedy_cover_centers(space, epsilon)[1])
        object.__setattr__(space, "_cover_record", record)
    return 1 + int(np.count_nonzero(record[1] > epsilon))


def _greedy_cover_centers(space: MetricSpaceSample, epsilon: float) -> tuple:
    """Row indices of the farthest-point greedy eps-cover's centers, in the
    order they are chosen, and the R at which each center after the first
    was picked.

    Every uncovered point (distance to its nearest center above eps) has an
    owner, the center nearest to it; each center keeps the largest distance
    among its points (``gmax``, -inf when it has none) and the lowest index
    attaining it (``garg``).  The next center ``c`` is the lowest ``garg``
    among the centers with the largest ``gmax``, R.  R bounds every point's
    distance, so for a point p of center a with d(a, c) >= 2R the triangle
    inequality gives d(p, c) >= d(a, c) - d(p, a) >= R >= d(p, a): c cannot
    take p.  One pass from the live centers to c finds the centers with
    d(a, c) < 2R, one pass over their points updates those points, and only
    those centers are regrouped.

    Each computed distance is the true one correctly rounded (the kernel
    takes a max of once-rounded |x_i - y_i|, and rounding is monotone), so
    the computed triangle inequality can fail by an ulp: in the tests, a
    computed d(a, c) of exactly 2R hides a point that c does take.  A
    computed d(a, c) above 2R cannot, since the true d(a, c) then exceeds 2R
    by half an ulp of 2R and the true d(p, a) exceeds R by at most half an
    ulp of R, which leaves the true d(p, c) at least R.  So it is enough to
    scan every center at a computed distance up to 2R; the test
    d(a, c) < 2R (1 + PRUNE_MARGIN) does that with room for a kernel that
    rounds a few ulps worse, and only adds the rare center that lies beyond
    2R but within 2R (1 + 1e-9).
    """
    pts = space.points
    n = len(pts)
    covered = n  # owner of covered points: a spare slot that is never live
    min_dist = _chebyshev(pts[:1], pts)[0]
    owner = np.where(min_dist > epsilon, 0, covered)
    gmax = np.full(n + 1, -np.inf)
    garg = np.zeros(n + 1, dtype=np.intp)
    scan = np.zeros(n + 1, dtype=bool)
    centers = np.zeros(n, dtype=np.intp)
    radii = np.empty(n)
    _regroup(gmax, garg, np.arange(n), owner, min_dist)
    k = 1
    while True:
        live = np.flatnonzero(gmax[:k] > -np.inf)
        if len(live) == 0:
            return centers[:k], radii[1:k].copy()
        top = gmax[live]
        R = top.max()
        c = int(garg[live[top == R]].min())
        centers[k], radii[k] = c, R
        center = pts[c : c + 1]
        reach = _chebyshev(center, pts[centers[live]])[0]
        near = live[reach < 2.0 * R * (1.0 + PRUNE_MARGIN)]
        scan[near] = True
        sel = np.flatnonzero(scan[owner])
        scan[near] = False
        dist = _chebyshev(center, pts[sel])[0]
        sel_dist, sel_owner = min_dist[sel], owner[sel]
        closer = dist < sel_dist
        sel_dist[closer] = dist[closer]
        sel_owner[closer] = k
        sel_owner[sel_dist <= epsilon] = covered
        min_dist[sel], owner[sel] = sel_dist, sel_owner
        gmax[near] = -np.inf
        _regroup(gmax, garg, sel, sel_owner, sel_dist)
        k += 1


def _regroup(gmax, garg, idx, owner, dist) -> None:
    """Fold the points ``idx`` (ascending) into their owners' largest
    distance and its lowest index; the spare last slot collects the covered
    points and is reset."""
    np.maximum.at(gmax, owner, dist)
    top = dist == gmax[owner]
    garg[owner[top]] = len(garg)
    np.minimum.at(garg, owner[top], idx[top])
    gmax[-1] = -np.inf


def greedy_packing_estimate(space: MetricSpaceSample, epsilon: float) -> int:
    """Size of a maximal greedy eps-packing (pairwise distances > 2*eps).

    First-fit in index order; maximal (no remaining point can be added) but
    not necessarily maximum.  Keeps the first live point and drops every
    later one within 2*eps of it, so there is one distance pass per kept
    point over the points still live.
    """
    _check_oracle_args(space, epsilon)
    pts = space.points
    threshold = 2.0 * epsilon
    count = 0
    while len(pts):
        count += 1
        rest = pts[1:]
        pts = rest[_chebyshev(pts[:1], rest)[0] > threshold]
    return count


def exact_covering_number(space: MetricSpaceSample, epsilon: float) -> int:
    """Minimum number of eps-balls centered at sample points covering the
    sample, via integer programming (branch and bound)."""
    _check_oracle_args(space, epsilon)
    n = len(space)
    check_range("exact oracle point count", n, 1, EXACT_ORACLE_MAX_POINTS, high_open=False)
    from scipy.optimize import Bounds, LinearConstraint, milp

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
    """Maximum number of sample points with pairwise distances > 2*eps, via
    integer programming with one ``sum x <= 1`` row per clique of an edge
    clique cover of the conflict graph (pairs within 2*eps).  Each pair lies
    in a clique row, so a 0/1 vector meets the rows exactly when it takes at
    most one point of every pair: the optimum is that of one row per pair."""
    _check_oracle_args(space, epsilon)
    n = len(space)
    check_range("exact oracle point count", n, 1, EXACT_ORACLE_MAX_POINTS, high_open=False)
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    conflict = space.distance_matrix() <= 2.0 * epsilon
    np.fill_diagonal(conflict, False)
    cliques = _edge_clique_cover(conflict)
    # Sparse: a graph with few triangles needs about one row per pair.
    A = csr_array(cliques, dtype=float)
    res = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(A, lb=np.zeros(len(cliques)), ub=np.ones(len(cliques))),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise DomainError(f"packing solve failed: {res.message}")
    return int(round(-res.fun))


def _edge_clique_cover(conflict: np.ndarray) -> np.ndarray:
    """Boolean membership rows of cliques covering every edge of the graph
    with symmetric adjacency ``conflict`` (no self-loops): for each vertex i
    and each higher neighbour j whose pair no row holds yet, the clique
    {i, j} grows by its members' lowest common neighbour until none is left.
    Vertex sets are bitsets in Python ints."""
    n, nbytes = len(conflict), -(-len(conflict) // 8)
    packed = np.packbits(conflict, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") for row in packed]
    todo = [a >> (i + 1) << (i + 1) for i, a in enumerate(adj)]  # pairs (i, j > i) left
    cliques = []
    for i in range(n):
        while todo[i]:
            j = (todo[i] & -todo[i]).bit_length() - 1
            members, cand, idx = 1 << i | 1 << j, adj[i] & adj[j], [i, j]
            while cand:
                k = (cand & -cand).bit_length() - 1
                members, cand = members | 1 << k, cand & adj[k]
                idx.append(k)
            for k in idx:
                todo[k] &= ~members
            cliques.append(members.to_bytes(nbytes, "little"))
    bits = np.frombuffer(b"".join(cliques), np.uint8).reshape(len(cliques), nbytes)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(bool)


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
    check_range("B", B, 0, low_open=True)
    check_range("B_x", B_x, 0, low_open=True)
    check_range("grid resolution", grid_resolution, 2)
    check_range("evaluation point count", n_eval_points, 1)
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
    block = forward_block(arch, X.shape[0])
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
