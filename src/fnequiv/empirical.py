"""Brute-force covering and packing estimators on finite samples.

A point set with an L-infinity metric stands in for both parameter boxes and
(sampled) function classes.  Packing follows the ball-disjointness
convention: an eps-packing keeps pairwise distances strictly above 2*eps.
Some texts use "> eps" instead; the sandwich inequality holds either way.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .canonical import _canonical_layers, _first_fit, _slab, _widest_column_order, group_rows
from .equivalence import ball_points
from .errors import BudgetExceededError, DomainError, check_range
from .nncore import _DISTANCE_BLOCK_BYTES, Architecture, _chebyshev, _flatten, _forward_checked
from .nncore import _unflatten

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
    _sort_record: tuple | None = field(default=None, init=False, repr=False)
    _exact_record: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.metric not in (METRIC_PARAMS, METRIC_FUNCTION):
            raise DomainError(f"unknown metric tag {self.metric!r}")
        self._take(np.array(self.points, dtype=float))  # a private copy

    @classmethod
    def _owning(cls, points: np.ndarray, metric: str, provenance: dict) -> MetricSpaceSample:
        """A sample of the float array ``points`` itself, for a caller that
        holds no other reference to it: made read-only and checked like any
        sample's points, but not copied."""
        sample = cls(points[:0], metric, provenance)
        sample._take(points)
        return sample

    def _take(self, pts: np.ndarray) -> None:
        pts = np.atleast_2d(pts)
        pts.setflags(write=False)
        if not np.isfinite(pts).all():
            raise DomainError("points must be finite (no NaN or infinity)")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        return _chebyshev(self.points, self.points)

    def _sort(self) -> tuple | None:
        """``_widest_column_order`` of the points, made on first use and kept
        for every later first-fit or cover pass; None when there are no
        rows or no coordinates."""
        if self._sort_record is None and self.points.size:
            object.__setattr__(self, "_sort_record", _widest_column_order(self.points))
        return self._sort_record


def grid_sample(dim: int, points_per_axis: int, half_width: float = 1.0) -> MetricSpaceSample:
    """Uniform grid on [-half_width, half_width]^dim; one of more than
    ``DEFAULT_GRID_BUDGET`` points raises before anything is allocated, and
    so does a half-width whose axis length 2 * half_width exceeds a double."""
    check_range("dim", dim, 1)
    check_range("points per axis", points_per_axis, 2)
    check_range(
        "half_width", half_width, 0, sys.float_info.max / 2, low_open=True, high_open=False
    )
    _grid_count("points", points_per_axis, dim, DEFAULT_GRID_BUDGET)
    return MetricSpaceSample._owning(
        _grid_rows(np.linspace(-half_width, half_width, points_per_axis), dim),
        METRIC_PARAMS,
        {"kind": "grid", "dim": dim, "points_per_axis": points_per_axis, "half_width": half_width},
    )


def _grid_rows(axis: np.ndarray, dim: int) -> np.ndarray:
    """Every point of the grid ``axis`` ** dim, one row each, the last
    coordinate fastest (C order), filled one column at a time: as a
    (len(axis),) * dim array of rows, column j varies along axis j."""
    rows = np.empty((len(axis) ** dim, dim))
    grid = rows.reshape((len(axis),) * dim + (dim,))
    for j in range(dim):
        grid[..., j] = axis.reshape((-1,) + (1,) * (dim - 1 - j))
    return rows


def _grid_count(what: str, per_axis: int, dim: int, budget: int) -> int:
    """``per_axis ** dim``, the size of a grid of ``what``, or
    ``BudgetExceededError`` when that exceeds ``budget``.  As per_axis >= 2,
    every dim >= ``budget.bit_length()`` exceeds it; such a grid is refused
    before the power, which can take seconds to form, with ``required``
    None."""
    message = f"grid has {per_axis}**{dim} {what}, budget is {budget}"
    if dim >= budget.bit_length():
        raise BudgetExceededError(message)
    total = per_axis**dim
    if total > budget:
        raise BudgetExceededError(message, required=total)
    return total


def _check_oracle_args(space: MetricSpaceSample, epsilon: float) -> None:
    check_range("epsilon", epsilon, 0, low_open=True, high_open=False)
    if len(space) == 0:
        raise DomainError("empty point set")


def greedy_covering_estimate(space: MetricSpaceSample, epsilon: float) -> int:
    """Size of a farthest-point greedy eps-cover; upper-bounds the exact one.

    Deterministic given point order: starts at index 0 and breaks ties toward
    the lowest index.  Each new center costs one distance pass over the
    points whose coordinate on one sorted column lies within about R of its
    own, R being its distance to the centers before it (see
    ``_greedy_cover_centers``).

    The center order does not depend on eps: a pass at eps0 picks center
    k >= 1 at R_k > eps0, the largest distance of a point to the centers
    before it.  A pass at eps >= eps0 thus picks the same centers, ties
    alike, and stops at the first R_k <= eps: its size is
    1 + #{k >= 1 : R_k > eps}.  The sample records eps0 and the R_k of its
    last pass and answers any eps >= eps0 from them; a smaller eps runs a
    new pass, which replaces the record.
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

    ``md`` holds each point's distance to the centers so far.  The next
    center is the point with the largest ``md``, R, the lowest row index on
    a tie; the pass stops once R <= eps.  Covered points stay in ``md`` but
    cannot be the largest while R > eps.  Every ``md`` is at most R, so the
    new center can only lower ``md`` inside its ``_slab`` of radius R on the
    widest sorted column.  Of the slab, only the points whose largest gap
    to the center on the pivot columns (``_widest_column_order``) is below
    their ``md`` go through the kernel.  That gap is the max of some of the
    rounded |a - b| whose max is the distance, from the same doubles, so it
    never exceeds the computed distance: a point it skips would keep its
    ``md`` bit for bit.  Unlike the slab's ends, it needs no margin.
    """
    pts = space.points
    if not pts.shape[1]:  # no coordinates: every point is row 0
        return np.zeros(1, dtype=np.intp), np.empty(0)
    order, rank, pivots = space._sort()
    key = pivots[0]
    md = _chebyshev(pts[:1], pts)[0]
    centers, radii = [0], []
    with np.errstate(over="ignore"):  # a gap beyond a double is +inf
        while True:
            c = int(np.argmax(md))
            R = md[c]
            if R <= epsilon:
                return np.array(centers, dtype=np.intp), np.array(radii, dtype=float)
            j = rank[c]
            lo, hi = _slab(key, key[j], R)
            gaps = pivots[:, lo:hi] - pivots[:, j, None]
            np.abs(gaps, out=gaps)
            near = order[lo:hi]
            near = near[gaps.max(axis=0) < md[near]]
            md[near] = np.minimum(md[near], _chebyshev(pts[c : c + 1], pts[near])[0])
            centers.append(c)
            radii.append(R)


def greedy_packing_estimate(space: MetricSpaceSample, epsilon: float) -> int:
    """Size of a maximal greedy eps-packing (pairwise distances > 2*eps).

    First-fit in index order; maximal (no remaining point can be added) but
    not necessarily maximum.  Each kept point costs one distance pass over
    the points still live in its slab on one sorted column (see
    ``canonical._first_fit``).
    """
    _check_oracle_args(space, epsilon)
    return len(_first_fit(space.points, 2.0 * epsilon, _chebyshev, space._sort())[0])


def exact_covering_number(space: MetricSpaceSample, epsilon: float) -> int:
    """Minimum number of eps-balls centered at sample points covering the
    sample.

    Answered from a certificate when ``_certified_count`` finds one: a
    first-fit 2*eps-separated set as large as a greedy set cover, with no
    ball holding two of its points.  Otherwise integer programming (branch
    and bound) solves the set cover.  Either way the count is the solver's
    optimum on the same distance matrix.
    """
    return _exact_count(space, epsilon, _cover_milp)


def exact_packing_number(space: MetricSpaceSample, epsilon: float) -> int:
    """Maximum number of sample points with pairwise distances > 2*eps.

    Answered from a certificate when ``_certified_count`` finds one: a
    first-fit packing as large as a greedy set cover whose every ball is a
    clique of the conflict graph (pairs within 2*eps), so no packing has
    two points in one ball.  Otherwise integer programming solves it with
    one ``sum x <= 1`` row per clique of an edge clique cover of the
    conflict graph.  Each pair lies in a clique row, so a 0/1 vector meets
    the rows exactly when it takes at most one point of every pair: the
    optimum is that of one row per pair.
    """
    return _exact_count(space, epsilon, _packing_milp)


def _exact_count(space: MetricSpaceSample, epsilon: float, solve) -> int:
    """An exact oracle after its argument and size checks: the certified
    count, or ``solve(D, epsilon)`` on the distance matrix D when the bracket
    stays open.  The sample keeps D, made on first use, and the last eps's
    bracket result, so a later exact oracle builds no D and the other
    oracle at the same eps runs no bracket."""
    _check_oracle_args(space, epsilon)
    n = len(space)
    check_range("exact oracle point count", n, 1, EXACT_ORACLE_MAX_POINTS, high_open=False)
    D, last, count = space._exact_record or (None, None, None)
    if D is None:
        D = space.distance_matrix()
        D.setflags(write=False)
    if last != epsilon:
        count = _certified_count(space, D, epsilon)
        object.__setattr__(space, "_exact_record", (D, epsilon, count))
    return solve(D, epsilon) if count is None else count


def _certified_count(space: MetricSpaceSample, D: np.ndarray, epsilon: float) -> int | None:
    """The exact eps-covering and eps-packing number of ``space``, whose
    distance matrix is ``D``, when a cheap bracket closes; None otherwise.

    The lower end is the first-fit packing P (``_first_fit`` at 2*eps, on
    the kernel that computed ``D``, so no pair of P is within 2*eps in
    ``D``); the upper end is Chvatal's greedy set cover C over the columns
    of ``covers`` = D <= eps.  When |P| = |C|, both numbers equal it if
    - no column of ``covers[P]`` holds two trues: a cover needs a ball per
      point of P, so N >= |P|; and
    - the members of each ball of C are pairwise within 2*eps: each ball
      then holds at most one point of a packing, so M <= |C|.
    Both are checked on ``D`` itself.  They follow from the triangle
    inequality, which computed distances can miss by an ulp, though not in
    this form: with one rounding per coordinate, two distances <= eps from
    one point put their ends within the exact 2*eps.  So the checks guard
    the certificate against another distance kernel.
    """
    covers = D <= epsilon
    kept = _first_fit(space.points, 2.0 * epsilon, _chebyshev, space._sort())[0]
    centers = _greedy_set_cover(covers)
    if len(kept) != len(centers) or covers[kept].sum(axis=0).max() > 1:
        return None
    conflict = D <= 2.0 * epsilon
    if all(conflict[np.ix_(ball, ball)].all() for ball in covers.T[centers]):
        return len(kept)
    return None


def _greedy_set_cover(covers: np.ndarray) -> list:
    """Columns of Chvatal's greedy cover of the rows of the boolean matrix
    ``covers``, whose diagonal must be true: each step takes the column
    covering the most uncovered rows, the lowest index on a tie."""
    uncovered = np.ones(len(covers), dtype=bool)
    gain = covers.sum(axis=0)
    centers = []
    while uncovered.any():
        c = int(np.argmax(gain))
        centers.append(c)
        new = covers[:, c] & uncovered
        uncovered &= ~new
        gain -= covers[new].sum(axis=0)
    return centers


def _cover_milp(D: np.ndarray, epsilon: float) -> int:
    """The eps-covering number of the points with distance matrix ``D``,
    from a set-cover integer program."""
    return _milp_count(D <= epsilon, 1.0, np.inf, maximize=False)


def _packing_milp(D: np.ndarray, epsilon: float) -> int:
    """The eps-packing number of the points with distance matrix ``D``, from
    an integer program with one row per clique of ``_edge_clique_cover``."""
    conflict = D <= 2.0 * epsilon
    np.fill_diagonal(conflict, False)
    return _milp_count(_edge_clique_cover(conflict), 0.0, 1.0, maximize=True)


def _milp_count(rows: np.ndarray, lb: float, ub: float, maximize: bool) -> int:
    """The least (or, with ``maximize``, the greatest) sum of a 0/1 vector x
    with lb <= rows @ x <= ub in every row of the boolean matrix ``rows``."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    n = rows.shape[1]
    sign = -1.0 if maximize else 1.0
    # Sparse: a packing graph with few triangles needs about one row per pair.
    A = csr_array(rows, dtype=float)
    res = milp(
        c=np.full(n, sign),
        constraints=LinearConstraint(A, lb=lb, ub=ub),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise DomainError(f"{'packing' if maximize else 'set-cover'} solve failed: {res.message}")
    return int(round(sign * res.fun))


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
    [-B, B] per coordinate (B at most half the largest double, so the axis
    length 2 B is one); each network is evaluated on a fixed
    deterministic point set in the B_x ball, and the resulting value vectors
    form the sample (their L-infinity metric is the max gap over the
    evaluation points, a finite surrogate for the sup norm).

    With ``dedup_canonical`` the grid is first collapsed to one
    representative per canonical form; the reduction ratio lands in the
    provenance.  Deduplication never changes the set of value vectors, since
    members of one canonical class implement the same function.

    Memory, for a grid of ``total`` vectors of S parameters, ``kept`` of
    them evaluated at m = evaluation points x outputs values each: the grid
    takes G = 8 total S bytes, and deduplication holds at most about 3 G more
    (the canonical rows, their flat copy and ``group_rows``' one sorted
    copy).  Evaluation holds the K = 8 kept S bytes of kept rows and writes
    the V = 8 kept m bytes of values in blocks of networks whose activations
    fill at most ``nncore._DISTANCE_BLOCK_BYTES``.  The sample takes the
    values array as its own, without a copy, and checks it (a byte per
    value), so the peak is at most about max(4 G, K + V, 1.125 V) plus one
    block.
    """
    check_range("B", B, 0, sys.float_info.max / 2, low_open=True, high_open=False)
    check_range("B_x", B_x, 0, low_open=True)
    check_range("grid resolution", grid_resolution, 2)
    check_range("evaluation point count", n_eval_points, 1)
    S = arch.param_count
    total = _grid_count("parameter vectors", grid_resolution, S, budget)
    thetas = _grid_rows(np.linspace(-B, B, grid_resolution), S)

    if dedup_canonical:
        canon = _flatten(_canonical_layers(_unflatten(arch, thetas))[0])
        thetas = thetas[group_rows(canon, 0.0)[1]]
        del canon

    X = ball_points(arch.input_dim, n_eval_points, B_x, seed=eval_seed)
    values = np.empty((len(thetas), X.shape[0] * arch.output_dim))
    # 16 bytes per unit and input cover the two layers' activations (and
    # the finiteness mask) the checked forward holds per network.
    block = max(1, _DISTANCE_BLOCK_BYTES // (16 * X.shape[0] * sum(arch.widths[1:])))
    for start in range(0, len(values), block):
        out = _forward_checked(arch, _unflatten(arch, thetas[start : start + block]), X)
        values[start : start + block] = out.reshape(len(out), -1)
    del thetas
    return MetricSpaceSample._owning(
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
            "n_kept": len(values),
            "dedup_ratio": total / len(values),
        },
    )
