"""Desk-scale optimization experiments around permutation-induced basins.

Symmetric random initialization, full-batch gradient descent on tiny nets,
canonical-form clustering of the minima found across seeds, and the
geometric amplification check: the probability of landing within delta/2 of
*some* permutation image of a reference point is the per-image probability
times the number of distinct images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .canonical import (
    canonicalize,
    distinct_permutation_images,
    group_rows,
    symmetry_profile,
    SymmetryProfile,
)
from .errors import DomainError
from .nncore import (
    Architecture,
    DIVERGENCE_THRESHOLD,
    NetworkParams,
    check_same_shapes,
    check_shapes,
    forward_batch,
    params_from_flat,
    params_max_diff,
    stack_block,
    _flatten,
    _mse_value_and_grad,
    _unflatten,
)

DEFAULT_CLUSTER_TOL = 1e-3


# ---------------------------------------------------------------------------
# Initialization schemes


@dataclass(frozen=True)
class InitScheme:
    """A layer-symmetric random initializer.

    Within each layer all weight entries are drawn i.i.d. from one
    distribution and all bias entries i.i.d. from one distribution, so the
    induced measure on parameters is invariant under hidden-neuron
    permutations.  Kinds: ``uniform(low, high)``, ``normal(mu, sigma)``,
    ``xavier`` (weights N(0, 2/(fan_in+fan_out)), zero biases), ``he``
    (weights N(0, 2/fan_in), zero biases).
    """

    kind: str
    seed: int | np.random.SeedSequence = 0
    low: float = -1.0
    high: float = 1.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "normal", "xavier", "he"):
            raise DomainError(f"unknown init scheme {self.kind!r}")
        if self.kind == "uniform" and not self.low <= self.high:
            raise DomainError("uniform init needs low <= high")
        if self.kind == "normal" and not self.sigma >= 0:
            raise DomainError("normal init needs sigma >= 0")


def _layer_draw(scheme: InitScheme, rng, n, fan_out, fan_in):
    if scheme.kind == "uniform":
        W = rng.uniform(scheme.low, scheme.high, size=(n, fan_out * fan_in))
        b = rng.uniform(scheme.low, scheme.high, size=(n, fan_out))
    elif scheme.kind == "normal":
        W = rng.normal(scheme.mu, scheme.sigma, size=(n, fan_out * fan_in))
        b = rng.normal(scheme.mu, scheme.sigma, size=(n, fan_out))
    elif scheme.kind == "xavier":
        std = math.sqrt(2.0 / (fan_in + fan_out))
        W = rng.normal(0.0, std, size=(n, fan_out * fan_in))
        b = np.zeros((n, fan_out))
    else:  # he
        std = math.sqrt(2.0 / fan_in)
        W = rng.normal(0.0, std, size=(n, fan_out * fan_in))
        b = np.zeros((n, fan_out))
    return W, b


def initialize_batch(arch: Architecture, scheme: InitScheme, n: int) -> np.ndarray:
    """Draw ``n`` flat parameter vectors (layer by layer, weights then biases)."""
    if n < 1:
        raise DomainError("need n >= 1 draws")
    return _draw(arch, scheme, np.random.default_rng(scheme.seed), n)


def _draw(arch: Architecture, scheme: InitScheme, rng, n: int) -> np.ndarray:
    """``n`` flat parameter vectors from ``rng``, drawn layer by layer."""
    blocks = []
    for (fan_out, fan_in), _ in arch.layer_shapes():
        blocks.extend(_layer_draw(scheme, rng, n, fan_out, fan_in))
    return np.concatenate(blocks, axis=1)


def initialize(arch: Architecture, scheme: InitScheme) -> NetworkParams:
    """Draw one parameter set; reproducible from the scheme's seed."""
    return params_from_flat(arch, initialize_batch(arch, scheme, 1)[0])


# ---------------------------------------------------------------------------
# Datasets


def xor_dataset() -> tuple[np.ndarray, np.ndarray]:
    """The 4-point parity task on {-1, +1}^2."""
    X = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    y = np.array([[-1.0], [1.0], [1.0], [-1.0]])
    return X, y


def teacher_dataset(
    arch: Architecture, teacher: NetworkParams, n_points: int, B_x: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Inputs in the B_x ball labelled by a fixed teacher network."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-B_x, B_x, size=(n_points, arch.input_dim))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    X = np.where(norms > B_x, X * (B_x / norms), X)
    return X, forward_batch(arch, teacher, X)


def dataset_to_csv(X, Y, path) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] != X.shape[0]:
        Y = Y.T
    header = [f"x{i}" for i in range(X.shape[1])] + [f"y{i}" for i in range(Y.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for xi, yi in zip(X, Y):
            fh.write(",".join(f"{v:.17g}" for v in (*xi, *yi)) + "\n")


def dataset_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n_x = sum(1 for c in header if c.startswith("x"))
        rows = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    data = np.array(rows)
    return data[:, :n_x], data[:, n_x:]


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float
    max_iters: int
    grad_threshold: float = 1e-6

    def __post_init__(self):
        if self.step_size <= 0:
            raise DomainError("step size must be positive")
        if self.max_iters < 0:
            raise DomainError("max_iters must be nonnegative")


@dataclass(frozen=True, eq=False)
class TrainRun:
    """Record of one full-batch gradient-descent run."""

    seed: int | None
    init_params: NetworkParams
    final_params: NetworkParams
    final_loss: float
    iterations: int
    converged: bool
    diverged: bool
    canonical_flat: np.ndarray
    cluster_id: int | None = None


def train(
    arch: Architecture,
    theta0: NetworkParams,
    dataset,
    config: OptimizerConfig,
    seed: int | None = None,
) -> TrainRun:
    """Full-batch gradient descent on the mean squared error.

    Deterministic given its inputs.  ``converged`` means the gradient
    L-infinity norm fell below the threshold; loss explosions and non-finite
    values mark the run as diverged instead of raising.
    """
    check_shapes(arch, theta0)
    return _train_lockstep(arch, [theta0], dataset, config, [seed])[0]


def _train_lockstep(arch, thetas, dataset, config, seeds) -> list[TrainRun]:
    """``train`` from every start in ``thetas``, the runs of a block stepping
    together on stacked parameters.

    At each iteration a run stops, and leaves the active set, when its loss
    is non-finite or above ``DIVERGENCE_THRESHOLD`` (diverged), else when its
    gradient L-infinity norm is at most the threshold (converged), else when
    the iteration count reaches ``max_iters``.  Runs never interact, so the
    block size changes no result.
    """
    X, Y = dataset
    n = np.asarray(X).shape[0]
    if n == 0:
        raise DomainError("dataset must be nonempty")
    # Float64 pre-activations and activations of every layer, per run.
    block = stack_block(16 * n * sum(arch.widths[1:]))
    runs = []
    for start in range(0, len(thetas), block):
        end = start + block
        runs.extend(_descend(arch, thetas[start:end], seeds[start:end], X, Y, config))
    return runs


def _descend(arch, thetas, seeds, X, Y, config) -> list[TrainRun]:
    """The gradient-descent loop of ``_train_lockstep`` over one block."""
    layers = _unflatten(arch, np.stack([t.flat() for t in thetas]))
    active = np.arange(len(thetas))
    runs = [None] * len(thetas)
    for it in range(config.max_iters + 1):
        loss, grads = _mse_value_and_grad(arch, layers, X, Y)
        grad_max = np.abs(_flatten(grads)).max(axis=1)
        diverged = ~np.isfinite(loss) | (loss > DIVERGENCE_THRESHOLD)
        converged = ~diverged & (grad_max <= config.grad_threshold)
        stop = diverged | converged | (it == config.max_iters)
        for j in np.flatnonzero(stop):
            i = active[j]
            params = NetworkParams(tuple((W[j], b[j]) for W, b in layers))
            runs[i] = TrainRun(
                seed=seeds[i],
                init_params=thetas[i],
                final_params=params,
                final_loss=float(loss[j]),
                iterations=it,
                converged=bool(converged[j]),
                diverged=bool(diverged[j]),
                canonical_flat=canonicalize(params).params.flat(),
            )
        if stop.all():
            return runs
        if stop.any():
            keep = ~stop
            active = active[keep]
            layers = [(W[keep], b[keep]) for W, b in layers]
            grads = [(gW[keep], gb[keep]) for gW, gb in grads]
        layers = [
            (W - config.step_size * gW, b - config.step_size * gb)
            for (W, b), (gW, gb) in zip(layers, grads)
        ]


# ---------------------------------------------------------------------------
# Orbit membership and clustering


def orbit_membership(theta: NetworkParams, theta_star: NetworkParams, tolerance: float) -> bool:
    """True when the canonical forms agree entrywise within tolerance.

    For tolerance below half the minimal row gap of ``theta_star``, this
    matches being within tolerance of some permutation image of it.
    """
    check_same_shapes(theta, theta_star)
    if tolerance < 0:
        raise DomainError("tolerance must be nonnegative")
    a = canonicalize(theta).params.flat()
    b = canonicalize(theta_star).params.flat()
    return bool(np.abs(a - b).max() <= tolerance)


@dataclass(frozen=True, eq=False)
class BasinSummary:
    """Aggregate of a multi-seed training experiment.

    ``cluster_sizes`` counts converged runs per canonical cluster (sorted
    descending).  The reference solution is the representative of the most
    frequent cluster; ``orbit_fraction`` counts runs whose final parameters
    canonicalize next to it, ``single_fraction`` counts runs whose raw final
    parameters sit next to it without re-permutation, and
    ``predicted_orbit_fraction`` is single_fraction times the orbit size.
    """

    n_runs: int
    n_converged: int
    cluster_sizes: tuple[int, ...]
    cluster_tolerance: float
    reference_profile: SymmetryProfile | None
    orbit_fraction: float
    single_fraction: float
    predicted_orbit_fraction: float
    no_converged_runs: bool
    runs: tuple[TrainRun, ...]

    def to_json_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "n_converged": self.n_converged,
            "cluster_sizes": list(self.cluster_sizes),
            "cluster_tolerance": self.cluster_tolerance,
            "reference_profile": (
                None if self.reference_profile is None else self.reference_profile.to_json_dict()
            ),
            "orbit_fraction": self.orbit_fraction,
            "single_fraction": self.single_fraction,
            "predicted_orbit_fraction": self.predicted_orbit_fraction,
            "no_converged_runs": self.no_converged_runs,
        }


def basin_experiment(
    arch: Architecture,
    scheme: InitScheme,
    dataset,
    n_runs: int,
    config: OptimizerConfig,
    cluster_tolerance: float | None = None,
    n_jobs: int = 1,
) -> BasinSummary:
    """Train from ``n_runs`` independent seeded initializations and cluster
    the converged solutions by canonical form.

    Per-run seeds are spawned from the scheme's seed, so the experiment is
    reproducible and runs are independent; all runs are trained in lockstep
    in one process.  ``n_jobs`` is accepted for compatibility and ignored
    (it must still be >= 1).  When no tolerance is given, a provisional pass
    picks the largest cluster and the final tolerance is a quarter of its
    representative's minimal row gap.
    """
    if n_runs < 1:
        raise DomainError("need at least one run")
    if n_jobs < 1:
        raise DomainError("need at least one worker")
    children = np.random.SeedSequence(scheme.seed).spawn(n_runs)
    thetas = [initialize(arch, replace(scheme, seed=child)) for child in children]
    runs = _train_lockstep(arch, thetas, dataset, config, range(n_runs))
    converged = [r for r in runs if r.converged]
    tol = cluster_tolerance if cluster_tolerance is not None else DEFAULT_CLUSTER_TOL
    if not converged:
        return BasinSummary(
            n_runs=n_runs,
            n_converged=0,
            cluster_sizes=(),
            cluster_tolerance=tol,
            reference_profile=None,
            orbit_fraction=0.0,
            single_fraction=0.0,
            predicted_orbit_fraction=0.0,
            no_converged_runs=True,
            runs=tuple(runs),
        )

    flats = np.stack([r.canonical_flat for r in converged])
    assignment, reps = group_rows(flats, tol)
    if cluster_tolerance is None:
        # Re-derive the tolerance from the dominant cluster's row gap.
        best = converged[reps[int(np.argmax(np.bincount(assignment)))]]
        profile = symmetry_profile(best.final_params, row_tolerance=tol)
        if math.isfinite(profile.delta_min) and profile.delta_min > 0:
            tol = profile.delta_min / 4.0
            assignment, reps = group_rows(flats, tol)

    sizes = np.bincount(assignment)
    ref = reps[int(np.argmax(sizes))]
    theta_star = converged[ref].final_params
    profile = symmetry_profile(theta_star, row_tolerance=tol)

    cluster_of = {id(r): cid for r, cid in zip(converged, assignment.tolist())}
    runs = tuple(
        replace(r, cluster_id=cluster_of.get(id(r))) if r.converged else r for r in runs
    )

    orbit_hits = int(np.count_nonzero(np.abs(flats - flats[ref]).max(axis=1) <= tol))
    single_hits = sum(1 for r in converged if params_max_diff(r.final_params, theta_star) <= tol)
    n_conv = len(converged)
    return BasinSummary(
        n_runs=n_runs,
        n_converged=n_conv,
        cluster_sizes=tuple(int(s) for s in sorted(sizes, reverse=True)),
        cluster_tolerance=tol,
        reference_profile=profile,
        orbit_fraction=orbit_hits / n_conv,
        single_fraction=single_hits / n_conv,
        predicted_orbit_fraction=(single_hits / n_conv) * profile.total_multiplicity,
        no_converged_runs=False,
        runs=tuple(runs),
    )


# ---------------------------------------------------------------------------
# Geometric amplification check (no optimizer in the loop)


@dataclass(frozen=True)
class AmplificationCheck:
    """Observed vs predicted orbit-hit amplification on raw initial draws."""

    n_draws: int
    tolerance: float
    n_images: int
    p_single: float
    p_orbit: float
    ratio: float
    predicted_ratio: int
    se_ratio: float

    def within(self, n_standard_errors: float = 3.0) -> bool:
        if self.predicted_ratio == 1:
            return self.ratio == 1.0
        return abs(self.ratio - self.predicted_ratio) <= n_standard_errors * self.se_ratio


def amplification_check(
    arch: Architecture,
    scheme: InitScheme,
    theta_star: NetworkParams,
    n_draws: int,
    tolerance: float | None = None,
) -> AmplificationCheck:
    """Estimate P(init within tol of theta_star) and P(init within tol of any
    distinct permutation image), and compare their ratio with the image count.

    The default tolerance is half the minimal row gap of ``theta_star``, the
    radius at which the image neighborhoods are disjoint; the standard error
    of the ratio comes from the multinomial delta method.  Draws are made
    one ``nncore.stack_block`` at a time, so memory does not grow with
    ``n_draws``; within one block they equal ``initialize_batch``'s.
    """
    check_shapes(arch, theta_star)
    if n_draws < 1:
        raise DomainError("need at least one draw")
    profile = symmetry_profile(theta_star)
    if tolerance is None:
        if not math.isfinite(profile.delta_min):
            raise DomainError(
                "theta_star has no distinct rows; pass an explicit tolerance"
            )
        tolerance = profile.delta_min / 2.0
    images = distinct_permutation_images(theta_star)
    image_mat = np.stack([img.flat() for img in images])
    star_flat = theta_star.flat()
    star_idx = int(np.argmin(np.abs(image_mat - star_flat).max(axis=1)))

    single_hits = 0
    orbit_hits = 0
    rng = np.random.default_rng(scheme.seed)
    # Float64 bytes per draw: its parameters and one image difference, and
    # its distances to every image, listed and then stacked.
    block = stack_block(16 * (arch.param_count + len(images)))
    for start in range(0, n_draws, block):
        chunk = _draw(arch, scheme, rng, min(block, n_draws - start))
        dists = np.stack([np.abs(chunk - img).max(axis=1) for img in image_mat])
        hit = dists <= tolerance
        single_hits += int(hit[star_idx].sum())
        orbit_hits += int(hit.any(axis=0).sum())

    p_single = single_hits / n_draws
    p_orbit = orbit_hits / n_draws
    k = len(images)
    ratio = p_orbit / p_single if single_hits > 0 else math.inf
    if k > 1 and single_hits > 0:
        se = math.sqrt(k * (k - 1) / (n_draws * p_single))
    else:
        se = 0.0
    return AmplificationCheck(
        n_draws=n_draws,
        tolerance=float(tolerance),
        n_images=k,
        p_single=p_single,
        p_orbit=p_orbit,
        ratio=ratio,
        predicted_ratio=profile.total_multiplicity,
        se_ratio=se,
    )
