"""Desk-scale optimization experiments around permutation-induced basins.

Symmetric random initialization, full-batch gradient descent on tiny nets,
canonical-form clustering of the minima found across seeds, and the
geometric amplification check: the probability of landing within delta/2 of
*some* permutation image of a reference point is the per-image probability
times the number of distinct images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import (
    distinct_permutation_images,
    group_rows,
    symmetry_profile,
    SymmetryProfile,
    _canonical_layers,
    _canonical_pair,
)
from .errors import BudgetExceededError, DomainError, check_range, check_seed
from .nncore import (
    Architecture,
    DIVERGENCE_THRESHOLD,
    NetworkParams,
    check_same_shapes,
    check_shapes,
    forward_batch,
    params_from_flat,
    stack_block,
    _DISTANCE_BLOCK_BYTES,
    _flatten,
    _mse_value_and_grad,
    _row_params,
    _targets,
    _unflatten,
)

DEFAULT_CLUSTER_TOL = 1e-3
# Most bytes a basin experiment's three (n_runs, S) float64 run stacks
# (starts, final parameters and canonical forms) may take together.
_RUN_STACK_BYTES = 2**28
# The number of set bits in each byte value.
_BIT_COUNTS = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


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
    (weights N(0, 2/fan_in), zero biases).  The seed is a nonnegative
    integer or a ``SeedSequence``.
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
        if not isinstance(self.seed, np.random.SeedSequence):
            check_seed(self.seed)
        for name in ("low", "high", "mu", "sigma"):
            check_range(f"init {name}", getattr(self, name), -math.inf, low_open=True)
        if self.kind == "uniform" and not self.low <= self.high:
            raise DomainError("uniform init needs low <= high")
        if self.kind == "normal":
            check_range("normal init sigma", self.sigma, 0)


def _layer_draw(arch: Architecture, scheme: InitScheme, rng, n: int, rows: int | None = None):
    """``n`` flat parameter draws from ``rng``, layer by layer: each layer's
    (n, fan_out * fan_in) weight draw, then its (n, fan_out) bias draw, each
    made ``rows`` rows at a time (all ``n`` at once by default).

    A generator of (first column, first row, chunk) triples, so each chunk
    is made only when asked for.  Consecutive draws continue the stream, so
    a part's row chunks, stacked, are its one-call draw bit for bit; and
    one uniform or normal draw (``n`` = 1), whose parts all come from one
    distribution, is a single (1, S) chunk from one call.
    """
    rows = rows or n
    if scheme.kind == "uniform":
        iid = lambda size: rng.uniform(scheme.low, scheme.high, size)
    elif scheme.kind == "normal":
        iid = lambda size: rng.normal(scheme.mu, scheme.sigma, size)
    else:
        iid = None
    if iid and n == 1:
        yield 0, 0, iid((1, arch.param_count))
        return
    col = 0
    for (fan_out, fan_in), _ in arch.layer_shapes():
        if iid:
            weights = biases = iid
        else:  # xavier or he: they differ only in the fan that sets the std
            std = math.sqrt(2.0 / (fan_in + fan_out if scheme.kind == "xavier" else fan_in))
            weights, biases = (lambda size: rng.normal(0.0, std, size)), np.zeros
        for width, draw in ((fan_out * fan_in, weights), (fan_out, biases)):
            for first in range(0, n, rows):
                yield col, first, draw((min(rows, n - first), width))
            col += width


def initialize_batch(arch: Architecture, scheme: InitScheme, n: int) -> np.ndarray:
    """Draw ``n`` flat parameter vectors (layer by layer, weights then biases)."""
    check_range("draw count n", n, 1)
    return _draw(arch, scheme, np.random.default_rng(scheme.seed), n)


def _draw(arch: Architecture, scheme: InitScheme, rng, n: int, out=None) -> np.ndarray:
    """``n`` flat parameter vectors from ``rng``, drawn as ``_layer_draw``
    makes them (one call for a single uniform or normal draw, else layer by
    layer) into ``out``, an (n, S) array (a new one by default), which is
    returned.

    Each weight or bias draw is copied into its columns and dropped before
    the next is made, so at most one of them is alive at a time.
    """
    if out is None:
        out = np.empty((n, arch.param_count))
    for col, _, part in _layer_draw(arch, scheme, rng, n):
        out[:, col : col + part.shape[1]] = part
        del part
    return out


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
    check_range("n_points", n_points, 1)
    check_range("B_x", B_x, 0, low_open=True)
    rng = np.random.default_rng(check_seed(seed))
    X = rng.uniform(-B_x, B_x, size=(n_points, arch.input_dim))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    X = np.where(norms > B_x, X * (B_x / norms), X)
    return X, forward_batch(arch, teacher, X)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float
    max_iters: int
    grad_threshold: float = 1e-6

    def __post_init__(self):
        check_range("step size", self.step_size, 0, low_open=True)
        check_range("max_iters", self.max_iters, 0)
        check_range("grad_threshold", self.grad_threshold, 0, high_open=False)


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
    starts = theta0.flat()[None]
    starts.setflags(write=False)
    trained = _train_lockstep(arch, starts, dataset, config)
    return _train_runs(arch, [seed], starts, trained, [None])[0]


def _train_lockstep(arch, starts, dataset, config):
    """``train`` from every row of the (R, S) stack ``starts``, the runs of a
    block stepping together as one flat parameter stack.

    At each iteration a run stops, and leaves the active set, when its loss
    is non-finite or above ``DIVERGENCE_THRESHOLD`` (diverged), else when its
    gradient L-infinity norm is at most the threshold (converged), else when
    the iteration count reaches ``max_iters``.  Runs never interact, so the
    block size changes no result.  Returns per-run arrays: final parameters
    and their canonical forms (a block's are sorted together once its loop
    ends), both read-only, final losses, iteration counts, and
    converged/diverged flags.

    A block's active runs step as one flat (R, S) parameter stack P and one
    gradient stack G, which each step writes in place.  Their (W, b) views
    are made once per block and again only at an iteration where some run
    stops; a step is one ``_mse_value_and_grad`` into G's views, the stop
    test, and P -= step * G.
    """
    X, Y = dataset
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise DomainError("dataset must be nonempty")
    Y = _targets(X, Y)
    n_runs = len(starts)
    final, canon = np.empty_like(starts), np.empty_like(starts)
    loss_at, iters_at = np.empty(n_runs), np.empty(n_runs, dtype=np.int64)
    converged_at, diverged_at = np.empty(n_runs, dtype=bool), np.empty(n_runs, dtype=bool)
    # 16 bytes per unit and input: the trace's activations plus same-sized gradients.
    block = stack_block(16 * X.shape[0] * sum(arch.widths[1:]))
    for first in range(0, n_runs, block):
        active = np.arange(first, min(first + block, n_runs))
        P = starts[active]
        G = np.empty_like(P)
        layers, grads = _unflatten(arch, P), _unflatten(arch, G)
        for it in range(config.max_iters + 1):
            loss = _mse_value_and_grad(arch, layers, X, Y, grads)
            # NaN and +inf fail <=, and a sum of squares is never -inf; a
            # NaN partial fails the gradient test as it fails a max norm's.
            diverged = ~(loss <= DIVERGENCE_THRESHOLD)
            stop = diverged | (np.abs(G) <= config.grad_threshold).all(axis=1)
            last = it == config.max_iters
            if last or stop.any():
                converged = stop & ~diverged
                stop |= last
                done = active[stop]
                final[done] = P[stop]
                loss_at[done], iters_at[done] = loss[stop], it
                converged_at[done], diverged_at[done] = converged[stop], diverged[stop]
                if stop.all():
                    break
                keep = ~stop
                active, P, G = active[keep], P[keep], G[keep]
                layers, grads = _unflatten(arch, P), _unflatten(arch, G)
            G *= config.step_size
            P -= G
        rows = slice(first, first + block)
        canon[rows] = _flatten(_canonical_layers(_unflatten(arch, final[rows]))[0])
    final.setflags(write=False)
    canon.setflags(write=False)
    return final, canon, loss_at, iters_at, converged_at, diverged_at


def _train_runs(arch, seeds, starts, trained, cluster_ids) -> tuple[TrainRun, ...]:
    """One ``TrainRun`` per row of the read-only ``starts``, from
    ``_train_lockstep``'s arrays; its parameters are row views of the start
    and final stacks."""
    final, canon, loss, iters, converged, diverged = trained
    columns = (
        seeds,
        _row_params(_unflatten(arch, starts)),
        _row_params(_unflatten(arch, final)),
        loss.tolist(),
        iters.tolist(),
        converged.tolist(),
        diverged.tolist(),
        canon,
        cluster_ids,
    )
    return tuple(TrainRun(*run) for run in zip(*columns))


# ---------------------------------------------------------------------------
# Orbit membership and clustering


def orbit_membership(theta: NetworkParams, theta_star: NetworkParams, tolerance: float) -> bool:
    """True when the canonical forms agree entrywise within tolerance.

    For tolerance below half the minimal row gap of ``theta_star``, this
    matches being within tolerance of some permutation image of it.
    """
    check_same_shapes(theta, theta_star)
    check_range("tolerance", tolerance, 0, high_open=False)
    (a, b), _ = _canonical_pair(theta, theta_star)
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
) -> BasinSummary:
    """Train from ``n_runs`` independent seeded initializations and cluster
    the converged solutions by canonical form.

    Per-run seeds are spawned from the scheme's seed, so the experiment is
    reproducible and runs are independent; all runs are trained in lockstep
    in one process.  When no tolerance is given, a provisional pass picks
    the largest cluster and the final tolerance is a quarter of its
    representative's minimal row gap.  Runs whose three (n_runs, S) float64
    stacks would take more than ``_RUN_STACK_BYTES`` (256 MiB) raise
    ``BudgetExceededError`` before any seed is spawned.
    """
    check_range("n_runs", n_runs, 1)
    if cluster_tolerance is not None:
        check_range("cluster tolerance", cluster_tolerance, 0)
    stack_bytes = 3 * 8 * n_runs * arch.param_count
    if stack_bytes > _RUN_STACK_BYTES:
        raise BudgetExceededError(
            f"n_runs = {n_runs} runs of {arch.param_count} parameters need {stack_bytes} "
            f"bytes of run stacks (limit {_RUN_STACK_BYTES})",
            required=stack_bytes,
        )
    children = np.random.SeedSequence(scheme.seed).spawn(n_runs)
    starts = np.empty((n_runs, arch.param_count))
    for i, child in enumerate(children):
        _draw(arch, scheme, np.random.default_rng(child), 1, out=starts[i : i + 1])
    starts.setflags(write=False)
    trained = _train_lockstep(arch, starts, dataset, config)
    final, canon, _, _, converged, _ = trained
    conv = np.flatnonzero(converged)
    flats, raw = canon[conv], final[conv]
    tol = cluster_tolerance if cluster_tolerance is not None else DEFAULT_CLUSTER_TOL
    assignment, reps = group_rows(flats, tol)
    if cluster_tolerance is None and reps:
        # Re-derive the tolerance from the dominant cluster's row gap.
        best = raw[reps[int(np.argmax(np.bincount(assignment)))]]
        profile = symmetry_profile(params_from_flat(arch, best), row_tolerance=tol)
        if math.isfinite(profile.delta_min) and profile.delta_min > 0:
            tol = profile.delta_min / 4.0
            assignment, reps = group_rows(flats, tol)

    sizes = np.bincount(assignment)
    profile, orbit_fraction, single_fraction, predicted = None, 0.0, 0.0, 0.0
    if reps:
        ref = reps[int(np.argmax(sizes))]
        profile = symmetry_profile(params_from_flat(arch, raw[ref]), row_tolerance=tol)
        near = [np.abs(a - a[ref]).max(axis=1) <= tol for a in (flats, raw)]
        orbit_fraction, single_fraction = (int(hit.sum()) / len(conv) for hit in near)
        predicted = single_fraction * profile.total_multiplicity
    cluster_ids = np.full(n_runs, None)
    cluster_ids[conv] = assignment.tolist()
    return BasinSummary(
        n_runs=n_runs,
        n_converged=len(conv),
        cluster_sizes=tuple(sorted(sizes.tolist(), reverse=True)),
        cluster_tolerance=tol,
        reference_profile=profile,
        orbit_fraction=orbit_fraction,
        single_fraction=single_fraction,
        predicted_orbit_fraction=predicted,
        no_converged_runs=not reps,
        runs=_train_runs(arch, range(n_runs), starts, trained, cluster_ids),
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
        """Whether the ratio lies within ``n_standard_errors`` (finite and
        nonnegative) standard errors of the predicted one."""
        check_range("n_standard_errors", n_standard_errors, 0)
        return abs(self.ratio - self.predicted_ratio) <= n_standard_errors * self.se_ratio


def amplification_check(
    arch: Architecture,
    scheme: InitScheme,
    theta_star: NetworkParams,
    n_draws: int,
    tolerance: float | None = None,
) -> AmplificationCheck:
    """Estimate P(init within tol of theta_star) and P(init within tol of any
    distinct permutation image), and compare their ratio with the number of
    images (``predicted_ratio``).

    The images are enumerated by ``distinct_permutation_images``, which
    lists ``theta_star`` first, bit for bit.  The default tolerance is half
    the image separation: permutations are isometries of the max norm, so
    the smallest distance between two images is the distance from
    ``theta_star`` to its nearest other image, and neighborhoods of that
    radius are disjoint.  The standard error of the ratio comes from the
    multinomial delta method.

    Draws are made one ``nncore.stack_block`` at a time, layer by layer;
    within one block they equal ``initialize_batch``'s.  A draw is within
    tol of an image when every coordinate's |x - v| is, so each column of
    each drawn part is tested once against each distinct value the images
    hold there, and the tests are ANDed into a (k images x block) hit mask,
    packed 8 draws to a byte.  Each part is drawn and tested in chunks of
    rows that fill about ``nncore._DISTANCE_BLOCK_BYTES`` (at least 8 rows)
    and start on a byte of the mask; the draw stream, and with it every
    count, is that of whole parts.  Memory is the packed mask (k x block / 8
    bytes) and one chunk with its per-value masks and one column's gathered
    (k x chunk / 8 bytes) masks, so it does not grow with ``n_draws``.
    """
    check_shapes(arch, theta_star)
    check_range("n_draws", n_draws, 1)
    if not np.isfinite(theta_star.flat()).all():
        raise DomainError("theta_star must be finite")
    images = distinct_permutation_images(theta_star)
    image_mat = np.stack([img.flat() for img in images])
    if tolerance is None:
        if len(images) == 1:
            raise DomainError(
                "theta_star is its only permutation image; pass an explicit tolerance"
            )
        tolerance = np.abs(image_mat[1:] - image_mat[0]).max(axis=1).min() / 2.0
    check_range("tolerance", tolerance, 0, high_open=False)

    single_hits = 0
    orbit_hits = 0
    rng = np.random.default_rng(scheme.seed)
    k, S = len(images), arch.param_count
    # Each column's distinct image values, and which of them each image holds.
    columns = [np.unique(col, return_inverse=True) for col in image_mat.T]
    # The draw stream fixes this block size, not the buffers below: each block
    # draws layer by layer, so the stream, and with it every count, depends
    # on it.  Chunks of whole mask bytes cut no part of the stream.
    block = stack_block(16 * (S + k))
    widest = max(fan_out * fan_in for (fan_out, fan_in), _ in arch.layer_shapes())
    rows = max(8, _DISTANCE_BLOCK_BYTES // (8 * widest) // 8 * 8)
    n_values = max(len(values) for values, _ in columns)
    for start in range(0, n_draws, block):
        m = min(block, n_draws - start)
        # packbits pads each chunk's masks with zero bits, so the first
        # column's AND clears the padding of the mask's last byte.
        hit = np.full((k, -(-m // 8)), 0xFF, dtype=np.uint8)
        for col, first, part in _layer_draw(arch, scheme, rng, m, rows):
            bits = hit[:, first // 8 : -(-(first + len(part)) // 8)]
            near = np.empty((n_values, len(part)), dtype=bool)
            gap = np.empty(len(part))
            for x, (values, which) in zip(part.T, columns[col : col + part.shape[1]]):
                for v, row in zip(values, near):
                    np.subtract(x, v, out=gap)
                    np.abs(gap, out=gap)
                    np.less_equal(gap, tolerance, out=row)
                bits &= np.packbits(near[: len(values)], axis=1)[which]
            del part
        single_hits += int(_BIT_COUNTS[hit[0]].sum())
        orbit_hits += int(_BIT_COUNTS[np.bitwise_or.reduce(hit, axis=0)].sum())

    p_single = single_hits / n_draws
    p_orbit = orbit_hits / n_draws
    ratio = p_orbit / p_single if single_hits > 0 else math.inf
    # One image gives se 0, so ``within`` then asks for a ratio of exactly 1.
    se = math.sqrt(k * (k - 1) / (n_draws * p_single)) if single_hits > 0 else 0.0
    return AmplificationCheck(
        n_draws=n_draws,
        tolerance=float(tolerance),
        n_images=k,
        p_single=p_single,
        p_orbit=p_orbit,
        ratio=ratio,
        predicted_ratio=k,
        se_ratio=se,
    )
