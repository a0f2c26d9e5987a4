"""Decision procedures for functional equivalence of two parameterizations.

The structural route canonicalizes both parameterizations and compares them
bit-exactly, which recognizes permutation orbits whenever the sort keys
(bias | incoming row) within each hidden layer are pairwise distinct.  The
numeric route samples the input ball and is a one-sided check: it can
distinguish, but a small sampled distance is not a certificate of
equivalence.  It runs in two stages over one cached ball set: the first 64
random points with the origin and the axis points, then, unless a gap there
already exceeds the tolerance, the whole set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .canonical import _canonical_pair
from .errors import BudgetExceededError, ShapeError, check_range, check_seed
from .nncore import Network, check_shapes, forward_batch
from .transforms import NeuronSymmetry

DEFAULT_TOLERANCE = 1e-7
DEFAULT_N_SAMPLES = 4096
# How many distinct ball_points sets stay cached.
_BALL_POINTS_CACHE_SIZE = 8
# Most float64 entries a sample may hold: its (rows, dim) ball points, or
# the (rows, widest layer) activations of a forward pass over them.
_SAMPLE_ENTRY_LIMIT = 2**24
# Random ball points in the sampled fallback's first stage.
_FIRST_STAGE = 64

STRUCTURALLY_EQUAL = "structurally_equal_by_permutation"
NUMERICALLY_EQUIVALENT = "numerically_equivalent"
DISTINGUISHED = "distinguished"


@dataclass(frozen=True, eq=False)
class EquivalenceVerdict:
    """A decision: ``kind`` is one of the three kinds above.
    ``sup_distance_estimate`` is 0.0 for a structural proof, else a lower
    bound on the sup distance from the points evaluated, +inf beyond a
    double.  ``witness`` is the permutation of a structural proof, and
    ``distinguishing_input`` the worst evaluated point of a distinguished
    pair."""

    kind: str
    sup_distance_estimate: float
    witness: NeuronSymmetry | None = None
    distinguishing_input: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            # A gap beyond a double overflowed to +inf; JSON has no such number.
            "sup_distance_estimate": (
                self.sup_distance_estimate if math.isfinite(self.sup_distance_estimate) else None
            ),
            "witness": None if self.witness is None else self.witness.to_json_list(),
            "distinguishing_input": (
                None
                if self.distinguishing_input is None
                else [float(v) for v in self.distinguishing_input]
            ),
        }


def ball_points(dim: int, n: int, radius: float, seed: int = 0) -> np.ndarray:
    """Deterministic uniform random points in the closed L2 ball.

    One ``default_rng(seed)`` draws ``n`` Gaussian directions, each scaled
    to unit norm, and then ``n`` radii ``radius * U ** (1 / dim)``; the
    origin and the +-radius axis points are appended so boundary behavior
    is always probed.  Each ``(dim, n, radius, seed)`` set is computed once
    per process and returned read-only; at most ``_BALL_POINTS_CACHE_SIZE``
    (8) sets are held, least recently used dropped first.  The seed must be
    a nonnegative integer, so a cached set always equals a fresh one.  A
    set of more than ``_SAMPLE_ENTRY_LIMIT`` (2^24) entries raises
    ``BudgetExceededError`` before anything is drawn.
    """
    check_range("dim", dim, 1)
    check_range("sample point count n", n, 1)
    check_range("radius", radius, 0, low_open=True)
    _check_sample_budget("sample point count n", n, dim, dim)
    return _ball_points(dim, n, radius, check_seed(seed))


def _check_sample_budget(name: str, n: int, dim: int, *widths: int) -> None:
    """Raise ``BudgetExceededError`` when ``n`` sample points in ``dim``
    dimensions, with the origin and the 2 ``dim`` axis points, take more
    than ``_SAMPLE_ENTRY_LIMIT`` float64 entries at the largest of
    ``widths`` per point.  The message names the count as ``name``."""
    width = max(widths)
    entries = (n + 2 * dim + 1) * width
    if entries > _SAMPLE_ENTRY_LIMIT:
        raise BudgetExceededError(
            f"{name} = {n} sample points of width {width} need {entries} float64 "
            f"entries (limit {_SAMPLE_ENTRY_LIMIT})",
            required=entries,
        )


@functools.lru_cache(maxsize=_BALL_POINTS_CACHE_SIZE)
def _ball_points(dim: int, n: int, radius: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    r = radius * rng.random((n, 1)) ** (1.0 / dim)
    pts = z / norms * r
    axes = np.concatenate([np.eye(dim), -np.eye(dim)]) * radius
    out = np.concatenate([pts, np.zeros((1, dim)), axes])
    out.setflags(write=False)
    return out


def sampled_sup_distance(
    f1: Network,
    f2: Network,
    B_x: float,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
) -> float:
    """Max output gap over deterministic sample points in the B_x ball, +inf
    beyond a double.

    Lower-bounds the true sup-norm distance on the ball.  Samples whose
    forward activations would exceed ``_SAMPLE_ENTRY_LIMIT`` entries raise
    ``BudgetExceededError`` before any is drawn.
    """
    widths = (*f1.arch.widths, *f2.arch.widths)
    _check_sample_budget("n_samples", n_samples, f1.arch.input_dim, *widths)
    d, _ = _max_gap(f1, f2, B_x, n_samples, seed)
    return d


def _max_gap(f1: Network, f2: Network, B_x, n_samples, seed, tolerance=math.inf):
    """The largest output gap and its point: over the first stage if a gap
    there exceeds ``tolerance``, else over the whole ball set."""
    if f1.arch.input_dim != f2.arch.input_dim:
        raise ShapeError("input dimensions differ")
    if f1.arch.output_dim != f2.arch.output_dim:
        raise ShapeError("output dimensions differ")
    X = ball_points(f1.arch.input_dim, n_samples, B_x, seed=seed)
    stages = [X]
    if n_samples > _FIRST_STAGE and tolerance < math.inf:  # no gap exceeds +inf
        stages.insert(0, np.concatenate([X[:_FIRST_STAGE], X[n_samples:]]))
    for S in stages:
        y1, y2 = forward_batch(f1.arch, f1.params, S), forward_batch(f2.arch, f2.params, S)
        with np.errstate(over="ignore"):  # a gap beyond a double is +inf
            gap = np.abs(y1 - y2).max(axis=1)
        i = int(np.argmax(gap))
        if gap[i] > tolerance:
            break
    return float(gap[i]), S[i].copy()


def decide_equivalence(
    f1: Network,
    f2: Network,
    B_x: float,
    tolerance: float = DEFAULT_TOLERANCE,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
) -> EquivalenceVerdict:
    """Decide whether two parameterizations implement the same function.

    Tries a structural proof first (canonical forms compare bit-exactly,
    yielding an explicit permutation witness); otherwise falls back to
    sampling, labelling the pair numerically equivalent or distinguished.
    A pair is distinguished by the sample's first stage when a gap there
    exceeds ``tolerance``, and reports that stage's maximum; otherwise the
    whole ball set decides.  The kinds equal those of the whole set, except
    where a gap lies within rounding of ``tolerance``.
    The structural proof is found for every permuted pair whose sort keys
    within each hidden layer are pairwise distinct; tied keys with different
    outgoing columns can leave a permuted pair to the sampled verdict.
    ``tolerance`` must be nonnegative, ``B_x`` finite and positive,
    ``n_samples`` at least 1 and within ``_SAMPLE_ENTRY_LIMIT`` (see
    ``_check_sample_budget``), ``seed`` a nonnegative integer and each
    network's parameters shaped for its architecture, whichever route decides.
    """
    if f1.arch != f2.arch:
        raise ShapeError("architectures differ")
    check_range("tolerance", tolerance, 0, high_open=False)
    check_range("B_x", B_x, 0, low_open=True)
    check_range("n_samples", n_samples, 1)
    _check_sample_budget("n_samples", n_samples, f1.arch.input_dim, *f1.arch.widths)
    check_seed(seed)
    check_shapes(f1.arch, f1.params)
    check_shapes(f2.arch, f2.params)
    flats, witness = _canonical_pair(f1.params, f2.params)
    # Bytes, not values, so -0.0 and 0.0 differ.
    if flats[0].tobytes() == flats[1].tobytes():
        return EquivalenceVerdict(STRUCTURALLY_EQUAL, 0.0, witness=witness)
    dist, worst_x = _max_gap(f1, f2, B_x, n_samples, seed, tolerance)
    if dist <= tolerance:
        return EquivalenceVerdict(NUMERICALLY_EQUIVALENT, dist)
    return EquivalenceVerdict(DISTINGUISHED, dist, distinguishing_input=worst_x)
