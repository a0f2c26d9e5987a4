"""Decision procedures for functional equivalence of two parameterizations.

The structural route canonicalizes both parameterizations and compares them
bit-exactly, which recognizes permutation orbits whenever the sort keys
(bias | incoming row) within each hidden layer are pairwise distinct.  The
numeric route samples the input ball and is a one-sided check: it can
distinguish, but a small sampled distance is not a certificate of
equivalence.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .canonical import _canonical_pair
from .errors import ShapeError, check_range, check_seed
from .nncore import Network, check_same_shapes, forward_batch
from .transforms import NeuronSymmetry

DEFAULT_TOLERANCE = 1e-7
DEFAULT_N_SAMPLES = 4096
# How many distinct ball_points sets stay cached.
_BALL_POINTS_CACHE_SIZE = 8

STRUCTURALLY_EQUAL = "structurally_equal_by_permutation"
NUMERICALLY_EQUIVALENT = "numerically_equivalent"
DISTINGUISHED = "distinguished"


@dataclass(frozen=True, eq=False)
class EquivalenceVerdict:
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
    """Deterministic quasi-uniform points in the closed L2 ball.

    A scrambled Halton sequence (``_halton``) is mapped into the ball
    (Gaussian-inverse directions, radial inverse-CDF), then the origin and
    the +-radius axis points are appended so boundary behavior is always
    probed.  Each ``(dim, n, radius, seed)`` set is computed once per process
    and returned read-only; at most ``_BALL_POINTS_CACHE_SIZE`` (8) sets are
    held, least recently used dropped first.  The seed must be a nonnegative
    integer, so a cached set always equals a fresh one.
    """
    check_range("dim", dim, 1)
    check_range("sample point count n", n, 1)
    check_range("radius", radius, 0, low_open=True)
    return _ball_points(dim, n, radius, check_seed(seed))


@functools.lru_cache(maxsize=_BALL_POINTS_CACHE_SIZE)
def _ball_points(dim: int, n: int, radius: float, seed: int) -> np.ndarray:
    u = _halton(dim + 1, n, seed)
    z = _ndtri(np.clip(u[:, :dim], 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    r = radius * u[:, dim:] ** (1.0 / dim)
    pts = z / norms * r
    axes = np.concatenate([np.eye(dim), -np.eye(dim)]) * radius
    out = np.concatenate([pts, np.zeros((1, dim)), axes])
    out.setflags(write=False)
    return out


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first ``n`` points of the ``d``-dimensional scrambled Halton
    sequence, bit for bit ``scipy.stats.qmc.Halton(d=d, scramble=True,
    seed=seed).random(n)``, without loading ``scipy.stats``.

    Column j is the radical inverse of the row index in the j-th prime base
    b under Owen's random digit permutations (arXiv:1706.02808): one
    permutation of ``range(b)`` per base-b digit that a double resolves,
    ``ceil(54 / log2 b) - 1`` of them, shuffled in turn by one
    ``default_rng(seed)``, column by column.  The digits are summed from
    the lowest, each permuted digit times b^-(place).
    """
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    cols = []
    for base in _primes(d):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        col, rest, scale = np.zeros(n), index.copy(), 1.0 / base
        for perm in perms:
            col += perm[rest % base] * scale
            rest //= base
            scale /= base
        cols.append(col)
    return np.stack(cols, axis=1)


# Cephes ndtri's rational approximations, highest degree first: P0/Q0 on
# |y - 0.5| <= 0.5 - e^-2, P1/Q1 and P2/Q2 in the tails for x = sqrt(-2 log y)
# below and from 8.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)  # fmt: skip
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)  # fmt: skip
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)  # fmt: skip
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)  # fmt: skip
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)  # fmt: skip
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)  # fmt: skip
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _ndtri(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each entry of ``p``, all in (0, 1):
    bit for bit ``scipy.special.ndtri``, without loading ``scipy``.

    A port of Cephes ``ndtri.c`` (S. L. Moshier).  With y = p, or 1 - p
    above 1 - e^-2: for y > e^-2 a rational function of (y - 0.5)^2, else
    x = sqrt(-2 log y) and x - log(x) / x less a rational function of 1 / x,
    negated unless p was mirrored.  Each polynomial step rounds its multiply
    and its add apart, as the C does, and the two logarithms are ``math.log``
    (the C library's): ``np.log`` differs from it in the last bit for some
    tail values.
    """
    p = np.asarray(p, dtype=float)
    mirrored = p > 1.0 - _EXP_MINUS_2
    y = np.where(mirrored, 1.0 - p, p)
    out = np.empty_like(y)
    central = y > _EXP_MINUS_2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(-2.0 * np.array([math.log(v) for v in y[tail].tolist()]))
    x0 = x - np.array([math.log(v) for v in x.tolist()]) / x
    z = 1.0 / x
    x1 = np.where(
        x < 8.0,
        z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1),
        z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2),
    )
    x = x0 - x1
    out[tail] = np.where(mirrored[tail], x, -x)
    return out


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes ``polevl``: sum of c_i x^(n-i), by Horner's rule."""
    a = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        a = a * x + c
    return a


def _p1evl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes ``p1evl``: ``_polevl`` with a leading coefficient 1 left out of
    ``coefs``."""
    a = x + coefs[0]
    for c in coefs[1:]:
        a = a * x + c
    return a


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in itertools.takewhile(lambda p: p * p <= candidate, primes)):
            primes.append(candidate)
        candidate += 1
    return primes


def sampled_sup_distance(
    f1: Network,
    f2: Network,
    B_x: float,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
) -> float:
    """Max output gap over deterministic sample points in the B_x ball, +inf
    beyond a double.

    Lower-bounds the true sup-norm distance on the ball.
    """
    d, _ = _max_gap(f1, f2, B_x, n_samples, seed)
    return d


def _max_gap(f1: Network, f2: Network, B_x, n_samples, seed):
    if f1.arch.input_dim != f2.arch.input_dim:
        raise ShapeError("input dimensions differ")
    if f1.arch.output_dim != f2.arch.output_dim:
        raise ShapeError("output dimensions differ")
    X = ball_points(f1.arch.input_dim, n_samples, B_x, seed=seed)
    y1, y2 = forward_batch(f1.arch, f1.params, X), forward_batch(f2.arch, f2.params, X)
    with np.errstate(over="ignore"):  # a gap beyond a double is +inf
        gap = np.abs(y1 - y2).max(axis=1)
    i = int(np.argmax(gap))
    return float(gap[i]), X[i].copy()


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
    The structural proof is found for every permuted pair whose sort keys
    within each hidden layer are pairwise distinct; tied keys with different
    outgoing columns can leave a permuted pair to the sampled verdict.
    ``tolerance`` must be nonnegative, ``B_x`` finite and positive,
    ``n_samples`` at least 1 and ``seed`` a nonnegative integer, whichever
    route decides.
    """
    if f1.arch != f2.arch:
        raise ShapeError("architectures differ")
    check_range("tolerance", tolerance, 0, high_open=False)
    check_range("B_x", B_x, 0, low_open=True)
    check_range("n_samples", n_samples, 1)
    check_seed(seed)
    check_same_shapes(f1.params, f2.params)
    flats, witness = _canonical_pair(f1.params, f2.params)
    # Bytes, not values, so -0.0 and 0.0 differ.
    if flats[0].tobytes() == flats[1].tobytes():
        return EquivalenceVerdict(STRUCTURALLY_EQUAL, 0.0, witness=witness)
    dist, worst_x = _max_gap(f1, f2, B_x, n_samples, seed)
    if dist <= tolerance:
        return EquivalenceVerdict(NUMERICALLY_EQUIVALENT, dist)
    return EquivalenceVerdict(DISTINGUISHED, dist, distinguishing_input=worst_x)
