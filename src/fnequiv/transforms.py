"""Parameter-space transformations that leave the network function unchanged.

Permutations are stored as index arrays in gather convention: applying ``p``
to a vector v yields ``v[p]``, i.e. new position i receives old entry p[i].
The matrix forms P and P-transpose correspond to gathering rows by ``p`` and
gathering columns by ``p`` respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UnsupportedTransformError, check_range
from .nncore import Architecture, NetworkParams, check_shapes, _json_int


def _as_perm(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
        raise DomainError("not a permutation of 0..n-1")
    p.setflags(write=False)
    return p


@dataclass(frozen=True, eq=False)
class PermutationSpec:
    """One hidden-neuron permutation per hidden layer."""

    perms: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(_as_perm(p) for p in self.perms))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(p.size for p in self.perms)

    def is_identity(self) -> bool:
        return all(np.array_equal(p, np.arange(p.size)) for p in self.perms)

    def __eq__(self, other):
        return (
            isinstance(other, PermutationSpec)
            and self.sizes == other.sizes
            and all(np.array_equal(a, b) for a, b in zip(self.perms, other.perms))
        )

    def to_json_list(self) -> list[list[int]]:
        """0-based index arrays, one per hidden layer."""
        return [[int(i) for i in p] for p in self.perms]

    @classmethod
    def from_json_list(cls, doc) -> "PermutationSpec":
        """Inverse of ``to_json_list``; every index must be a JSON integer."""
        return cls(tuple(np.array([_json_int(i) for i in p], dtype=np.int64) for p in doc))


def identity_spec_for(arch: Architecture) -> PermutationSpec:
    return PermutationSpec(tuple(np.arange(d) for d in arch.hidden_widths))


def random_spec(arch: Architecture, rng: np.random.Generator) -> PermutationSpec:
    return PermutationSpec(tuple(rng.permutation(d) for d in arch.hidden_widths))


def inverse(spec: PermutationSpec) -> PermutationSpec:
    return PermutationSpec(tuple(np.argsort(p) for p in spec.perms))


def compose(second: PermutationSpec, first: PermutationSpec) -> PermutationSpec:
    """Permutation equal to applying ``first`` and then ``second``."""
    if second.sizes != first.sizes:
        raise ShapeError("permutation specs act on different layer sizes")
    return PermutationSpec(tuple(f[s] for s, f in zip(second.perms, first.perms)))


def apply_permutation(params: NetworkParams, spec: PermutationSpec) -> NetworkParams:
    """Re-index hidden neurons, co-permuting adjacent weight rows/columns.

    Entries are gathered, never recomputed, so the result is bit-exact.
    """
    n_hidden = params.n_layers - 1
    if len(spec.perms) != n_hidden:
        raise ShapeError(
            f"spec has {len(spec.perms)} layer permutations, network has {n_hidden}"
        )
    layers = list(params.layers)
    for l, p in enumerate(spec.perms, start=1):
        if p.size != params.weight(l).shape[0]:
            raise ShapeError(f"layer {l}: permutation size {p.size} != width")
        _permute_neurons(layers, l, p)
    return NetworkParams(tuple(layers))


def _permute_neurons(layers: list, l: int, p: np.ndarray) -> None:
    """Gather the rows of hidden layer ``l`` (1-based) and the columns of
    layer l+1 by ``p``, in place in the list ``layers``: plain (W, b) pairs
    with ``p`` of shape (d,), or stacked ones (see ``nncore._forward_trace``)
    with one permutation per network, ``p`` of shape (R, d).  The columns
    are gathered as rows of the transpose and copied back to C order."""
    (W, b), (W_next, b_next) = layers[l - 1], layers[l]
    idx = (p,) if p.ndim == 1 else (np.arange(len(p))[:, None], p)
    layers[l - 1] = (W[idx], b[idx])
    layers[l] = (np.ascontiguousarray(W_next.swapaxes(-1, -2)[idx].swapaxes(-1, -2)), b_next)


@dataclass(frozen=True)
class ScalingSpec:
    """Per-neuron positive factors for one hidden layer (1-based index)."""

    layer: int
    alpha: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        for a in self.alpha:
            check_range("scaling factor", a, 0, low_open=True)


def apply_scaling(
    arch: Architecture, params: NetworkParams, spec: ScalingSpec
) -> NetworkParams:
    """Scale hidden rows by alpha and divide the outgoing columns by alpha.

    Requires the activation at the targeted layer to be positively
    homogeneous (ReLU, LeakyReLU, identity).
    """
    return _gated_rescale(
        arch, params, spec.layer, spec.alpha, "is_positive_homogeneous", "positively homogeneous"
    )


def apply_sign_flip(
    arch: Architecture, params: NetworkParams, layer: int, signs
) -> NetworkParams:
    """Negate selected hidden rows and their outgoing columns.

    Requires an odd activation at the targeted layer (tanh, identity).
    """
    if not np.all(np.abs(np.asarray(signs, dtype=float)) == 1.0):
        raise DomainError("signs must be +1 or -1")
    return _gated_rescale(arch, params, layer, signs, "is_odd", "odd")


def _gated_rescale(arch, params, l: int, factors, flag: str, flag_name: str) -> NetworkParams:
    """``_rescale_neurons`` with one factor per neuron of hidden layer ``l``,
    allowed only when that layer's activation has the ``Activation`` flag
    ``flag`` (called ``flag_name`` in the error)."""
    check_shapes(arch, params)
    check_range("layer", l, 1, arch.depth, high_open=False)
    act = arch.activations[l - 1]
    if not getattr(act, flag):
        raise UnsupportedTransformError(
            f"{act.name} is not {flag_name}, so the transform does not preserve the function"
        )
    factors = np.asarray(factors, dtype=float)
    if factors.shape != (arch.hidden_widths[l - 1],):
        raise ShapeError("one factor per neuron is required")
    return _rescale_neurons(params, l, factors)


def _rescale_neurons(params: NetworkParams, l: int, factors: np.ndarray) -> NetworkParams:
    """Multiply the rows of hidden layer ``l`` (1-based) by ``factors`` and
    divide its outgoing columns by them; exact when the factors are +-1."""
    layers = list(params.layers)
    W, b = layers[l - 1]
    layers[l - 1] = (W * factors[:, None], b * factors)
    W_next, b_next = layers[l]
    layers[l] = (W_next / factors, b_next)
    return NetworkParams(tuple(layers))


# ---------------------------------------------------------------------------
# Pooling-region permutations


@dataclass(frozen=True)
class PoolingPartition:
    """Non-overlapping row index sets with a pooling kind (max, min, avg)."""

    regions: tuple[tuple[int, ...], ...]
    kind: str = "max"

    def __post_init__(self):
        object.__setattr__(
            self, "regions", tuple(tuple(int(i) for i in r) for r in self.regions)
        )
        if self.kind not in ("max", "min", "avg"):
            raise DomainError(f"unknown pooling kind {self.kind!r}")
        seen: set[int] = set()
        for r in self.regions:
            if not r:
                raise DomainError("pooling regions must be non-empty")
            if seen & set(r):
                raise DomainError("pooling regions must be disjoint")
            seen |= set(r)

    def validate_against(self, n_rows: int) -> None:
        covered = {i for r in self.regions for i in r}
        if covered != set(range(n_rows)):
            raise DomainError(
                f"regions must partition rows 0..{n_rows - 1}; covered {sorted(covered)}"
            )


def apply_pooling_permutation(W, b, partition: PoolingPartition, perm):
    """Permute rows of (W, b) without letting any row leave its pooling region."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if W.ndim != 2 or b.shape != (W.shape[0],):
        raise ShapeError("W must be 2-D with one bias per row")
    partition.validate_against(W.shape[0])
    p = _as_perm(perm)
    if p.size != W.shape[0]:
        raise ShapeError("permutation size must match the number of rows")
    for region in partition.regions:
        members = set(region)
        if any(int(p[i]) not in members for i in region):
            raise DomainError("permutation moves rows across pooling regions")
    return W[p], b[p]


def pooled_forward(W, b, partition: PoolingPartition, x) -> np.ndarray:
    """Linear map followed by per-region pooling; one output per region."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    partition.validate_against(W.shape[0])
    z = W @ np.asarray(x, dtype=float) + b
    reduce = {"max": np.max, "min": np.min, "avg": np.mean}[partition.kind]
    return np.array([reduce(z[list(r)]) for r in partition.regions])


# ---------------------------------------------------------------------------
# Attention-map permutations


def _softmax_rows(A: np.ndarray) -> np.ndarray:
    shifted = A - A.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention_forward(X, W_Q, W_K, W_V) -> np.ndarray:
    """Single-head self-attention: softmax(X Wq (X Wk)^T / sqrt(dk)) X Wv."""
    X = np.asarray(X, dtype=float)
    W_Q = np.asarray(W_Q, dtype=float)
    W_K = np.asarray(W_K, dtype=float)
    W_V = np.asarray(W_V, dtype=float)
    if W_Q.shape[1] != W_K.shape[1]:
        raise ShapeError("query and key matrices must share the projection width")
    if not (X.shape[1] == W_Q.shape[0] == W_K.shape[0] == W_V.shape[0]):
        raise ShapeError("embedding dimensions disagree")
    d_k = W_Q.shape[1]
    scores = (X @ W_Q) @ (X @ W_K).T / math.sqrt(d_k)
    return _softmax_rows(scores) @ (X @ W_V)


def attention_permutation_equivalent(W_Q, W_K, W_V, perm):
    """Permute the projection columns of Wq and Wk identically.

    The Gram product Wq Wk^T is invariant under any shared column
    re-indexing, so the attention output is unchanged; Wv is returned as-is.
    """
    W_Q = np.asarray(W_Q, dtype=float)
    W_K = np.asarray(W_K, dtype=float)
    W_V = np.asarray(W_V, dtype=float)
    p = _as_perm(perm)
    if W_Q.shape[1] != W_K.shape[1]:
        raise ShapeError("query and key matrices must share the projection width")
    if p.size != W_Q.shape[1]:
        raise DomainError("permutation size must match the projection width")
    return W_Q[:, p], W_K[:, p], W_V
