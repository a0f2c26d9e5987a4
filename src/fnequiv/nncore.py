"""Minimal feed-forward network core: architectures, parameters, forward
evaluation, reverse-mode gradients, and the hidden-layer range bound.

Everything here is a pure function over immutable values; arrays stored in
``NetworkParams`` are marked read-only, so values can be shared freely
between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .errors import DomainError, NumericError, ShapeError

# Absolute tolerance used by sampled function-equality checks throughout the
# package (double precision, desk-scale nets).
EQUIV_ATOL = 1e-9

# Loss explosion threshold past which training marks a run as diverged.
DIVERGENCE_THRESHOLD = 1e12

# Largest natural log whose exponential is still a finite double.
MAX_LOG_LINEAR = math.log(np.finfo(float).max)

# Working-set bytes a computation over stacked networks or draws may hold at
# once; it takes them in blocks of as many as fit (see ``stack_block``).
STACK_BLOCK_BYTES = 32 * 2**20


def stack_block(bytes_per_item: int) -> int:
    """Items per block when each holds ``bytes_per_item`` working bytes (>= 1)."""
    return max(1, STACK_BLOCK_BYTES // bytes_per_item)


# ---------------------------------------------------------------------------
# Activations


@dataclass(frozen=True)
class Activation:
    """A pointwise activation with the structural flags the transforms need.

    ``is_positive_homogeneous`` means sigma(lam*x) = lam*sigma(x) for lam > 0
    (gates the scaling transform); ``is_odd`` means sigma(-x) = -sigma(x)
    (gates the sign-flip transform).
    """

    name: str
    is_positive_homogeneous: bool
    is_odd: bool
    param: float | None = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.name == "relu":
            return np.maximum(x, 0.0)
        if self.name == "leaky_relu":
            return np.where(x >= 0.0, x, self.param * x)
        if self.name == "tanh":
            return np.tanh(x)
        if self.name == "sigmoid":
            return expit(x)
        if self.name == "identity":
            return x
        raise DomainError(f"unknown activation {self.name!r}")

    def deriv(self, x):
        """Pointwise derivative; the ReLU subgradient at 0 is fixed to 0."""
        x = np.asarray(x, dtype=float)
        if self.name == "relu":
            return (x > 0.0).astype(float)
        if self.name == "leaky_relu":
            return np.where(x > 0.0, 1.0, self.param)
        if self.name == "tanh":
            t = np.tanh(x)
            return 1.0 - t * t
        if self.name == "sigmoid":
            s = expit(x)
            return s * (1.0 - s)
        if self.name == "identity":
            return np.ones_like(x)
        raise DomainError(f"unknown activation {self.name!r}")

    def lipschitz_on(self, half_width: float) -> float:
        """Lipschitz constant on the interval [-half_width, half_width].

        The interval always contains 0, where tanh' and sigmoid' peak, so the
        constants are interval-independent for the supported activations.
        """
        if half_width < 0:
            raise DomainError("interval half-width must be nonnegative")
        if self.name in ("relu", "identity", "tanh"):
            return 1.0
        if self.name == "leaky_relu":
            return max(1.0, self.param)
        if self.name == "sigmoid":
            return 0.25
        raise DomainError(f"unknown activation {self.name!r}")

    def tag(self) -> str:
        if self.param is not None:
            return f"{self.name}:{self.param!r}"
        return self.name


RELU = Activation("relu", is_positive_homogeneous=True, is_odd=False)
TANH = Activation("tanh", is_positive_homogeneous=False, is_odd=True)
SIGMOID = Activation("sigmoid", is_positive_homogeneous=False, is_odd=False)
IDENTITY = Activation("identity", is_positive_homogeneous=True, is_odd=True)


def leaky_relu(negative_slope: float) -> Activation:
    if not (negative_slope > 0 and math.isfinite(negative_slope)):
        raise DomainError("leaky_relu slope must be a finite positive number")
    return Activation(
        "leaky_relu",
        is_positive_homogeneous=True,
        is_odd=False,
        param=float(negative_slope),
    )


def activation_from_tag(tag: str) -> Activation:
    """Parse tags like ``"relu"`` or ``"leaky_relu:0.1"``."""
    name, _, param = tag.partition(":")
    simple = {
        "relu": RELU,
        "tanh": TANH,
        "sigmoid": SIGMOID,
        "identity": IDENTITY,
    }
    if name in simple:
        if param:
            raise DomainError(f"activation {name!r} takes no parameter")
        return simple[name]
    if name == "leaky_relu":
        return leaky_relu(float(param) if param else 0.01)
    raise DomainError(f"unknown activation tag {tag!r}")


# ---------------------------------------------------------------------------
# Architecture and parameters


@dataclass(frozen=True)
class Architecture:
    """Layer widths and per-hidden-layer activations of a fully connected net.

    ``hidden_widths`` is (d_1, ..., d_L); the input width is d_0 and the
    output width d_{L+1}.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    activations: tuple[Activation, ...]
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if self.depth < 1:
            raise ShapeError("at least one hidden layer is required")
        if self.input_dim < 1 or self.output_dim < 1 or min(self.hidden_widths) < 1:
            raise ShapeError("all layer widths must be >= 1")
        if len(self.activations) != self.depth:
            raise ShapeError(
                f"need {self.depth} activations, got {len(self.activations)}"
            )

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.hidden_widths)

    @property
    def widths(self) -> tuple[int, ...]:
        """(d_0, d_1, ..., d_L, d_{L+1})."""
        return (self.input_dim, *self.hidden_widths, self.output_dim)

    @property
    def param_count(self) -> int:
        """Total number of weight and bias entries."""
        w = self.widths
        return sum(w[i] * w[i + 1] + w[i + 1] for i in range(len(w) - 1))

    @property
    def hidden_unit_count(self) -> int:
        return sum(self.hidden_widths)

    @property
    def log_permutation_count(self) -> float:
        """sum_l log(d_l!), the log of the number of hidden-neuron permutations."""
        return sum(math.lgamma(d + 1) for d in self.hidden_widths)

    def layer_param_count(self, layer: int) -> int:
        """Entries in (W, b) of layer ``layer`` (1-based, 1..L+1)."""
        w = self.widths
        if not 1 <= layer <= self.depth + 1:
            raise DomainError(f"layer index {layer} out of range")
        return w[layer - 1] * w[layer] + w[layer]

    def layer_shapes(self) -> list[tuple[tuple[int, int], int]]:
        w = self.widths
        return [((w[i + 1], w[i]), w[i + 1]) for i in range(len(w) - 1)]

    def describe(self) -> str:
        return "-".join(str(d) for d in self.widths)


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """Per-layer (weight matrix, bias vector) pairs, immutable after build."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for i, (W, b) in enumerate(self.layers):
            W = _frozen_array(W)
            b = _frozen_array(b)
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {i + 1}: W must be 2-D with one bias per row")
            frozen.append((W, b))
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def weight(self, layer: int) -> np.ndarray:
        """W of layer ``layer`` (1-based)."""
        return self.layers[layer - 1][0]

    def bias(self, layer: int) -> np.ndarray:
        return self.layers[layer - 1][1]

    def flat(self) -> np.ndarray:
        """Row-major flattening, layer by layer, weights before biases."""
        return _flatten(self.layers)

    def max_abs(self) -> float:
        return float(max(max(np.abs(W).max(), np.abs(b).max()) for W, b in self.layers))

    def within_box(self, bound: float) -> bool:
        """True when every entry lies in [-bound, bound]."""
        return self.max_abs() <= bound


class Network(NamedTuple):
    """An architecture with a concrete parameterization."""

    arch: Architecture
    params: NetworkParams


def params_from_flat(arch: Architecture, vec: Sequence[float]) -> NetworkParams:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (arch.param_count,):
        raise ShapeError(
            f"flat vector has {vec.size} entries, architecture needs {arch.param_count}"
        )
    return NetworkParams(tuple(_unflatten(arch, vec)))


def _unflatten(arch: Architecture, vecs: np.ndarray) -> list:
    """(W, b) views of flat parameter vectors: an (S,) vector gives plain
    layers, an (R, S) stack gives stacked ones (see ``_forward_trace``)."""
    lead = vecs.shape[:-1]
    layers = []
    pos = 0
    for (rows, cols), blen in arch.layer_shapes():
        W = vecs[..., pos : pos + rows * cols].reshape(*lead, rows, cols)
        pos += rows * cols
        layers.append((W, vecs[..., pos : pos + blen]))
        pos += blen
    return layers


def _flatten(layers) -> np.ndarray:
    """Inverse of ``_unflatten``: one flat row per network of a stack, or one
    vector for plain layers."""
    lead = layers[0][1].shape[:-1]
    return np.concatenate([a.reshape(*lead, -1) for W, b in layers for a in (W, b)], axis=-1)


def params_identical(a: NetworkParams, b: NetworkParams) -> bool:
    """Bit-exact equality (distinguishes -0.0 from 0.0)."""
    if a.n_layers != b.n_layers:
        return False
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        if Wa.shape != Wb.shape or ba.shape != bb.shape:
            return False
        if Wa.tobytes() != Wb.tobytes() or ba.tobytes() != bb.tobytes():
            return False
    return True


def params_max_diff(a: NetworkParams, b: NetworkParams) -> float:
    """Entrywise L-infinity distance between two same-shaped parameterizations."""
    check_same_shapes(a, b)
    return float(
        max(
            max(np.abs(Wa - Wb).max(), np.abs(ba - bb).max())
            for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers)
        )
    )


def check_shapes(arch: Architecture, params: NetworkParams) -> None:
    expected = arch.layer_shapes()
    if params.n_layers != len(expected):
        raise ShapeError(
            f"params have {params.n_layers} layers, architecture needs {len(expected)}"
        )
    for i, ((wshape, blen), (W, b)) in enumerate(zip(expected, params.layers)):
        if W.shape != wshape or b.shape != (blen,):
            raise ShapeError(
                f"layer {i + 1}: expected W{wshape}, b({blen},); got W{W.shape}, b{b.shape}"
            )


def check_same_shapes(a: NetworkParams, b: NetworkParams) -> None:
    if a.n_layers != b.n_layers:
        raise ShapeError("layer counts differ")
    for i, ((Wa, ba), (Wb, bb)) in enumerate(zip(a.layers, b.layers)):
        if Wa.shape != Wb.shape or ba.shape != bb.shape:
            raise ShapeError(f"layer {i + 1}: shapes differ")


# ---------------------------------------------------------------------------
# Forward evaluation


def forward(arch: Architecture, params: NetworkParams, x) -> np.ndarray:
    """Evaluate the network at a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (arch.input_dim,):
        raise ShapeError(f"input must have shape ({arch.input_dim},), got {x.shape}")
    return forward_batch(arch, params, x[None, :])[0]


def forward_batch(arch: Architecture, params: NetworkParams, X) -> np.ndarray:
    """Evaluate the network at a batch of inputs (one row each)."""
    check_shapes(arch, params)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ShapeError(f"batch must have shape (n, {arch.input_dim}), got {X.shape}")
    if not np.isfinite(X).all():
        raise NumericError("non-finite input", layer=0)
    return _forward_checked(arch, params.layers, X)


def _forward_checked(arch, layers, X) -> np.ndarray:
    """Network outputs over plain or stacked layers (see ``_forward_trace``);
    raises ``NumericError`` naming the first (1-based) layer with a
    non-finite pre-activation."""
    pre, post = _forward_trace(arch, layers, X)
    for l, z in enumerate(pre, start=1):
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite pre-activation at layer {l}", layer=l)
    return post[-1]


def _forward_trace(arch, layers, X):
    """The forward layer loop, keeping pre-activations and activations.

    ``layers`` holds (W, b) pairs, either plain (W of shape (d_out, d_in)) or
    stacked over R networks (W of shape (R, d_out, d_in), b of shape
    (R, d_out)); the stacked case gives one (R, n, d) activation per layer
    and computes each network exactly as the plain case does.  Overflow is
    left as non-finite values: ``_forward_checked`` raises on them, while
    training records them as divergence.
    """
    pre, post = [], [X]
    h = X
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (W, b) in enumerate(layers, start=1):
            z = h @ np.swapaxes(W, -1, -2) + b[..., None, :]
            pre.append(z)
            h = arch.activations[l - 1](z) if l <= arch.depth else z
            post.append(h)
    return pre, post


# ---------------------------------------------------------------------------
# Losses and gradients


class SquaredLoss:
    """L(y, t) = sum_k (y_k - t_k)^2."""

    def value(self, y, target) -> float:
        d = np.asarray(y, dtype=float) - np.asarray(target, dtype=float)
        return float(np.sum(d * d))

    def grad(self, y, target) -> np.ndarray:
        return 2.0 * (np.asarray(y, dtype=float) - np.asarray(target, dtype=float))


class ConstantLoss:
    """A loss that ignores the prediction; its gradient is identically zero."""

    def __init__(self, value: float = 0.0):
        self._value = float(value)

    def value(self, y, target) -> float:
        return self._value

    def grad(self, y, target) -> np.ndarray:
        return np.zeros_like(np.asarray(y, dtype=float))


SQUARED_LOSS = SquaredLoss()


def gradient(
    arch: Architecture,
    params: NetworkParams,
    loss,
    x,
    target,
) -> NetworkParams:
    """Reverse-mode gradient of ``loss(f(x), target)`` w.r.t. every parameter.

    Returns a NetworkParams-shaped container of partial derivatives.
    """
    check_shapes(arch, params)
    x = np.asarray(x, dtype=float)
    if x.shape != (arch.input_dim,):
        raise ShapeError(f"input must have shape ({arch.input_dim},), got {x.shape}")
    pre, post = _forward_trace(arch, params.layers, x[None, :])
    g = np.asarray(loss.grad(post[-1][0], target), dtype=float)[None, :]
    return NetworkParams(_backprop(arch, params.layers, pre, post, g))


def _targets(X, Y) -> np.ndarray:
    """Targets with one row per input; a single row of n values for n > 1
    inputs is read as one value per input."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] == 1 and np.asarray(X).shape[0] != 1:
        Y = Y.T
    return Y


def mse_loss(arch: Architecture, params: NetworkParams, X, Y) -> float:
    """Mean over the dataset of the squared error summed across outputs."""
    Y = _targets(X, Y)
    d = forward_batch(arch, params, X) - Y
    return float(np.mean(np.sum(d * d, axis=1)))


def mse_gradient(arch: Architecture, params: NetworkParams, X, Y):
    """Full-batch MSE value and gradient, vectorized over the dataset."""
    check_shapes(arch, params)
    value, grads = _mse_value_and_grad(arch, params.layers, X, Y)
    return float(value), NetworkParams(grads)


def _mse_value_and_grad(arch, layers, X, Y):
    """Full-batch MSE and its (W, b) partials over plain or stacked layers
    (see ``_forward_trace``); stacked layers give one value per network."""
    X = np.asarray(X, dtype=float)
    pre, post = _forward_trace(arch, layers, X)
    resid = post[-1] - _targets(X, Y)
    value = np.mean(np.sum(resid * resid, axis=-1), axis=-1)
    return value, _backprop(arch, layers, pre, post, (2.0 / X.shape[0]) * resid)


def _backprop(arch, layers, pre, post, G):
    """Reverse sweep over a ``_forward_trace``; ``G`` holds the loss gradient
    w.r.t. the network output, one row per input (with the same leading stack
    axis as ``layers``, if any), and the parameter partials are summed over
    the rows.  Returns the partials as (W, b) pairs shaped like ``layers``."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    for l in range(len(layers), 0, -1):
        W, _ = layers[l - 1]
        grads[l - 1] = (np.swapaxes(G, -1, -2) @ post[l - 1], G.sum(axis=-2))
        if l > 1:
            G = (G @ W) * arch.activations[l - 2].deriv(pre[l - 2])
    return tuple(grads)


# ---------------------------------------------------------------------------
# Hidden-layer range bound


def hidden_range_bound(
    arch: Architecture,
    B: float,
    B_x: float,
    i: int,
    rho: Sequence[float] | None = None,
) -> float:
    """Upper bound on pre-activation magnitudes entering hidden layer ``i``.

    Returns (2B)^i * prod_{j<i} rho_j * d_j, where rho_j is the Lipschitz
    constant of activation j on the interval produced by this same bound one
    layer earlier (or a user-supplied override).  Valid for parameters in
    [-B, B] and inputs of L2 norm at most B_x with B >= max(1, B_x); it is the
    deliberately conservative constant the covering bounds are stated with.
    """
    if not 1 <= i <= arch.depth:
        raise DomainError(f"hidden layer index {i} out of range 1..{arch.depth}")
    if B <= 0 or B_x <= 0:
        raise DomainError("B and B_x must be positive")
    if rho is None:
        rho = default_lipschitz_constants(arch, B, B_x)
    bound = 2.0 * B
    for j in range(1, i):
        bound *= 2.0 * B * rho[j - 1] * arch.hidden_widths[j - 1]
    return bound


def default_lipschitz_constants(arch: Architecture, B: float, B_x: float) -> tuple[float, ...]:
    """Per-layer Lipschitz constants on the nested hidden-range intervals."""
    rhos: list[float] = []
    bound = 2.0 * B
    for j in range(1, arch.depth + 1):
        rhos.append(arch.activations[j - 1].lipschitz_on(bound))
        bound *= 2.0 * B * rhos[-1] * arch.hidden_widths[j - 1]
    return tuple(rhos)


# ---------------------------------------------------------------------------
# JSON serialization


def arch_to_json_dict(arch: Architecture) -> dict:
    return {
        "d0": arch.input_dim,
        "hidden": list(arch.hidden_widths),
        "out": arch.output_dim,
        "activations": [a.tag() for a in arch.activations],
    }


def arch_from_json_dict(a: dict) -> Architecture:
    try:
        return Architecture(
            input_dim=int(a["d0"]),
            hidden_widths=tuple(int(w) for w in a["hidden"]),
            activations=tuple(activation_from_tag(t) for t in a["activations"]),
            output_dim=int(a["out"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed architecture: {exc!r}") from exc


def network_to_json_dict(net: Network) -> dict:
    arch, params = net
    return {
        "arch": arch_to_json_dict(arch),
        "layers": [
            {"W": [list(row) for row in W], "b": list(b)} for W, b in params.layers
        ],
    }


def network_from_json_dict(doc: dict) -> Network:
    try:
        arch = arch_from_json_dict(doc["arch"])
        params = NetworkParams(
            tuple((np.array(l["W"], dtype=float), np.array(l["b"], dtype=float)) for l in doc["layers"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed network document: {exc}") from exc
    check_shapes(arch, params)
    return Network(arch, params)


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_json_dict(json.load(fh))


def random_params(
    arch: Architecture, rng: np.random.Generator, bound: float = 1.0
) -> NetworkParams:
    """Uniform draw from the parameter box [-bound, bound]^S."""
    flat = rng.uniform(-bound, bound, size=arch.param_count)
    return params_from_flat(arch, flat)
