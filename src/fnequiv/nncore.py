"""Minimal feed-forward network core: architectures, parameters, forward
evaluation, reverse-mode gradients, and the hidden-layer range bound.

Everything here is a pure function over immutable values; arrays stored in
``NetworkParams`` are marked read-only, so values can be shared freely
between threads.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericError, ShapeError, check_range

# Absolute tolerance used by sampled function-equality checks throughout the
# package (double precision, desk-scale nets).
EQUIV_ATOL = 1e-9

# Loss explosion threshold past which training marks a run as diverged.
DIVERGENCE_THRESHOLD = 1e12

# Largest natural log whose exponential is still a finite double.
MAX_LOG_LINEAR = math.log(np.finfo(float).max)


def linear_or_none(log_value: float) -> float | None:
    """exp(log_value), or None when that does not fit in a double."""
    return math.exp(log_value) if log_value <= MAX_LOG_LINEAR else None


def monomial(*factors) -> float | None:
    """prod(x ** k) over ``(x, k)`` factors, x >= 0, or ``(x, k, log_x)`` ones
    whose x may itself have left the double range.  It is evaluated left to
    right in doubles, so an in-range product keeps the bits of the formula
    written in that order; where a step overflows, underflows or divides by
    zero, it is exp(sum(k log x)) instead, None beyond a double."""
    value, log_value = _monomial(factors)
    return linear_or_none(log_value) if value is None else value


def log_monomial(*factors) -> float:
    """The natural log of ``monomial``; finite when every x is positive."""
    value, log_value = _monomial(factors)
    return log_value if value is None else math.log(value)


def _monomial(factors) -> tuple[float | None, float]:
    """The double product when every step stayed normal (its log within 1e-9
    of the sum of logs), else None; and the sum of logs."""
    if any(len(f) == 2 and f[0] == 0 for f in factors):
        return None, -math.inf
    log_value = sum(f[1] * (f[2] if len(f) == 3 else math.log(f[0])) for f in factors)
    value = 1.0
    try:
        for x, k, *_ in factors:
            value = value * x**k if k > 0 else value / x**-k
    except (OverflowError, ZeroDivisionError):
        return None, log_value
    normal = sys.float_info.min <= value < math.inf
    return (value if normal and abs(math.log(value) - log_value) <= 1e-9 else None), log_value


# Working-set bytes of a block of stacked networks or draws for the two
# computations whose block is more than a memory cut (see ``stack_block``):
# ``basin._train_lockstep``, where each block runs a whole gradient-descent
# loop, so fewer blocks cost fewer Python steps, and
# ``basin.amplification_check``, whose block size fixes the draw stream, so
# it must not move.  Every other stacked computation takes cache-sized
# blocks of ``_DISTANCE_BLOCK_BYTES``.
STACK_BLOCK_BYTES = 32 * 2**20


def stack_block(bytes_per_item: int) -> int:
    """Items per block when each holds ``bytes_per_item`` working bytes (>= 1)."""
    return max(1, STACK_BLOCK_BYTES // bytes_per_item)


# ---------------------------------------------------------------------------
# Activations


@dataclass(frozen=True)
class Activation:
    """A pointwise activation: ``relu``, ``leaky_relu`` (whose negative
    slope ``param`` must be > 0), ``tanh``, ``sigmoid`` or ``identity``.
    The kind fixes the structural flags the transforms need.
    """

    name: str
    param: float | None = None

    def __post_init__(self):
        if self.name not in ("relu", "leaky_relu", "tanh", "sigmoid", "identity"):
            raise DomainError(f"unknown activation {self.name!r}")
        if (self.param is None) == (self.name == "leaky_relu"):
            raise DomainError(f"only leaky_relu takes a slope, and it needs one: {self.tag()!r}")
        if self.param is not None:
            check_range("leaky_relu slope", self.param, 0, low_open=True)
            object.__setattr__(self, "param", float(self.param))

    @property
    def is_positive_homogeneous(self) -> bool:
        """sigma(lam*x) = lam*sigma(x) for lam > 0 (gates the scaling transform)."""
        return self.name in ("relu", "leaky_relu", "identity")

    @property
    def is_odd(self) -> bool:
        """sigma(-x) = -sigma(x) (gates the sign-flip transform)."""
        return self.name in ("tanh", "identity")

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant on the whole line (tanh' and sigmoid' peak at 0)."""
        if self.name == "leaky_relu":
            return max(1.0, self.param)
        return 0.25 if self.name == "sigmoid" else 1.0

    def __call__(self, x):
        return self._apply(np.asarray(x, dtype=float), None)

    def _apply(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """The activation of the float array ``x``: written over ``x`` when
        ``out`` is ``x``, else into a new array (a scalar for most 0-d ``x``)."""
        if self.name == "relu":
            return np.maximum(x, 0.0, out=out)
        if self.name == "leaky_relu":
            if out is None:
                return np.where(x >= 0.0, x, self.param * x)
            return np.multiply(x, self.param, out=out, where=x < 0.0)
        if self.name == "tanh":
            return np.tanh(x, out=out)
        if self.name == "sigmoid":
            from scipy.special import expit

            return expit(x, out=out)
        return x  # identity

    def _slope(self, y):
        """The derivative at x read off y = sigma(x): the ReLUs have
        y > 0 exactly when x > 0, tanh' = 1 - y^2 and sigmoid' = y (1 - y)."""
        if self.name in ("relu", "leaky_relu"):
            return np.where(y > 0.0, 1.0, self.param or 0.0)
        if self.name == "tanh":
            return 1.0 - y * y
        if self.name == "sigmoid":
            return y * (1.0 - y)
        return np.ones_like(y)  # identity

    def tag(self) -> str:
        if self.param is not None:
            return f"{self.name}:{self.param!r}"
        return self.name


RELU = Activation("relu")
TANH = Activation("tanh")
SIGMOID = Activation("sigmoid")
IDENTITY = Activation("identity")


def leaky_relu(negative_slope: float) -> Activation:
    return Activation("leaky_relu", negative_slope)


def activation_from_tag(tag: str) -> Activation:
    """Parse tags like ``"relu"`` or ``"leaky_relu:0.1"`` (a bare
    ``"leaky_relu"`` has slope 0.01)."""
    if not isinstance(tag, str):
        raise TypeError(f"activation tag must be a string, got {tag!r}")
    name, _, param = tag.partition(":")
    if name == "leaky_relu" and not param:
        param = "0.01"  # the bare tag's slope
    try:
        slope = float(param) if param else None
    except ValueError as exc:
        raise DomainError(f"bad activation parameter in {tag!r}") from exc
    return Activation(name, slope)


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
        """Largest entry magnitude; NaN when any entry is NaN."""
        return float(np.abs(self.flat()).max())

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


def _row_params(stacked) -> list[NetworkParams]:
    """One ``NetworkParams`` per network of the read-only float64 stacked
    (W, b) layers (see ``_forward_checked``), bit for bit, without a copy or
    shape check: each layer is a view of the stack, which fixes its shape."""
    if any(a.flags.writeable for wb in stacked for a in wb):
        raise ValueError("a parameter stack must be read-only to be viewed")
    rows = []
    for layers in zip(*(zip(W, b) for W, b in stacked)):
        params = object.__new__(NetworkParams)
        object.__setattr__(params, "layers", layers)
        rows.append(params)
    return rows


def _unflatten(arch: Architecture, vecs: np.ndarray) -> list:
    """(W, b) views of flat parameter vectors: an (S,) vector gives plain
    layers, an (R, S) stack gives stacked ones (see ``_forward_checked``)."""
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


# Cache-sized working set of the pure computations that take their input in
# blocks, where a block's size changes no result and only the fixed cost per
# block argues for larger ones: ``_chebyshev``'s difference buffer,
# ``basin.amplification_check``'s draw chunks,
# ``empirical.function_class_sample``'s evaluation blocks and
# ``canonical.distinct_permutation_images``' permutation blocks.  A block
# of this size stays in cache; a larger one only adds peak memory and
# freshly faulted pages.  Evaluation blocks cut the stack of networks,
# never one network's batch of inputs, whose row blocks would change output
# bits (see ``forward_batch``).
_DISTANCE_BLOCK_BYTES = 2**18


def _chebyshev(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """L-infinity distances from each row of ``points`` (axis 0) to each row
    of ``centers`` (axis 1), bit for bit those of ``np.abs(a - b).max()``:
    a max of once-rounded |a - b|, which is the true distance correctly
    rounded, so three computed distances can miss the triangle inequality
    by an ulp.  Rows without coordinates are 0 apart, and a gap beyond a
    double is +inf.

    One row of ``points`` against at most ``_DISTANCE_BLOCK_BYTES`` of
    differences is one broadcast; anything larger fills the matrix one
    block of rows at a time, one coordinate at a time, through one buffer
    of at most ``_DISTANCE_BLOCK_BYTES`` (at least one row).
    """
    with np.errstate(over="ignore"):
        if len(points) == 1 and 8 * centers.size <= _DISTANCE_BLOCK_BYTES:
            return np.abs(centers - points).max(axis=1, initial=0.0)[None]
        out = np.zeros((len(points), len(centers)))
        rows = max(1, _DISTANCE_BLOCK_BYTES // (8 * max(len(centers), 1)))
        gaps = np.empty((min(rows, len(points)), len(centers)))
        for first in range(0, len(points), rows):
            block = out[first : first + rows]
            buf = gaps[: len(block)]
            for a, b in zip(points[first : first + rows].T, centers.T):
                np.abs(np.subtract.outer(a, b, out=buf), out=buf)
                np.maximum(block, buf, out=block)
    return out


def params_identical(a: NetworkParams, b: NetworkParams) -> bool:
    """Bit-exact equality (distinguishes -0.0 from 0.0)."""
    shapes = lambda p: [(W.shape, bias.shape) for W, bias in p.layers]
    return shapes(a) == shapes(b) and a.flat().tobytes() == b.flat().tobytes()


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
    """Evaluate the network at a batch of inputs (one row each).

    A row's output bits depend on the batch it is evaluated in: how BLAS
    orders a product's sums depends on the product's shape.  On the
    4-64-16-1 nets of the benchmark, evaluating 4096 ball points in row
    blocks changes the layer-2 product in its last bits at every block size
    tried (1 to 2048 rows), and merging the products of several networks
    into one can change bits too.  So each stage of ``equivalence``'s
    sampled fallback is one call, and a pair that reaches its last stage
    gets the whole ball set's bits; stacked evaluation and lockstep training
    keep one product per network, which gives each network the bits of its
    own call.
    """
    check_shapes(arch, params)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ShapeError(f"batch must have shape (n, {arch.input_dim}), got {X.shape}")
    if not np.isfinite(X).all():
        raise NumericError("non-finite input", layer=0)
    return _forward_checked(arch, params.layers, X)


def _forward_checked(arch, layers, X, trace=None) -> np.ndarray:
    """Network outputs: the one forward layer loop, where each activation
    overwrites its pre-activation.

    ``layers`` holds (W, b) pairs, either plain (W of shape (d_out, d_in)) or
    stacked over R networks (W of shape (R, d_out, d_in), b of shape
    (R, d_out)); the stacked case gives one (R, n, d) activation per layer
    and computes each network exactly as the plain case does.  With
    ``trace`` None, one layer's array is held at a time, and ``NumericError``
    names the first (1-based) layer with a non-finite pre-activation; else
    every activation is appended to the list ``trace`` (which the backward
    sweep starts as ``[X]``), unchecked, and overflow is left as non-finite
    values, which training records as divergence."""
    h = X
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (W, b) in enumerate(layers, start=1):
            z = h @ W.swapaxes(-1, -2)
            z += b[..., None, :]
            if trace is None and not np.isfinite(z).all():
                raise NumericError(f"non-finite pre-activation at layer {l}", layer=l)
            h = arch.activations[l - 1]._apply(z, z) if l <= arch.depth else z
            if trace is not None:
                trace.append(h)
    return h


# ---------------------------------------------------------------------------
# Gradients


def gradient(arch: Architecture, params: NetworkParams, x, target) -> NetworkParams:
    """Reverse-mode gradient of the squared error sum_k (f(x)_k - t_k)^2
    w.r.t. every parameter: ``mse_gradient`` at the one input ``x``.

    Returns a NetworkParams-shaped container of partial derivatives.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (arch.input_dim,):
        raise ShapeError(f"input must have shape ({arch.input_dim},), got {x.shape}")
    return mse_gradient(arch, params, x[None, :], target)[1]


def _targets(X, Y) -> np.ndarray:
    """Targets with one row per input; a single row of n values for n > 1
    inputs is read as one value per input."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] == 1 and np.asarray(X).shape[0] != 1:
        Y = Y.T
    return Y


def mse_gradient(arch: Architecture, params: NetworkParams, X, Y):
    """Full-batch MSE value and gradient, vectorized over the dataset."""
    check_shapes(arch, params)
    X = np.asarray(X, dtype=float)
    grads = _unflatten(arch, np.empty(arch.param_count))
    value = _mse_value_and_grad(arch, params.layers, X, _targets(X, Y), grads)
    return float(value), NetworkParams(tuple(grads))


def _mse_value_and_grad(arch, layers, X, Y, grads):
    """Full-batch MSE over plain or stacked layers (see ``_forward_checked``),
    one value per network when stacked, bit for bit
    ``np.mean(np.sum(r * r, axis=-1), axis=-1)`` of the residuals r.  ``X``
    is a float array of n inputs and ``Y`` their ``_targets``; the (W, b)
    partials are written into ``grads``, views shaped like ``layers``."""
    post = [X]
    _forward_checked(arch, layers, X, post)
    resid = post[-1] - Y
    value = np.add.reduce(np.add.reduce(resid * resid, axis=-1), axis=-1) / X.shape[0]
    _backprop(arch, layers, post, (2.0 / X.shape[0]) * resid, grads)
    return value


def _backprop(arch, layers, post, G, grads) -> None:
    """Reverse sweep over the activations ``post`` = [X, h_1, ..., h_{L+1}]
    traced by ``_forward_checked``, taking each hidden layer's slope from its
    activation (``_slope``).  ``G`` holds the loss gradient w.r.t. the
    network output, one row per input (with the same leading stack axis as
    ``layers``, if any), and the parameter partials, summed over the rows,
    are written into ``grads``: (W, b) arrays shaped like ``layers``."""
    for l in range(len(layers), 0, -1):
        gW, gb = grads[l - 1]
        np.matmul(G.swapaxes(-1, -2), post[l - 1], out=gW)
        np.add.reduce(G, axis=-2, out=gb)
        if l > 1:
            G = (G @ layers[l - 1][0]) * arch.activations[l - 2]._slope(post[l - 1])


# ---------------------------------------------------------------------------
# Hidden-layer range bound


def hidden_range_bound(
    arch: Architecture,
    B: float,
    B_x: float,
    i: int,
    rho: Sequence[float] | None = None,
) -> float:
    """Upper bound on pre-activation magnitudes entering hidden layer ``i``,
    for parameters in [-B, B] and inputs of L2 norm at most B_x.

    Layer 1 gets r_1 = B (sqrt(d_0) B_x + 1), since a weight row has L2 norm
    at most sqrt(d_0) B.  A unit of layer j outputs at most
    m_j = |sigma_j(0)| + rho_j r_j in magnitude, rho_j being the Lipschitz
    constant of activation j on the whole line (or ``rho[j - 1]``; ``rho``
    holds one per hidden layer, see ``lipschitz_constants``), so layer j + 1
    gets B d_j m_j + B <= 2B d_j max(1, m_j).  Where sigma_j(0) = 0 and
    rho_j r_j >= 1 (every activation but sigmoid, once B >= 1), that step
    is r_{j+1} = 2B rho_j d_j r_j, the deliberately conservative factor the
    covering bounds are stated with.
    """
    check_range("hidden layer index", i, 1, arch.depth, high_open=False)
    check_range("B", B, 0, low_open=True)
    check_range("B_x", B_x, 0, low_open=True)
    rho = lipschitz_constants(arch, rho)
    bound = B * (math.sqrt(arch.input_dim) * B_x + 1.0)
    for j in range(1, i):
        out = abs(float(arch.activations[j - 1](0.0))) + rho[j - 1] * bound
        bound = 2.0 * B * arch.hidden_widths[j - 1] * max(1.0, out)
    return bound


def lipschitz_constants(arch: Architecture, rho=None) -> tuple[float, ...]:
    """``rho`` as floats, checked: one per hidden layer, each finite and > 0.
    None stands for the activations' own constants on the whole line."""
    if rho is None:
        return tuple(act.lipschitz for act in arch.activations)
    rho = tuple(float(r) for r in rho)
    if len(rho) != arch.depth:
        raise ConfigError(f"need {arch.depth} Lipschitz constants")
    for r in rho:
        check_range("Lipschitz constant", r, 0, low_open=True)
    return rho


# ---------------------------------------------------------------------------
# JSON serialization


def arch_to_json_dict(arch: Architecture) -> dict:
    return {
        "d0": arch.input_dim,
        "hidden": list(arch.hidden_widths),
        "out": arch.output_dim,
        "activations": [a.tag() for a in arch.activations],
    }


def _json_int(value) -> int:
    """A JSON integer as an int; floats, booleans and strings are rejected."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_float(value) -> float:
    """A finite JSON number as a float; booleans, strings and the NaN and
    Infinity literals are rejected."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _json_floats(value) -> tuple[float, ...]:
    """A JSON list of numbers as a tuple of floats."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(map(_json_float, value))


def _require_keys(doc: dict, allowed: set[str], what: str, error=ValueError) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise error(f"unknown fields in {what}: {sorted(unknown)}")


def arch_from_json_dict(a: dict) -> Architecture:
    """Decode ``arch_to_json_dict``'s document: every width must be a JSON
    integer, and keys other than its four are rejected."""
    try:
        _require_keys(a, {"d0", "hidden", "out", "activations"}, "arch")
        return Architecture(
            input_dim=_json_int(a["d0"]),
            hidden_widths=tuple(map(_json_int, a["hidden"])),
            activations=tuple(activation_from_tag(t) for t in a["activations"]),
            output_dim=_json_int(a["out"]),
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
    """Decode ``network_to_json_dict``'s document (and the ``config`` that
    ``transform`` adds): W and b must hold finite JSON numbers, and unknown
    fields are rejected."""
    try:
        _require_keys(doc, {"arch", "layers", "config"}, "network")
        arch = arch_from_json_dict(doc["arch"])
        layers = []
        for l in doc["layers"]:
            _require_keys(l, {"W", "b"}, "layer")
            layers.append((list(map(_json_floats, l["W"])), _json_floats(l["b"])))
        params = NetworkParams(tuple(layers))
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
