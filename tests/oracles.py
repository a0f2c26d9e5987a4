"""Independent oracles the tests check the package against.

Everything here is deliberately written from scratch against the underlying
formulas (scalar loops, finite differences, arbitrary-precision arithmetic,
exhaustive search) and must not call into the implementation paths it
verifies.
"""

from __future__ import annotations

import itertools
import math
import struct
import types

import mpmath
import numpy as np


# ---------------------------------------------------------------------------
# Scalar forward pass (no numpy linear algebra, plain loops)


def _scalar_act(name, param, v):
    if name == "relu":
        return v if v > 0 else 0.0
    if name == "leaky_relu":
        return v if v >= 0 else param * v
    if name == "tanh":
        return math.tanh(v)
    if name == "sigmoid":
        return 1.0 / (1.0 + math.exp(-v))
    if name == "identity":
        return v
    raise ValueError(name)


def scalar_forward(arch, params, x):
    """Straight-line scalar re-implementation of the forward pass."""
    h = [float(v) for v in x]
    n_layers = len(params.layers)
    for l in range(n_layers):
        W, b = params.layers[l]
        out = []
        for i in range(W.shape[0]):
            acc = float(b[i])
            for j in range(W.shape[1]):
                acc += float(W[i, j]) * h[j]
            out.append(acc)
        if l < n_layers - 1:
            act = arch.activations[l]
            out = [_scalar_act(act.name, act.param, v) for v in out]
        h = out
    return np.array(h)


# ---------------------------------------------------------------------------
# Finite-difference gradients


def fd_gradient(arch, params, loss, x, target, h=1e-5):
    """Central finite differences on the flat parameter vector."""
    from fnequiv.nncore import forward, params_from_flat

    flat = params.flat()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        f_up = loss.value(forward(arch, params_from_flat(arch, up), x), target)
        f_down = loss.value(forward(arch, params_from_flat(arch, down), x), target)
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# Arbitrary-precision re-evaluation of the two covering-bound formulas


def mp_shallow_log(d0, d1, B, Bx, rho, eps, dps=60):
    """log[(16 B^2 (Bx+1) sqrt(d0) d1 / eps)^S * rho^Sh / d1!] at high precision."""
    with mpmath.workdps(dps):
        B, Bx, rho, eps = map(mpmath.mpf, (B, Bx, rho, eps))
        S = d0 * d1 + 2 * d1 + 1
        Sh = d0 * d1 + d1
        base = 16 * B**2 * (Bx + 1) * mpmath.sqrt(d0) * d1 / eps
        val = S * mpmath.log(base) + Sh * mpmath.log(rho) - mpmath.log(mpmath.factorial(d1))
        return float(val)


def mp_deep_log(d0, hidden, B, Bx, rhos, eps, dps=60):
    """log of the deep covering bound evaluated directly at high precision."""
    with mpmath.workdps(dps):
        B, Bx, eps = map(mpmath.mpf, (B, Bx, eps))
        L = len(hidden)
        widths = [d0, *hidden, 1]
        S = sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))
        rho_bar = mpmath.mpf(1)
        for r in rhos:
            rho_bar *= mpmath.mpf(r)
        width_prod = mpmath.mpf(1)
        for d in (d0, *hidden):
            width_prod *= d
        base = 4 * (L + 1) * (Bx + 1) * (2 * B) ** (L + 2) * rho_bar * width_prod / eps
        val = S * mpmath.log(base)
        for d in hidden:
            val -= mpmath.log(mpmath.factorial(d))
        return float(val)


def mp_stirling_bracket(d, dps=60):
    with mpmath.workdps(dps):
        d_ = mpmath.mpf(d)
        core = mpmath.sqrt(2 * mpmath.pi * d_) * (d_ / mpmath.e) ** d_
        return (
            float(core * mpmath.exp(1 / (12 * d_ + 1))),
            float(core * mpmath.exp(1 / (12 * d_))),
        )


# ---------------------------------------------------------------------------
# Quadrature cross-check


def trapezoid_integral(f, a, b, n=200_001):
    xs = np.linspace(a, b, n)
    ys = np.array([f(x) for x in xs])
    return float(np.trapezoid(ys, xs))


# ---------------------------------------------------------------------------
# Exhaustive covering / packing on tiny instances


def exhaustive_min_cover(D, eps):
    """Smallest set of ball centers (taken among the points) covering all."""
    n = D.shape[0]
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if all(any(D[i, c] <= eps for c in centers) for i in range(n)):
                return k
    return n


def exhaustive_max_packing(D, eps):
    """Largest subset with pairwise distances > 2*eps."""
    n = D.shape[0]
    best = 0
    for k in range(n, 0, -1):
        for subset in itertools.combinations(range(n), k):
            if all(D[i, j] > 2 * eps for i, j in itertools.combinations(subset, 2)):
                return k
    return best


# ---------------------------------------------------------------------------
# Self-attention written independently (explicit loops over rows)


def attention_oracle(X, W_Q, W_K, W_V):
    X = np.asarray(X, float)
    Q = X @ np.asarray(W_Q, float)
    K = X @ np.asarray(W_K, float)
    V = X @ np.asarray(W_V, float)
    d_k = np.asarray(W_Q).shape[1]
    out = np.zeros((X.shape[0], V.shape[1]))
    for i in range(X.shape[0]):
        scores = np.array([Q[i] @ K[j] / math.sqrt(d_k) for j in range(X.shape[0])])
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        out[i] = sum(w[j] * V[j] for j in range(X.shape[0]))
    return out


# ---------------------------------------------------------------------------
# First-fit row grouping, one coordinate at a time


def first_fit_row_groups(rows, tolerance):
    """Groups of row indices, in order of creation.

    Each row joins the earliest group whose first row matches it, and
    otherwise opens a new group.  At tolerance 0 a match means the same bit
    pattern in every coordinate (so 0.0 and -0.0 differ); above 0 it means
    every coordinate differs by at most ``tolerance``.
    """
    bits = lambda v: struct.pack("<d", float(v))
    groups = []
    for i, row in enumerate(rows):
        for g in groups:
            rep = rows[g[0]]
            if tolerance == 0.0:
                same = all(bits(a) == bits(b) for a, b in zip(row, rep))
            else:
                same = all(abs(float(a) - float(b)) <= tolerance for a, b in zip(row, rep))
            if same:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


# ---------------------------------------------------------------------------
# Canonical neuron order and the function-class grid, one network at a time


def canonical_sort(layers):
    """Canonical form of one network and the sort order of each hidden layer.

    ``layers`` is a list of (W, b) arrays.  The neurons of each hidden layer
    are ordered by the tuple (bias, incoming weights left to right), largest
    first, and neurons with equal tuples keep their relative order; the next
    layer's columns follow the same order.  Returns (layers, orders).
    """
    layers = [(np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in layers]
    orders = []
    for l in range(len(layers) - 1):
        W, b = layers[l]
        keys = [(float(b[i]), *(float(w) for w in W[i])) for i in range(len(b))]
        # sorted is stable, also with reverse=True.
        order = sorted(range(len(keys)), key=lambda i: keys[i], reverse=True)
        W_next, b_next = layers[l + 1]
        layers[l] = (
            np.array([W[i] for i in order]).reshape(W.shape),
            np.array([b[i] for i in order]),
        )
        layers[l + 1] = (
            np.array([[row[i] for i in order] for row in W_next]).reshape(W_next.shape),
            b_next,
        )
        orders.append(order)
    return layers, orders


def function_class_reference(arch, B, grid_resolution, X, dedup):
    """Value vectors of the networks on the uniform parameter grid, one row
    per kept network in grid order (last parameter varying fastest).

    Parameters are read layer by layer, each weight matrix row by row and
    then its biases.  With ``dedup`` a network is kept only when no earlier
    one has the same canonical form bit for bit.  Each network is evaluated
    at the rows of ``X`` with ``scalar_forward``.
    """
    widths = arch.widths
    axis = np.linspace(-B, B, grid_resolution)
    seen = set()
    values = []
    for theta in itertools.product(axis, repeat=arch.param_count):
        layers, pos = [], 0
        for d_in, d_out in zip(widths, widths[1:]):
            W = np.array(theta[pos : pos + d_out * d_in]).reshape(d_out, d_in)
            pos += d_out * d_in
            layers.append((W, np.array(theta[pos : pos + d_out])))
            pos += d_out
        if dedup:
            canon, _ = canonical_sort(layers)
            key = b"".join(
                struct.pack("<d", float(v)) for W, b in canon for v in (*W.ravel(), *b)
            )
            if key in seen:
                continue
            seen.add(key)
        net = types.SimpleNamespace(layers=layers)
        values.append(np.concatenate([scalar_forward(arch, net, x) for x in X]))
    return np.array(values)


# ---------------------------------------------------------------------------
# Full-batch gradient descent for one network, plain 2-D arrays


def _ref_act(name, z):
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(name)


def _ref_act_deriv(name, z):
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if name == "relu":
        return (z > 0.0).astype(float)
    raise ValueError(name)


def gd_reference(layers, activations, X, Y, step_size, max_iters, grad_threshold):
    """Full-batch gradient descent on the mean squared error of one net.

    ``layers`` is a list of (W, b) arrays with W of shape (d_out, d_in),
    ``activations`` names each hidden layer's activation ("tanh" or "relu")
    and ``Y`` has one row per input.  Each iteration evaluates the loss and
    its gradient, then stops with ``diverged`` when the loss is non-finite or
    above 1e12, else with ``converged`` when every partial has magnitude at
    most ``grad_threshold``, else when the iteration count is ``max_iters``;
    otherwise it steps.  Returns (layers, loss, iterations, converged,
    diverged).
    """
    layers = [(np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in layers]
    n = X.shape[0]
    for it in range(max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            zs, hs = [], [X]
            for l, (W, b) in enumerate(layers):
                z = hs[-1] @ W.T + b
                zs.append(z)
                hs.append(_ref_act(activations[l], z) if l < len(activations) else z)
            resid = hs[-1] - Y
            loss = float(np.mean(np.sum(resid * resid, axis=1)))
            G = (2.0 / n) * resid
            grads = [None] * len(layers)
            for l in range(len(layers) - 1, -1, -1):
                grads[l] = (G.T @ hs[l], G.sum(axis=0))
                if l > 0:
                    G = (G @ layers[l][0]) * _ref_act_deriv(activations[l - 1], zs[l - 1])
        if not math.isfinite(loss) or loss > 1e12:
            return layers, loss, it, False, True
        if all((np.abs(g) <= grad_threshold).all() for pair in grads for g in pair):
            return layers, loss, it, True, False
        if it == max_iters:
            return layers, loss, it, False, False
        with np.errstate(over="ignore", invalid="ignore"):
            layers = [
                (W - step_size * gW, b - step_size * gb)
                for (W, b), (gW, gb) in zip(layers, grads)
            ]
