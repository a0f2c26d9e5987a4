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


def forward_trace_reference(activations, layers, X):
    """The trace-keeping forward layer loop over plain or stacked (W, b)
    layers, with out-of-place activations: every pre-activation and
    activation is kept, and overflow is left as non-finite values.
    ``activations`` holds each hidden layer's ``Activation``.  Returns
    (pre, post)."""
    pre, post = [], [X]
    h = X
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (W, b) in enumerate(layers):
            z = h @ np.swapaxes(W, -1, -2) + b[..., None, :]
            pre.append(z)
            h = _ref_act(activations[l], z) if l < len(activations) else z
            post.append(h)
    return pre, post


def first_non_finite_layer(pre):
    """1-based index of the first pre-activation with a non-finite entry,
    or None."""
    for l, z in enumerate(pre, start=1):
        if not np.isfinite(z).all():
            return l
    return None


# ---------------------------------------------------------------------------
# Finite-difference gradients


def fd_gradient(arch, params, x, target, h=1e-5):
    """Central finite differences on the flat parameter vector of the
    squared error sum_k (f(x)_k - t_k)^2."""
    from fnequiv.nncore import forward, params_from_flat

    def squared_error(flat):
        d = forward(arch, params_from_flat(arch, flat), x) - np.asarray(target, dtype=float)
        return float(np.sum(d * d))

    flat = params.flat()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        grad[i] = (squared_error(up) - squared_error(down)) / (2.0 * h)
    return grad


def params_max_diff(a, b) -> float:
    """Entrywise L-infinity distance between two same-shaped
    parameterizations; NaN when either has a NaN entry."""
    from fnequiv.nncore import check_same_shapes

    check_same_shapes(a, b)
    return float(np.abs(a.flat() - b.flat()).max())


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


def edge_packing_number(D, eps):
    """Largest subset with pairwise distances > 2*eps, from the pair
    formulation of the MILP: one ``x_i + x_j <= 1`` row per pair within
    2*eps, given sparse with two nonzeros a row."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    n = D.shape[0]
    ii, jj = np.where(np.triu(D <= 2.0 * eps, k=1))
    if ii.size == 0:
        return n
    A = csr_array(
        (np.ones(2 * ii.size), np.column_stack([ii, jj]).ravel(), np.arange(0, 2 * ii.size + 1, 2)),
        shape=(ii.size, n),
    )
    res = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(A, lb=np.zeros(ii.size), ub=np.ones(ii.size)),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    assert res.success, res.message
    return int(round(-res.fun))


def greedy_cover_centers_reference(pts, epsilon):
    """Farthest-point greedy eps-cover over all points at every step, as the
    list of center indices and the list of distances at which each center
    after the first was picked: the first center is row 0, each next one the
    first row farthest from the centers so far among those farther than
    eps, until none is left."""
    min_dist = np.abs(pts - pts[0]).max(axis=1)
    centers, radii = [0], []
    while True:
        uncovered = min_dist > epsilon
        if not uncovered.any():
            return centers, radii
        candidate = np.where(uncovered, min_dist, -np.inf)
        idx = int(np.argmax(candidate))  # argmax returns the first maximizer
        centers.append(idx)
        radii.append(float(min_dist[idx]))
        min_dist = np.minimum(min_dist, np.abs(pts - pts[idx]).max(axis=1))


def greedy_cover_reference(pts, epsilon):
    """Size of the farthest-point greedy eps-cover."""
    return len(greedy_cover_centers_reference(pts, epsilon)[0])


def greedy_pack_reference(pts, epsilon):
    """First-fit eps-packing size, one row at a time in index order: a row is
    kept when it is farther than 2*eps from every row kept before it."""
    kept = [0]
    threshold = 2.0 * epsilon
    for i in range(1, len(pts)):
        d = np.abs(pts[list(kept)] - pts[i]).max(axis=1)
        if (d > threshold).all():
            kept.append(i)
    return len(kept)


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


def min_row_gap_reference(layers, tolerance):
    """Smallest L-infinity gap above ``tolerance`` between the first rows of
    the (bias | weight-row) groups of any hidden layer, one pair at a time;
    +inf when there is none."""
    delta = math.inf
    for W, b in layers[:-1]:
        rows = [list(w) + [bb] for w, bb in zip(W, b)]
        reps = [rows[g[0]] for g in first_fit_row_groups(rows, tolerance)]
        for r, s in itertools.combinations(reps, 2):
            gap = max(abs(float(x) - float(y)) for x, y in zip(r, s))
            if gap > tolerance:
                delta = min(delta, gap)
    return delta


# ---------------------------------------------------------------------------
# Orbit enumeration, one permutation at a time


def permutation_images_reference(layers):
    """Distinct images of a network under hidden-neuron permutations.

    ``layers`` is a list of (W, b) arrays.  Every combination of one
    permutation per hidden layer is tried in ``itertools.product`` order;
    each gathers the rows of its layer and the columns of the next one.  An
    image is kept when no earlier one has the same bits.  Returns the kept
    images as lists of (W, b) arrays, in order of first occurrence.
    """
    sizes = [len(b) for W, b in layers[:-1]]
    seen, images = set(), []
    for perms in itertools.product(*[itertools.permutations(range(d)) for d in sizes]):
        image = [(np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in layers]
        for l, p in enumerate(perms):
            p = list(p)
            W, b = image[l]
            image[l] = (W[p], b[p])
            W_next, b_next = image[l + 1]
            image[l + 1] = (W_next[:, p], b_next)
        key = b"".join(a.tobytes() for pair in image for a in pair)
        if key not in seen:
            seen.add(key)
            images.append(image)
    return images


def neuron_symmetry_reference(layers, perms, factors):
    """A neuron-symmetry element applied one neuron at a time.

    New neuron i of hidden layer l takes old neuron ``perms[l][i]``'s
    incoming row and bias times ``factors[l][i]``, and its outgoing column
    divided by that factor, one Python float operation per entry.  Returns
    the image as a list of (W, b) arrays.
    """
    image = [(np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in layers]
    for l, (p, f) in enumerate(zip(perms, factors)):
        (W, b), (W_next, b_next) = image[l], image[l + 1]
        W_new, b_new, W_next_new = np.empty_like(W), np.empty_like(b), np.empty_like(W_next)
        for i, (j, s) in enumerate(zip(p, f)):
            j, s = int(j), float(s)
            W_new[i] = [float(w) * s for w in W[j]]
            b_new[i] = float(b[j]) * s
            W_next_new[:, i] = [float(w) / s for w in W_next[:, j]]
        image[l], image[l + 1] = (W_new, b_new), (W_next_new, b_next)
    return image


def blocked_draws_reference(layer_shapes, kind, a, b, seed, n, block):
    """``n`` flat parameter draws from one ``default_rng(seed)``, ``block``
    rows at a time (the last block partial): within a block, each layer's
    (m, fan_out * fan_in) weights, then its (m, fan_out) biases, side by
    side; the blocks stacked.  For ``uniform`` or ``normal`` each part is
    ``rng.uniform(a, b)`` or ``rng.normal(a, b)``.  For ``xavier`` or
    ``he`` (a and b unused) the weights are ``rng.normal(0, sqrt(2 / fan))``,
    fan being fan_in + fan_out or fan_in, and the biases are zeros."""
    rng = np.random.default_rng(seed)
    blocks = []
    for start in range(0, n, block):
        m = min(block, n - start)
        parts = []
        for fan_out, fan_in in layer_shapes:
            if kind in ("xavier", "he"):
                fan = fan_in + fan_out if kind == "xavier" else fan_in
                parts.append(rng.normal(0.0, math.sqrt(2.0 / fan), size=(m, fan_out * fan_in)))
                parts.append(np.zeros((m, fan_out)))
            else:
                parts.append(getattr(rng, kind)(a, b, size=(m, fan_out * fan_in)))
                parts.append(getattr(rng, kind)(a, b, size=(m, fan_out)))
        blocks.append(np.concatenate(parts, axis=1))
    return np.concatenate(blocks)


def amplification_counts_reference(draws, images, star_idx, tolerance):
    """Single-image and orbit hit counts of the draws (one per row) against
    the flat images, from the Chebyshev distance of every draw to every
    image."""
    from scipy.spatial.distance import cdist

    hit = cdist(draws, images, metric="chebyshev") <= tolerance
    return int(hit[:, star_idx].sum()), int(hit.any(axis=1).sum())


def orbit_hits_reference(draws, images, tolerance):
    """Draws (one per row) within ``tolerance`` of the first image, and of
    any image (rows of ``images``), in the max norm: every draw against
    every image at once, by brute force."""
    hit = np.abs(draws[:, None] - images).max(-1) <= tolerance
    return int(hit[:, 0].sum()), int(hit.any(axis=1).sum())


# ---------------------------------------------------------------------------
# Canonical neuron order and the function-class grid, one network at a time


def canonical_sort(layers):
    """Canonical form of one network and the sort order of each hidden layer.

    ``layers`` is a list of (W, b) arrays.  The neurons of each hidden layer
    are ordered by the tuple (bias, incoming weights left to right), largest
    first, and neurons with equal tuples keep their relative order; the next
    layer's columns follow the same order.  As in numpy's sort, a NaN entry
    is below every number and equal to any NaN.  Returns (layers, orders).
    """
    layers = [(np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in layers]
    orders = []

    def entry(v):
        v = float(v)
        return (False, 0.0) if math.isnan(v) else (True, v)

    for l in range(len(layers) - 1):
        W, b = layers[l]
        keys = [(entry(b[i]), *(entry(w) for w in W[i])) for i in range(len(b))]
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
# Ball sample points, recomputed from scratch on every call


def ball_points_reference(dim, n, radius, seed=0):
    """The seeded ball points, built afresh with no cache: ``n`` standard
    normal rows, each divided by its norm, times radii ``radius * U **
    (1 / dim)`` from the same generator, then the origin and the +-radius
    axis points appended."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n, dim))
    lengths = np.linalg.norm(directions, axis=1, keepdims=True)
    lengths[lengths == 0.0] = 1.0
    radii = radius * rng.random((n, 1)) ** (1.0 / dim)
    pts = directions / lengths * radii
    axes = np.concatenate([np.eye(dim), -np.eye(dim)]) * radius
    return np.concatenate([pts, np.zeros((1, dim)), axes])


# ---------------------------------------------------------------------------
# Full-batch gradient descent for one network, plain 2-D arrays


def _ref_act(act, z):
    """Out-of-place value of the ``Activation`` ``act`` at ``z``."""
    if act.name == "relu":
        return np.maximum(z, 0.0)
    if act.name == "leaky_relu":
        return np.where(z >= 0.0, z, act.param * z)
    if act.name == "tanh":
        return np.tanh(z)
    if act.name == "sigmoid":
        from scipy.special import expit

        return expit(z)
    if act.name == "identity":
        return z
    raise ValueError(act.name)


def _ref_act_deriv(act, z):
    """The derivative of ``act`` at the pre-activation ``z``, computed from
    ``z`` itself; the ReLU subgradient at 0 is 0."""
    if act.name == "relu":
        return (z > 0.0).astype(float)
    if act.name == "leaky_relu":
        return np.where(z > 0.0, 1.0, act.param)
    if act.name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if act.name == "sigmoid":
        from scipy.special import expit

        s = expit(z)
        return s * (1.0 - s)
    if act.name == "identity":
        return np.ones_like(z)
    raise ValueError(act.name)


def gd_reference(layers, activations, X, Y, step_size, max_iters, grad_threshold):
    """Full-batch gradient descent on the mean squared error of one net.

    ``layers`` is a list of (W, b) arrays with W of shape (d_out, d_in),
    ``activations`` holds each hidden layer's ``Activation`` (tanh or relu)
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
            zs, hs = forward_trace_reference(activations, layers, X)
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


# ---------------------------------------------------------------------------
# Basin summary, one run at a time


def basin_summary_reference(runs, cluster_tolerance):
    """Every ``BasinSummary`` field but ``runs``, and every run's cluster id,
    rebuilt from the trained runs one run at a time.

    Converged runs are canonicalized one by one and grouped first-fit at the
    tolerance (1e-3 by default).  With no explicit tolerance, the final one
    is a quarter of the minimal row gap of the first run of the largest
    group, when that gap is finite and positive.  The reference run is the
    first run of the largest group; a run is an orbit hit when its canonical
    form, and a single hit when its raw parameters, lie within the tolerance
    of the reference's.  Returns (fields dict, cluster ids).  It calls the
    library's one-network functions, never basin's stacked path.
    """
    from fnequiv.canonical import canonicalize, symmetry_profile

    conv = [i for i, r in enumerate(runs) if r.converged]
    tol = 1e-3 if cluster_tolerance is None else cluster_tolerance
    flats = [canonicalize(runs[i].final_params).params.flat() for i in conv]

    def largest_first(groups):
        return max(groups, key=len)[0]  # max keeps the earliest of equal sizes

    groups = first_fit_row_groups(flats, tol)
    if cluster_tolerance is None and groups:
        best = runs[conv[largest_first(groups)]].final_params
        delta = symmetry_profile(best, row_tolerance=tol).delta_min
        if math.isfinite(delta) and delta > 0:
            tol = delta / 4.0
            groups = first_fit_row_groups(flats, tol)

    cluster_ids = [None] * len(runs)
    for cid, g in enumerate(groups):
        for k in g:
            cluster_ids[conv[k]] = cid
    fields = {
        "n_runs": len(runs),
        "n_converged": len(conv),
        "cluster_sizes": tuple(sorted((len(g) for g in groups), reverse=True)),
        "cluster_tolerance": tol,
        "reference_profile": None,
        "orbit_fraction": 0.0,
        "single_fraction": 0.0,
        "predicted_orbit_fraction": 0.0,
        "no_converged_runs": not conv,
    }
    if groups:
        ref = largest_first(groups)
        star = runs[conv[ref]].final_params
        profile = symmetry_profile(star, row_tolerance=tol)
        orbit = sum(1 for f in flats if max(abs(a - b) for a, b in zip(f, flats[ref])) <= tol)
        single = sum(1 for i in conv if params_max_diff(runs[i].final_params, star) <= tol)
        fields.update(
            reference_profile=profile,
            orbit_fraction=orbit / len(conv),
            single_fraction=single / len(conv),
            predicted_orbit_fraction=single / len(conv) * profile.total_multiplicity,
        )
    return fields, cluster_ids
