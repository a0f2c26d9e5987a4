"""Canonical representatives under hidden-neuron permutations.

Within every hidden layer the rows of the concatenated (bias | weight-row)
matrix are put in non-increasing lexicographic order, bias first; the
comparison extends through the weight entries because biases can tie.  This
picks one element from each permutation orbit whose sort keys are pairwise
distinct within every hidden layer.  Neurons with tied keys but different
outgoing columns keep their relative order, so permuted copies of such a
network can canonicalize differently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError, check_range
from .nncore import _DISTANCE_BLOCK_BYTES, Architecture, NetworkParams, _chebyshev, _flatten
from .nncore import linear_or_none, log_monomial
from .transforms import NeuronSymmetry, _permute_neurons


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """A canonical parameterization plus the pure permutation producing it."""

    params: NetworkParams
    witness: NeuronSymmetry


def canonicalize(params: NetworkParams) -> CanonicalForm:
    """Sort each hidden layer's rows, co-permuting the downstream columns.

    Idempotent, and constant on permutation orbits whenever the sort keys
    within a layer are pairwise distinct (ties keep their relative order).
    """
    layers, orders = _canonical_layers(params.layers)
    return CanonicalForm(NetworkParams(tuple(layers)), NeuronSymmetry(tuple(orders)))


def _canonical_layers(layers) -> tuple[list, list[np.ndarray]]:
    """``canonicalize`` on plain or stacked (W, b) layers (see
    ``nncore._forward_checked``), each network sorted on its own.  Returns the
    canonical layers and the sort order of each hidden layer, one row per
    network when stacked."""
    layers = list(layers)
    orders = []
    for l in range(1, len(layers)):
        W, b = layers[l - 1]
        keys = np.concatenate([b[..., None], W], axis=-1)
        # np.lexsort's primary key is its last, so feed the negated keys
        # reversed: bias first, then the weight columns left to right.
        order = np.lexsort(np.moveaxis(-keys, -1, 0)[::-1], axis=-1)
        _permute_neurons(layers, l, order)
        orders.append(order)
    return layers, orders


def _canonical_pair(a: NetworkParams, b: NetworkParams) -> tuple[np.ndarray, NeuronSymmetry]:
    """Canonicalize two same-shaped parameterizations in one stacked pass.

    Returns their canonical flat rows, shape (2, S), each bit for bit that of
    ``canonicalize``, and the permutation that canonicalizes ``a`` and then
    undoes ``b``'s canonicalization: ``compose(inverse(wb), wa)`` for the
    witnesses ``wa``, ``wb``, which maps ``a`` onto ``b`` when the rows are
    identical.
    """
    stacked = [tuple(map(np.stack, zip(la, lb))) for la, lb in zip(a.layers, b.layers)]
    layers, orders = _canonical_layers(stacked)
    witness = NeuronSymmetry(tuple(o[0][np.argsort(o[1])] for o in orders))
    return _flatten(layers), witness


@dataclass(frozen=True)
class SymmetryProfile:
    """Distinct row-ordering counts per hidden layer and the minimal row gap.

    ``delta_min`` is +inf when every hidden layer has all-identical rows
    (the minimum over distinct-row pairs is then vacuous).
    """

    distinct_perm_counts: tuple[int, ...]
    delta_min: float
    total_multiplicity: int

    def to_json_dict(self) -> dict:
        return {
            "d_star": list(self.distinct_perm_counts),
            "delta_min": "inf" if math.isinf(self.delta_min) else self.delta_min,
            "multiplicity": str(self.total_multiplicity),
        }


def group_rows(rows: np.ndarray, tolerance: float) -> tuple[np.ndarray, list[int]]:
    """First-fit grouping of the rows of a 2-D array.

    Each row joins the first group, in order of creation, whose
    representative (its first row) lies within ``tolerance`` of it in the
    max norm, and otherwise starts a new group.  At tolerance 0 rows group
    only when bit-identical, so 0.0 and -0.0 differ.  A positive tolerance
    needs finite rows: a NaN or infinite entry raises ``DomainError``.  It
    settles the rows that ``_lone_rows`` marks as groups of their own and
    runs ``_first_fit`` on the rest only.  Returns each row's group index
    and the row index of each group's representative.
    """
    check_range("tolerance", tolerance, 0, high_open=False)
    rows = np.ascontiguousarray(rows, dtype=float)
    if tolerance == 0.0:
        # Sorting the bit patterns, ties by row index, puts equal rows next
        # to each other, each run led by its first occurrence; numbering the
        # runs by that row is first fit for an equivalence relation.
        bits = rows.view(np.uint64)
        order = np.lexsort([np.arange(len(rows)), *bits.T[::-1]])
        ordered = bits[order]  # the one sorted copy, compared with itself a row on
        lead = np.ones(len(rows), dtype=bool)
        lead[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        rank = np.argsort(np.argsort(order[lead]))
        assignment = np.empty(len(rows), dtype=np.int64)
        assignment[order] = rank[np.cumsum(lead) - 1]
        return assignment, np.sort(order[lead]).tolist()
    if not np.isfinite(rows).all():
        raise DomainError("rows must be finite (no NaN or infinity) at a positive tolerance")
    # First fit keeps each lone row as a group of its own, and a lone row
    # changes no other row's group, so first fit over the rest, with every
    # row numbered by the kept row that leads its group, is first fit over
    # all rows.
    leader = np.arange(len(rows))
    rest = np.flatnonzero(~_lone_rows(rows, tolerance))
    if rest.size:
        kept, assignment = _first_fit(rows[rest], tolerance, _chebyshev)
        leader[rest] = rest[kept[assignment]]
    kept = np.flatnonzero(leader == np.arange(len(rows)))
    return kept.searchsorted(leader), kept.tolist()


def _lone_rows(rows: np.ndarray, tolerance: float) -> np.ndarray:
    """Mark rows of the finite 2-D ``rows`` that have no other row within
    ``tolerance`` (> 0) in the computed max norm, in one vectorized pass;
    a row left unmarked may still have none.

    Two rows can be that close only when the later of them, in
    ``_widest_column_order``, lies in the earlier one's ``_slab`` (which one
    ``searchsorted`` of the upper ends gives for every row) and within
    ``tolerance`` of it on the other pivots; the pairs that pass both take
    the exact test, bit for bit ``_chebyshev``'s.  The pairs are taken in
    order, in blocks of at most ``_DISTANCE_BLOCK_BYTES`` of differences,
    and after a block every row before its last one has met all its pairs.
    The pass stops short where the rows are dense: it is skipped when the
    pairs average more than ``_LONE_PAIRS_PER_ROW`` per row, and it stops
    after a block that leaves most of the rows it settled with a row within
    ``tolerance``; only settled rows are marked.  Rows without coordinates
    are 0 apart, so none of them is marked.
    """
    n = len(rows)
    lone = np.zeros(n, dtype=bool)
    if not rows.size:
        return lone
    order, _, pivots = _widest_column_order(rows)
    key = pivots[0]
    with np.errstate(over="ignore"):  # a width or gap beyond a double is +inf
        h = tolerance + (np.abs(key) + tolerance) * MARGIN  # _slab's, for every row
        later = key.searchsorted(key + h, side="right") - np.arange(1, n + 1)
        total = int(later.sum())
        if total > _LONE_PAIRS_PER_ROW * n:
            return lone
        ends = np.cumsum(later)
        close = np.zeros(n, dtype=bool)
        settled = n
        block = max(1, _DISTANCE_BLOCK_BYTES // (8 * rows.shape[1]))
        for first in range(0, total, block):
            pair = np.arange(first, min(first + block, total))
            a = ends.searchsorted(pair, side="right")
            b = pair - (ends[a] - later[a]) + a + 1
            gaps = pivots[1:, b] - pivots[1:, a]
            np.abs(gaps, out=gaps)
            near = gaps.max(axis=0, initial=0.0) <= tolerance
            i, j = a[near], b[near]
            gaps = rows[order[i]] - rows[order[j]]
            np.abs(gaps, out=gaps)
            near = gaps.max(axis=1) <= tolerance
            close[i[near]] = close[j[near]] = True
            if 2 * int(close[: a[-1]].sum()) > a[-1]:
                settled = a[-1]
                break
    lone[order[:settled]] = ~close[:settled]
    return lone


# Relative slack on a slab's half-width; see _slab.
MARGIN = 1e-9
# Columns whose gaps bound a distance from below (_first_fit and
# empirical._greedy_cover_centers); _first_fit takes the bound on slabs of
# more than _PIVOT_MIN_ROWS rows, where it spares more than it costs.
_PIVOTS = 3
_PIVOT_MIN_ROWS = 64
# Most candidate pairs per row for which _lone_rows runs.  On a 2-vCPU
# Xeon it spends 0.1-0.15 us a pair, and the first-fit iteration a lone row
# spares takes 20-40 us, so past a few hundred pairs a row it costs more
# than it spares.
_LONE_PAIRS_PER_ROW = 128


def _widest_column_order(pts: np.ndarray) -> tuple:
    """A stable sort of the rows (which need a column) on the widest column,
    the first on a tie; each row's place in it; and the sorted rows'
    coordinates on the ``_PIVOTS`` widest columns, it first, as one array."""
    with np.errstate(over="ignore"):  # a width beyond a double is +inf
        cols = np.argsort(-np.ptp(pts, axis=0), kind="stable")[:_PIVOTS]
    order = np.argsort(pts[:, cols[0]], kind="stable")
    return order, np.argsort(order), pts[order, cols[:, None]]


def _slab(key: np.ndarray, c: float, r: float) -> tuple:
    """The range [lo, hi) of the sorted ``key`` outside which every row's
    computed L-infinity distance to a row with key ``c`` exceeds ``r`` > 0:
    the rows whose key lies in [c - h, c + h], h = r + (|c| + r) MARGIN.

    One coordinate bounds the distance from below, and the computed
    distance is at least the computed gap |key - c| on it (rounding is
    monotone).  A key past either end lies more than h from c, less half an
    ulp of |c| + h for the rounding of that end; h exceeds r by about
    (|c| + r) 1e-9, millions of ulps of r, so the computed gap exceeds r.
    Where the margin is under an ulp, c, r and the keys near them are
    subnormal and their sums and gaps exact, so a key past a closed end is
    more than r from c.  Without the margin a computed gap can round down
    onto r past the end: c = -1 and key 1 + 2**-52 are a computed 2.0
    apart, and fl(c + 2) = 1.
    """
    c, r = float(c), float(r)  # Python floats: a sum beyond a double is inf, no warning
    h = r + (abs(c) + r) * MARGIN
    return key.searchsorted(c - h), key.searchsorted(c + h, side="right")


def _first_fit(pts: np.ndarray, threshold: float, distances, sort=None) -> tuple:
    """First-fit grouping of the finite rows ``pts``: a row joins the first
    kept row within ``threshold`` (> 0) of it, and is kept otherwise.
    Returns the kept rows' indices, ascending, and each row's group: the
    position of its kept row among them.

    ``distances`` is ``nncore._chebyshev`` or a kernel of its signature.
    ``live`` marks the rows farther than ``threshold`` from every kept row;
    the next kept row is the first live one, and a kept row c takes the
    live rows within ``threshold`` of it, itself included, into its group.
    Only those in c's ``_slab`` on the widest sorted column can be, and in a
    slab of over ``_PIVOT_MIN_ROWS`` rows only those within ``threshold`` of c
    on every other pivot (the slab already bounds the sort column's gap, up
    to its margin, which the kernel then decides): each kept row costs one
    distance pass over those.
    ``sort``, when given, is ``_widest_column_order(pts)`` made before.
    """
    assignment = np.zeros(len(pts), dtype=np.int64)
    if not pts.size:  # no rows, or no coordinates: every row is row 0
        return np.arange(min(len(pts), 1)), assignment
    order, rank, pivots = _widest_column_order(pts) if sort is None else sort
    key = pivots[0]
    live = np.ones(len(pts), dtype=bool)
    kept, i = [], 0
    with np.errstate(over="ignore"):  # a gap beyond a double is +inf
        while live[i]:
            j = rank[i]
            lo, hi = _slab(key, key[j], threshold)
            near = order[lo:hi]
            if hi - lo > _PIVOT_MIN_ROWS:
                gaps = pivots[1:, lo:hi] - pivots[1:, j, None]
                np.abs(gaps, out=gaps)
                near = near[gaps.max(axis=0, initial=0.0) <= threshold]
            near = near[live[near]]
            near = near[distances(pts[i : i + 1], pts[near])[0] <= threshold]
            live[near] = False
            assignment[near] = len(kept)
            kept.append(i)
            i = int(np.argmax(live))  # the first live row, or 0 when none is left
    return np.array(kept, dtype=np.intp), assignment


def symmetry_profile(params: NetworkParams, row_tolerance: float = 0.0) -> SymmetryProfile:
    """Count distinct row orderings per hidden layer and the minimal L-inf gap
    between distinct rows.

    A row is a hidden neuron's (incoming | bias) only; its outgoing weights
    are not compared.  So the counts are the orbit size and the gap the
    image separation only when tied rows are whole-neuron duplicates (equal
    outgoing columns too); otherwise the orbit can be larger and two images
    closer than ``delta_min``.  Row identity is exact bit equality by
    default; a positive tolerance groups nearly identical rows instead
    (useful after training, where exact ties never occur), and then a NaN
    or infinite weight or bias raises ``DomainError`` (see ``group_rows``).
    """
    check_range("row tolerance", row_tolerance, 0, high_open=False)
    counts = []
    delta = math.inf
    for l in range(1, params.n_layers):
        W, b = params.layers[l - 1]
        rows = np.column_stack([W, b])
        assignment, rep_idx = group_rows(rows, row_tolerance)
        ties = math.prod(math.factorial(int(n)) for n in np.bincount(assignment))
        counts.append(math.factorial(rows.shape[0]) // ties)
        reps = rows[rep_idx]
        for a in range(len(reps) - 1):
            gaps = np.abs(reps[a + 1 :] - reps[a]).max(axis=1)
            delta = min(delta, float(gaps[gaps > row_tolerance].min(initial=math.inf)))
    return SymmetryProfile(tuple(counts), delta, math.prod(counts))


@dataclass(frozen=True)
class EffectiveVolume:
    """Box volume before and after dividing out hidden-layer permutations.

    Values are carried in log space; ``total`` / ``effective`` are the linear
    values when they fit in a double, else None.
    """

    log_total: float
    log_effective: float
    total: float | None
    effective: float | None


def effective_volume(arch: Architecture, B: float) -> EffectiveVolume:
    """Volume of [-B, B]^S and of its canonical slice (divide by prod d_l!)."""
    check_range("B", B, 0, low_open=True)
    log_total = arch.param_count * log_monomial((2.0, 1), (B, 1))
    log_effective = log_total - arch.log_permutation_count
    return EffectiveVolume(
        log_total, log_effective, linear_or_none(log_total), linear_or_none(log_effective)
    )


# Most permutations ``distinct_permutation_images`` will enumerate.
ORBIT_ENUMERATION_LIMIT = 100_000


def distinct_permutation_images(params: NetworkParams) -> list[NetworkParams]:
    """Enumerate all hidden-layer permutations of ``params`` and deduplicate.

    The count equals the product of per-layer distinct-ordering counts when
    duplicated rows are duplicated as entire neurons (incoming row and
    outgoing column together); layers whose duplicated rows feed distinct
    outgoing columns can produce strictly more images.  Images come in order
    of first occurrence, so the first is ``params`` itself, bit for bit (the
    identity permutation comes first); permutations are taken in blocks
    whose two float64 copies of the parameters fill at most
    ``nncore._DISTANCE_BLOCK_BYTES``, so memory holds the distinct images
    plus one block.  More than ``ORBIT_ENUMERATION_LIMIT`` permutations raise
    ``BudgetExceededError`` before any is taken.
    """
    sizes = [params.weight(l).shape[0] for l in range(1, params.n_layers)]
    total = math.prod(map(math.factorial, sizes))
    if total > ORBIT_ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"orbit enumeration needs {total} permutations (limit {ORBIT_ENUMERATION_LIMIT})",
            required=total,
        )
    # Two float64 copies per permutation: the gathered layers and their rows.
    block = max(1, _DISTANCE_BLOCK_BYTES // (16 * sum(W.size + b.size for W, b in params.layers)))
    combos = _permutation_product(sizes)
    seen: set[bytes] = set()
    images = []
    while chunk := list(itertools.islice(combos, block)):
        layers = [
            tuple(np.broadcast_to(a, (len(chunk), *a.shape)) for a in wb) for wb in params.layers
        ]
        for l, perms in enumerate(zip(*chunk), start=1):
            _permute_neurons(layers, l, np.array(perms))
        for i, row in enumerate(_flatten(layers)):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                images.append(NetworkParams(tuple((W[i], b[i]) for W, b in layers)))
    return images


def _permutation_product(sizes):
    """``itertools.product`` of the permutations of each ``range(d)``, in the
    same order, without holding every layer's permutations at once."""
    if not sizes:
        yield ()
        return
    for head in itertools.permutations(range(sizes[0])):
        for tail in _permutation_product(sizes[1:]):
            yield (head, *tail)
