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

from .errors import BudgetExceededError, check_range
from .nncore import Architecture, NetworkParams, _flatten, linear_or_none, stack_block
from .transforms import PermutationSpec, _permute_neurons


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """A canonical parameterization plus the permutation that produces it."""

    params: NetworkParams
    witness: PermutationSpec


def canonicalize(params: NetworkParams) -> CanonicalForm:
    """Sort each hidden layer's rows, co-permuting the downstream columns.

    Idempotent, and constant on permutation orbits whenever the sort keys
    within a layer are pairwise distinct (ties keep their relative order).
    """
    layers, orders = _canonical_layers(params.layers)
    return CanonicalForm(NetworkParams(tuple(layers)), PermutationSpec(tuple(orders)))


def _canonical_layers(layers) -> tuple[list, list[np.ndarray]]:
    """``canonicalize`` on plain or stacked (W, b) layers (see
    ``nncore._forward_trace``), each network sorted on its own.  Returns the
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


def _canonical_pair(a: NetworkParams, b: NetworkParams) -> tuple[np.ndarray, PermutationSpec]:
    """Canonicalize two same-shaped parameterizations in one stacked pass.

    Returns their canonical flat rows, shape (2, S), each bit for bit that of
    ``canonicalize``, and the permutation that canonicalizes ``a`` and then
    undoes ``b``'s canonicalization: ``compose(inverse(wb), wa)`` for the
    witnesses ``wa``, ``wb``, which maps ``a`` onto ``b`` when the rows are
    identical.
    """
    stacked = [tuple(map(np.stack, zip(la, lb))) for la, lb in zip(a.layers, b.layers)]
    layers, orders = _canonical_layers(stacked)
    witness = PermutationSpec(tuple(o[0][np.argsort(o[1])] for o in orders))
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
    only when bit-identical, so 0.0 and -0.0 differ.  Returns each row's
    group index and the row index of each group's representative.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if tolerance == 0.0:
        # Sorting the bit patterns, ties by row index, puts equal rows next
        # to each other, each run led by its first occurrence; numbering the
        # runs by that row is first fit for an equivalence relation.
        bits = rows.view(np.uint64)
        order = np.lexsort([np.arange(len(rows)), *bits.T[::-1]])
        lead = np.ones(len(rows), dtype=bool)
        lead[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
        rank = np.argsort(np.argsort(order[lead]))
        assignment = np.empty(len(rows), dtype=np.int64)
        assignment[order] = rank[np.cumsum(lead) - 1]
        return assignment, np.sort(order[lead]).tolist()
    assignment = np.empty(len(rows), dtype=np.int64)
    reps: list[int] = []
    rep_rows = np.empty_like(rows)  # the first len(reps) rows are rows[reps]
    for i, row in enumerate(rows):
        near = np.flatnonzero(np.abs(rep_rows[: len(reps)] - row).max(axis=1) <= tolerance)
        if near.size:
            assignment[i] = near[0]
        else:
            assignment[i] = len(reps)
            rep_rows[len(reps)] = row
            reps.append(i)
    return assignment, reps


def symmetry_profile(params: NetworkParams, row_tolerance: float = 0.0) -> SymmetryProfile:
    """Count distinct row orderings per hidden layer and the minimal L-inf gap
    between distinct rows.

    A row is a hidden neuron's (incoming | bias) only; its outgoing weights
    are not compared.  So the counts are the orbit size and the gap the
    image separation only when tied rows are whole-neuron duplicates (equal
    outgoing columns too); otherwise the orbit can be larger and two images
    closer than ``delta_min``.  Row identity is exact bit equality by
    default; a positive tolerance groups nearly identical rows instead
    (useful after training, where exact ties never occur).
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
    log_total = arch.param_count * math.log(2.0 * B)
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
    identity permutation comes first); permutations are taken in blocks of
    ``nncore.stack_block`` size, so memory holds the distinct images plus
    one block.  More than ``ORBIT_ENUMERATION_LIMIT`` permutations raise
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
    block = stack_block(16 * sum(W.size + b.size for W, b in params.layers))
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
