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

from .errors import BudgetExceededError, DomainError
from .nncore import MAX_LOG_LINEAR, Architecture, NetworkParams, _flatten
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
        # np.unique numbers the distinct rows in sorted order; renumber them
        # by first occurrence, which is first fit for an equivalence relation.
        _, first, inverse = np.unique(
            rows.view(np.uint64), axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        return np.argsort(order)[inverse.reshape(-1)], first[order].tolist()
    assignment = np.empty(len(rows), dtype=np.int64)
    reps: list[int] = []
    for i, row in enumerate(rows):
        near = np.flatnonzero(np.abs(rows[reps] - row).max(axis=1) <= tolerance)
        if near.size:
            assignment[i] = near[0]
        else:
            assignment[i] = len(reps)
            reps.append(i)
    return assignment, reps


def symmetry_profile(params: NetworkParams, row_tolerance: float = 0.0) -> SymmetryProfile:
    """Count distinct row orderings per hidden layer and the minimal L-inf gap
    between distinct rows.

    Row identity is exact bit equality by default; a positive tolerance
    groups nearly identical rows instead (useful after training, where exact
    ties never occur).
    """
    if row_tolerance < 0:
        raise DomainError("row tolerance must be nonnegative")
    counts = []
    delta = math.inf
    for l in range(1, params.n_layers):
        W, b = params.layers[l - 1]
        rows = np.column_stack([W, b])
        assignment, rep_idx = group_rows(rows, row_tolerance)
        d = rows.shape[0]
        denom = 1
        for size in np.bincount(assignment):
            denom *= math.factorial(int(size))
        counts.append(math.factorial(d) // denom)
        reps = rows[rep_idx]
        for a, bb in itertools.combinations(range(len(reps)), 2):
            gap = float(np.abs(reps[a] - reps[bb]).max())
            if gap > row_tolerance:
                delta = min(delta, gap)
    total = 1
    for c in counts:
        total *= c
    return SymmetryProfile(tuple(counts), delta, total)


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
    if B <= 0:
        raise DomainError("B must be positive")
    log_total = arch.param_count * math.log(2.0 * B)
    log_effective = log_total - arch.log_permutation_count
    to_linear = lambda lv: math.exp(lv) if lv <= MAX_LOG_LINEAR else None
    return EffectiveVolume(log_total, log_effective, to_linear(log_total), to_linear(log_effective))


def distinct_permutation_images(
    params: NetworkParams, limit: int = 100_000
) -> list[NetworkParams]:
    """Enumerate all hidden-layer permutations of ``params`` and deduplicate.

    The count equals the product of per-layer distinct-ordering counts when
    duplicated rows are duplicated as entire neurons (incoming row and
    outgoing column together); layers whose duplicated rows feed distinct
    outgoing columns can produce strictly more images.
    """
    sizes = [params.weight(l).shape[0] for l in range(1, params.n_layers)]
    total = 1
    for d in sizes:
        total *= math.factorial(d)
    if total > limit:
        raise BudgetExceededError(
            f"orbit enumeration needs {total} permutations (limit {limit})",
            required=total,
        )
    combos = itertools.product(*[itertools.permutations(range(d)) for d in sizes])
    layers = [tuple(np.broadcast_to(a, (total, *a.shape)) for a in wb) for wb in params.layers]
    for l, perms in enumerate(zip(*combos), start=1):
        _permute_neurons(layers, l, np.array(perms))
    _, reps = group_rows(_flatten(layers), 0.0)
    return [NetworkParams(tuple((W[i], b[i]) for W, b in layers)) for i in reps]
