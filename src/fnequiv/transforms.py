"""Parameter-space transformations that leave the network function unchanged.

Permutations are stored as index arrays in gather convention: applying ``p``
to a vector v yields ``v[p]``, i.e. new position i receives old entry p[i].
The matrix forms P and P-transpose correspond to gathering rows by ``p`` and
gathering columns by ``p`` respectively.  ``NeuronSymmetry`` adds sign flips and scalings.
"""

from __future__ import annotations

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
class NeuronSymmetry:
    """One element of the hidden-neuron symmetry group: per hidden layer, a
    permutation and finite, nonzero factors (all ones by default).  Applied,
    new neuron i of layer l is ``factors[l][i]`` times old neuron
    ``perms[l][i]``: incoming row and bias gathered and multiplied, outgoing
    column gathered and divided.  A negative factor needs an odd activation,
    one of magnitude other than 1 a positively homogeneous one (Chen, Lu &
    Hecht-Nielsen 1993; Phuong & Lampert 2020)."""

    perms: tuple[np.ndarray, ...]
    factors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        perms = tuple(_as_perm(p) for p in self.perms)
        factors = [np.ones(p.size) for p in perms] if self.factors is None else self.factors
        factors = tuple(np.array(f, dtype=float) for f in factors)
        if [f.shape for f in factors] != [p.shape for p in perms]:
            raise ShapeError("one factor per permuted neuron is required")
        if not all(np.isfinite(f).all() and f.all() for f in factors):
            raise DomainError("factors must be finite and nonzero")
        for f in factors:
            f.setflags(write=False)
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def scaling(cls, arch: Architecture, layer: int, alpha) -> "NeuronSymmetry":
        """Scale hidden layer ``layer`` by ``alpha`` > 0; its activation must be
        positively homogeneous, even where every factor is 1."""
        for a in alpha:
            check_range("scaling factor", float(a), 0, low_open=True)
        return cls._on_layer(arch, layer, alpha, "is_positive_homogeneous")

    @classmethod
    def sign_flip(cls, arch: Architecture, layer: int, signs) -> "NeuronSymmetry":
        """Negate hidden layer ``layer``'s neurons where ``signs`` is -1; its
        activation must be odd, even where every sign is +1."""
        if not np.all(np.abs(np.asarray(signs, dtype=float)) == 1.0):
            raise DomainError("signs must be +1 or -1")
        return cls._on_layer(arch, layer, signs, "is_odd")

    @classmethod
    def _on_layer(cls, arch, l: int, factors, flag: str) -> "NeuronSymmetry":
        """``factors`` on hidden layer ``l``, whose activation must have ``flag``."""
        check_range("layer", l, 1, arch.depth, high_open=False)
        _gate(arch, l, flag)
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (arch.hidden_widths[l - 1],):
            raise ShapeError("one factor per neuron is required")
        units = [np.ones(d) for d in arch.hidden_widths]
        units[l - 1] = factors
        return cls(tuple(np.arange(d) for d in arch.hidden_widths), tuple(units))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(p.size for p in self.perms)

    def is_identity(self) -> bool:
        return self == NeuronSymmetry(tuple(np.arange(d) for d in self.sizes))

    def __eq__(self, other):
        return (
            isinstance(other, NeuronSymmetry)
            and self.sizes == other.sizes
            and all(map(np.array_equal, self.perms + self.factors, other.perms + other.factors))
        )

    def apply(self, params: NetworkParams, arch: Architecture | None = None) -> NetworkParams:
        """Gather each hidden layer by its permutation, then rescale it where a factor
        is not 1, gated on ``arch``'s activation; a pure permutation is bit-exact."""
        if arch is not None:
            check_shapes(arch, params)
        widths = tuple(W.shape[0] for W, _ in params.layers[:-1])
        if self.sizes != widths:
            raise ShapeError(f"element acts on hidden widths {self.sizes}, network has {widths}")
        layers = list(params.layers)
        for l, (p, f) in enumerate(zip(self.perms, self.factors), start=1):
            _permute_neurons(layers, l, p)
            if (f != 1.0).any():
                for flag, needed in (("is_odd", f < 0), ("is_positive_homogeneous", abs(f) != 1)):
                    if needed.any():
                        _gate(arch, l, flag)
                (W, b), (W_next, b_next) = layers[l - 1], layers[l]
                layers[l - 1] = (W * f[:, None], b * f)
                layers[l] = (W_next / f, b_next)
        return NetworkParams(tuple(layers))

    def to_json_list(self) -> list[list[int]]:
        """0-based index arrays, one per hidden layer, of a pure permutation."""
        if not all((f == 1.0).all() for f in self.factors):
            raise DomainError("only a pure permutation has a JSON form")
        return [[int(i) for i in p] for p in self.perms]

    @classmethod
    def from_json_list(cls, doc) -> "NeuronSymmetry":
        """Inverse of ``to_json_list``; every index must be a JSON integer."""
        return cls(tuple(np.array([_json_int(i) for i in p], dtype=np.int64) for p in doc))


def _gate(arch: Architecture | None, l: int, flag: str) -> None:
    """Refuse unless the activation of hidden layer ``l`` has ``flag``."""
    if arch is None:
        raise UnsupportedTransformError("factors other than 1 need the architecture")
    act, name = arch.activations[l - 1], "odd" if flag == "is_odd" else "positively homogeneous"
    if not getattr(act, flag):
        raise UnsupportedTransformError(
            f"{act.name} is not {name}, so the transform does not preserve the function"
        )


def random_spec(arch: Architecture, rng: np.random.Generator) -> NeuronSymmetry:
    return NeuronSymmetry(tuple(rng.permutation(d) for d in arch.hidden_widths))


def inverse(g: NeuronSymmetry) -> NeuronSymmetry:
    qs = tuple(np.argsort(p) for p in g.perms)
    return NeuronSymmetry(qs, tuple(1.0 / f[q] for f, q in zip(g.factors, qs)))


def compose(second: NeuronSymmetry, first: NeuronSymmetry) -> NeuronSymmetry:
    """The element equal to applying ``first`` and then ``second``."""
    if second.sizes != first.sizes:
        raise ShapeError("the elements act on different layer sizes")
    return NeuronSymmetry(
        tuple(p1[p2] for p1, p2 in zip(first.perms, second.perms)),
        tuple(f1[p2] * f2 for f1, p2, f2 in zip(first.factors, second.perms, second.factors)),
    )


def apply_permutation(params: NetworkParams, g: NeuronSymmetry) -> NetworkParams:
    """``g.apply(params)``: re-index the hidden neurons; every factor must be 1."""
    return g.apply(params)


def _permute_neurons(layers: list, l: int, p: np.ndarray) -> None:
    """Gather the rows of hidden layer ``l`` (1-based) and the columns of
    layer l+1 by ``p``, in place in the list ``layers``: plain (W, b) pairs
    with ``p`` of shape (d,), or stacked ones (see ``nncore._forward_checked``)
    with one permutation per network, ``p`` of shape (R, d).  The columns
    are gathered as rows of the transpose and copied back to C order."""
    (W, b), (W_next, b_next) = layers[l - 1], layers[l]
    idx = (p,) if p.ndim == 1 else (np.arange(len(p))[:, None], p)
    layers[l - 1] = (W[idx], b[idx])
    layers[l] = (np.ascontiguousarray(W_next.swapaxes(-1, -2)[idx].swapaxes(-1, -2)), b_next)


def apply_scaling(arch: Architecture, params: NetworkParams, layer: int, alpha) -> NetworkParams:
    """Apply ``NeuronSymmetry.scaling(arch, layer, alpha)`` to ``params``."""
    return NeuronSymmetry.scaling(arch, layer, alpha).apply(params, arch)


def apply_sign_flip(arch: Architecture, params: NetworkParams, layer: int, signs) -> NetworkParams:
    """Apply ``NeuronSymmetry.sign_flip(arch, layer, signs)`` to ``params``."""
    return NeuronSymmetry.sign_flip(arch, layer, signs).apply(params, arch)
