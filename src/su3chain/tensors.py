"""Dense labeled tensors for the graphical calculus of the SU(3) chain.

Every tensor leg carries a dimension, an orientation (fundamental or
anti-fundamental) and a label.  Contraction is only permitted between a
fundamental leg and an anti-fundamental leg of equal dimension, which mirrors
the arrow-matching rule of the diagrams: transcription mistakes surface as
errors instead of silently wrong numbers.

Index conventions for the four-leg structural tensors, with slots ordered
``(i, k, j, l)`` (``i, k`` incoming, ``j, l`` outgoing):

    P[i, k, j, l] = delta(i, l) * delta(j, k)     (permutation)
    I[i, k, j, l] = delta(i, j) * delta(k, l)     (identity)
    E[i, k, j, l] = delta(i, k) * delta(j, l)     (Temperley-Lieb)

The Levi-Civita tensor is normalized by ``eps[0, 1, ..., n-1] = +1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

FUND = "fund"
ANTIFUND = "antifund"


class StructuralKind(Enum):
    """The structural tensors appearing in the graphical calculus."""

    IDENTITY = "identity"
    PERMUTATION = "permutation"
    TEMPERLEY_LIEB = "temperley_lieb"
    EPSILON = "epsilon"
    DELTA = "delta"


@dataclass(frozen=True)
class Leg:
    dim: int
    orientation: str  # FUND or ANTIFUND
    label: str

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"leg dimension must be positive, got {self.dim}")
        if self.orientation not in (FUND, ANTIFUND):
            raise ValueError(f"unknown orientation {self.orientation!r}")


class LabeledTensor:
    """Immutable dense complex tensor with labeled, oriented legs."""

    def __init__(self, entries, legs):
        entries = np.asarray(entries, dtype=complex)
        legs = tuple(legs)
        if entries.shape != tuple(leg.dim for leg in legs):
            raise ValueError(
                f"entry shape {entries.shape} does not match leg dims "
                f"{tuple(leg.dim for leg in legs)}"
            )
        labels = [leg.label for leg in legs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate leg labels: {labels}")
        entries.setflags(write=False)
        self._entries = entries
        self._legs = legs

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def legs(self) -> tuple[Leg, ...]:
        return self._legs

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(leg.label for leg in self._legs)

    def leg(self, label: str) -> Leg:
        for leg in self._legs:
            if leg.label == label:
                return leg
        raise KeyError(f"no leg labeled {label!r}")

    def axis(self, label: str) -> int:
        for i, leg in enumerate(self._legs):
            if leg.label == label:
                return i
        raise KeyError(f"no leg labeled {label!r}")

    def scaled(self, factor: complex) -> "LabeledTensor":
        return LabeledTensor(self._entries * factor, self._legs)

    def __add__(self, other: "LabeledTensor") -> "LabeledTensor":
        if self.labels != other.labels:
            raise ValueError("tensor addition requires identical leg labels")
        return LabeledTensor(self._entries + other._entries, self._legs)

    def __repr__(self):
        sig = ", ".join(
            f"{leg.label}:{leg.dim}{'+' if leg.orientation == FUND else '-'}"
            for leg in self._legs
        )
        return f"LabeledTensor({sig})"


def structural_tensor(kind: StructuralKind, n: int) -> LabeledTensor:
    """Build one of the structural tensors for local dimension ``n``.

    Four-leg tensors use slots ``(i, k, j, l)`` with ``i, k`` fundamental and
    ``j, l`` anti-fundamental.  ``EPSILON`` has ``n`` fundamental legs,
    ``DELTA`` one fundamental and one anti-fundamental leg.
    """
    if n < 2:
        raise ValueError(f"local dimension must be >= 2, got {n}")
    eye = np.eye(n)
    if kind is StructuralKind.PERMUTATION:
        arr = np.einsum("il,jk->ikjl", eye, eye)
        return LabeledTensor(arr, _four_legs(n))
    if kind is StructuralKind.IDENTITY:
        arr = np.einsum("ij,kl->ikjl", eye, eye)
        return LabeledTensor(arr, _four_legs(n))
    if kind is StructuralKind.TEMPERLEY_LIEB:
        arr = np.einsum("ik,jl->ikjl", eye, eye)
        return LabeledTensor(arr, _four_legs(n))
    if kind is StructuralKind.EPSILON:
        arr = levi_civita(n)
        legs = [Leg(n, FUND, f"i{a+1}") for a in range(n)]
        return LabeledTensor(arr, legs)
    if kind is StructuralKind.DELTA:
        return LabeledTensor(eye, [Leg(n, FUND, "i"), Leg(n, ANTIFUND, "j")])
    raise ValueError(f"unknown structural kind {kind!r}")


def _four_legs(n: int) -> list[Leg]:
    return [
        Leg(n, FUND, "i"),
        Leg(n, FUND, "k"),
        Leg(n, ANTIFUND, "j"),
        Leg(n, ANTIFUND, "l"),
    ]


def levi_civita(n: int) -> np.ndarray:
    """Fully antisymmetric tensor with ``eps[0, 1, ..., n-1] = +1``."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = _perm_sign(perm)
    return eps


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def contract(a: LabeledTensor, b: LabeledTensor, pairs) -> LabeledTensor:
    """Contract tensors ``a`` and ``b`` over label ``pairs``.

    Each pair ``(label_in_a, label_in_b)`` must join a fundamental leg to an
    anti-fundamental leg of equal dimension.  Result legs are the uncontracted
    legs of ``a`` followed by those of ``b``; a full contraction yields a
    rank-0 tensor.
    """
    axes_a, axes_b = [], []
    for la, lb in pairs:
        leg_a = a.leg(la)
        leg_b = b.leg(lb)
        if leg_a.dim != leg_b.dim:
            raise ValueError(
                f"dimension mismatch contracting {la!r} (dim {leg_a.dim}) "
                f"with {lb!r} (dim {leg_b.dim})"
            )
        if leg_a.orientation == leg_b.orientation:
            raise ValueError(
                f"orientation mismatch contracting {la!r} with {lb!r}: both "
                f"{leg_a.orientation}; contraction joins fundamental to "
                f"anti-fundamental"
            )
        axes_a.append(a.axis(la))
        axes_b.append(b.axis(lb))
    if len(set(axes_a)) != len(axes_a) or len(set(axes_b)) != len(axes_b):
        raise ValueError("a leg may be contracted at most once")
    result = np.tensordot(a.entries, b.entries, axes=(axes_a, axes_b))
    legs = [leg for i, leg in enumerate(a.legs) if i not in axes_a]
    legs += [leg for i, leg in enumerate(b.legs) if i not in axes_b]
    # disambiguate clashing labels from the two parents
    seen: dict[str, int] = {}
    fixed = []
    for leg in legs:
        if leg.label in seen:
            seen[leg.label] += 1
            fixed.append(Leg(leg.dim, leg.orientation, f"{leg.label}_{seen[leg.label]}"))
        else:
            seen[leg.label] = 0
            fixed.append(leg)
    return LabeledTensor(result, fixed)
