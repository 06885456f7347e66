"""Floral arrangements: orthant sets, recognition, facets, cross-sections.

The geometric side of the local theory.  A local orthotopal arrangement in
R^d is a union of closed orthants; it is represented here by an OrthantSet,
a membership table over the 2^d sign vectors.  A signed series-parallel
diagram evaluates to such a set (series = intersection, parallel = union,
literal i = the half-space s_i * x_i >= 0), and an arrangement is *floral*
when it arises this way.  ``recognize`` inverts the evaluation map where
possible; a FloralVertex pairs a diagram with its orthant set and supports
the facet, edge and cross-section operations of the cone it spans.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, Union

from .spd import (
    EMPTY,
    FULL,
    TRIVIAL,
    EdgeKind,
    Leaf,
    Parallel,
    Series,
    SignedSpd,
    Spd,
    _join,
    _Marker,
    _node,
    axes,
    delete_edge,
    dual,
    edge_count,
    edge_kind,
    residual_diagram,
)

#: An orthant set that is provably not the evaluation of any signed diagram.
DEGENERATE = _Marker("Degenerate")


@dataclass(frozen=True)
class OrthantSet:
    """Membership table over the 2^dim closed orthants of R^dim.

    Orthant index k encodes the sign vector with s_j = +1 iff bit j-1 of k
    is set (axis labels are 1-based, bits 0-based).
    """

    dim: int
    mask: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be non-negative")
        if not 0 <= self.mask < (1 << (1 << self.dim)):
            raise ValueError("mask has bits outside the orthant table")

    @classmethod
    def empty(cls, dim: int) -> "OrthantSet":
        return cls(dim, 0)

    @classmethod
    def full(cls, dim: int) -> "OrthantSet":
        return cls(dim, (1 << (1 << dim)) - 1)

    @classmethod
    def from_signs(cls, dim: int, members) -> "OrthantSet":
        mask = 0
        for signs in members:
            if len(signs) != dim or any(s not in (-1, 1) for s in signs):
                raise ValueError(f"not a sign vector of length {dim}: {signs}")
            k = 0
            for j, s in enumerate(signs):
                if s > 0:
                    k |= 1 << j
            mask |= 1 << k
        return cls(dim, mask)

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << (1 << self.dim)) - 1

    def contains(self, signs) -> bool:
        if len(signs) != self.dim:
            raise ValueError("sign vector has wrong length")
        k = 0
        for j, s in enumerate(signs):
            if s > 0:
                k |= 1 << j
        return bool((self.mask >> k) & 1)

    def members(self) -> Iterator[tuple[int, ...]]:
        """Occupied sign vectors in ascending index order."""
        for k in range(1 << self.dim):
            if (self.mask >> k) & 1:
                yield tuple(1 if (k >> j) & 1 else -1 for j in range(self.dim))

    def complement(self) -> "OrthantSet":
        return OrthantSet(self.dim, self.mask ^ ((1 << (1 << self.dim)) - 1))

    def __and__(self, other: "OrthantSet") -> "OrthantSet":
        self._check(other)
        return OrthantSet(self.dim, self.mask & other.mask)

    def __or__(self, other: "OrthantSet") -> "OrthantSet":
        self._check(other)
        return OrthantSet(self.dim, self.mask | other.mask)

    def _check(self, other: "OrthantSet"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def slice(self, axis: int, side: int) -> "OrthantSet":
        """Cross-section at x_axis = side: the (dim-1)-set whose member t is
        occupied iff t with the side sign inserted at the axis is occupied."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        if side not in (-1, 1):
            raise ValueError("side must be +1 or -1")
        p = axis - 1
        low = (1 << p) - 1
        bit = (1 << p) if side > 0 else 0
        out = 0
        for k in range(1 << (self.dim - 1)):
            lifted = ((k >> p) << (p + 1)) | bit | (k & low)
            if (self.mask >> lifted) & 1:
                out |= 1 << k
        return OrthantSet(self.dim - 1, out)

    def essential_axes(self) -> tuple[int, ...]:
        """Axes whose two cross-sections differ (flipping s_i can change
        membership)."""
        return tuple(_axis_signs(self.dim, self.mask))


@lru_cache(maxsize=None)
def _half_space_mask(dim: int, pos: int, positive: bool) -> int:
    # bit k is set iff bit pos of k agrees with the requested side
    width = 1 << (pos + 1)
    unit = ((1 << (1 << pos)) - 1) << (1 << pos)
    table = 1 << dim
    mask = unit * (((1 << table) - 1) // ((1 << width) - 1))
    if not positive:
        mask ^= (1 << table) - 1
    return mask


def _cofactor(mask: int, dim: int, pos: int, positive: bool) -> int:
    """The set with coordinate pos fixed to one side, extended back over
    the whole axis: the cylinder over the cross-section at that side."""
    half = mask & _half_space_mask(dim, pos, positive)
    if positive:
        return half | (half >> (1 << pos))
    return half | (half << (1 << pos))


def _axis_signs(dim: int, mask: int) -> dict[int, int]:
    """Essential axes in increasing order, each mapped to +1 when its
    negative cofactor lies inside its positive one (the set only grows as
    the coordinate turns positive), to -1 in the mirror case and to 0 when
    neither holds."""
    signs = {}
    for pos in range(dim):
        half = _half_space_mask(dim, pos, True)
        # the two cross-sections, the positive one shifted onto the negative
        up, down = (mask & half) >> (1 << pos), mask & ~half
        if up != down:
            signs[pos + 1] = 1 if not down & ~up else -1 if not up & ~down else 0
    return signs


def orthants_of(x: Union[SignedSpd, Spd], dim: int | None = None) -> OrthantSet:
    """Evaluate a diagram to its orthant set in R^dim.

    Axes of {1..dim} missing from the edge set are unconstrained, so the
    arrangement is a cylinder over them.  dim defaults to the largest label.
    """
    signed = x if isinstance(x, SignedSpd) else SignedSpd(x)
    labels = axes(signed.shape)
    if dim is None:
        dim = max(labels)
    if max(labels) > dim:
        raise ValueError(f"edge label {max(labels)} exceeds dimension {dim}")

    def rec(node: Spd) -> int:
        if isinstance(node, Leaf):
            return _half_space_mask(dim, node.axis - 1, node.axis not in signed.neg)
        if isinstance(node, Series):
            out = (1 << (1 << dim)) - 1
            for c in node.children:
                out &= rec(c)
            return out
        out = 0
        for c in node.children:
            out |= rec(c)
        return out

    return OrthantSet(dim, rec(signed.shape))


def orthant_counts(orthants: OrthantSet) -> tuple[int, int]:
    """(mu_d, tau_d): the occupied-orthant count and the sum of orthant
    signs (-1)^{number of negative coordinates} over the occupied ones.

    For the evaluation of a signed diagram, mu_d = 2^(d-k) * mu of the
    shape and tau_d is the signed volume when all d axes are essential and
    0 otherwise.
    """
    d = orthants.dim
    mask = orthants.mask
    even = _even_orthants(d)
    return mask.bit_count(), (mask & even).bit_count() - (mask & ~even).bit_count()


@lru_cache(maxsize=None)
def _even_orthants(dim: int) -> int:
    """Orthant indices with an even number of negative coordinates."""
    return sum(1 << k for k in range(1 << dim) if (dim - k.bit_count()) % 2 == 0)


class SetOp(enum.Enum):
    INTERSECT = "intersect"
    UNION = "union"
    COMPLEMENT = "complement"


def combine(a: OrthantSet, b: OrthantSet | None, op: SetOp) -> OrthantSet:
    """Pointwise set operation; COMPLEMENT ignores the second argument."""
    if op is SetOp.COMPLEMENT:
        return a.complement()
    if b is None:
        raise ValueError(f"{op.value} needs two operands")
    if op is SetOp.INTERSECT:
        return a & b
    return a | b


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """A floral arrangement with unconstrained axes: a diagram on the
    essential axes, extended freely along ``free_axes``."""

    free_axes: tuple[int, ...]
    diagram: SignedSpd

    def __post_init__(self):
        overlap = set(self.free_axes) & axes(self.diagram.shape)
        if overlap:
            raise ValueError(f"free axes {sorted(overlap)} occur in the diagram")


def _components(adjacent: list[int]) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 in which bit j of
    ``adjacent[i]`` joins i and j, each listed in increasing order."""
    left = (1 << len(adjacent)) - 1
    out = []
    while left:
        comp = frontier = left & -left
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adjacent[low.bit_length() - 1] & left & ~comp
            comp |= new
            frontier |= new
        left &= ~comp
        out.append([i for i in range(len(adjacent)) if (comp >> i) & 1])
    return out


def _read_once(mask: int, dim: int, block: list[int], positive: dict[int, bool]):
    """Normal-form shape of the read-once formula over the literals at the
    0-based positions ``block`` that evaluates to ``mask``, or None when
    there is none.  The literal at position i is the half-space on side
    ``positive[i]``; the mask must grow with every literal and depend on
    exactly the positions of ``block``.

    Positions i and j share a prime implicant iff some member has both
    literals critical (falsifying either one leaves the set).  A read-once
    formula's blocks are the components of that co-occurrence graph
    (a union) or of its complement (an intersection); both connected means
    the mask is not read-once (Gurvich 1977; Golumbic, Mintz and Rotics
    2006).  Unate masks that pass the graph test but are not read-once
    fail the recomposition check at some level.
    """
    if len(block) == 1:
        return Leaf(block[0] + 1)
    crit = [
        mask
        & _half_space_mask(dim, i, positive[i])
        & ~_cofactor(mask, dim, i, not positive[i])
        for i in block
    ]
    n = len(block)
    meets = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if crit[i] & crit[j]:
            meets[i] |= 1 << j
            meets[j] |= 1 << i
    parts = _components(meets)
    if len(parts) > 1:
        kind, holds = Parallel, False
    else:
        everyone = (1 << n) - 1
        parts = _components([everyone ^ meets[i] ^ (1 << i) for i in range(n)])
        if len(parts) == 1:
            return None
        kind, holds = Series, True
    # restrict to each part by fixing the other parts' literals to the
    # value that leaves the part alone, false under a union and true under
    # an intersection: AND with the half-space where each takes it, looked
    # up once per level, and copy across its axis
    sides = [positive[i] == holds for i in block]
    cuts = [(1 << i, _half_space_mask(dim, i, up), up) for i, up in zip(block, sides)]
    restricted = []
    for part in parts:
        sub = mask
        for k, (step, half, up) in enumerate(cuts):
            if k not in part:
                sub &= half
                sub |= sub >> step if up else sub << step
        restricted.append(sub)
    if reduce(operator.or_ if kind is Parallel else operator.and_, restricted) != mask:
        return None
    kids = []
    for part, sub in zip(parts, restricted):
        kid = _read_once(sub, dim, [block[k] for k in part], positive)
        if kid is None:
            return None
        kids.append(kid)
    return _node(kind, kids)


def _recognize(orthants: OrthantSet):
    """``recognize``'s result together with the essential axes."""
    if orthants.is_empty:
        return EMPTY, ()
    if orthants.is_full:
        return FULL, ()
    d, mask = orthants.dim, orthants.mask
    signs = _axis_signs(d, mask)
    essential = tuple(signs)
    if 0 in signs.values():
        return DEGENERATE, essential
    positive = {a - 1: s > 0 for a, s in signs.items()}
    shape = _read_once(mask, d, [a - 1 for a in essential], positive)
    if shape is None:
        return DEGENERATE, essential
    neg = frozenset(a for a, s in signs.items() if s < 0)
    diagram = SignedSpd(shape, neg)
    assert orthants_of(diagram, d) == orthants
    free = tuple(i for i in range(1, d + 1) if i not in signs)
    if free:
        return Cylinder(free, diagram), essential
    return diagram, essential


def recognize(orthants: OrthantSet):
    """Invert the evaluation map.

    Returns the normal-form SignedSpd when the set is floral with every
    axis essential, a Cylinder over the inessential axes when the core is
    floral, the FULL or EMPTY marker for the two improper sets, and the
    DEGENERATE marker otherwise.

    A floral set is unate in every essential axis, which fixes each
    literal's sign; the diagram is then the read-once decomposition of the
    mask (see ``_read_once``).
    """
    return _recognize(orthants)[0]


# ---------------------------------------------------------------------------
# floral vertices and their faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloralVertex:
    """A cone at the origin spanned by a signed diagram on axes 1..d."""

    diagram: SignedSpd
    orthants: OrthantSet

    def __post_init__(self):
        d = edge_count(self.diagram.shape)
        if axes(self.diagram.shape) != frozenset(range(1, d + 1)):
            raise ValueError("edge set must be exactly 1..d")
        if orthants_of(self.diagram, d) != self.orthants:
            raise ValueError("orthant table does not match the diagram")
        assert self.orthants.count % 2 == 1

    @classmethod
    def from_diagram(cls, diagram: SignedSpd) -> "FloralVertex":
        d = edge_count(diagram.shape)
        return cls(diagram, orthants_of(diagram, d))

    @property
    def dim(self) -> int:
        return self.orthants.dim


def _as_signed(v: FloralVertex | SignedSpd) -> SignedSpd:
    return v.diagram if isinstance(v, FloralVertex) else v


def _restrict(signed: SignedSpd, shape: Spd) -> SignedSpd:
    return SignedSpd(shape, signed.neg & axes(shape))


def facet(v: FloralVertex | SignedSpd, axis: int):
    """The signed diagram of the facet of the cone lying in x_axis = 0.

    Iterative complementation: working from a series root, peel off the
    series partners of the subdiagram containing the axis, take the dual of
    the rest, and repeat until the axis's own leaf surfaces; the facet is
    the series connection of everything peeled off.  It lives on all of the
    other d-1 axes.  For a single-edge diagram the facet is the honorary
    vertex TRIVIAL.
    """
    signed = _as_signed(v)
    if axis not in axes(signed.shape):
        raise ValueError(f"axis {axis} is not an edge of the diagram")
    if isinstance(signed.shape, Leaf):
        return TRIVIAL
    work = signed if isinstance(signed.shape, Series) else dual(signed)
    collected: list[SignedSpd] = []
    while True:
        shape = work.shape
        if isinstance(shape, Leaf):
            # the dual step exposed the bare leaf; nothing remains to peel
            break
        beta = None
        rest: list[Spd] = []
        for child in shape.children:
            if axis in axes(child):
                beta = child
            else:
                rest.append(child)
        assert beta is not None and rest
        collected.append(_restrict(work, _node(Series, rest)))
        if isinstance(beta, Leaf):
            break
        work = dual(_restrict(work, beta))
    result = _join(Series, collected)
    assert axes(result.shape) == axes(signed.shape) - {axis}
    return result


def edge_direction(v: FloralVertex | SignedSpd, axis: int) -> int:
    """Sign epsilon such that the ray along epsilon * e_axis is an edge of
    the cone: the literal's sign for a conjunctive edge and its opposite
    for a disjunctive one (equivalently sigma(D) * sigma(D \\ axis) * sign).
    """
    signed = _as_signed(v)
    s = signed.sign(axis)
    return s if edge_kind(signed.shape, axis) is EdgeKind.CONJUNCTIVE else -s


def edge_cross_section(v: FloralVertex | SignedSpd, axis: int):
    """Diagram of the slice at x_axis = edge_direction: the deletion
    D \\ axis with inherited signs (TRIVIAL for a single-edge diagram)."""
    signed = _as_signed(v)
    smaller = delete_edge(signed.shape, axis)
    if smaller is TRIVIAL:
        return TRIVIAL
    return _restrict(signed, smaller)


def residual_cross_section(v: FloralVertex | SignedSpd, axis: int):
    """Diagram of the slice at x_axis = -edge_direction: the residual
    substitution, FULL or EMPTY when it collapses."""
    signed = _as_signed(v)
    residue = residual_diagram(signed.shape, axis)
    if residue is FULL or residue is EMPTY:
        return residue
    return _restrict(signed, residue)
