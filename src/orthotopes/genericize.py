"""Constructive approximation of degenerate unions by generic orthotopes.

``thicken`` replaces each closed cube face of an input set by a slightly
padded box.  The pads are chosen so that no two boxes share a supporting
hyperplane, which forces every tangent cone of the union to be floral, and
so that every pad stays below half of the requested bound, which keeps the
result within that bound of the input in L-infinity Hausdorff distance.

``random_generic`` builds unions of boxes whose supporting coordinates are
pairwise distinct along every axis, a condition that is preserved by the
union and intersection closure properties of generic orthotopes.  The
generator is a tiny explicit linear congruential recurrence so that runs
reproduce bit for bit from the seed alone.

``hausdorff_distance`` is exact: the distance between two closed box
unions with integer data at scale n is an integer multiple of 1/(2n), so
an integer binary search over dilation radii, with an exact coverage test
on the coordinate-refined grid, pins the value without any floating
point.  The radius at which one inflated box holds each box is found once,
so a probe tests only the boxes that need more than one.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import ConsistencyError, IntegralOrthotope, _rescaled_boxes, from_boxes

__all__ = [
    "distance_to_faces",
    "face_box",
    "hausdorff_distance",
    "random_generic",
    "thicken",
]

# cap on the dyadic refinement used for pad denominators
_MAX_SCALE_LOG = 32

# The distance search compares source boxes with every target box in
# chunks of at most this many coordinates.
_PAIR_CHUNK = 1 << 18


def face_box(corner: Sequence[int], spec: Sequence) -> tuple:
    """Closed box ``corner + spec`` of a unit-cube face: corner entries are
    integers (``operator.index``: a float, string or ``Fraction`` is
    refused, not truncated), spec entries the ints 0 or 1 for a pinned side
    and None for a full extent; a bool or a float is refused, as
    ``cli.load_faces`` refuses it.  Degenerate ranges are allowed; the box
    is a face, not a solid."""
    if len(corner) != len(spec):
        raise ValueError(f"face corner {corner} and spec {spec} differ in arity")
    try:
        corner = tuple(map(operator.index, corner))
    except TypeError:
        raise ValueError(f"face ({corner}, {spec}) has a non-integer corner") from None
    lo, hi = [], []
    for v, f in zip(corner, spec):
        if f is None:
            lo.append(v)
            hi.append(v + 1)
        elif type(f) is int and f in (0, 1):
            lo.append(v + f)
            hi.append(v + f)
        else:
            raise ValueError(f"face spec entry {f!r} is not the int 0 or 1, or None")
    return tuple(lo), tuple(hi)


def _check_supports(dim: int, boxes: Sequence) -> None:
    """Raise ``ConsistencyError`` unless the (lo, hi) corners of the
    padded boxes put no two sides on one hyperplane of any axis."""
    for j in range(dim):
        coords = [c for lo, hi in boxes for c in (lo[j], hi[j])]
        if len(set(coords)) != len(coords):
            raise ConsistencyError(
                f"pad schedule repeats a supporting coordinate on axis {j + 1}"
            )


def _pad_ranks(dim: int, boxes: Sequence, bound: Fraction) -> tuple:
    """Assign pad ranks so that sides sharing an axis, a direction, and a
    base coordinate get distinct multiples of the grid unit.  Sides with
    different base coordinates stay separated because every pad is kept
    strictly below 1/2.  Returns the least power-of-two ``scale`` at which
    every pad stays below ``bound / 2``, and per box and axis the (low,
    high) pads in units of ``1/scale``."""
    ranks = []
    counters: dict = {}
    top = 1
    for lo, hi in boxes:
        per_axis = []
        for j in range(dim):
            klo = counters[(j, -1, lo[j])] = counters.get((j, -1, lo[j]), 0) + 1
            khi = counters[(j, +1, hi[j])] = counters.get((j, +1, hi[j]), 0) + 1
            top = max(top, klo, khi)
            per_axis.append((klo, khi))
        ranks.append(per_axis)
    ceiling = min(bound / 2, Fraction(1, 2))
    scale = 1
    for _ in range(_MAX_SCALE_LOG + 1):
        if Fraction(top, scale) < ceiling:
            break
        scale *= 2
    else:
        raise ValueError(
            f"bound {bound} requires pads finer than 2**-{_MAX_SCALE_LOG}"
        )
    return scale, ranks


def thicken(dim: int, faces: Sequence, bound) -> IntegralOrthotope:
    """Generic orthotope within ``bound`` of the union of the given cube
    faces.  Each face (corner, spec) grows into a box that contains it in
    its interior, with every pad positive and below ``bound / 2`` and all
    supporting hyperplanes distinct, so the output is generic and the
    Hausdorff distance to the input union stays below the bound."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    faces = [(tuple(v), tuple(spec)) for v, spec in faces]
    if not faces:
        raise ValueError("need at least one face")
    boxes = []
    for v, spec in faces:
        if len(v) != dim or len(spec) != dim:
            raise ValueError(f"face ({v}, {spec}) has wrong arity for dimension {dim}")
        boxes.append(face_box(v, spec))
    n, ranks = _pad_ranks(dim, boxes, bound)
    padded = [
        (
            tuple(a * n - klo for a, (klo, _) in zip(lo, sides)),
            tuple(b * n + khi for b, (_, khi) in zip(hi, sides)),
        )
        for (lo, hi), sides in zip(boxes, ranks)
    ]
    _check_supports(dim, padded)
    return from_boxes(dim, padded, n)


class _Lcg:
    """Linear congruential stream: x <- (6364136223846793005 * x +
    1442695040888963407) mod 2**64, emitting the top 32 bits.  The
    constants are fixed so that identical seeds reproduce identical
    orthotopes across implementations."""

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def next_word(self) -> int:
        self.state = (
            self.state * 6364136223846793005 + 1442695040888963407
        ) & 0xFFFFFFFFFFFFFFFF
        return self.state >> 32

    def below(self, bound: int) -> int:
        return self.next_word() % bound


def random_generic(dim: int, count: int, extent: int, seed: int) -> IntegralOrthotope:
    """Union of ``count`` boxes in ``[0, extent]^dim`` whose supporting
    coordinates are pairwise distinct along every axis.  Deterministic in
    the seed; the distinctness forces the union to be generic."""
    if count < 1:
        raise ValueError("need at least one box")
    if extent + 1 < 2 * count:
        raise ValueError(
            f"extent {extent} cannot host {2 * count} distinct coordinates"
        )
    stream = _Lcg(seed)
    per_axis = []
    for _ in range(dim):
        chosen: list[int] = []
        seen = set()
        while len(chosen) < 2 * count:
            value = stream.below(extent + 1)
            if value not in seen:
                seen.add(value)
                chosen.append(value)
        per_axis.append(chosen)
    boxes = []
    for i in range(count):
        lo, hi = [], []
        for j in range(dim):
            a, b = per_axis[j][2 * i], per_axis[j][2 * i + 1]
            lo.append(min(a, b))
            hi.append(max(a, b))
        boxes.append((tuple(lo), tuple(hi)))
    return from_boxes(dim, boxes)


# ---------------------------------------------------------------------------
# exact L-infinity Hausdorff distance


def hausdorff_distance(P: IntegralOrthotope, Q: IntegralOrthotope) -> Fraction:
    """Exact L-infinity Hausdorff distance between the true point sets."""
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    if P.is_empty or Q.is_empty:
        raise ValueError("Hausdorff distance needs two nonempty sets")
    common = math.lcm(P.scale, Q.scale)
    a = _rescaled_boxes(P, common // P.scale)
    b = _rescaled_boxes(Q, common // Q.scale)
    k = max(_directed_halves(P.dim, a, b), _directed_halves(P.dim, b, a))
    return Fraction(k, 2 * common)


def distance_to_faces(P: IntegralOrthotope, faces: Sequence) -> Fraction:
    """Exact Hausdorff distance between ``P`` and a closed union of cube
    faces given as (corner, spec) pairs at denominator 1.  Faces may be
    lower dimensional, which an orthotope cannot represent directly."""
    if P.is_empty or not faces:
        raise ValueError("Hausdorff distance needs two nonempty sets")
    n = P.scale
    face_boxes = []
    for v, spec in faces:
        if len(v) != P.dim:
            raise ValueError(f"face ({v}, {spec}) has wrong arity for dimension {P.dim}")
        lo, hi = face_box(v, spec)
        face_boxes.append(
            (tuple(c * n for c in lo), tuple(c * n for c in hi))
        )
    a = list(P.boxes)
    k = max(
        _directed_halves(P.dim, a, face_boxes),
        _directed_halves(P.dim, face_boxes, a),
    )
    return Fraction(k, 2 * n)


def _directed_halves(dim: int, source: list, target: list) -> int:
    """Smallest k such that ``source`` lies inside ``target`` dilated by
    k/2, both unions taken closed.  Distances between integer box unions
    are half-integral, so the search over integers is exact.  Each source
    box's hold radius is found once, before the search; a probe then
    examines only the boxes that no single inflated target box holds."""
    src, tgt = _doubled_arrays(dim, source, target)
    hold = _hold_radii(src, tgt)
    if _covered(dim, src, tgt, hold, 0):
        return 0
    both = np.concatenate([src, tgt])
    hi = int((both[:, 1].max(axis=0) - both[:, 0].min(axis=0)).max())
    if not _covered(dim, src, tgt, hold, hi):
        raise ConsistencyError("dilation by the full span failed to cover")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _covered(dim, src, tgt, hold, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _doubled_arrays(dim: int, *unions: list) -> list:
    """Each union's boxes as one (boxes, 2, dim) array of doubled
    coordinates: int64 while every doubled coordinate is below 2^61 in
    magnitude, so that no difference of two coordinates and no coordinate
    inflated by at most the span passes int64, and Python ints otherwise."""
    top = max(abs(c) for boxes in unions for lo, hi in boxes for c in lo + hi)
    dtype = np.int64 if 2 * top < 1 << 61 else object
    return [2 * np.array(boxes, dtype=dtype).reshape(-1, 2, dim) for boxes in unions]


def _chunk_rows(target: np.ndarray) -> int:
    """How many source boxes to compare with every target box at once, so
    that each comparison holds at most ``_PAIR_CHUNK`` coordinates."""
    return max(1, _PAIR_CHUNK // target[:, 0].size)


def _hold_radii(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The hold radius of each source box: the least radius at which one
    inflated target box contains it, the minimum over target boxes of the
    largest amount by which the source box sticks out of it."""
    step = _chunk_rows(target)
    radii = []
    for start in range(0, len(source), step):
        lo, hi = source[start : start + step, None, 0], source[start : start + step, None, 1]
        out = np.maximum(target[:, 0] - lo, hi - target[:, 1])
        radii.append(out.max(axis=2).min(axis=1))
    return np.concatenate(radii)


def _covered(dim: int, source: np.ndarray, target: np.ndarray, hold, radius: int) -> bool:
    """Whether every point of the closed union ``source`` lies in the
    closed union ``target`` inflated by ``radius``.  A source box whose
    hold radius is at most ``radius`` lies in one inflated box.  Each other
    box is checked against the inflated boxes meeting it, on the
    interleaved grid of points and open intervals spanned by their
    coordinates clipped to the box; on that grid every minimal piece is
    entirely in or out, so slab bookkeeping is exact even for degenerate
    boxes."""
    pending = np.flatnonzero(hold > radius)
    grown_lo, grown_hi = target[:, 0] - radius, target[:, 1] + radius
    step = _chunk_rows(target)
    for start in range(0, len(pending), step):
        rows = source[pending[start : start + step]]
        lo, hi = rows[:, None, 0], rows[:, None, 1]
        meets = ((grown_lo <= hi) & (lo <= grown_hi)).all(axis=2)
        for (blo, bhi), near in zip(rows.tolist(), meets):
            cover = list(zip(grown_lo[near].tolist(), grown_hi[near].tolist()))
            if not _box_covered(dim, blo, bhi, cover):
                return False
    return True


def _box_covered(dim: int, lo: Sequence, hi: Sequence, cover: list) -> bool:
    if not cover:
        return False
    axes = []
    for j in range(dim):
        vals = {lo[j], hi[j]}
        for blo, bhi in cover:
            vals.add(min(max(blo[j], lo[j]), hi[j]))
            vals.add(min(max(bhi[j], lo[j]), hi[j]))
        axes.append(sorted(vals))
    occ = np.zeros(tuple(2 * len(c) - 1 for c in axes), dtype=bool)
    for blo, bhi in cover:
        sel = tuple(
            slice(
                2 * bisect.bisect_left(axes[j], max(blo[j], lo[j])),
                2 * bisect.bisect_left(axes[j], min(bhi[j], hi[j])) + 1,
            )
            for j in range(dim)
        )
        occ[sel] = True
    return bool(occ.all())
