"""Integral orthogonal polytopes and their local and global invariants.

An orthotope here is a finite union of unit cells of the integer lattice,
together with a positive denominator ``scale`` so that rational inputs can
be handled exactly: the true point set is ``(1/scale)`` times the stored
cell union.  Every question about such a set reduces to classifying the
tangent cone at half-lattice points, which is an orthant set in the sense
of :mod:`orthotopes.arrangement`.  The classification scan runs on a
coordinate-compressed grid: along each axis only the box edge coordinates
matter, and the slabs between consecutive edges are homogeneous, so one
representative layer per slab suffices.  This keeps the scan polynomial in
the number of boxes rather than in the geometric extent.

All arithmetic is exact: coordinates are integers or half-integers, and
volumes are :class:`fractions.Fraction` values.  No floating point is used
anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .arrangement import (
    DEGENERATE,
    OrthantSet,
    SetOp,
    _cofactor,
    _half_space_mask,
    _recognize,
    edge_direction,
    orthant_counts,
    orthants_of,
)
from .spd import SignedSpd, bouquet, canonical_key

__all__ = [
    "ConsistencyError",
    "EulerMethod",
    "Face",
    "FacePoset",
    "Genericity",
    "IntegralOrthotope",
    "NotGenericError",
    "PointClass",
    "ScanTooLargeError",
    "SkeletonGraph",
    "TooManyCellsError",
    "VertexCensus",
    "VolumeMethod",
    "check_generic",
    "classify_point",
    "cross_section",
    "euler",
    "face_poset",
    "from_boxes",
    "from_cells",
    "set_ops",
    "sigma_sum",
    "skeleton",
    "vertex_census",
    "vertices",
    "volume",
]

# Materializing more cells than this almost certainly indicates a caller
# that should be working with boxes instead.
_CELL_LIMIT = 5_000_000

# The scan pads the edges of each axis by one unit in int64 (see
# ``_slab_edges``), so box coordinates must leave that room.
_COORDINATE_RANGE = (-(2**63) + 1, 2**63 - 2)

# ``_occupancy`` turns this many boxes at a time into Python lists.
_OCCUPANCY_CHUNK = 4096

# A scan whose estimated peak passes this many bytes is refused with
# ``ScanTooLargeError``: on the grid's shape (``_scan_bytes``) before
# anything is allocated, and on its runs (``_run_bytes``) before each pass.
_SCAN_BYTE_LIMIT = 4 << 30

# An axis pass with more than this many possible (hi, lo) code pairs
# deduplicates them with ``np.unique`` instead of a dense presence table.
_PAIR_TABLE_LIMIT = 1 << 24


class NotGenericError(ValueError):
    """Raised when an operation that requires genericity meets a degenerate
    tangent cone.  ``witness`` is a point at which recognition fails."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a generic orthotope; degenerate tangent cone at {witness}")


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.  This signals a bug in the library,
    not a problem with the input."""


class ScanTooLargeError(MemoryError):
    """Raised before a classification scan, the region labelling of
    ``face_poset`` or the occupancy that ``==`` and ``hash`` compare
    allocates its grid when the estimated peak exceeds the scan's memory
    budget.  ``positions`` is the size of the doubled grid and ``estimate``
    the peak in bytes."""

    def __init__(self, positions: int, estimate: int):
        self.positions = positions
        self.estimate = estimate
        super().__init__(
            f"scan of {positions} positions needs about {estimate} bytes, "
            f"over the budget of {_SCAN_BYTE_LIMIT}"
        )


class TooManyCellsError(ScanTooLargeError):
    """Raised before more than ``_CELL_LIMIT`` unit cells are materialized,
    by ``IntegralOrthotope.cells`` or ``Face.cells``.  A refusal of an
    output too large to list, not a fault of the library or the input:
    the box form holds such a model.  ``cells`` is the count refused; a
    scan's ``positions`` and ``estimate`` are not set."""

    def __init__(self, cells: int):
        self.cells = cells
        MemoryError.__init__(
            self,
            f"refusing to materialize about {cells} cells; "
            "use the box form for instances of this size",
        )


@dataclass(frozen=True)
class Genericity:
    """Outcome of a genericity check.  Truthy iff generic."""

    generic: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.generic


@dataclass(frozen=True)
class PointClass:
    """Local data of one half-lattice point: its tangent cone, which axes
    the cone depends on, the genericity degree (``None`` for points outside
    the polytope, whose cone is empty), and the recognition result."""

    point: tuple
    cone: OrthantSet
    essential_axes: tuple[int, ...]
    degree: int | None
    floral: object


@dataclass(frozen=True)
class VertexCensus:
    by_class: Mapping[str, int]
    by_mu: Mapping[int, int]

    @property
    def total(self) -> int:
        return sum(self.by_class.values())


@dataclass(frozen=True)
class Face:
    """Closure of one genericity region, held as disjoint (lo, hi) ``boxes``
    in the free-axis coordinates only; ``fixed`` lists the (axis,
    coordinate) pairs of the remaining axes.  ``cells`` expands the boxes on
    first use.  Equality and hash compare the boxes as listed, so two
    decompositions of one point set differ although their cells agree."""

    dim: int
    free_axes: tuple[int, ...]
    fixed: tuple[tuple[int, int], ...]
    boxes: tuple
    representative: PointClass

    @cached_property
    def cells(self) -> frozenset:
        return _cells_of(self.boxes)


@dataclass(frozen=True)
class FacePoset:
    faces: tuple[Face, ...]
    incidence: frozenset

    def f_vector(self) -> tuple[int, ...]:
        top = max((f.dim for f in self.faces), default=-1)
        counts = [0] * (top + 1)
        for f in self.faces:
            counts[f.dim] += 1
        return tuple(counts)

    def faces_of_dim(self, k: int) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.dim == k)


@dataclass(frozen=True)
class SkeletonGraph:
    """Vertices with their tau signs and the axis-labeled arcs between
    them.  For a generic orthotope every node meets exactly ``dim`` arcs
    and the tau signs form a proper 2-coloring."""

    nodes: tuple
    arcs: tuple

    @property
    def is_bipartite(self) -> bool:
        sign = dict(self.nodes)
        return all(sign[a] != sign[b] for a, b, _axis in self.arcs)

    def degrees(self) -> dict:
        deg = {p: 0 for p, _s in self.nodes}
        for a, b, _axis in self.arcs:
            deg[a] += 1
            deg[b] += 1
        return deg


@unique
class VolumeMethod(Enum):
    MU_SUM = "musum"
    DETERMINANTAL = "determinantal"
    VOXEL_COUNT = "voxelcount"


@unique
class EulerMethod(Enum):
    SIGMA_SUM = "sigmasum"
    CUBICAL_COMPLEX = "cubicalcomplex"


class IntegralOrthotope:
    """A union of unit lattice cells in dimension ``dim`` at denominator
    ``scale``.  The set is stored as a sorted tuple of integer boxes, unit
    boxes for ``from_cells``; the explicit cell set is materialized lazily
    because thickened instances can cover millions of cells while all
    invariants are computable from the boxes.  The compressed
    classification scan is built on first use and cached, so every
    invariant of one instance shares a single scan.  Instances are
    immutable; equality and hash compare dim, scale and the point set,
    through its coarsest slab occupancy, so they neither materialize the
    cells nor touch the cached scan.  Like a scan, they raise
    ``ScanTooLargeError`` before that occupancy would pass the budget.
    """

    __slots__ = ("dim", "scale", "_boxes", "_cells", "_scan")

    def __init__(self, dim: int, scale: int, boxes: tuple):
        self.dim = dim
        self.scale = scale
        self._boxes = boxes
        self._cells = None
        self._scan = None

    @property
    def boxes(self) -> tuple:
        return self._boxes

    @property
    def cells(self) -> frozenset:
        if self._cells is None:
            self._cells = _cells_of(self._boxes)
        return self._cells

    @property
    def is_empty(self) -> bool:
        return not self._boxes

    def bounding_box(self):
        """(lo, hi) integer corner pair of the smallest enclosing box, or
        ``None`` when empty."""
        if self.is_empty:
            return None
        lo = tuple(min(b[0][j] for b in self._boxes) for j in range(self.dim))
        hi = tuple(max(b[1][j] for b in self._boxes) for j in range(self.dim))
        return lo, hi

    def cell_count(self) -> int:
        """Number of unit cells, computed from the boxes without
        materializing the cell set."""
        return _scan_for(self).cell_total()

    def __eq__(self, other):
        if not isinstance(other, IntegralOrthotope):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.scale == other.scale
            and _canonical_occupancy(self) == _canonical_occupancy(other)
        )

    def __hash__(self):
        return hash((self.dim, self.scale, _canonical_occupancy(self)))

    def __repr__(self):
        body = f"boxes={len(self._boxes)}"
        return f"IntegralOrthotope(dim={self.dim}, scale={self.scale}, {body})"


def _cells_of(boxes) -> frozenset:
    """The min-corners of the unit cells of ``boxes``, (lo, hi) corner
    pairs; more than ``_CELL_LIMIT`` of them are refused unbuilt."""
    total = sum(math.prod(h - l for l, h in zip(lo, hi)) for lo, hi in boxes)
    if total > _CELL_LIMIT:
        raise TooManyCellsError(total)
    cells = set()
    for lo, hi in boxes:
        cells.update(itertools.product(*map(range, lo, hi)))
    return frozenset(cells)


def _validate_header(dim, scale):
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if not isinstance(scale, int) or scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale!r}")


def from_boxes(dim: int, boxes: Iterable, scale: int = 1) -> IntegralOrthotope:
    """Build the union of axis-aligned integer boxes ``[lo, hi)`` given as
    (lo, hi) corner pairs.  Every box must be proper (lo < hi on each
    axis) with its coordinates in ``_COORDINATE_RANGE``; overlaps and
    duplicates are allowed and merge silently.  An empty list yields the
    empty orthotope."""
    _validate_header(dim, scale)
    least, most = _COORDINATE_RANGE
    clean = []
    for k, (lo, hi) in enumerate(boxes):
        lo = tuple(int(c) for c in lo)
        hi = tuple(int(c) for c in hi)
        if len(lo) != dim or len(hi) != dim:
            raise ValueError(f"box {k} has wrong arity for dimension {dim}")
        if any(l >= h for l, h in zip(lo, hi)):
            raise ValueError(f"box {k} is degenerate: {lo} .. {hi}")
        if min(lo) < least or max(hi) > most:
            raise ValueError(f"box {k} has a coordinate outside [{least}, {most}]")
        clean.append((lo, hi))
    return IntegralOrthotope(dim, scale, tuple(sorted(set(clean))))


def from_cells(dim: int, cells: Iterable, scale: int = 1) -> IntegralOrthotope:
    """Build an orthotope from unit cell min-corners, each read as the unit
    box at that corner and checked as ``from_boxes`` checks boxes."""
    _validate_header(dim, scale)
    least, most = _COORDINATE_RANGE
    cleaned = set()
    for cell in cells:
        cell = tuple(map(int, cell))
        if len(cell) != dim:
            raise ValueError(f"cell {cell} has wrong arity for dimension {dim}")
        if min(cell) < least or max(cell) >= most:
            raise ValueError(f"cell {cell} has a coordinate outside [{least}, {most - 1}]")
        cleaned.add(cell)
    boxes = tuple((cell, tuple([c + 1 for c in cell])) for cell in sorted(cleaned))
    return IntegralOrthotope(dim, scale, boxes)


def _half(value) -> Fraction:
    """Normalize a coordinate to an int or a half-integer Fraction."""
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    if f.denominator == 2:
        return f
    raise ValueError(f"coordinate {value!r} is not a multiple of 1/2")


# ---------------------------------------------------------------------------
# local profiles of orthant-set masks


class _MaskProfile(NamedTuple):
    mu_d: int
    tau_d: int
    essential: tuple[int, ...]
    degree: int | None
    floral: object
    degenerate: bool
    is_vertex: bool
    class_key: str | None
    sigma: int
    toward: tuple[int, ...] | None  # a vertex's edge direction on each axis


@lru_cache(maxsize=1 << 20)
def _mask_profile(dim: int, mask: int) -> _MaskProfile:
    oset = OrthantSet(dim, mask)
    floral, essential = _recognize(oset)
    degenerate = floral is DEGENERATE
    degree = None if mask == 0 else dim - len(essential)
    mu_d, tau_d = orthant_counts(oset)
    is_vertex = degree == 0 and not degenerate
    class_key = None
    sigma = 0
    toward = None
    if is_vertex:
        assert isinstance(floral, SignedSpd)
        class_key = canonical_key(floral.shape)
        sigma = bouquet(floral.shape).sign
        toward = tuple(edge_direction(floral, a) for a in range(1, dim + 1))
    return _MaskProfile(
        mu_d, tau_d, essential, degree, floral, degenerate, is_vertex, class_key, sigma,
        toward,
    )


def _mirrored(dim: int, mask: int, axes) -> int:
    """``mask`` reflected in each of the 1-based ``axes``: the two halves
    of the orthant table on either side of the axis swap."""
    for a in axes:
        step = 1 << (a - 1)
        hi = _half_space_mask(dim, a - 1, True)
        mask = ((mask & hi) >> step) | ((mask << step) & hi)
    return mask


def _vertex_profile(dim: int, mask: int, negative: int, mixed: int) -> _MaskProfile:
    """The profile of a cone with every axis essential, ``negative`` and
    ``mixed`` being its carried signs (see ``_pair_codes``), with one
    recognition per sign class.  A cone with a mixed axis, not unate in
    it, is degenerate, as ``_recognize`` decides.
    Otherwise mirroring every negative-unate axis gives the monotone
    representative of its class, and the cone is floral iff that is:
    negating a literal keeps the diagram's shape, so the class key, the
    bouquet sign and mu_d carry over, tau_d changes sign once per mirrored
    axis, and on a mirrored axis so do the literal and the edge direction."""
    neg = frozenset(a for a in range(1, dim + 1) if negative >> (a - 1) & 1)
    rep = None
    if not mixed:
        rep = _mask_profile(dim, _mirrored(dim, mask, neg))
        if not neg:
            return rep
    if rep is None or rep.degenerate:
        mu_d, tau_d = orthant_counts(OrthantSet(dim, mask))
        return _MaskProfile(
            mu_d, tau_d, tuple(range(1, dim + 1)), 0, DEGENERATE, True, False, None, 0, None
        )
    diagram = SignedSpd(rep.floral.shape, neg)
    if orthants_of(diagram, dim).mask != mask:
        raise ConsistencyError(f"sign class of mask {mask:#x} does not evaluate back")
    toward = tuple(-t if a in neg else t for a, t in enumerate(rep.toward, 1))
    tau_d = -rep.tau_d if len(neg) % 2 else rep.tau_d
    return _MaskProfile(
        rep.mu_d, tau_d, rep.essential, 0, diagram, False, True, rep.class_key,
        rep.sigma, toward,
    )


# ---------------------------------------------------------------------------
# the classification scan


def _slab_edges(P: IntegralOrthotope) -> list:
    """Per axis the edge coordinates of ``P`` (see ``_Scan``); an empty
    ``P`` gets one edge at 0, so its scan is all exterior."""
    boxes = P.boxes
    d = P.dim
    edges = []
    for j in range(d):
        base = sorted({b[0][j] for b in boxes} | {b[1][j] for b in boxes}) or [0]
        edges.append(np.array([base[0] - 1] + base + [base[-1] + 1], dtype=np.int64))
    return edges


def _occupancy(P: IntegralOrthotope, edges) -> np.ndarray:
    """Which slabs between the ``edges`` the boxes of ``P`` occupy."""
    d = P.dim
    occ = np.zeros(tuple(len(e) - 1 for e in edges), dtype=bool)
    corners = np.array(P.boxes, dtype=np.int64).reshape(-1, 2, d)
    slabs = np.array([edges[j].searchsorted(corners[..., j]) for j in range(d)]).transpose(1, 2, 0)
    for start in range(0, len(slabs), _OCCUPANCY_CHUNK):
        for lo, hi in slabs[start : start + _OCCUPANCY_CHUNK].tolist():
            occ[tuple(map(slice, lo, hi))] = True
    return occ


def _canonical_occupancy(P: IntegralOrthotope):
    """The compressed occupancy with every slab equal to its neighbour
    merged away, as (edges, occupancy bytes); ``None`` when empty.  What is
    left has an edge only where the point set changes, so two orthotopes of
    the same dim and scale have the same cells iff these agree.  Its two
    grids, a byte per slab each, are charged before they are allocated."""
    if P.is_empty:
        return None
    edges = _slab_edges(P)
    slabs = tuple(len(e) - 1 for e in edges)
    _check_budget(tuple(2 * n - 1 for n in slabs), 2 * math.prod(slabs))
    occ = _occupancy(P, edges)
    for j in range(P.dim):
        others = tuple(k for k in range(P.dim) if k != j)
        changed = np.diff(occ, axis=j).any(axis=others)
        occ = occ.compress(np.concatenate(([True], changed)), axis=j)
        edges[j] = edges[j][np.concatenate(([True], changed, [True]))]
    return tuple(tuple(e.tolist()) for e in edges), occ.tobytes()


def _scan_bytes(shape: tuple, runs: int = 0) -> int:
    """Estimated peak bytes of composing the full doubled grid of this
    shape, with 2-byte codes, from ``runs`` vertex runs.  The peak is the
    last axis pass (see ``_expand_axis``): it holds the previous pass's
    codes, their slab codes gathered from the lookup and the new codes,
    beside the 1-byte slab occupancy and the vertex runs: their codes at 2
    bytes per vertex-grid position, which bounds them, and their starts at
    8 bytes per run.  Before a scan its runs are unknown and none are
    charged; the run scan itself is charged by ``_run_bytes``, pass by
    pass, and ``face_poset`` charges the full grid with the runs found."""
    positions = math.prod(shape)
    previous = positions // shape[-1] * ((shape[-1] - 1) // 2)
    occupancy = math.prod((n + 1) // 2 for n in shape)
    vertex = math.prod((n - 1) // 2 for n in shape)
    return occupancy + 2 * vertex + 8 * runs + 4 * previous + 2 * positions


def _run_bytes(slabs: int, runs: int, masks: int) -> int:
    """Estimated peak bytes of one axis pass of the run scan over ``runs``
    runs coded into ``masks`` masks, beside the 1-byte occupancy of
    ``slabs`` slabs.  Per run it holds the run's start and code and, for up
    to two pairs per run, their positions, sides and codes: at most 94
    bytes per run were measured with ``_hash_cons``'s presence table, which
    adds 5 bytes per possible pair, and 166 with ``np.unique``.  It grows
    with the runs, not with the grid, so it passes ``_scan_bytes`` only
    where runs are many: on a union of crossing stripes, about half the
    slabs start one."""
    pairs = masks * masks
    if pairs > _PAIR_TABLE_LIMIT:
        return slabs + 176 * runs
    return slabs + 100 * runs + 5 * pairs


def _check_budget(shape: tuple, estimate: int) -> None:
    """Refuse work on the doubled grid of this shape whose estimated peak
    passes the budget, before it allocates."""
    if estimate > _SCAN_BYTE_LIMIT:
        raise ScanTooLargeError(math.prod(shape), estimate)


def _label_bytes(shape: tuple) -> int:
    """Upper bound on the peak bytes of ``_region_labels`` on a doubled grid
    of this shape: per position a bool and four int64 arrays (flat index,
    parents, two pointer-jumping copies); per join, at most one for each
    axis-adjacent pair, a bool and eight int64 (both ends, their copies,
    their parents and the min and max of those); 64 KiB of small arrays."""
    positions = math.prod(shape)
    joins = sum(positions // n * (n - 1) for n in shape)
    return 33 * positions + 65 * joins + (1 << 16)


def _cubical_bytes(sizes: tuple) -> int:
    """Peak bytes of the cubical Euler oracle on a closed-cell grid of
    these sizes: a bool per cell, then, while the last axis is summed
    away, the two int64 partial sums and their difference over the other
    axes (every later axis sums a smaller grid), and 128 KiB for numpy's
    casting buffers and small arrays."""
    return math.prod(sizes) + 24 * math.prod(sizes[:-1]) + (1 << 17)


def _code_dtype(count: int):
    return np.int16 if count < 1 << 15 else np.int32


def _hash_cons(pair: np.ndarray, size: int):
    """The distinct values of ``pair``, all below ``size``, in increasing
    order, and ``pair`` with every value replaced by its rank among them.
    As in the unique table of reduced ordered BDDs (Bryant, IEEE Trans.
    Computers, 1986), a dense presence table of the ``size`` values finds
    them, so no sort is needed; past ``_PAIR_TABLE_LIMIT`` values
    ``np.unique`` finds them instead."""
    if size > _PAIR_TABLE_LIMIT:
        used, inverse = np.unique(pair.reshape(-1), return_inverse=True)
        return used, inverse.astype(_code_dtype(len(used))).reshape(pair.shape)
    present = np.zeros(size, dtype=bool)
    present[pair] = True
    used = present.nonzero()[0]
    rank = np.zeros(size, dtype=_code_dtype(len(used)))
    rank[used] = np.arange(len(used))
    return used, rank[pair]


def _run_ends(keys: np.ndarray, size: int) -> np.ndarray:
    """The flat position after each run of ``keys`` over ``size``
    positions: the next run's start, or ``size`` after the last run."""
    ends = np.empty_like(keys)
    ends[:-1] = keys[1:]
    ends[-1] = size
    return ends


def _pair_codes(pair: np.ndarray, table: list, j: int):
    """Code the edges of axis j whose pair codes are ``pair``.  Table codes
    index (mask, pos, neg, mixed) entries; in the mask, bit s < 2^j is the
    occupancy of the neighbouring cell on the hi side of axis i when bit i
    of s is set and on the lo side otherwise.  An edge of axis j has the
    mask of its hi slab shifted up by 2^j over that of its lo slab, so it
    is fixed by the pair code hi * K + lo, K = len(table).  The pairs found
    are coded 0, 1, ... in pair order, so every code is used.  Bit i of
    ``pos``, ``neg`` or ``mixed`` is set when the mask is positive-unate,
    negative-unate or essential but neither in axis i (``_axis_signs``,
    carried): before axis j, a mixed side or opposite sides make it mixed;
    on axis j, lo inside hi makes it positive and hi inside lo negative."""
    k = len(table)
    used, out = _hash_cons(pair, k * k)
    shift = 1 << j  # both the mask's half width and axis j's bit
    entries = []
    for p in used.tolist():
        (hi, hpos, hneg, hmix), (lo, lpos, lneg, lmix) = table[p // k], table[p % k]
        mixed = hmix | lmix | (hpos & lneg) | (hneg & lpos)
        if hi != lo:
            up, down = not lo & ~hi, not hi & ~lo
            hpos, hneg = hpos | shift * up, hneg | shift * down
            mixed |= shift * (up == down)
        entries.append(((hi << shift) | lo, (hpos | lpos) & ~mixed, (hneg | lneg) & ~mixed, mixed))
    return out, entries


def _first_pass(occ: np.ndarray):
    """The pass on axis 0, dense on the slab occupancy, its codes those of
    the empty and the full cell, read off as runs along the last axis and
    numbered as ``_pair_rows`` numbers them (see ``_Scan``)."""
    flat = occ.view(np.int8)
    pair = flat[1:] * 2 + flat[:-1]
    rows = pair.reshape(-1, pair.shape[-1])
    start = np.empty(rows.shape, dtype=bool)
    start[:, 0] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=start[:, 1:])
    keys = start.reshape(-1).nonzero()[0]
    out, table = _pair_codes(rows.reshape(-1)[keys], [(0, 0, 0, 0), (1, 0, 0, 0)], 0)
    return keys, out, table


def _pair_rows(keys: np.ndarray, codes: np.ndarray, size: int, step: int, table, j):
    """One axis pass of the vertex scan on an axis j before the last, on
    runs (see ``_Scan``) over ``size`` flat positions.  Rows keep their
    numbering: position f, between lo slab f and hi slab f + ``step``,
    becomes the edge after the lo slab, for f < size - step.  A row whose
    index is the last slab of a paired axis, or of axis j, pairs padding
    with padding, code 0 with code 0, as the first slab of every row does
    (see ``_pair_last``).  An edge row changes only where one of its two
    slab rows does, so its runs start at the merged starts of the two and
    stay maximal."""
    lo = np.searchsorted(keys, size - step)
    hi = np.searchsorted(keys, step)
    both = np.concatenate((keys[:lo], keys[hi:] - step))
    order = np.argsort(both, kind="stable")  # a linear merge of two sorted halves
    merged = both[order]
    del both
    last = np.empty(len(merged), dtype=bool)
    last[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    at = last.nonzero()[0]
    # At the last of equal starts, at - 1 runs precede on the two sides
    # together, and the side the start came from gives its own index.
    came = order[at]
    del order, last
    lo_run = np.where(came < lo, came, at + (lo - 1) - came)
    del came
    pair = codes[hi - 1 + at - lo_run].astype(np.intp)
    pair *= len(table)
    pair += codes[lo_run]
    out, table = _pair_codes(pair, table, j)
    return merged[at], out, table


def _pair_last(keys: np.ndarray, codes: np.ndarray, size: int, shape: tuple, table):
    """The last axis pass of the vertex scan, on runs over ``size`` flat
    positions of the slab grid of ``shape``, every axis but the last
    already paired.  A row whose index on a paired axis is its last slab
    paired padding with padding; it is dropped, and the others numbered
    as in the vertex grid.  Along a row, the edges inside a run of code c
    get the pair (c, c), and the edge after it (next, c), which differs
    from both of its neighbours."""
    width, rows = shape[-1], shape[:-1]
    vertex_row = np.full(rows, -1)
    vertex_row[tuple(slice(n - 1) for n in rows)] = np.arange(
        math.prod(n - 1 for n in rows)
    ).reshape([n - 1 for n in rows])
    vertex_row = vertex_row.reshape(-1)
    row = keys // width
    ends = _run_ends(keys, size)
    # from slab-grid to vertex-grid positions along each run's row
    shift = (vertex_row * (width - 1) - np.arange(len(vertex_row)) * width)[row]
    used = np.empty(2 * len(keys), dtype=bool)
    used[0::2] = (ends - keys > 1) & (vertex_row[row] >= 0)
    used[1:-1:2] = row[1:] == row[:-1]
    used[-1] = False
    at = np.empty(2 * len(keys), dtype=np.intp)
    np.add(keys, shift, out=at[0::2])
    np.add(ends - 1, shift, out=at[1::2])
    code = codes.astype(np.intp)
    pair = np.empty(2 * len(keys), dtype=np.intp)
    np.multiply(code, len(table) + 1, out=pair[0::2])
    pair[1:-1:2] = code[1:] * len(table) + code[:-1]
    used = used.nonzero()[0]
    out, table = _pair_codes(pair[used], table, len(shape) - 1)
    return at[used], out, table


def _expand_axis(codes: np.ndarray, table: list, dim: int, j: int):
    """One axis pass from the vertex grid to the full doubled grid: the
    edges of axis j, coded into ``table``, are interleaved with the slab
    interiors beside them.  Slab k's cone is the cylinder over the lo side
    of the cone on edge k, the edge between slabs k and k+1, and the last
    slab, the padding, is empty, so the slab codes are read off one lookup
    entry per code.  Masks first met
    there get codes K, K+1, ..., so every mask is held once and every code
    is used."""
    code = {m: c for c, m in enumerate(table)}
    lo = [code.setdefault(_cofactor(m, dim, j, False), len(code)) for m in table]
    exterior = code.setdefault(0, len(code))
    dtype = _code_dtype(len(code))
    head = (slice(None),) * j
    shape = list(codes.shape)
    shape[j] = 2 * shape[j] + 1
    out = np.empty(shape, dtype=dtype)
    out[head + (slice(1, None, 2),)] = codes
    out[head + (slice(0, -1, 2),)] = np.array(lo, dtype=dtype)[codes]
    out[head + (-1,)] = exterior
    return out, list(code)


class _Scan:
    """Tangent-cone classification over the doubled grid of a compressed
    cell decomposition.

    ``edges[j]`` holds the strictly increasing coordinates at which the
    cell structure can change along axis j, inflated by one empty unit on
    both ends so that boundary points see the exterior.  Positions along
    an axis are indexed by r = 0 .. 2*(len(edges)-1) - 2; even r is the
    interior of slab r//2 and odd r is the edge shared by slabs r//2 and
    r//2 + 1.  Every position gets the bit set of occupied orthants around
    the corresponding point, stored only as a code into a table of the
    distinct masks.

    The scan composes the codes of the vertex grid, the all-odd positions,
    as runs along the last axis: ``vertex_runs`` holds the C-order flat
    index of the first position of each maximal run, the first of every
    row included, and the run's code into ``vertex_masks``.  It pairs axis
    0 densely on the slab occupancy, read once (see ``_first_pass``), then
    one axis at a time, as Bentley's sweep for Klee's measure problem keeps
    its cross-sections: on an axis before the last, each row pairs with the
    row after it by merging their run starts (see ``_pair_rows``); on the
    last axis, each run with its successor (see ``_pair_last``).  Each pass
    hash-conses its pairs and carries their axis signs, ``vertex_signs``
    (see ``_pair_codes``), so the codes are those of a dense pass; a run
    pass's work and memory grow with the runs, which change only at the
    boundary, not with the grid's volume, and it is checked against the
    budget on its runs before it allocates (see ``_run_bytes``).  The runs
    decide the verdict and give every vertex: a slab interior's cone is the
    cylinder over a one-sided cross-section of the cone at the edge beside
    it, and cross-sections of floral cones are floral.  For the same reason
    a degenerate cylinder forces a degenerate cone with every axis
    essential, so only those, read off the carried signs, are recognized:
    ``profiles`` maps each to its profile, one recognition per sign class
    (see ``_vertex_profile``).  The codes of the
    whole grid, ``inverse`` into ``unique_masks``, are derived for
    ``face_poset`` alone, on first use, from the vertex grid's dense
    ``vertex_codes``: one pass per axis interleaves the edges with the slab
    interiors, each coded as the cylinder over one side of the edge after
    it (see ``_expand_axis``)."""

    def __init__(self, P: IntegralOrthotope):
        self.dim = P.dim
        self.scale = P.scale
        self.edges = _slab_edges(P)
        self.shape = tuple(2 * len(e) - 3 for e in self.edges)
        self.vertex_shape = tuple(len(e) - 2 for e in self.edges)
        _check_budget(self.shape, _scan_bytes(self.shape))
        self.occ = _occupancy(P, self.edges)
        keys, codes, table = _first_pass(self.occ)
        step = self.occ.size // len(self.occ)
        size = self.occ.size - step
        for j, n in enumerate(self.occ.shape[1:-1], 1):
            _check_budget(self.shape, _run_bytes(self.occ.size, len(keys), len(table)))
            step //= n
            keys, codes, table = _pair_rows(keys, codes, size, step, table, j)
            size -= step
        if self.dim > 1:
            _check_budget(self.shape, _run_bytes(self.occ.size, len(keys), len(table)))
            keys, codes, table = _pair_last(keys, codes, size, self.occ.shape, table)
        self.vertex_runs = keys, codes
        self.vertex_masks = [entry[0] for entry in table]
        self.vertex_signs = [entry[1:] for entry in table]
        full = (1 << self.dim) - 1
        self.profiles = {
            m: _vertex_profile(self.dim, m, neg, mixed)
            for m, pos, neg, mixed in table
            if pos | neg | mixed == full
        }

    @property
    def vertex_codes(self) -> np.ndarray:
        """The vertex grid's codes, expanded from ``vertex_runs`` on each
        access; the full grid is derived from them, and is all that reads
        them, so they are not kept."""
        keys, codes = self.vertex_runs
        lengths = _run_ends(keys, math.prod(self.vertex_shape))
        lengths -= keys
        return np.repeat(codes, lengths).reshape(self.vertex_shape)

    @cached_property
    def _full(self) -> tuple:
        _check_budget(self.shape, _scan_bytes(self.shape, len(self.vertex_runs[0])))
        codes, table = self.vertex_codes, self.vertex_masks
        for j in range(self.dim):
            codes, table = _expand_axis(codes, table, self.dim, j)
        return codes, table

    @property
    def inverse(self) -> np.ndarray:
        return self._full[0]

    @property
    def unique_masks(self) -> list:
        return self._full[1]

    # position helpers ------------------------------------------------

    def coordinate(self, j: int, r: int):
        """Working-scale coordinate of position r on axis j; edges give
        integers, slab interiors give the first half-integer inside."""
        if r % 2 == 1:
            return int(self.edges[j][(r + 1) // 2])
        return Fraction(2 * int(self.edges[j][r // 2]) + 1, 2)

    def point_of(self, idx: Sequence[int]) -> tuple:
        return tuple(self.coordinate(j, int(r)) for j, r in enumerate(idx))

    def widths(self, j: int) -> np.ndarray:
        """The slab widths along axis j, as Python ints where the axis
        spans more than int64 holds."""
        edges = self.edges[j]
        if int(edges[-1]) - int(edges[0]) > 2**63 - 1:
            edges = edges.astype(object)
        return edges[1:] - edges[:-1]

    # derived summaries ------------------------------------------------

    def cell_total(self) -> int:
        """The cell count.  Every slab but the first on each axis is the
        all-hi neighbour of the vertex before it, so the occupied slabs are
        the all-hi orthants of the vertex cones, and each run of cones that
        hold it adds its slabs' width along the last axis times the volume
        of its row's slabs.  The last vertex of a row has padding there, so
        such a run never ends its row.  Summed in int64 while the grid's
        volume, which bounds the count and every partial sum of it, fits
        there; else in Python ints."""
        bound = math.prod(int(e[-1]) - int(e[0]) for e in self.edges)
        dtype = np.int64 if bound < 2**63 else object
        (keys, codes), top = self.vertex_runs, (1 << self.dim) - 1
        held = np.array([m >> top for m in self.vertex_masks], dtype=bool)
        run = held[codes].nonzero()[0]
        start, end = keys[run], keys[run + 1]
        width = self.vertex_shape[-1]
        row = start // width
        last = self.edges[-1][1:].astype(dtype)
        slabs = last[end - row * width] - last[start - row * width]
        volume = np.ones(1, dtype=dtype)
        for j in range(self.dim - 1):
            volume = (volume[:, None] * self.widths(j)[1:].astype(dtype)).reshape(-1)
        return int((slabs * volume[row]).sum())

    def degenerate_witness(self):
        """Lexicographically first point of the doubled grid whose cone
        fails recognition, or ``None``; it is always a vertex, the first
        degenerate entry of ``vertex_entries``.  A degenerate slab interior
        makes the edge before it degenerate, since its cone is the cylinder
        over a cross-section of that edge's cone.  A degenerate cone that
        does not depend on axis j stays the same down axis j until the first
        edge where the slabs beside it differ; that edge's cone has the same
        upper cross-section, so it is degenerate and depends on axis j as
        well.  Each step moves to a lexicographically smaller point."""
        if not any(prof.degenerate for prof in self.profiles.values()):
            return None
        return next(p for p, _m, prof in self.vertex_entries if prof.degenerate)

    @cached_property
    def vertex_sites(self) -> tuple:
        """(at, codes, points) of all degree-0 points in lexicographic
        order: their flat indices into the vertex grid, codes and points.
        Degree-0 points lie on edges in every axis, so they are read off the
        vertex runs.  A degree-0 cone depends on the last axis, so it differs
        from both of its neighbours along it and its run is a single point.
        Degenerate degree-0 points are included so callers can report them."""
        (keys, codes), table = self.vertex_runs, self.vertex_masks
        shape = self.vertex_shape
        vertex = np.array([m in self.profiles for m in table])
        hit = vertex[codes].nonzero()[0]
        at = keys[hit]
        wide = (_run_ends(keys, math.prod(shape))[hit] - at != 1).nonzero()[0]
        if len(wide):
            point = self.point_of(2 * np.array(np.unravel_index(at[wide[0]], shape)) + 1)
            raise ConsistencyError(f"vertex run at {point} is longer than one point")
        pos = np.unravel_index(at, shape)
        coords = [self.edges[j][pos[j] + 1].tolist() for j in range(self.dim)]
        return at, codes[hit], list(zip(*coords))

    @cached_property
    def vertex_entries(self) -> list:
        """(point, mask, profile) triples of the ``vertex_sites``."""
        _at, codes, points = self.vertex_sites
        masks = [self.vertex_masks[c] for c in codes.tolist()]
        return [(p, m, self.profiles[m]) for p, m in zip(points, masks)]


def _scan_for(P: IntegralOrthotope) -> _Scan:
    """The compressed scan of ``P``, built on first use and cached on it."""
    if P._scan is None:
        P._scan = _Scan(P)
    return P._scan


# ---------------------------------------------------------------------------
# public operations


def classify_point(P: IntegralOrthotope, point: Sequence) -> PointClass:
    """Tangent cone of ``P`` at a half-lattice point, as the orthant set of
    directions whose adjacent half-cell lies inside the cell union."""
    coords = tuple(_half(c) for c in point)
    if len(coords) != P.dim:
        raise ValueError(f"point arity {len(coords)} does not match dimension {P.dim}")
    # the cells on the lo and the hi side of the point along each axis
    sides = [(c - 1, c) if isinstance(c, int) else (math.floor(c),) * 2 for c in coords]
    # only the boxes holding one of those cells are checked per orthant
    near = [
        (lo, hi) for lo, hi in P.boxes
        if all(l <= b and a < h for l, h, (a, b) in zip(lo, hi, sides))
    ]
    mask = 0
    for s in range(1 << P.dim):
        cell = [side[(s >> j) & 1] for j, side in enumerate(sides)]
        if any(all(l <= c < h for l, c, h in zip(lo, cell, hi)) for lo, hi in near):
            mask |= 1 << s
    prof = _mask_profile(P.dim, mask)
    return PointClass(coords, OrthantSet(P.dim, mask), prof.essential, prof.degree, prof.floral)


def check_generic(P: IntegralOrthotope) -> Genericity:
    """Decide whether every tangent cone of ``P`` is a floral arrangement."""
    witness = _scan_for(P).degenerate_witness()
    return Genericity(witness is None, witness)


def _require_generic(P: IntegralOrthotope) -> _Scan:
    scan = _scan_for(P)
    witness = scan.degenerate_witness()
    if witness is not None:
        raise NotGenericError(witness)
    return scan


def vertices(P: IntegralOrthotope) -> list:
    """All degree-0 half-lattice points with their recognition results.
    Points whose cone fails recognition are reported with ``floral`` set
    to the degenerate marker rather than suppressed."""
    full_axes = tuple(range(1, P.dim + 1))
    return [
        PointClass(point, OrthantSet(P.dim, mask), full_axes, 0, prof.floral)
        for point, mask, prof in _scan_for(P).vertex_entries
    ]


def vertex_census(P: IntegralOrthotope) -> VertexCensus:
    scan = _require_generic(P)
    by_class: dict[str, int] = {}
    by_mu: dict[int, int] = {}
    for _point, _mask, prof in scan.vertex_entries:
        assert prof.is_vertex
        by_class[prof.class_key] = by_class.get(prof.class_key, 0) + 1
        by_mu[prof.mu_d] = by_mu.get(prof.mu_d, 0) + 1
    return VertexCensus(dict(sorted(by_class.items())), dict(sorted(by_mu.items())))


def sigma_sum(P: IntegralOrthotope) -> int:
    """Sum of bouquet signs over all vertices.  Divisible by 2^dim for
    every generic orthotope; the quotient is the Euler characteristic."""
    scan = _require_generic(P)
    return sum(prof.sigma for _p, _m, prof in scan.vertex_entries)


def volume(P: IntegralOrthotope, method: VolumeMethod = VolumeMethod.MU_SUM) -> Fraction:
    """Exact volume of the true point set ``(1/scale) * cells``.  There are
    two routes: ``DETERMINANTAL`` sums tau_d times the coordinate product
    over the vertices, and ``MU_SUM`` and ``VOXEL_COUNT`` both return the
    scan's cell count, ``VOXEL_COUNT`` without the genericity check."""
    if not isinstance(method, VolumeMethod):
        raise ValueError(f"unknown volume method {method!r}")
    n = P.scale
    d = P.dim
    if method is VolumeMethod.DETERMINANTAL:
        scan = _require_generic(P)
        total = Fraction(0)
        for point, _mask, prof in scan.vertex_entries:
            term = Fraction(prof.tau_d)
            for c in point:
                term *= Fraction(c, n)
            total += term
        return total if d % 2 == 0 else -total
    # Each unit cell is an occupied orthant at each of its 2^d corners, so
    # the mu_d sum over the integer points is 2^d times the cell count.
    scan = _scan_for(P) if method is VolumeMethod.VOXEL_COUNT else _require_generic(P)
    return Fraction(scan.cell_total(), n**d)


def euler(P: IntegralOrthotope, method: EulerMethod = EulerMethod.SIGMA_SUM) -> int:
    if not isinstance(method, EulerMethod):
        raise ValueError(f"unknown euler method {method!r}")
    d = P.dim
    if method is EulerMethod.SIGMA_SUM:
        total = sigma_sum(P)
        if total % (1 << d):
            raise ConsistencyError(
                f"vertex sign sum {total} is not divisible by 2^{d}"
            )
        return total // (1 << d)
    scan = _scan_for(P)
    occ = scan.occ
    sizes = tuple(2 * s + 1 for s in occ.shape)
    _check_budget(sizes, _cubical_bytes(sizes))
    present = np.zeros(sizes, dtype=bool)
    for offset in itertools.product((0, 1, 2), repeat=d):
        sel = tuple(
            slice(offset[j], offset[j] + 2 * occ.shape[j], 2) for j in range(d)
        )
        present[sel] |= occ
    acc = present  # summed one axis at a time, never copied whole to int64
    for _ in range(d):
        acc = acc[..., ::2].sum(-1, np.int64) - acc[..., 1::2].sum(-1, np.int64)
    return int(acc)


def skeleton(P: IntegralOrthotope) -> SkeletonGraph:
    """Vertices of ``P`` joined by its edges.  A generic vertex has one edge
    along each axis, to a neighbour on that grid line, so the vertices of a
    line pair off in order; each pair must lie on one line, point its edges
    at each other and alternate tau signs, and a leftover fails the degree
    check.  Lines and arcs are ordered on the ``vertex_sites``' grid
    indices, which order as their points do."""
    scan = _require_generic(P)
    d = P.dim
    at, codes, points = scan.vertex_sites
    profs = [scan.profiles[scan.vertex_masks[c]] for c in codes.tolist()]
    tau = np.array([prof.tau_d for prof in profs], dtype=np.int64)
    toward = np.array([prof.toward for prof in profs], dtype=np.int64).reshape(-1, d)
    # every axis pairs off the same number of sites, a leftover excepted
    lo, hi = np.empty((2, d, len(points) // 2), dtype=np.intp)
    for j in range(d):
        stride = math.prod(scan.vertex_shape[j + 1 :])
        # the site's flat index with axis j zeroed; sites already run along j
        line = at - at // stride % scan.vertex_shape[j] * stride
        order = np.lexsort((line,))
        lo[j], hi[j] = order[:-1:2], order[1::2]
        for bad, what in (
            (line[lo[j]] != line[hi[j]], "line changes"),
            ((toward[lo[j], j] != 1) | (toward[hi[j], j] != -1), "edges point apart"),
            (tau[lo[j]] != -tau[hi[j]], "tau signs fail to alternate"),
        ):
            if bad.any():
                a, b = points[lo[j][bad][0]], points[hi[j][bad][0]]
                raise ConsistencyError(f"{what} along {a} .. {b}")
    lo, hi = lo.reshape(-1), hi.reshape(-1)
    degree = np.bincount(np.concatenate((lo, hi)), minlength=len(points))
    short = (degree != d).nonzero()[0]
    if len(short):
        point, deg = points[short[0]], degree[short[0]]
        raise ConsistencyError(f"vertex {point} has skeleton degree {deg}")
    order = np.lexsort((hi, lo))
    axis = np.arange(1, d + 1).repeat(len(points) // 2)
    arcs = zip(lo[order].tolist(), hi[order].tolist(), axis[order].tolist())
    nodes = tuple(zip(points, tau.tolist()))
    return SkeletonGraph(nodes, tuple((points[a], points[b], j) for a, b, j in arcs))


def _region_labels(scan: _Scan) -> np.ndarray:
    """Connected components of axis-adjacent positions that share one
    nonempty mask, each labelled by the C-order flat index of its first
    position; exterior positions get -1.  Roots hook under the smallest
    root they meet and pointer jumping flattens the trees, until no join
    crosses two trees (Shiloach and Vishkin, 1982).  A labelling whose
    bound ``_label_bytes`` passes the scan budget is refused unbuilt."""
    _check_budget(scan.shape, _label_bytes(scan.shape))
    inverse = scan.inverse
    empty = scan.unique_masks.index(0)  # the padding puts exterior in every scan
    index = np.arange(inverse.size).reshape(inverse.shape)
    heads, tails = [], []
    for j in range(inverse.ndim):
        lo = (slice(None),) * j + (slice(None, -1),)
        hi = (slice(None),) * j + (slice(1, None),)
        join = (inverse[lo] == inverse[hi]) & (inverse[lo] != empty)
        heads.append(index[lo][join])
        tails.append(index[hi][join])
    u, v = np.concatenate(heads), np.concatenate(tails)
    del heads, tails
    parent = np.arange(inverse.size)
    while u.size:
        pu, pv = parent[u], parent[v]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
        apart = parent[u] != parent[v]
        u, v = u[apart], v[apart]
    return np.where(inverse.reshape(-1) == empty, -1, parent).reshape(inverse.shape)


def face_poset(P: IntegralOrthotope) -> FacePoset:
    """Genericity regions of the doubled grid, grouped into faces by
    taking closures, with containment among closures, on the model's one
    compressed scan.  The local structure is constant along a region, so a
    slab interior stands for its whole run and a region lies in the closure
    of another as soon as one of its positions does.  Each face holds one
    box per slab-interior row of its region, so the output grows with the
    scan, not with the volume; ``Face.cells`` lists unit cells lazily."""
    scan = _require_generic(P)
    if P.is_empty:  # no region: the per-region arrays below lose an axis
        return FacePoset((), frozenset())
    d = P.dim
    labels = _region_labels(scan)
    inside = np.flatnonzero(labels.reshape(-1) >= 0)
    roots, owner = np.unique(labels.reshape(-1)[inside], return_inverse=True)
    pos = np.stack(np.unravel_index(inside, labels.shape), axis=-1)
    heads = np.stack(np.unravel_index(roots, labels.shape), axis=-1)
    masks = [scan.unique_masks[c] for c in scan.inverse.reshape(-1)[roots].tolist()]
    profs = [_mask_profile(d, m) for m in masks]
    fixed_axes = np.array(
        [[a in p.essential for a in range(1, d + 1)] for p in profs], dtype=bool
    )[owner]
    even = pos % 2 == 0
    if (fixed_axes & (even | (pos != heads[owner]))).any():
        raise ConsistencyError("essential axis varies inside a region")
    # A position even on every free axis stands for the box of its slabs
    # there, written on those axes; each region's boxes are its rows'.
    rows = np.flatnonzero((even | fixed_axes).all(axis=1))
    rows = rows[np.argsort(owner[rows], kind="stable")]
    slab = pos[rows] // 2
    lo = np.stack([scan.edges[j][slab[:, j]] for j in range(d)], axis=-1).tolist()
    hi = np.stack([scan.edges[j][slab[:, j] + 1] for j in range(d)], axis=-1).tolist()
    keep = (~fixed_axes[rows]).tolist()
    boxes = list(zip(*(map(tuple, map(itertools.compress, c, keep)) for c in (lo, hi))))
    bounds = np.searchsorted(owner[rows], np.arange(len(roots) + 1))
    if (np.diff(bounds) == 0).any():
        raise ConsistencyError("genericity region with no interior cell")
    # Faces in order of dim, then representative point, which orders as its
    # grid index does: a coordinate grows strictly with its index.
    heads = heads.tolist()
    order = sorted(range(len(roots)), key=lambda r: (d - len(profs[r].essential), heads[r]))
    faces = []
    for r in order:
        head, prof = heads[r], profs[r]
        free = tuple(a for a in range(1, d + 1) if a not in prof.essential)
        fixed = tuple(
            (a, int(scan.edges[a - 1][(head[a - 1] + 1) // 2])) for a in prof.essential
        )
        rep = PointClass(
            scan.point_of(head), OrthantSet(d, masks[r]), prof.essential, prof.degree, prof.floral
        )
        faces.append(Face(len(free), free, fixed, tuple(boxes[bounds[r] : bounds[r + 1]]), rep))
    faces = tuple(faces)
    # The face index of every position; the last slot maps the exterior's -1.
    rank = np.full(labels.size + 1, -1)
    rank[roots[order]] = np.arange(len(faces))
    face_at = rank[labels]
    # Position p lies in the closure of position q iff on every axis
    # p_j == q_j, or q_j is even (a slab interior) and |p_j - q_j| == 1.
    steps = [
        [(slice(None), slice(None))]
        + [(slice(1, n - 1, 2), slice(1 + o, n - 1 + o, 2)) for o in (-1, 1)]
        for n in labels.shape
    ]
    # The pair codes of every offset are sorted once and deduplicated by
    # comparing neighbours: plain ``np.unique`` imports ``numpy.ma``.
    found = []
    for step in itertools.islice(itertools.product(*steps), 1, None):
        src, tgt = zip(*step)
        a, b = face_at[src], face_at[tgt]
        hit = (a != b) & (a >= 0) & (b >= 0)
        found.append(a[hit] * len(faces) + b[hit])
    codes = np.sort(np.concatenate(found))
    first = np.ones(codes.shape, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    inner, outer = np.divmod(codes[first], len(faces))
    return FacePoset(faces, frozenset(zip(inner.tolist(), outer.tolist())))


def cross_section(P: IntegralOrthotope, axes_values: Mapping) -> IntegralOrthotope:
    """Slice ``P`` by the generalized hyperplane fixing the given axes at
    half-lattice values, identifying the result with the lower-dimensional
    lattice by dropping the fixed coordinates.  Half-integer values cut
    through cell interiors; integer values take the union of the two
    adjacent cell layers, which matches slicing the closed point set."""
    if not axes_values:
        return P
    items = sorted(((int(a), _half(v)) for a, v in axes_values.items()), reverse=True)
    seen = set()
    for a, _v in items:
        if a < 1 or a > P.dim:
            raise ValueError(f"axis {a} out of range for dimension {P.dim}")
        if a in seen:
            raise ValueError(f"axis {a} fixed twice")
        seen.add(a)
    if len(items) >= P.dim:
        raise ValueError("cross-sections must keep at least one axis")
    boxes = list(P.boxes)
    dim = P.dim
    for axis, value in items:
        j = axis - 1
        kept = []
        for lo, hi in boxes:
            if isinstance(value, int):
                touches = lo[j] <= value - 1 and value <= hi[j]
                touches = touches or (lo[j] <= value and value + 1 <= hi[j])
            else:
                c = (2 * value.numerator // value.denominator - 1) // 2
                touches = lo[j] <= c < hi[j]
            if touches:
                kept.append((lo[:j] + lo[j + 1 :], hi[:j] + hi[j + 1 :]))
        boxes = kept
        dim -= 1
    return from_boxes(dim, boxes, P.scale)


def set_ops(P: IntegralOrthotope, Q: IntegralOrthotope, op: SetOp):
    """Union or intersection at a common denominator, together with the
    genericity verdict of the result."""
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    if op is SetOp.COMPLEMENT:
        raise ValueError("complement is not a binary operation on orthotopes")
    if op not in (SetOp.UNION, SetOp.INTERSECT):
        raise ValueError(f"unsupported operation {op!r}")
    common = math.lcm(P.scale, Q.scale)
    p_boxes = _rescaled_boxes(P, common // P.scale)
    q_boxes = _rescaled_boxes(Q, common // Q.scale)
    if op is SetOp.UNION:
        boxes = p_boxes + q_boxes
    else:
        boxes = []
        for alo, ahi in p_boxes:
            for blo, bhi in q_boxes:
                lo = tuple(max(a, b) for a, b in zip(alo, blo))
                hi = tuple(min(a, b) for a, b in zip(ahi, bhi))
                if all(l < h for l, h in zip(lo, hi)):
                    boxes.append((lo, hi))
    result = from_boxes(P.dim, boxes, common)
    return result, check_generic(result)


def _rescaled_boxes(P: IntegralOrthotope, factor: int) -> list:
    return [
        (tuple(c * factor for c in lo), tuple(c * factor for c in hi))
        for lo, hi in P.boxes
    ]
