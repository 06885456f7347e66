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
import operator
from dataclasses import dataclass, replace
from enum import Enum, unique
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .arrangement import (
    DEGENERATE,
    OrthantSet,
    SetOp,
    _axis_signs,
    _cofactor,
    _half_space_mask,
    _recognize,
    edge_direction,
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
# ``ScanTooLargeError``: on its slabs (``_first_bytes``) before anything is
# allocated and again once the occupancy's runs are counted, and on its
# runs (``_run_bytes``) before each axis pass.
_SCAN_BYTE_LIMIT = 4 << 30
_MASK_BIT_LIMIT = 1 << 29  # see ``_Scan``; the d=14 cube's 2^28 took 2.7 s on 2 cores

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
    """Raised before a classification scan (which ``==`` and ``hash``
    build too), a step of ``face_poset`` on the full grid's runs or its
    output, or the cubical Euler oracle allocates when the estimated peak
    exceeds the scan's memory budget, or before a scan past its work bound
    in mask bits (see ``_Scan``).  ``positions`` is the size of the doubled
    grid and ``estimate`` the peak in bytes, or the mask bits."""

    def __init__(self, positions: int, estimate: int, unit: str = "bytes"):
        self.positions = positions
        self.estimate = estimate
        limit = _SCAN_BYTE_LIMIT if unit == "bytes" else _MASK_BIT_LIMIT
        super().__init__(
            f"scan of {positions} positions needs about {estimate} {unit}, "
            f"over the budget of {limit}"
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
    in the free-axis coordinates only, one per maximal run of the region
    along the scan's last axis; ``fixed`` lists the (axis, coordinate)
    pairs of the remaining axes.  ``cells`` expands the boxes on first use.
    Equality and hash compare the boxes as listed, so two decompositions
    of one point set differ although their cells agree."""

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
    immutable; equality and hash compare dim, scale and the scan's
    ``signed_vertices``, which determine the point set as the vertices of
    orthogonal polyhedra do (Bournez, Maler and Pnueli, 1999), so they
    build and cache the scan and raise ``ScanTooLargeError`` where it is
    refused.
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
            and _scan_for(self).signed_vertices == _scan_for(other).signed_vertices
        )

    def __hash__(self):
        return hash((self.dim, self.scale, _scan_for(self).signed_vertices))

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


def _validate_header(dim, scale) -> tuple[int, int]:
    """``dim`` and ``scale`` as Python ints (``operator.index``: numpy
    integers and bools pass, a float does not), each positive."""
    header = []
    for name, value in (("dimension", dim), ("scale", scale)):
        try:
            header.append(operator.index(value))
        except TypeError:
            header.append(0)
        if header[-1] < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return tuple(header)


def from_boxes(dim: int, boxes: Iterable, scale: int = 1) -> IntegralOrthotope:
    """Build the union of axis-aligned integer boxes ``[lo, hi)`` given as
    (lo, hi) corner pairs.  Every box must be proper (lo < hi on each
    axis) with integer coordinates (``operator.index``: a float, string or
    ``Fraction`` is refused, not truncated) in ``_COORDINATE_RANGE``;
    overlaps and duplicates are allowed and merge silently.  An empty list
    yields the empty orthotope."""
    dim, scale = _validate_header(dim, scale)
    least, most = _COORDINATE_RANGE
    clean = set()
    for k, (lo, hi) in enumerate(boxes):
        try:
            lo, hi = tuple(map(operator.index, lo)), tuple(map(operator.index, hi))
        except TypeError:
            raise ValueError(f"box {k} has a non-integer coordinate: {lo!r} .. {hi!r}") from None
        if len(lo) != dim or len(hi) != dim:
            raise ValueError(f"box {k} has wrong arity for dimension {dim}")
        if not all(map(operator.lt, lo, hi)):
            raise ValueError(f"box {k} is degenerate: {lo} .. {hi}")
        if min(lo) < least or max(hi) > most:
            raise ValueError(f"box {k} has a coordinate outside [{least}, {most}]")
        clean.add((lo, hi))
    return IntegralOrthotope(dim, scale, tuple(sorted(clean)))


def from_cells(dim: int, cells: Iterable, scale: int = 1) -> IntegralOrthotope:
    """Build an orthotope from unit cell min-corners, each read as the unit
    box at that corner and checked as ``from_boxes`` checks boxes."""
    dim, scale = _validate_header(dim, scale)
    least, most = _COORDINATE_RANGE
    cleaned = set()
    for cell in cells:
        try:
            cell = tuple(map(operator.index, cell))
        except TypeError:
            raise ValueError(f"cell {cell!r} has a non-integer coordinate") from None
        if len(cell) != dim:
            raise ValueError(f"cell {cell} has wrong arity for dimension {dim}")
        if min(cell) < least or max(cell) >= most:
            raise ValueError(f"cell {cell} has a coordinate outside [{least}, {most - 1}]")
        cleaned.add(cell)
    boxes = tuple([(cell, tuple([c + 1 for c in cell])) for cell in sorted(cleaned)])
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
    essential: tuple[int, ...]
    degree: int | None
    floral: object
    degenerate: bool
    is_vertex: bool
    class_key: str | None
    sigma: int
    toward: tuple[int, ...] | None  # a vertex's edge direction on each axis


@lru_cache(maxsize=1 << 20)
def _class_profile(dim: int, mask: int) -> _MaskProfile:
    """The profile of ``mask`` by direct recognition (see ``_mask_profile``)."""
    oset = OrthantSet(dim, mask)
    floral, essential = _recognize(oset)
    degenerate = floral is DEGENERATE
    degree = None if mask == 0 else dim - len(essential)
    is_vertex = degree == 0 and not degenerate
    class_key = None
    sigma = 0
    toward = None
    if is_vertex:
        assert isinstance(floral, SignedSpd)
        class_key = canonical_key(floral.shape)
        sigma = bouquet(floral.shape).sign
        toward = tuple(edge_direction(floral, a) for a in range(1, dim + 1))
    return _MaskProfile(essential, degree, floral, degenerate, is_vertex, class_key, sigma, toward)


@lru_cache(maxsize=1 << 20)
def _mask_profile(dim: int, mask: int, negative: int, mixed: int) -> _MaskProfile:
    """What recognition decides about any cone, ``negative`` and ``mixed``
    being the axis bitmasks of its signs; its mu_d and tau_d are carried
    beside them (see ``_pair_codes``).  A cone not unate in some essential
    axis is degenerate.  Mirroring every negative axis of another gives the
    monotone representative of its sign class, recognized once per class:
    the cone keeps its shape, axes, class and bouquet sign, with literal
    and edge direction negated on mirrored axes."""
    if mixed:
        essential = tuple(_axis_signs(dim, mask))
        degree = dim - len(essential)
        return _MaskProfile(essential, degree, DEGENERATE, True, False, None, 0, None)
    neg = frozenset(a for a in range(1, dim + 1) if negative >> (a - 1) & 1)
    rep = mask
    for a in neg:  # the two halves of the table on either side of the axis swap
        step, hi = 1 << (a - 1), _half_space_mask(dim, a - 1, True)
        rep = ((rep & hi) >> step) | ((rep << step) & hi)
    rep = _class_profile(dim, rep)
    if not neg:
        return rep
    floral, toward = rep.floral, rep.toward
    if not rep.degenerate:
        diagram = SignedSpd(getattr(floral, "diagram", floral).shape, neg)
        floral = replace(floral, diagram=diagram) if rep.degree else diagram
        toward = toward and tuple(-t if a in neg else t for a, t in enumerate(toward, 1))
    return _MaskProfile(
        rep.essential, rep.degree, floral, rep.degenerate, rep.is_vertex, rep.class_key, rep.sigma,
        toward,
    )


def _cone_profile(dim: int, mask: int) -> _MaskProfile:
    """The profile of ``mask``, its axis signs read off it (``_axis_signs``)."""
    signs = _axis_signs(dim, mask)
    negative, mixed = (sum(1 << (a - 1) for a, s in signs.items() if s == t) for t in (-1, 0))
    return _mask_profile(dim, mask, negative, mixed)


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
    for start in range(0, len(P.boxes), _OCCUPANCY_CHUNK):
        corners = np.array(P.boxes[start : start + _OCCUPANCY_CHUNK], dtype=np.int64)
        corners = corners.reshape(-1, 2, d)
        slabs = np.array([edges[j].searchsorted(corners[..., j]) for j in range(d)])
        for lo, hi in slabs.transpose(1, 2, 0).tolist():
            occ[tuple(map(slice, lo, hi))] = True
    return occ


def _first_bytes(slabs: int, runs: int, boxes: int) -> int:
    """Estimated peak bytes of the scan up to its run passes, which never
    holds its two phases at once: a byte per slab of the occupancy, and
    either 1 KiB per box of a chunk that ``_occupancy`` converts (280 to
    730 bytes were measured at d = 2..5 and 770 at d=12), or the
    occupancy's run starts, a byte per slab, and its runs, 20 bytes each
    (see ``_occupancy_runs``; 9 to 11 were measured)."""
    chunk = 1024 * min(boxes, _OCCUPANCY_CHUNK)
    return slabs + max(slabs + 20 * runs, chunk) + (1 << 16)


def _run_bytes(keys: np.ndarray, step: int, masks: int) -> int:
    """Estimated peak bytes of one axis pass of the run scan (``_pair_rows``)
    over the runs starting at ``keys``, coded into ``masks`` masks, each row
    pairing with the one ``step`` positions after it.  It holds each run's
    start and code, and each stretch's position, sides and pair code, a
    stretch being a span over which neither paired row's run changes.  A
    stretch starts at a start of either row, and two consecutive starts
    ``step`` apart are one start both rows share, so 2 * runs less their
    count bounds the stretches; on the last axis, where step is 1, exactly.
    No one rate per run fits: the stretches per run range from 1 to 2.
    Per run and per stretch 29 to 34 bytes were measured with
    ``_hash_cons``'s presence table, which adds 5 bytes per possible pair,
    and 32 to 41 with ``np.unique``."""
    runs, pairs = len(keys), masks * masks
    stretches = 2 * runs - np.count_nonzero(np.diff(keys) == step)
    if pairs > _PAIR_TABLE_LIMIT:
        return 44 * (runs + stretches)
    return 40 * (runs + stretches) + 5 * pairs


def _check_budget(shape: tuple, estimate: int) -> None:
    """Refuse work on the doubled grid of this shape whose estimated peak
    passes the budget, before it allocates."""
    if estimate > _SCAN_BYTE_LIMIT:
        raise ScanTooLargeError(math.prod(shape), estimate)


def _cubical_bytes(sizes: tuple) -> int:
    """Peak bytes of the cubical Euler oracle on a closed-cell grid of
    these sizes: a bool per cell and per slab, then the int64 partial sums
    over the other axes as the last axis is summed away (every later axis
    sums a smaller grid), and 128 KiB for numpy's buffers."""
    slabs = math.prod((n - 1) // 2 for n in sizes)
    return math.prod(sizes) + slabs + 24 * math.prod(sizes[:-1]) + (1 << 17)


def _face_bytes(runs: int) -> int:
    """Estimated peak bytes of a step of ``face_poset`` on ``runs`` runs of
    the full grid: an axis of ``_full_runs`` holds 29 bytes per run it
    makes, at most three per run read, and ``_run_regions`` held 71 to 93
    per run labelled at d = 2..7; 64 KiB of small arrays."""
    return 120 * runs + (1 << 16)


def _output_bytes(dim: int, regions: int, boxes: int) -> int:
    """Estimated bytes that ``face_poset``'s output adds to its run tables:
    1 KiB per region and 128 per face of its closure, at most 2^(dim-1) on
    average (2.0 to 34.7 at d = 2..7), and per box its tuples, corners and
    the lists they are read from (about 720, 100 and 470 bytes traced)."""
    return (1024 + (64 << dim)) * regions + (256 + 128 * dim) * boxes


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
        used, rank = np.unique(pair.reshape(-1), return_inverse=True)
        return used, rank.astype(_code_dtype(len(used))).reshape(pair.shape)
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
    index (mask, pos, neg, mixed, mu, tau) entries; in the mask, bit s <
    2^j is the occupancy of the neighbouring cell on the hi side of axis i
    when bit i of s is set and on the lo side otherwise.  An edge of axis j
    has the mask of its hi slab shifted up by 2^j over that of its lo slab,
    so it is fixed by the pair code hi * K + lo, K = len(table).  The pairs
    found are coded 0, 1, ... in pair order, so every code is used.  Bit i
    of ``pos``, ``neg`` or ``mixed`` is set when the mask is
    positive-unate, negative-unate or essential but neither in axis i
    (``_axis_signs``, carried): before axis j, a mixed side or opposite
    sides make it mixed; on axis j, lo inside hi makes it positive and hi
    inside lo negative.  ``mu`` and ``tau`` are its mu_d and tau_d over the
    axes paired so far, carried as mu(hi) + mu(lo) and tau(hi) - tau(lo):
    the lo side's orthants gain a negative coordinate."""
    k = len(table)
    used, out = _hash_cons(pair, k * k)
    shift = 1 << j  # both the mask's half width and axis j's bit
    entries = []
    for p in used.tolist():
        hi, hpos, hneg, hmix, hmu, htau = table[p // k]
        lo, lpos, lneg, lmix, lmu, ltau = table[p % k]
        mixed = hmix | lmix | (hpos & lneg) | (hneg & lpos)
        if hi != lo:
            up, down = not lo & ~hi, not hi & ~lo
            hpos, hneg = hpos | shift * up, hneg | shift * down
            mixed |= shift * (up == down)
        pos, neg = (hpos | lpos) & ~mixed, (hneg | lneg) & ~mixed
        entries.append(((hi << shift) | lo, pos, neg, mixed, hmu + lmu, htau - ltau))
    return out, entries


def _occupancy_runs(P: IntegralOrthotope, edges, shape: tuple):
    """The maximal runs of the slab occupancy of ``P`` along the last axis,
    in the form of ``vertex_runs``: code 0 for the empty cell and 1 for the
    full one.  The runs are charged once counted (see ``_first_bytes``),
    and the occupancy is dropped on return."""
    occ = _occupancy(P, edges).view(np.int8).reshape(-1)
    start = np.empty(len(occ), dtype=bool)
    np.not_equal(occ[1:], occ[:-1], out=start[1:])  # flat, so numpy needs no buffer
    start[:: len(edges[-1]) - 1] = True
    _check_budget(shape, _first_bytes(len(occ), np.count_nonzero(start), 0))
    keys = start.nonzero()[0]
    return keys, occ[keys]


def _row_pairs(keys: np.ndarray, size: int, step: int):
    """The runs that meet when each row of runs over ``size`` flat
    positions, ``keys`` their starts with the first of every row, is laid
    over the row ``step`` positions after it; rows from ``size - step`` on
    have none.  One entry per stretch over which neither row's run
    changes: its first position in the lower row and the indices of the
    lower and the upper run.  A stretch starts where either row starts a
    run, so there are at most as many as the two rows have runs."""
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
    lower = np.where(came < lo, came, at + (lo - 1) - came)
    del came
    merged = merged[at]
    at += hi - 1
    at -= lower
    return merged, lower, at


def _pair_rows(keys: np.ndarray, codes: np.ndarray, size: int, n: int, step: int, table, j):
    """One axis pass of the vertex scan on axis j, on runs (see ``_Scan``)
    over ``size`` flat positions, axis j having ``n`` slabs and ``step``
    positions per slab; on axis 0 these are the occupancy's runs
    (``_occupancy_runs``), coded into the table of the empty and the full
    cell.  Position f, between lo slab f and hi slab f + ``step``, becomes
    the edge after the lo slab.  Where the lo slab is the last of axis j the
    position pairs padding with the next block's padding; it is dropped and
    the rest numbered in a grid with n - 1 edges on axis j, as the dense
    pass numbers them, so the last axis's pass leaves vertex-grid indices.
    An edge row changes only where one of its two slab rows does, so its
    runs are the stretches of ``_row_pairs`` and stay maximal."""
    merged, lower, upper = _row_pairs(keys, size, step)
    outer = merged // (n * step)
    merged -= outer * step
    keep = (merged // ((n - 1) * step) == outer).nonzero()[0]
    del outer
    merged = merged[keep]
    pair = codes[upper[keep]].astype(np.intp)
    del upper
    pair *= len(table)
    pair += codes[lower[keep]]
    del lower, keep
    out, table = _pair_codes(pair, table, j)
    return merged, out, table


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
    row included, and the run's code into ``vertex_masks``.  It starts from
    the maximal runs of the slab occupancy along the last axis, coded 0 for
    the empty and 1 for the full cell, the occupancy charged before it is
    allocated and dropped once its runs are read (see ``_occupancy_runs``
    and ``_first_bytes``), and pairs them one axis at a time, as Bentley's
    sweep for Klee's measure problem keeps its cross-sections: on every
    axis each row pairs with the row one slab after it by merging their run
    starts, and drops the positions that pair padding with padding, so each
    pass numbers its grid as a dense pass does and the last one leaves the
    vertex grid (see ``_pair_rows``).  Each pass hash-conses its pairs, so
    the codes are those of a dense pass, and carries their axis signs,
    ``vertex_signs``, and their mu_d and tau_d, the int64 arrays
    ``vertex_mu`` and ``vertex_tau`` by code that the formulas read (see
    ``_pair_codes``); a run pass's work and memory grow with the runs,
    which change only at the boundary, not with the grid's volume, and it
    is checked against the budget on its runs before it allocates (see
    ``_run_bytes``).  The runs decide the verdict and give
    every vertex: a slab interior's cone is the cylinder over a one-sided
    cross-section of the cone at the edge beside it, and cross-sections of
    floral cones are floral.  For the same reason
    a degenerate cylinder forces a degenerate cone with every axis
    essential, so only those, ``all_essential`` as read off the carried
    signs, are recognized, by ``profiles`` once per sign class when asked
    (see ``_mask_profile``).  That work grows with the masks' bits, 2^dim
    each, and a nonempty model has a corner mask per orthant, so a model
    whose corners alone pass ``_MASK_BIT_LIMIT`` bits is refused unbuilt.
    The whole grid is never held densely: ``face_poset`` alone derives its
    runs along the last axis from the vertex runs, one axis at a time,
    each slab interior coded as the cylinder over one side of the edge
    after it (see ``_full_runs``)."""

    def __init__(self, P: IntegralOrthotope):
        self.dim = P.dim
        self.scale = P.scale
        self.edges = _slab_edges(P)
        self.shape = tuple(2 * len(e) - 3 for e in self.edges)
        self.vertex_shape = tuple(len(e) - 2 for e in self.edges)
        slabs = tuple(len(e) - 1 for e in self.edges)
        if P.boxes and 4**self.dim > _MASK_BIT_LIMIT:
            raise ScanTooLargeError(math.prod(self.shape), 4**self.dim, "mask bits")
        size = step = math.prod(slabs)
        _check_budget(self.shape, _first_bytes(size, 0, len(P.boxes)))
        keys, codes = _occupancy_runs(P, self.edges, self.shape)
        table = [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 1)]
        for j, n in enumerate(slabs):
            step //= n
            _check_budget(self.shape, _run_bytes(keys, step, len(table)))
            keys, codes, table = _pair_rows(keys, codes, size, n, step, table, j)
            size -= size // n
        self.vertex_runs = keys, codes
        masks, pos, neg, mixed, mu, tau = zip(*table)
        self.vertex_masks = list(masks)
        self.vertex_signs = list(zip(pos, neg, mixed))
        self.vertex_mu = np.array(mu, dtype=np.int64)
        self.vertex_tau = np.array(tau, dtype=np.int64)
        full = (1 << self.dim) - 1
        self.all_essential = np.array([p | n | x == full for p, n, x in self.vertex_signs], bool)

    @cached_property
    def profiles(self) -> dict:
        """Each mask with ``all_essential`` mapped to its profile (see ``_mask_profile``)."""
        masks, signs = self.vertex_masks, self.vertex_signs
        vertex = np.flatnonzero(self.all_essential).tolist()
        return {masks[c]: _mask_profile(self.dim, masks[c], *signs[c][1:]) for c in vertex}

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
        (keys, codes), shape = self.vertex_runs, self.vertex_shape
        hit = self.all_essential[codes].nonzero()[0]
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

    @cached_property
    def signed_vertices(self) -> tuple:
        """(point, tau_d) of the ``vertex_sites`` with tau_d != 0, read off
        ``vertex_tau``: tau_d is the indicator's d-th mixed difference, so
        they give the point set."""
        _at, codes, points = self.vertex_sites
        return tuple((p, t) for p, t in zip(points, self.vertex_tau[codes].tolist()) if t)


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
    prof = _cone_profile(P.dim, mask)
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
    return [
        PointClass(point, OrthantSet(P.dim, mask), prof.essential, prof.degree, prof.floral)
        for point, mask, prof in _scan_for(P).vertex_entries
    ]


def vertex_census(P: IntegralOrthotope) -> VertexCensus:
    scan = _require_generic(P)
    by_class: dict[str, int] = {}
    by_mu: dict[int, int] = {}
    mu_d = scan.vertex_mu[scan.vertex_sites[1]].tolist()
    for (_point, _mask, prof), mu in zip(scan.vertex_entries, mu_d):
        assert prof.is_vertex
        by_class[prof.class_key] = by_class.get(prof.class_key, 0) + 1
        by_mu[mu] = by_mu.get(mu, 0) + 1
    return VertexCensus(dict(sorted(by_class.items())), dict(sorted(by_mu.items())))


def sigma_sum(P: IntegralOrthotope) -> int:
    """Sum of bouquet signs over all vertices.  Divisible by 2^dim for
    every generic orthotope; the quotient is the Euler characteristic."""
    scan = _require_generic(P)
    return sum(prof.sigma for _p, _m, prof in scan.vertex_entries)


def volume(P: IntegralOrthotope, method: VolumeMethod = VolumeMethod.MU_SUM) -> Fraction:
    """Exact volume of the true point set ``(1/scale) * cells``.  There are
    two routes: ``DETERMINANTAL`` sums tau_d times the coordinate product
    over the ``signed_vertices`` in one integer sum, divided once by
    scale^d, and ``MU_SUM`` and ``VOXEL_COUNT`` both return the scan's cell
    count, ``VOXEL_COUNT`` without the genericity check."""
    if not isinstance(method, VolumeMethod):
        raise ValueError(f"unknown volume method {method!r}")
    n = P.scale
    d = P.dim
    if method is VolumeMethod.DETERMINANTAL:
        total = sum(tau * math.prod(point) for point, tau in _require_generic(P).signed_vertices)
        return Fraction(total if d % 2 == 0 else -total, n**d)
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
    edges = _slab_edges(P)
    sizes = tuple(2 * len(e) - 1 for e in edges)
    _check_budget(sizes, _cubical_bytes(sizes))
    occ = _occupancy(P, edges)
    present = np.zeros(sizes, dtype=bool)
    for offset in itertools.product((0, 1, 2), repeat=d):
        present[tuple(slice(o, o + 2 * n, 2) for o, n in zip(offset, occ.shape))] |= occ
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
    tau = scan.vertex_tau[codes]
    toward = [scan.profiles[scan.vertex_masks[c]].toward for c in codes.tolist()]
    toward = np.array(toward, dtype=np.int64).reshape(-1, d)
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


def _full_runs(scan: _Scan):
    """The maximal runs of the full doubled grid along its last axis, as
    (starts, codes, masks) in the form of ``vertex_runs``, derived from
    them one axis at a time.  Axis j turns vertex index k into the edge
    2k + 1, with its runs, and the slab 2k before it, whose cone is the
    cylinder over the lo side of the edge's (see ``_Scan``): the runs are
    copied there with the codes of those cofactors.  The last slab, the
    padding, is one exterior run per row.  A run longer than one vertex on
    the last axis has a cone that does not depend on it, so its two copies
    agree and cover its stretch.  A copy that continues its row with the
    code before it joins that run.  Masks first met get codes K, K+1, ...,
    and each axis is charged on the runs it reads before it allocates."""
    d = scan.dim
    keys, codes = scan.vertex_runs
    code = {m: c for c, m in enumerate(scan.vertex_masks)}
    shape = list(scan.vertex_shape)
    for j in range(d):
        _check_budget(scan.shape, _face_bytes(len(keys)))
        lo = [code.setdefault(_cofactor(m, d, j, False), len(code)) for m in list(code)]
        exterior = code.setdefault(0, len(code))
        dtype = _code_dtype(len(code))
        n, stride, outer = shape[j], math.prod(shape[j + 1 :]), math.prod(shape[:j])
        block, rest = np.divmod(keys, stride)
        edge = (2 * block + block // n + 1) * stride + rest
        pad = (np.arange(1, outer + 1) * (2 * n + 1) - 1) * stride
        pad = (pad[:, None] + np.arange(0, stride, shape[-1] if j < d - 1 else 1)).reshape(-1)
        keys = np.concatenate((edge - stride, edge, pad))
        codes = np.concatenate(
            (np.array(lo, dtype=dtype)[codes], codes, np.full(len(pad), exterior, dtype=dtype))
        )
        del block, rest, edge, pad
        order = np.argsort(keys, kind="stable")  # a linear merge of three sorted parts
        keys, codes = keys[order], codes[order]
        del order
        shape[j] = 2 * n + 1
        new = keys % shape[-1] == 0
        new[1:] |= codes[1:] != codes[:-1]
        keys, codes = keys[new], codes[new]
    return keys, codes, list(code)


def _run_regions(keys: np.ndarray, codes: np.ndarray, shape: tuple, exterior: int):
    """Each run's region and the closure steps between the full grid's
    runs (see ``_full_runs``).  Runs of one code that meet in rows adjacent
    along an axis are joined, as in run-based labelling (He, Chao and
    Suzuki, IEEE Trans. Image Processing, 2008); runs of one row are
    maximal, so never equal.  Roots hook under the smallest root they meet
    and pointer jumping flattens the trees, until no join crosses two
    trees (Shiloach and Vishkin, 1982), so each region's root is its first
    run.  Runs of different codes that meet across one axis form a step:
    the run on the odd side of that axis lies in the closure of the one on
    the even side, a slab interior.  Returns every run's root and the
    (odd, even) runs of every step."""
    width, size = shape[-1], math.prod(shape)
    # along the last axis every run but the first of its row meets the run
    # before it, and is on the odd side when it starts at an odd position
    after = np.flatnonzero(keys[1:] % width) + 1
    meets = [(after, after - 1, keys[after] % width % 2 == 1)]
    joins = [np.empty((2, 0), dtype=np.intp)]
    for j in range(len(shape) - 1):
        step = math.prod(shape[j + 1 :])
        merged, lower, upper = _row_pairs(keys, size, step)
        same = codes[lower] == codes[upper]
        joins.append(np.stack((lower, upper))[:, same & (codes[lower] != exterior)])
        meets.append((lower[~same], upper[~same], merged[~same] // step % shape[j] % 2 == 1))
        del merged, lower, upper, same
    u, v = np.concatenate(joins, axis=1)
    del joins
    parent = np.arange(len(keys))
    while u.size:
        pu, pv = parent[u], parent[v]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
        apart = parent[u] != parent[v]
        u, v = u[apart], v[apart]
    odd = np.concatenate([np.where(flag, a, b) for a, b, flag in meets])
    even = np.concatenate([np.where(flag, b, a) for a, b, flag in meets])
    return parent, odd, even


def face_poset(P: IntegralOrthotope) -> FacePoset:
    """Genericity regions of the doubled grid, grouped into faces by
    taking closures, with containment among closures, on the model's one
    compressed scan.  The local structure is constant along a region, so
    the grid is held as runs along its last axis (``_full_runs``), the
    regions and the steps between them are read off runs that meet
    (``_run_regions``), and containment is the transitive closure of those
    steps.  Each face holds one box per run of its region in a row that is
    a slab interior on each of its free axes, so the output grows with the
    region's boundary, not with its slabs; ``Face.cells`` lists unit cells
    lazily."""
    scan = _require_generic(P)
    if P.is_empty:  # no region: the per-region arrays below lose an axis
        return FacePoset((), frozenset())
    d, shape = P.dim, scan.shape
    keys, codes, masks = _full_runs(scan)
    labelling = _face_bytes(len(keys))
    _check_budget(shape, labelling)
    exterior = masks.index(0)  # the padding puts exterior in every scan
    parent, odd, even = _run_regions(keys, codes, shape, exterior)
    roots = np.flatnonzero((parent == np.arange(len(keys))) & (codes != exterior))
    heads = np.stack(np.unravel_index(keys[roots], shape), axis=-1).tolist()
    # one cone, profile and set of free axes per distinct mask of a region
    used, kind = np.unique(codes[roots], return_inverse=True)
    cones = [OrthantSet(d, masks[c]) for c in used.tolist()]
    profs = [_cone_profile(d, cone.mask) for cone in cones]
    frees = [tuple(a for a in range(1, d + 1) if a not in p.essential) for p in profs]
    fixed_of = np.array([[a in p.essential for a in range(1, d + 1)] for p in profs], dtype=bool)
    kind = kind.tolist()
    # Faces in order of dim, then representative point, which orders as its
    # grid index does: a coordinate grows strictly with its index.
    order = sorted(range(len(roots)), key=lambda r: (profs[kind[r]].degree, heads[r]))
    face = np.full(len(keys), -1)
    face[roots[order]] = np.arange(len(roots))
    face = face[parent]
    run = np.flatnonzero(face >= 0)
    owner = face[run]
    start = np.stack(np.unravel_index(keys[run], shape), axis=-1)
    width = (_run_ends(keys, math.prod(shape)) - keys)[run]
    fixed_axes = fixed_of[np.array(kind)[order]][owner]
    # a region stays at its head, one position wide, on each fixed axis
    moved = (start % 2 == 0) | (start != np.array(heads)[order][owner])
    moved[:, -1] |= width != 1
    if (fixed_axes & moved).any():
        raise ConsistencyError("essential axis varies inside a region")
    # A run in a row that is a slab interior on every free axis before the
    # last stands for the box of its slabs there, written on those axes.
    rows = np.flatnonzero(((start[:, :-1] % 2 == 0) | fixed_axes[:, :-1]).all(axis=1))
    _check_budget(shape, labelling + _output_bytes(d, len(roots), len(rows)))
    rows = rows[np.argsort(owner[rows], kind="stable")]
    slab = start[rows] // 2
    past = slab + 1
    past[:, -1] = (start[rows, -1] + width[rows] + 1) // 2
    lo = np.stack([scan.edges[j][slab[:, j]] for j in range(d)], axis=-1).tolist()
    hi = np.stack([scan.edges[j][past[:, j]] for j in range(d)], axis=-1).tolist()
    keep = (~fixed_axes[rows]).tolist()
    boxes = list(zip(*(map(tuple, map(itertools.compress, c, keep)) for c in (lo, hi))))
    bounds = np.searchsorted(owner[rows], np.arange(len(roots) + 1))
    if (np.diff(bounds) == 0).any():
        raise ConsistencyError("genericity region with no interior cell")
    bounds = bounds.tolist()
    del lo, hi, keep
    a, b = face[odd], face[even]
    hit = (a >= 0) & (b >= 0)
    steps = sorted(set(zip(b[hit].tolist(), a[hit].tolist())))
    del parent, odd, even, face, a, b, hit
    # A step raises the face dimension, so in face order the faces below
    # each face are closed before it: its closure holds theirs.
    below = [set() for _ in order]
    for b, a in steps:
        below[b] |= below[a] | {a}
    coords = [[scan.coordinate(j, r) for r in range(n)] for j, n in enumerate(shape)]
    faces = []
    for f, r in enumerate(order):
        k = kind[r]
        prof, free = profs[k], frees[k]
        point = tuple(map(list.__getitem__, coords, heads[r]))
        fixed = tuple((a, point[a - 1]) for a in prof.essential)
        rep = PointClass(point, cones[k], prof.essential, prof.degree, prof.floral)
        faces.append(Face(len(free), free, fixed, tuple(boxes[bounds[f] : bounds[f + 1]]), rep))
    incidence = frozenset((a, b) for b, under in enumerate(below) for a in under)
    return FacePoset(tuple(faces), incidence)


def cross_section(P: IntegralOrthotope, axes_values: Mapping) -> IntegralOrthotope:
    """Slice ``P`` by the generalized hyperplane fixing the given axes at
    half-lattice values, identifying the result with the lower-dimensional
    lattice by dropping the fixed coordinates.  Half-integer values cut
    through cell interiors; integer values take the union of the two
    adjacent cell layers, which matches slicing the closed point set.  An
    axis that is not an integer (``operator.index``) is refused."""
    if not axes_values:
        return P
    items = []
    for a, v in axes_values.items():
        try:
            a = operator.index(a)
        except TypeError:
            raise ValueError(f"axis {a!r} is not an integer") from None
        items.append((a, _half(v)))
    items.sort(reverse=True)
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
