"""Thickening, random generation, and the exact Hausdorff distance."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from orthotopes import genericize
from orthotopes.genericize import (
    _check_supports,
    _pad_ranks,
    distance_to_faces,
    face_box,
    hausdorff_distance,
    random_generic,
    thicken,
)
from orthotopes.lattice import (
    _COORDINATE_RANGE,
    SetOp,
    check_generic,
    classify_point,
    euler,
    from_boxes,
    set_ops,
    sigma_sum,
    vertex_census,
)


@dataclass(frozen=True)
class PadSchedule:
    """Oracle of the padding ``thicken`` chooses: one positive rational
    pad per box side, all resulting supporting-hyperplane coordinates
    distinct per axis.  ``pads[i][j]`` is the (low, high) pad pair of face i on axis
    j + 1, in true units; ``scale`` clears all denominators."""

    scale: int
    pads: tuple

    def validate(self, dim: int, faces: Sequence) -> None:
        padded = []
        for (v, spec), sides in zip(faces, self.pads):
            lo, hi = face_box(v, spec)
            padded.append(
                (
                    [Fraction(c) - pad for c, (pad, _) in zip(lo, sides)],
                    [Fraction(c) + pad for c, (_, pad) in zip(hi, sides)],
                )
            )
        _check_supports(dim, padded)


def _pad_schedule(dim: int, faces: Sequence, bound: Fraction) -> PadSchedule:
    """The pads ``thicken`` gives the faces, as a schedule in true units."""
    scale, ranks = _pad_ranks(dim, [face_box(v, spec) for v, spec in faces], bound)
    pads = tuple(
        tuple((Fraction(klo, scale), Fraction(khi, scale)) for klo, khi in per_axis)
        for per_axis in ranks
    )
    return PadSchedule(scale, pads)


def _full_cell(corner):
    return tuple(corner), (None,) * len(corner)


def _supporting_coords(P, axis):
    coords = []
    for lo, hi in P.boxes:
        coords.append(Fraction(lo[axis], P.scale))
        coords.append(Fraction(hi[axis], P.scale))
    return coords


def _max_pad(P, faces):
    """Largest gap between a thickened box side and its face side."""
    worst = Fraction(0)
    for (lo, hi), (v, spec) in zip(P.boxes, faces):
        flo, fhi = face_box(v, spec)
        for j in range(P.dim):
            worst = max(worst, Fraction(flo[j]) - Fraction(lo[j], P.scale))
            worst = max(worst, Fraction(hi[j], P.scale) - Fraction(fhi[j]))
    return worst


def _random_faces(rng, dim, count):
    faces = []
    for _ in range(count):
        corner = tuple(rng.randrange(0, 4) for _ in range(dim))
        spec = tuple(rng.choice((0, 1, None)) for _ in range(dim))
        faces.append((corner, spec))
    return faces


# ---------------------------------------------------------------------------
# face boxes


def test_face_box_spans_and_pins():
    assert face_box((2, 5), (None, None)) == ((2, 5), (3, 6))
    assert face_box((2, 5), (0, None)) == ((2, 5), (2, 6))
    assert face_box((2, 5), (1, 0)) == ((3, 5), (3, 5))
    with pytest.raises(ValueError):
        face_box((0, 0), (2, None))


def test_face_box_refuses_specs_that_only_compare_equal_to_0_or_1():
    # the rule of cli.load_faces: None, or an int that is not a bool
    square = from_boxes(2, [((0, 0), (2, 2))])
    for entry in (True, False, 1.0, 0.0, Fraction(1), np.int64(1)):
        spec = (entry, None)
        with pytest.raises(ValueError, match="spec entry"):
            face_box((0, 0), spec)
        with pytest.raises(ValueError, match="spec entry"):
            thicken(2, [((0, 0), spec)], 1)
        with pytest.raises(ValueError, match="spec entry"):
            distance_to_faces(square, [((0, 0), spec)])
    assert face_box((0, 0), (1, None)) == ((1, 0), (1, 1))
    assert face_box((0, 0), (0, 1)) == ((0, 1), (0, 1))


def test_face_corners_are_refused_not_truncated():
    # int() cut 0.9 down to 0, so the unit square was at distance 0 from a
    # face at 0.9, and a face at (0.7, 1.9) was padded at (0, 1); numpy
    # integers and bools are the ints they are
    square = from_boxes(2, [((0, 0), (1, 1))])
    faces = [((0.9, 0.2), (None, None)), ((0.7, 1.9), (None, None))]
    faces += [((bad, 0), (0, None)) for bad in (1.0, "1", Fraction(3, 2))]
    for face in faces:
        with pytest.raises(ValueError, match=r"^face .* has a non-integer corner$"):
            face_box(*face)
        with pytest.raises(ValueError, match="non-integer corner"):
            thicken(2, [face], 1)
        with pytest.raises(ValueError, match="non-integer corner"):
            distance_to_faces(square, [face])
    box = face_box((np.int64(2), True), (None, 0))
    assert box == ((2, 1), (3, 1))
    assert all(type(c) is int for corner in box for c in corner)
    wide, plain = [((np.int32(1), np.int64(1)), (0, None))], [((1, 1), (0, None))]
    assert thicken(2, wide, 1).boxes == thicken(2, plain, 1).boxes
    assert distance_to_faces(square, wide) == distance_to_faces(square, plain) == 1


# ---------------------------------------------------------------------------
# thicken


def test_thicken_point_face_gives_small_generic_box():
    faces = [((1, 1), (0, 0))]
    out = thicken(2, faces, 1)
    assert check_generic(out).generic
    assert vertex_census(out).total == 4
    inside = classify_point(out, (out.scale, out.scale))
    assert inside.degree is not None
    assert distance_to_faces(out, faces) < 1


def test_thicken_separates_edge_sharing_cubes():
    faces = [_full_cell((0, 0, 0)), _full_cell((1, 1, 0))]
    raw = from_boxes(3, [((0, 0, 0), (1, 1, 1)), ((1, 1, 0), (2, 2, 1))])
    assert not check_generic(raw).generic
    out = thicken(3, faces, Fraction(1, 2))
    assert check_generic(out).generic
    assert distance_to_faces(out, faces) < Fraction(1, 2)


def test_thicken_l_shape_cells_stays_close():
    faces = [_full_cell((0, 0)), _full_cell((1, 0)), _full_cell((0, 1))]
    out = thicken(2, faces, Fraction(1, 4))
    assert check_generic(out).generic
    bound = distance_to_faces(out, faces)
    assert bound <= Fraction(1, 4)
    ell = from_boxes(2, [((0, 0), (2, 1)), ((0, 0), (1, 2))])
    assert hausdorff_distance(out, ell) == bound


def test_thicken_pads_are_small_and_hyperplanes_distinct():
    faces = [_full_cell((0, 0)), _full_cell((1, 1)), ((2, 0), (0, None))]
    bound = Fraction(1, 3)
    out = thicken(2, faces, bound)
    assert _max_pad(out, faces) < bound / 2
    for j in range(2):
        coords = _supporting_coords(out, j)
        assert len(set(coords)) == len(coords)
    for (lo, hi), (v, spec) in zip(out.boxes, faces):
        flo, fhi = face_box(v, spec)
        for j in range(2):
            assert Fraction(lo[j], out.scale) < flo[j]
            assert Fraction(hi[j], out.scale) > fhi[j]


def test_thicken_schedule_object_checks_distinctness():
    faces = [_full_cell((0, 0)), _full_cell((3, 3))]
    schedule = _pad_schedule(2, faces, Fraction(1, 2))
    schedule.validate(2, faces)
    clash = PadSchedule(schedule.scale, (schedule.pads[0], schedule.pads[0]))
    bad_faces = [faces[0], faces[0]]
    with pytest.raises(Exception):
        clash.validate(2, bad_faces)


def test_thicken_rejects_bad_inputs():
    with pytest.raises(ValueError):
        thicken(2, [], 1)
    with pytest.raises(ValueError):
        thicken(2, [((0, 0), (None, None))], 0)
    with pytest.raises(ValueError):
        thicken(2, [((0, 0, 0), (None, None, None))], 1)
    with pytest.raises(ValueError):
        thicken(2, [((0, 0), (None, 7))], 1)


def test_thicken_rejects_unreachable_bound():
    faces = [_full_cell((0, 0))]
    with pytest.raises(ValueError):
        thicken(2, faces, Fraction(1, 2**40))


def test_thicken_random_face_sets_are_generic():
    rng = random.Random(20260815)
    cases = [(2, 8), (2, 12), (3, 6), (3, 8), (4, 4)]
    for dim, count in cases:
        for bound in (1, Fraction(1, 2), Fraction(1, 4)):
            faces = _random_faces(rng, dim, count)
            out = thicken(dim, faces, bound)
            verdict = check_generic(out)
            assert verdict.generic, (dim, count, bound, verdict.witness)
            assert distance_to_faces(out, faces) < bound


def _reference_thicken(dim, faces, bound):
    """Reference ``thicken``: each side's coordinate is read through a
    whole ``face_box`` and every pad is a ``Fraction`` in true units."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    faces = [(tuple(int(c) for c in v), tuple(spec)) for v, spec in faces]
    if not faces:
        raise ValueError("need at least one face")
    for v, spec in faces:
        if len(v) != dim or len(spec) != dim:
            raise ValueError(f"face ({v}, {spec}) has wrong arity for dimension {dim}")
        face_box(v, spec)

    def side_range(v, spec, j):
        lo, hi = face_box(v, spec)
        return lo[j], hi[j]

    ranks, counters, top = [], {}, 1
    for v, spec in faces:
        per_axis = []
        for j in range(dim):
            lo, hi = side_range(v, spec, j)
            klo = counters[(j, -1, lo)] = counters.get((j, -1, lo), 0) + 1
            khi = counters[(j, +1, hi)] = counters.get((j, +1, hi), 0) + 1
            top = max(top, klo, khi)
            per_axis.append((klo, khi))
        ranks.append(per_axis)
    ceiling = min(bound / 2, Fraction(1, 2))
    n = 1
    for _ in range(33):
        if Fraction(top, n) < ceiling:
            break
        n *= 2
    else:
        raise ValueError(f"bound {bound} requires pads finer than 2**-32")
    pads = [[(Fraction(a, n), Fraction(b, n)) for a, b in per_axis] for per_axis in ranks]
    for j in range(dim):
        coords = []
        for (v, spec), sides in zip(faces, pads):
            lo, hi = side_range(v, spec, j)
            coords += [Fraction(lo) - sides[j][0], Fraction(hi) + sides[j][1]]
        assert len(set(coords)) == len(coords)
    boxes = []
    for (v, spec), sides in zip(faces, pads):
        lo, hi = [], []
        for j in range(dim):
            a, b = side_range(v, spec, j)
            lo.append(a * n - int(sides[j][0] * n))
            hi.append(b * n + int(sides[j][1] * n))
        boxes.append((tuple(lo), tuple(hi)))
    return from_boxes(dim, boxes, n)


def _thicken_outcome(fn, dim, faces, bound):
    try:
        out = fn(dim, faces, bound)
    except ValueError as exc:
        return "ValueError", str(exc)
    return out.scale, out.boxes


def test_thicken_matches_the_fraction_reference():
    rng = random.Random(20261019)
    bounds = (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 1000), Fraction(1, 2**30))
    refused = 0
    for dim in (1, 2, 3, 4):
        for count in (1, 2, 5, 12, 30):
            for bound in bounds:
                faces = _random_faces(rng, dim, count)
                cases = (faces, faces + faces[: count // 2 + 1], [faces[0]] * 3)
                for case in cases:
                    expected = _thicken_outcome(_reference_thicken, dim, case, bound)
                    assert _thicken_outcome(thicken, dim, case, bound) == expected
                    refused += expected[0] == "ValueError"
    # the 2^-30 bound runs past the 2^-32 pad floor once ranks reach 4
    assert refused > 0
    for finer in (Fraction(1, 2**32), Fraction(1, 2**33)):
        for fn in (thicken, _reference_thicken):
            with pytest.raises(ValueError, match=r"finer than 2\*\*-32"):
                fn(2, [_full_cell((0, 0))], finer)


# ---------------------------------------------------------------------------
# random_generic


def test_random_generic_is_deterministic():
    a = random_generic(3, 6, 40, seed=7)
    b = random_generic(3, 6, 40, seed=7)
    assert a.boxes == b.boxes and a.scale == b.scale
    c = random_generic(3, 6, 40, seed=8)
    assert c.boxes != a.boxes


def test_random_generic_single_box_census():
    for d in (1, 2, 3, 4):
        out = random_generic(d, 1, 12, seed=d)
        census = vertex_census(out)
        key = "&".join(str(j) for j in range(1, d + 1))
        assert census.by_class == {key: 2**d}
        assert census.total == 2**d


def test_random_generic_planar_census_laws():
    for seed in range(8):
        out = random_generic(2, 10, 100, seed=seed)
        assert check_generic(out).generic
        census = vertex_census(out)
        chi = euler(out)
        assert sigma_sum(out) % 4 == 0
        assert census.by_mu.get(1, 0) - census.by_mu.get(3, 0) == 4 * chi


def test_random_generic_three_dimensional_fixed_seed():
    out = random_generic(3, 6, 60, seed=2026)
    assert check_generic(out).generic


def test_random_generic_distinct_supporting_coordinates():
    out = random_generic(3, 9, 80, seed=41)
    for j in range(3):
        coords = _supporting_coords(out, j)
        assert len(set(coords)) == len(coords)


def test_random_generic_rejects_small_extent():
    with pytest.raises(ValueError):
        random_generic(2, 10, 18, seed=1)
    with pytest.raises(ValueError):
        random_generic(2, 0, 10, seed=1)


def test_disjoint_coordinate_pools_stay_generic_under_set_ops():
    for seed in range(6):
        whole = random_generic(2, 8, 64, seed=seed)
        boxes = whole.boxes
        P = from_boxes(2, boxes[:4])
        Q = from_boxes(2, boxes[4:])
        union, verdict = set_ops(P, Q, SetOp.UNION)
        assert verdict.generic
        meet, verdict = set_ops(P, Q, SetOp.INTERSECT)
        assert verdict.generic


# ---------------------------------------------------------------------------
# hausdorff_distance


def test_hausdorff_identical_sets_is_zero():
    P = random_generic(2, 5, 30, seed=3)
    assert hausdorff_distance(P, P) == 0


def test_hausdorff_unit_translate():
    cube = from_boxes(3, [((0, 0, 0), (1, 1, 1))])
    moved = from_boxes(3, [((1, 0, 0), (2, 1, 1))])
    assert hausdorff_distance(cube, moved) == 1
    # doubled, these coordinates pass int64
    top = _COORDINATE_RANGE[1]
    end = from_boxes(1, [((top - 1,), (top,))])
    for scale, gap in ((1, 1), (2, Fraction(top + 1, 2))):
        assert hausdorff_distance(end, from_boxes(1, [((top - 2,), (top - 1,))], scale)) == gap


def test_hausdorff_uses_chebyshev_metric():
    a = from_boxes(2, [((0, 0), (1, 1))])
    b = from_boxes(2, [((1, 1), (2, 2))])
    assert hausdorff_distance(a, b) == 1


def test_hausdorff_across_scales():
    a = from_boxes(2, [((0, 0), (1, 1))])
    b = from_boxes(2, [((0, 0), (2, 2))], scale=2)
    assert hausdorff_distance(a, b) == 0


def test_hausdorff_asymmetric_gaps_take_the_larger():
    a = from_boxes(1, [((0,), (1,))])
    b = from_boxes(1, [((3,), (5,))])
    assert hausdorff_distance(a, b) == 4


def test_hausdorff_maximum_can_sit_between_components():
    solid = from_boxes(1, [((0,), (6,))])
    ends = from_boxes(1, [((0,), (1,)), ((5,), (6,))])
    assert hausdorff_distance(solid, ends) == 2


def test_hausdorff_half_integral_value():
    solid = from_boxes(1, [((0,), (3,))])
    ends = from_boxes(1, [((0,), (1,)), ((2,), (3,))])
    assert hausdorff_distance(solid, ends) == Fraction(1, 2)


def test_hausdorff_is_symmetric_and_triangular():
    rng = random.Random(99)
    for _ in range(12):
        seeds = [rng.randrange(10**6) for _ in range(3)]
        A, B, C = (random_generic(2, 4, 24, seed=s) for s in seeds)
        ab = hausdorff_distance(A, B)
        bc = hausdorff_distance(B, C)
        ac = hausdorff_distance(A, C)
        assert ab == hausdorff_distance(B, A)
        assert ac <= ab + bc


def test_hausdorff_rejects_bad_pairs():
    a = from_boxes(2, [((0, 0), (1, 1))])
    empty = from_boxes(2, [])
    tall = from_boxes(3, [((0, 0, 0), (1, 1, 1))])
    with pytest.raises(ValueError):
        hausdorff_distance(a, empty)
    with pytest.raises(ValueError):
        hausdorff_distance(empty, a)
    with pytest.raises(ValueError):
        hausdorff_distance(a, tall)


def test_thicken_distance_never_exceeds_largest_pad():
    rng = random.Random(5150)
    for dim in (2, 3):
        for _ in range(4):
            faces = _random_faces(rng, dim, 5)
            out = thicken(dim, faces, Fraction(1, 2))
            assert distance_to_faces(out, faces) <= _max_pad(out, faces)


def test_distance_to_faces_handles_flat_targets():
    faces = [((1, 1), (0, 0))]
    out = thicken(2, faces, Fraction(1, 2))
    gap = distance_to_faces(out, faces)
    assert 0 < gap < Fraction(1, 4)
    with pytest.raises(ValueError):
        distance_to_faces(out, [])


def test_face_box_and_distance_to_faces_check_face_arity():
    # zip would drop the unmatched entries
    for corner, spec in (((0, 0, 5), (None, None)), ((0,), (None, None))):
        with pytest.raises(ValueError, match="arity"):
            face_box(corner, spec)
    square = from_boxes(2, [((0, 0), (2, 2))])
    assert distance_to_faces(square, [((0, 0), (None, None))]) == 1
    for face in (((0, 0, 5), (None, None, None)), ((0,), (None,)), ((0, 0), (None,))):
        with pytest.raises(ValueError, match="arity"):
            distance_to_faces(square, [((0, 0), (None, None)), face])


# ---------------------------------------------------------------------------
# differential gate: the distance search against its per-probe form


def _oracle_halves(dim, source, target):
    """The search with no hold radii: every probe tests every (source box,
    target box) pair again, on Python tuples."""
    src = [tuple(tuple(2 * c for c in side) for side in box) for box in source]
    tgt = [tuple(tuple(2 * c for c in side) for side in box) for box in target]
    if _oracle_covered(dim, src, tgt, 0):
        return 0
    lo_all = [min(b[0][j] for b in src + tgt) for j in range(dim)]
    hi_all = [max(b[1][j] for b in src + tgt) for j in range(dim)]
    lo, hi = 0, max(h - l for l, h in zip(lo_all, hi_all))
    assert _oracle_covered(dim, src, tgt, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _oracle_covered(dim, src, tgt, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _oracle_covered(dim, source, target, radius):
    grown = [
        (tuple(c - radius for c in lo), tuple(c + radius for c in hi))
        for lo, hi in target
    ]
    for lo, hi in source:
        if any(
            all(blo[j] <= lo[j] and hi[j] <= bhi[j] for j in range(dim))
            for blo, bhi in grown
        ):
            continue
        near = [
            (blo, bhi)
            for blo, bhi in grown
            if all(blo[j] <= hi[j] and lo[j] <= bhi[j] for j in range(dim))
        ]
        if not genericize._box_covered(dim, lo, hi, near):
            return False
    return True


def _oracle_hausdorff(P, Q):
    common = math.lcm(P.scale, Q.scale)
    a = [tuple(tuple(c * common // P.scale for c in s) for s in b) for b in P.boxes]
    b = [tuple(tuple(c * common // Q.scale for c in s) for s in b) for b in Q.boxes]
    return Fraction(max(_oracle_halves(P.dim, a, b), _oracle_halves(P.dim, b, a)), 2 * common)


def _oracle_distance_to_faces(P, faces):
    n = P.scale
    targets = [
        tuple(tuple(c * n for c in side) for side in face_box(v, spec)) for v, spec in faces
    ]
    a = list(P.boxes)
    k = max(_oracle_halves(P.dim, a, targets), _oracle_halves(P.dim, targets, a))
    return Fraction(k, 2 * n)


# Anchors that put every coordinate near 0, on either side of the int64
# threshold of the search (doubled coordinates at 2^61), or within a few
# units of either end of the coordinate range, where doubled coordinates
# pass int64.
_ANCHORS = (0, 2**60 - 6, -(2**60) - 2, _COORDINATE_RANGE[0] + 2, _COORDINATE_RANGE[1] - 3)


def _box_family(rng, dim):
    """A few proper boxes in [0, 24]^dim: nested, touching or apart."""
    boxes = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(("free", "nested", "touching", "apart")) if boxes else "free"
        if kind == "free":
            lo = [rng.randrange(0, 9) for _ in range(dim)]
            hi = [c + rng.randrange(1, 4) for c in lo]
        else:
            plo, phi = map(list, rng.choice(boxes))
            lo, hi = plo[:], phi[:]
            j = rng.randrange(dim)
            if kind == "nested":
                lo = [rng.randrange(a, b) for a, b in zip(plo, phi)]
                hi = [rng.randrange(a + 1, b + 1) for a, b in zip(lo, phi)]
            elif kind == "touching":
                lo[j], hi[j] = phi[j], phi[j] + rng.randrange(1, 3)
            else:
                lo[j] = phi[j] + rng.randrange(1, 3)
                hi[j] = lo[j] + rng.randrange(1, 3)
        boxes.append((tuple(lo), tuple(hi)))
    return boxes


def _placed(boxes, anchor):
    """The boxes moved to start at ``anchor``, or to end at the top of the
    coordinate range where they would pass it."""
    shift = anchor - min(c for lo, _hi in boxes for c in lo)
    shift = min(shift, _COORDINATE_RANGE[1] - max(c for _lo, hi in boxes for c in hi))
    return [(tuple(c + shift for c in lo), tuple(c + shift for c in hi)) for lo, hi in boxes]


def _record_dtypes(monkeypatch):
    """The dtype of every set of arrays the distance search builds."""
    seen = set()
    original = genericize._doubled_arrays

    def recording(dim, *unions):
        arrays = original(dim, *unions)
        seen.add(arrays[0].dtype)
        return arrays

    monkeypatch.setattr(genericize, "_doubled_arrays", recording)
    return seen


@pytest.mark.parametrize("chunk", [None, 1])
def test_hausdorff_search_matches_the_per_probe_oracle(monkeypatch, chunk):
    if chunk is not None:  # one source box per chunk: every chunk edge is crossed
        monkeypatch.setattr(genericize, "_PAIR_CHUNK", chunk)
    seen = _record_dtypes(monkeypatch)
    rng = random.Random(1604 + (chunk or 0))
    for case in range(200):
        dim = 1 + case % 3
        anchor = _ANCHORS[case % len(_ANCHORS)]
        scales = rng.choice(((1, 1), (1, 2), (2, 3), (3, 3)))
        P = from_boxes(dim, _placed(_box_family(rng, dim), anchor), scales[0])
        Q = from_boxes(dim, _placed(_box_family(rng, dim), anchor), scales[1])
        assert hausdorff_distance(P, Q) == _oracle_hausdorff(P, Q), (P.boxes, Q.boxes)
    assert seen == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("chunk", [None, 1])
def test_distance_to_faces_matches_the_per_probe_oracle(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(genericize, "_PAIR_CHUNK", chunk)
    seen = _record_dtypes(monkeypatch)
    rng = random.Random(2718 + (chunk or 0))
    for case in range(200):
        dim = 1 + case % 3
        anchor = _ANCHORS[case % len(_ANCHORS)]
        scale = rng.choice((1, 1, 2, 3))
        # faces in true units near anchor / scale, the model near anchor
        at = min(anchor // scale, _COORDINATE_RANGE[1] - 1)
        faces = [
            (
                tuple(at - rng.randrange(0, 8) for _ in range(dim)),
                tuple(rng.choice((0, 1, None)) for _ in range(dim)),
            )
            for _ in range(rng.randrange(1, 5))
        ]
        if anchor == 0 and case % 2 == 0:
            P = thicken(dim, faces, rng.choice((Fraction(1, 2), 1, 3)))
        else:
            P = from_boxes(dim, _placed(_box_family(rng, dim), anchor), scale)
        assert distance_to_faces(P, faces) == _oracle_distance_to_faces(P, faces), (P, faces)
    assert seen == {np.dtype(np.int64), np.dtype(object)}


def _split_cover(rng, dim):
    """A box flat on axis j and targets a gap g beyond it on that axis,
    split along axis k into pieces longer than g: at radius g they meet
    the box only by touching it, and no single one of them holds it."""
    j, k = rng.sample(range(dim), 2)
    gap = rng.randrange(1, 3)
    cut = rng.randrange(gap + 1, 2 * gap + 2)
    length = cut + rng.randrange(gap + 1, 2 * gap + 2)
    lo, hi = [0] * dim, [rng.randrange(1, 4) for _ in range(dim)]
    lo[j] = hi[j] = 5
    hi[k] = length
    side = rng.choice((-1, 1))
    target = []
    for a, b in ((0, cut), (cut, length)):
        tlo, thi = lo[:], hi[:]
        tlo[k], thi[k] = a, b
        tlo[j] = thi[j] = 5 + side * gap
        if side > 0:
            thi[j] += rng.randrange(1, 3)
        else:
            tlo[j] -= rng.randrange(1, 3)
        target.append((tuple(tlo), tuple(thi)))
    return [(tuple(lo), tuple(hi))], target


@pytest.mark.parametrize("chunk", [None, 1])
def test_directed_search_matches_the_oracle_on_flat_sources(monkeypatch, chunk):
    # Faces are flat, and a flat box can need boxes that only touch it, so
    # the public distances alone would hide a search that drops touching
    # boxes: the other direction is the larger one there.
    if chunk is not None:
        monkeypatch.setattr(genericize, "_PAIR_CHUNK", chunk)
    rng = random.Random(3141 + (chunk or 0))
    for case in range(300):
        dim = 1 + case % 3
        anchor = _ANCHORS[case % len(_ANCHORS)]
        if dim > 1 and case % 2:
            source, target = _split_cover(rng, dim)
        else:
            source = []
            for _ in range(rng.randrange(1, 4)):
                lo = [rng.randrange(0, 8) for _ in range(dim)]
                source.append((tuple(lo), tuple(c + rng.choice((0, 0, 2, 5)) for c in lo)))
            target = []
            for _ in range(rng.randrange(1, 7)):
                lo = [rng.randrange(0, 10) for _ in range(dim)]
                target.append((tuple(lo), tuple(c + rng.randrange(1, 5) for c in lo)))
        shift = min(anchor, _COORDINATE_RANGE[1] - 20)
        source, target = (
            [(tuple(c + shift for c in lo), tuple(c + shift for c in hi)) for lo, hi in u]
            for u in (source, target)
        )
        assert genericize._directed_halves(dim, source, target) == _oracle_halves(
            dim, source, target
        ), (source, target)
