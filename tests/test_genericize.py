"""Thickening, random generation, and the exact Hausdorff distance."""

import random
from fractions import Fraction

import pytest

from orthotopes.genericize import (
    PadSchedule,
    _pad_schedule,
    distance_to_faces,
    face_box,
    hausdorff_distance,
    random_generic,
    thicken,
)
from orthotopes.lattice import (
    SetOp,
    check_generic,
    classify_point,
    euler,
    from_boxes,
    set_ops,
    sigma_sum,
    vertex_census,
)


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
