"""Global invariants of integral orthotopes.

The reference data comes from three kinds of oracle: hand-checkable frozen
fixtures (the 28-cell solid torus, the unit cube, an L-shaped hexagon), a
brute-force reclassification of every half-lattice point through the
public point classifier, and cross-agreement between independently derived
methods (three volume routes, two Euler routes, the compressed scan
versus a test-side full-resolution scan)."""

import functools
import itertools
import json
import math
import operator
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthotopes import cli, lattice
from orthotopes.arrangement import (
    DEGENERATE,
    Cylinder,
    OrthantSet,
    SetOp,
    _axis_signs,
    _cofactor,
    _half_space_mask,
    edge_direction,
    orthant_counts,
    orthants_of,
)
from orthotopes.genericize import random_generic
from orthotopes.lattice import (
    ConsistencyError,
    EulerMethod,
    Genericity,
    IntegralOrthotope,
    NotGenericError,
    SkeletonGraph,
    TooManyCellsError,
    VolumeMethod,
    check_generic,
    classify_point,
    cross_section,
    euler,
    face_poset,
    from_boxes,
    from_cells,
    set_ops,
    sigma_sum,
    skeleton,
    vertex_census,
    vertices,
    volume,
)
from orthotopes.spd import canonical_key
from test_arrangement import _oracle_masks, _random_signed

TORUS_CELLS = [
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (0, 1, 0), (1, 1, 0),
    (2, 1, 0), (3, 1, 0), (0, 2, 0), (2, 2, 0), (0, 3, 0), (1, 3, 0), (2, 3, 0),
    (1, 0, 1), (2, 0, 1), (3, 0, 1), (4, 0, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1),
    (0, 3, 1), (1, 3, 1), (2, 3, 1), (1, 0, 2), (2, 0, 2), (3, 0, 2), (4, 0, 2),
]

L_CELLS = [(0, 0), (1, 0), (0, 1)]


@pytest.fixture(scope="module")
def torus():
    return from_cells(3, TORUS_CELLS)


@pytest.fixture(scope="module")
def q_solid():
    return from_boxes(
        3,
        [((0, 0, 0), (2, 2, 1)), ((0, 0, 1), (1, 1, 2)), ((1, 1, 1), (2, 2, 2))],
    )


def unit_cube(d=3):
    return from_boxes(d, [((0,) * d, (1,) * d)])


def _is_degenerate(floral):
    return floral is DEGENERATE or (
        isinstance(floral, Cylinder) and floral.diagram is DEGENERATE
    )


def _half_lattice_points(P, margin=1):
    lo, hi = P.bounding_box()
    axes = [
        [Fraction(t, 2) for t in range(2 * (l - margin), 2 * (h + margin) + 1)]
        for l, h in zip(lo, hi)
    ]
    return itertools.product(*axes)


def _brute_degree0(P):
    """Degree-0 half-lattice points found by reclassifying every point
    through the public classifier, bypassing the scan engine."""
    out = []
    for point in _half_lattice_points(P):
        pc = classify_point(P, point)
        if pc.degree == 0:
            out.append(pc)
    return out


def _brute_first_degenerate(P):
    for point in _half_lattice_points(P):
        pc = classify_point(P, point)
        if _is_degenerate(pc.floral):
            return pc.point
    return None


def _random_box_union(rng, dim, count, extent):
    """Union of boxes whose supporting coordinates are distinct per axis,
    which keeps every tangent cone floral."""
    boxes = []
    pools = []
    for _ in range(dim):
        pool = rng.sample(range(extent + 1), 2 * count)
        pools.append(pool)
    for i in range(count):
        lo, hi = [], []
        for j in range(dim):
            a, b = pools[j][2 * i], pools[j][2 * i + 1]
            lo.append(min(a, b))
            hi.append(max(a, b))
        boxes.append((tuple(lo), tuple(hi)))
    return from_boxes(dim, boxes)


def _connected(cells):
    cells = set(cells)
    if not cells:
        return True
    start = next(iter(cells))
    seen = {start}
    frontier = [start]
    while frontier:
        c = frontier.pop()
        for j in range(len(c)):
            for step in (-1, 1):
                nxt = c[:j] + (c[j] + step,) + c[j + 1 :]
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen == cells


# ---------------------------------------------------------------------------
# construction


def test_from_boxes_merges_overlaps():
    P = from_boxes(2, [((0, 0), (2, 2)), ((1, 0), (3, 2))])
    assert len(P.cells) == 6


def test_from_boxes_rejects_degenerate_box():
    with pytest.raises(ValueError, match="degenerate"):
        from_boxes(2, [((0, 0), (0, 1))])
    with pytest.raises(ValueError, match="arity"):
        from_boxes(2, [((0,), (1,))])
    # each box is checked for arity, then degeneracy, then range, and the
    # first failing box is reported
    least = lattice._COORDINATE_RANGE[0]
    for boxes, message in (
        ([((0, 0), (1, 1)), ((0, 0, 0), (0, 1, 1))], r"^box 1 has wrong arity for dimension 2$"),
        ([((0, 0), (1, 1)), ((least - 1, 0), (least - 1, 1))], r"^box 1 is degenerate"),
        ([((least - 1, 0), (0, 1)), ((0, 0), (0, 1))], r"^box 0 has a coordinate outside"),
    ):
        with pytest.raises(ValueError, match=message):
            from_boxes(2, boxes)
    with pytest.raises(ValueError, match=r"^cell \(0, 0, 0\) has wrong arity"):
        from_cells(2, [(0, 0, 0), (least - 1, 0)])
    with pytest.raises(ValueError):
        from_boxes(0, [])
    with pytest.raises(ValueError):
        from_boxes(2, [], scale=0)


def test_non_integer_coordinates_are_refused_not_truncated(torus):
    # a float, a string or a Fraction would have been cut down by int();
    # numpy integers are integers, and bools the ints they are
    for bad in (0.5, "0", Fraction(3, 2)):
        with pytest.raises(ValueError, match=r"^box 1 has a non-integer coordinate"):
            from_boxes(1, [((0,), (1,)), ((bad,), (2,))])
        with pytest.raises(ValueError, match=r"^box 0 has a non-integer coordinate"):
            from_boxes(2, [((0, 0), (1, bad))])
        with pytest.raises(ValueError, match=r"^cell .* has a non-integer coordinate$"):
            from_cells(2, [(0, 0), (bad, 0)])
        with pytest.raises(ValueError, match=r"^axis .* is not an integer$"):
            cross_section(torus, {bad: Fraction(1, 2)})
    with pytest.raises(ValueError, match="non-integer"):
        from_boxes(1, [((0.0,), (2.9,))])  # an integral float as well
    wide = from_boxes(2, [((np.int64(0), np.int32(0)), (np.int64(2), np.int16(3)))])
    assert wide.boxes == (((0, 0), (2, 3)),)
    assert all(type(c) is int for corner in wide.boxes[0] for c in corner)
    assert from_cells(2, [np.array([1, 2])]).boxes == (((1, 2), (2, 3)),)
    assert from_boxes(1, [((False,), (True,))]).boxes == (((0,), (1,)),)
    section = cross_section(torus, {np.int64(3): Fraction(1, 2)})
    assert section == cross_section(torus, {3: Fraction(1, 2)})


def test_header_is_read_as_python_ints(tmp_path):
    # numpy integers are integers, and bools the ints they are, kept as
    # ints so that the CLI reloads the model files it writes; a float is
    # refused as before
    boxes = [((0, 0), (2, 1)), ((1, 1), (3, 2))]
    wide = from_boxes(np.int64(2), boxes, scale=np.int32(3))
    assert wide == from_boxes(2, boxes, scale=3)
    assert type(wide.dim) is int and type(wide.scale) is int
    cells = from_cells(np.int16(2), [(0, 0)], scale=np.uint8(2))
    assert cells == from_cells(2, [(0, 0)], scale=2)
    assert type(cells.dim) is int and type(cells.scale) is int
    flag = from_boxes(True, [((0,), (2,))], scale=True)
    assert type(flag.dim) is int and type(flag.scale) is int
    text = cli._dumps(cli.save_model(flag))
    assert '"dim": 1' in text and '"scale": 1' in text
    path = tmp_path / "flag.json"
    path.write_text(text, encoding="utf-8")
    assert cli.load_model(str(path)) == flag
    for bad in (2.0, "2", Fraction(2)):
        with pytest.raises(ValueError, match="^dimension must be a positive integer"):
            from_boxes(bad, boxes)
        with pytest.raises(ValueError, match="^scale must be a positive integer"):
            from_cells(2, [(0, 0)], scale=bad)


def test_cells_and_boxes_views_agree():
    P = from_boxes(2, [((0, 0), (2, 1))])
    Q = from_cells(2, [(0, 0), (1, 0)])
    assert P == Q
    assert P.cells == {(0, 0), (1, 0)}
    assert set(Q.boxes) == {((0, 0), (1, 1)), ((1, 0), (2, 1))}
    assert P.cell_count() == 2 == Q.cell_count()
    assert P.bounding_box() == ((0, 0), (2, 1))


def _random_cells(seed, dim):
    rng = random.Random(seed)
    return [c for c in itertools.product(range(4), repeat=dim) if rng.random() < 0.4]


@pytest.mark.parametrize(
    "dim, cells",
    [(2, L_CELLS), (3, TORUS_CELLS), (2, [])]
    + [(d, _random_cells(seed, d)) for d in (1, 2, 3) for seed in (1, 2)],
    ids=["L", "torus", "empty"] + [f"d{d}-seed{seed}" for d in (1, 2, 3) for seed in (1, 2)],
)
def test_cells_model_is_stored_as_its_unit_boxes(dim, cells):
    P = from_cells(dim, cells)
    Q = from_boxes(dim, [(c, tuple(x + 1 for x in c)) for c in cells])
    assert P.boxes == Q.boxes and P.boxes is P.boxes
    assert P.cells == Q.cells == set(cells)
    assert P.is_empty == Q.is_empty == (not cells)
    assert P.bounding_box() == Q.bounding_box()
    assert P.cell_count() == Q.cell_count() == len(set(cells))
    assert repr(P) == repr(Q)
    assert json.dumps(cli.save_model(P)) == json.dumps(cli.save_model(Q))
    lo, hi = P.bounding_box() or ((0,) * dim, (0,) * dim)
    for doubled in itertools.product(*(range(2 * l - 2, 2 * h + 3) for l, h in zip(lo, hi))):
        point = tuple(Fraction(x, 2) for x in doubled)
        assert classify_point(P, point) == classify_point(Q, point)


def test_cell_materialization_guard():
    huge = from_boxes(1, [((0,), (6_000_000,))])
    with pytest.raises(TooManyCellsError, match="materialize"):
        huge.cells


def test_empty_orthotope_is_total(monkeypatch):
    # an empty model scans like any other: one edge at 0 per axis, all exterior
    built = _count_scans(monkeypatch)
    for E in (from_boxes(3, []), from_cells(3, []), from_boxes(1, [])):
        built.clear()
        assert E.is_empty and E.bounding_box() is None
        assert E.cell_count() == 0
        assert check_generic(E) == Genericity(True)
        assert built == [E] and E._scan is not None
        assert volume(E) == 0
        assert all(volume(E, m) == 0 for m in VolumeMethod)
        assert all(euler(E, m) == 0 for m in EulerMethod)
        census = vertex_census(E)
        assert census.by_mu == {} and census.by_class == {}
        assert vertices(E) == []
        assert skeleton(E) == SkeletonGraph((), ())
        assert face_poset(E).faces == ()
        assert built == [E]


# ---------------------------------------------------------------------------
# point classification


def test_classify_cube_corner():
    pc = classify_point(unit_cube(), (0, 0, 0))
    assert pc.degree == 0
    assert pc.cone.count == 1
    assert canonical_key(pc.floral.shape) == "1&2&3"
    assert pc.floral.neg == frozenset()


def test_classify_cube_interior_and_exterior():
    half = Fraction(1, 2)
    inside = classify_point(unit_cube(), (half, half, half))
    assert inside.degree == 3 and inside.cone.is_full
    outside = classify_point(unit_cube(), (5, 5, 5))
    assert outside.cone.is_empty and outside.degree is None


def test_classify_rejects_finer_points():
    with pytest.raises(ValueError, match="multiple of 1/2"):
        classify_point(unit_cube(), (Fraction(1, 4), 0, 0))


def test_classify_q_seam_point_is_degenerate(q_solid):
    pc = classify_point(q_solid, (1, 1, 1))
    assert _is_degenerate(pc.floral)
    assert pc.degree == 0


# ---------------------------------------------------------------------------
# genericity


def test_check_generic_fixtures(torus, q_solid):
    assert check_generic(unit_cube())
    assert check_generic(torus)
    verdict = check_generic(q_solid)
    assert not verdict.generic
    assert verdict.witness == (1, 1, 1)


def test_compressed_and_full_scans_agree(torus, q_solid):
    for P in (unit_cube(), torus, q_solid):
        assert check_generic(P) == _FullScan(P).verdict()


def test_witness_matches_brute_scan_order():
    rng = random.Random(11)
    found = 0
    while found < 8:
        cells = {
            tuple(rng.randrange(0, 4) for _ in range(2))
            for _ in range(rng.randrange(2, 7))
        }
        P = from_cells(2, cells)
        expected = _brute_first_degenerate(P)
        verdict = check_generic(P)
        assert verdict == _FullScan(P).verdict()
        if expected is None:
            assert verdict.generic
        else:
            found += 1
            assert not verdict.generic
            assert verdict.witness == expected


def test_witness_on_wide_boxes_matches_brute():
    P = from_boxes(3, [((0, 0, 0), (2, 2, 2)), ((2, 2, 0), (4, 4, 2))])
    verdict = check_generic(P)
    assert not verdict.generic
    assert verdict.witness == _brute_first_degenerate(P)
    assert verdict.witness == _FullScan(P).verdict().witness


# ---------------------------------------------------------------------------
# vertices and census


def test_vertex_counts(torus):
    assert len(vertices(unit_cube())) == 8
    assert len(vertices(torus)) == 32
    two = from_boxes(3, [((0, 0, 0), (1, 1, 1)), ((3, 3, 3), (4, 4, 4))])
    assert len(vertices(two)) == 16


def test_vertices_report_degenerate_points(q_solid):
    # the seam between the stacked cubes runs from (1,1,1) up to (1,1,2)
    vs = vertices(q_solid)
    flagged = [v for v in vs if _is_degenerate(v.floral)]
    assert [v.point for v in flagged] == [(1, 1, 1), (1, 1, 2)]


def test_vertices_match_brute_classifier(torus):
    for P in (unit_cube(2), from_cells(2, L_CELLS), torus):
        got = {(v.point, v.cone) for v in vertices(P)}
        want = {(v.point, v.cone) for v in _brute_degree0(P)}
        assert got == want


def test_census_fixtures(torus):
    c = vertex_census(torus)
    assert c.by_mu == {1: 15, 3: 11, 5: 5, 7: 1}
    assert c.by_class == {
        "1&2&3": 15,
        "(1|2)&3": 11,
        "(1&2)|3": 5,
        "1|2|3": 1,
    }
    assert c.total == 32
    assert vertex_census(unit_cube(2)).by_mu == {1: 4}
    assert vertex_census(from_cells(2, L_CELLS)).by_mu == {1: 5, 3: 1}


def test_census_requires_generic(q_solid):
    with pytest.raises(NotGenericError) as info:
        vertex_census(q_solid)
    assert info.value.witness == (1, 1, 1)


# ---------------------------------------------------------------------------
# volume


def test_volume_examples(torus):
    for method in VolumeMethod:
        assert volume(unit_cube(), method) == 1
        assert volume(torus, method) == 28


def test_volume_determinantal_by_hand():
    # only the corner at (2, 1) has a nonzero coordinate product
    P = from_boxes(2, [((0, 0), (2, 1))])
    assert volume(P, VolumeMethod.DETERMINANTAL) == 2


def test_volume_respects_scale():
    P = from_boxes(2, [((0, 0), (1, 2))], scale=2)
    for method in VolumeMethod:
        assert volume(P, method) == Fraction(1, 2)


def test_volume_methods_agree_on_random_unions():
    rng = random.Random(23)
    for dim, extent in ((2, 12), (3, 8)):
        for _ in range(12):
            P = _random_box_union(rng, dim, rng.randrange(2, 5), extent)
            results = {m: volume(P, m) for m in VolumeMethod}
            assert len(set(results.values())) == 1, results


def test_mu_sum_matches_brute_point_scan():
    rng = random.Random(31)
    for _ in range(6):
        cells = {
            tuple(rng.randrange(0, 4) for _ in range(2))
            for _ in range(rng.randrange(2, 8))
        }
        P = from_cells(2, cells)
        if not check_generic(P):
            continue
        total = 0
        lo, hi = P.bounding_box()
        for point in itertools.product(
            *(range(l - 1, h + 2) for l, h in zip(lo, hi))
        ):
            total += classify_point(P, point).cone.count
        assert volume(P, VolumeMethod.MU_SUM) == Fraction(total, 4)


def _reference_mu_sum(scan):
    """The mu-sum volume summed position by position over the full doubled
    grid, in Python integers: the mu_d of every position times the integer
    points it stands for (w - 1 for a slab interior of width w, 1 for an
    edge), over 2^d scale^d.  The library reads the same sum off the cell
    count."""
    d = scan.dim
    inverse, masks = _full_grid(scan)
    mu = np.array([orthant_counts(OrthantSet(d, m))[0] for m in masks], dtype=object)
    total = mu[inverse]
    for j in reversed(range(d)):
        w = np.ones(scan.shape[j], dtype=object)
        w[0::2] = [int(width) - 1 for width in scan.widths(j)]
        total = np.tensordot(total, w, axes=([total.ndim - 1], [0]))
    return Fraction(int(total), (1 << d) * scan.scale**d)


def test_volume_and_cell_count_stay_exact_past_int64():
    # two unit cubes sharing an edge, thickened at bound 1/262144 as
    # ``orthotope genericize --bound 1/262144`` writes them: about 2^64 cells
    n = 2097152
    P = from_boxes(
        3,
        [((-1, -1, -1), (n + 1,) * 3), ((n - 1, n - 1, -2), (2 * n + 1, 2 * n + 1, n + 2))],
        scale=n,
    )
    # the overlap is 2 x 2 x (n + 2) cells
    cells = (n + 2) ** 3 + (n + 2) ** 2 * (n + 4) - 4 * (n + 2)
    assert cells == 18446805646419427344 > 2**64
    assert P.cell_count() == cells
    for method in VolumeMethod:
        assert volume(P, method) == Fraction(cells, n**3)
    assert volume(P) == Fraction(1152925352901214209, 576460752303423488)
    assert volume(P) == _reference_mu_sum(lattice._scan_for(P))
    square = from_boxes(2, [((0, 0), (2**40, 2**40))])
    assert all(volume(square, m) == 2**80 for m in VolumeMethod)
    assert volume(square) == _reference_mu_sum(lattice._scan_for(square))
    assert square.cell_count() == 2**80
    # an axis before the last spanning more than int64 holds
    wide = from_boxes(2, [((-(2**62) - 5, 0), (2**62 + 5, 1))])
    assert all(volume(wide, m) == 2**63 + 10 for m in VolumeMethod)
    assert wide.cell_count() == 2**63 + 10
    two = face_poset(wide).faces_of_dim(2)
    assert [h[0] - l[0] for f in two for l, h in f.boxes] == [2**63 + 10]
    with pytest.raises(TooManyCellsError):
        two[0].cells


def test_coordinates_the_scan_cannot_hold_are_refused():
    # the scan pads each axis by one unit in int64
    least, most = -(2**63) + 1, 2**63 - 2
    outside = re.escape(f"box 0 has a coordinate outside [{least}, {most}]")
    for box in (((least - 1,), (0,)), ((0,), (most + 1,))):
        with pytest.raises(ValueError, match=outside):
            from_boxes(1, [box])
    outside = re.escape(f"has a coordinate outside [{least}, {most - 1}]")
    for cell in ((least - 1,), (most,)):
        with pytest.raises(ValueError, match=outside):
            from_cells(1, [cell])
    widest = from_boxes(1, [((least,), (most,))])
    assert all(volume(widest, m) == most - least for m in VolumeMethod)
    assert from_cells(1, [(least,), (most - 1,)]).cell_count() == 2
    square = from_boxes(2, [((0, 0), (2**62, 2**62))])
    assert all(volume(square, m) == 2**124 for m in VolumeMethod)


def test_volume_formula_methods_require_generic(q_solid):
    for method in (VolumeMethod.MU_SUM, VolumeMethod.DETERMINANTAL):
        with pytest.raises(NotGenericError):
            volume(q_solid, method)
    assert volume(q_solid, VolumeMethod.VOXEL_COUNT) == 6


# ---------------------------------------------------------------------------
# Euler characteristic


def test_euler_examples(torus):
    for method in EulerMethod:
        assert euler(unit_cube(), method) == 1
        assert euler(torus, method) == 0
        two = from_boxes(3, [((0, 0, 0), (1, 1, 1)), ((3, 3, 3), (4, 4, 4))])
        assert euler(two, method) == 2


def test_euler_methods_agree_on_random_unions():
    rng = random.Random(47)
    for dim, extent in ((2, 12), (3, 8)):
        for _ in range(12):
            P = _random_box_union(rng, dim, rng.randrange(2, 5), extent)
            assert euler(P, EulerMethod.SIGMA_SUM) == euler(
                P, EulerMethod.CUBICAL_COMPLEX
            )


def test_cubical_complex_handles_degenerate_input(q_solid):
    # the alternating count needs no genericity and sees a contractible solid
    assert euler(q_solid, EulerMethod.CUBICAL_COMPLEX) == 1
    with pytest.raises(NotGenericError):
        euler(q_solid, EulerMethod.SIGMA_SUM)


def test_two_dimensional_corner_laws():
    rng = random.Random(59)
    simply_connected_seen = 0
    for _ in range(40):
        P = _random_box_union(rng, 2, rng.randrange(1, 6), 14)
        chi = euler(P)
        c = vertex_census(P)
        n1 = c.by_mu.get(1, 0)
        n3 = c.by_mu.get(3, 0)
        assert n1 - n3 == 4 * chi
        if chi == 1 and _connected(P.cells):
            simply_connected_seen += 1
            assert n1 - n3 == 4
    assert simply_connected_seen >= 10


def test_three_dimensional_census_law(torus):
    rng = random.Random(61)
    instances = [torus] + [
        _random_box_union(rng, 3, rng.randrange(2, 5), 8) for _ in range(8)
    ]
    for P in instances:
        c = vertex_census(P)
        total = (
            c.by_mu.get(1, 0)
            - c.by_mu.get(3, 0)
            - c.by_mu.get(5, 0)
            + c.by_mu.get(7, 0)
        )
        assert total == 8 * euler(P)


def test_sigma_sum_divisibility():
    rng = random.Random(67)
    for dim in (2, 3):
        for _ in range(8):
            P = _random_box_union(rng, dim, rng.randrange(1, 5), 10)
            assert sigma_sum(P) % (1 << dim) == 0


# ---------------------------------------------------------------------------
# skeleton


def test_skeleton_square_is_four_cycle():
    sk = skeleton(unit_cube(2))
    G = nx.Graph()
    G.add_edges_from((a, b) for a, b, _axis in sk.arcs)
    assert len(sk.nodes) == 4
    assert nx.is_isomorphic(G, nx.cycle_graph(4))


def test_skeleton_cube_is_cube_graph():
    sk = skeleton(unit_cube())
    G = nx.Graph()
    G.add_edges_from((a, b) for a, b, _axis in sk.arcs)
    assert nx.is_isomorphic(G, nx.hypercube_graph(3))
    assert sk.is_bipartite


def test_skeleton_torus(torus):
    sk = skeleton(torus)
    assert len(sk.nodes) == 32
    assert len(sk.arcs) == 48
    assert set(sk.degrees().values()) == {3}
    G = nx.Graph()
    G.add_edges_from((a, b) for a, b, _axis in sk.arcs)
    assert nx.is_bipartite(G)
    assert sk.is_bipartite
    colors = {p: (0 if t > 0 else 1) for p, t in sk.nodes}
    assert all(colors[a] != colors[b] for a, b, _axis in sk.arcs)


def test_skeleton_is_the_zero_and_one_faces(torus):
    # an independent route to the graph: its nodes are the 0-faces and its
    # arcs the 1-faces, each joined to the two 0-faces in its closure
    models = [torus] + [
        random_generic(dim, count, extent, seed)
        for dim, count, extent in ((1, 3, 9), (2, 4, 9), (3, 3, 7), (4, 2, 5))
        for seed in range(6)
    ]
    for P in models:
        sk = skeleton(P)
        fp = face_poset(P)
        points = [f.representative.point for f in fp.faces]
        assert [p for p, _tau in sk.nodes] == sorted(
            points[i] for i, f in enumerate(fp.faces) if f.dim == 0
        )
        arcs = []
        for i, f in enumerate(fp.faces):
            if f.dim != 1:
                continue
            below = [j for j, k in fp.incidence if k == i]
            assert len(below) == 2 and all(fp.faces[j].dim == 0 for j in below)
            a, b = sorted(points[j] for j in below)
            arcs.append((a, b, f.free_axes[0]))
        assert list(sk.arcs) == sorted(arcs)


def _reference_skeleton(P):
    """The line walk ``skeleton`` was before it read the graph off the
    vertex list: from every all-odd position of degree 0, step along each
    axis both ways while the positions have degree 1 with that axis
    inessential, and join the vertex where the walk stops."""
    scan = lattice._require_generic(P)
    inverse, masks = _full_grid(scan)
    profiles = [lattice._class_profile(P.dim, m) for m in masks]
    keep = [i for i, prof in enumerate(profiles) if prof.degree == 0]
    sub = inverse[(slice(1, None, 2),) * P.dim]
    vertex_positions = 2 * np.argwhere(np.isin(sub, keep)) + 1
    node_index = {}
    nodes = []
    for base in vertex_positions.tolist():
        point = scan.point_of(base)
        tau = orthant_counts(OrthantSet(P.dim, masks[int(inverse[tuple(base)])]))[1]
        node_index[point] = tau
        nodes.append((point, tau))
    arcs = set()
    for base in vertex_positions.tolist():
        point = scan.point_of(base)
        for j in range(P.dim):
            axis = j + 1
            for step in (-1, 1):
                r = list(base)
                found = None
                while True:
                    r[j] += step
                    if r[j] < 0 or r[j] >= inverse.shape[j]:
                        break
                    prof = profiles[int(inverse[tuple(r)])]
                    if prof.degree == 0:
                        found = tuple(r)
                        break
                    if prof.degree != 1 or axis in prof.essential:
                        break
                if found is None:
                    continue
                other = scan.point_of(found)
                if node_index[point] != -node_index[other]:
                    raise ConsistencyError(
                        f"tau signs fail to alternate along {point} .. {other}"
                    )
                arcs.add((min(point, other), max(point, other), axis))
    graph = SkeletonGraph(tuple(sorted(nodes)), tuple(sorted(arcs)))
    for point, deg in graph.degrees().items():
        if deg != P.dim:
            raise ConsistencyError(f"vertex {point} has skeleton degree {deg}")
    return graph


def test_skeleton_matches_the_line_walk(torus):
    models = [torus, from_cells(2, L_CELLS), unit_cube(1), unit_cube(5)] + [
        random_generic(dim, count, extent, seed)
        for dim, count, extent in ((1, 5, 20), (2, 8, 30), (3, 6, 20), (4, 4, 12), (5, 3, 8))
        for seed in range(1, 5)
    ]
    for P in models:
        assert skeleton(P) == _reference_skeleton(P)


def test_skeleton_checks_edge_directions(torus, monkeypatch):
    assert len(skeleton(torus).arcs) == 48
    scan = lattice._scan_for(torus)
    # the skeleton reads each site's profile and carried tau_d afresh; tau
    # signs are checked after the edge directions
    patched = {m: p._replace(toward=(1, 1, 1)) for m, p in scan.profiles.items()}
    with monkeypatch.context() as patch:
        patch.setattr(scan, "profiles", patched)
        with pytest.raises(ConsistencyError, match="edges point apart"):
            skeleton(torus)
    monkeypatch.setattr(scan, "vertex_tau", np.ones_like(scan.vertex_tau))
    with pytest.raises(ConsistencyError, match="tau signs fail to alternate"):
        skeleton(torus)


def test_skeleton_pairs_vertices_on_one_line_only():
    # the L-hexagon's vertices are (0,0) (2,0) (2,1) (1,1) (1,2) (0,2) in
    # skeleton order.  Without (2,1) and (0,2) the axis-1 pairing would join
    # (1,1) to (1,2), whose directions and tau signs fit; only the line
    # differs.  Without (3,) the segment [2, 3] leaves (2,) over.
    for cells, missing, message in (
        (L_CELLS, {(2, 1), (0, 2)}, r"line changes along \(1, 1\) \.\. \(1, 2\)"),
        ([(0,), (2,)], {(3,)}, r"vertex \(2,\) has skeleton degree 0"),
    ):
        P = from_cells(len(cells[0]), cells)
        scan = lattice._scan_for(P)
        assert len(skeleton(P).nodes) == len(scan.vertex_entries)
        at, codes, points = scan.vertex_sites
        keep = [i for i, p in enumerate(points) if p not in missing]
        scan.vertex_sites = at[keep], codes[keep], [points[i] for i in keep]
        with pytest.raises(ConsistencyError, match=message):
            skeleton(P)


def _previous_skeleton(P):
    """``skeleton`` as it was before it read the scan's vertex sites: it
    turned the vertex points back into an array and sorted the arcs as
    Python tuples."""
    scan = lattice._require_generic(P)
    d = P.dim
    entries = scan.vertex_entries
    points = [point for point, _mask, _prof in entries]
    nodes = tuple((point, orthant_counts(OrthantSet(d, mask))[1]) for point, mask, _p in entries)
    tau = np.array([t for _point, t in nodes], dtype=np.int64)
    at = np.array(points, dtype=np.int64).reshape(-1, d)
    toward = np.array([prof.toward for _p, _m, prof in entries], np.int64).reshape(-1, d)
    arcs = []
    for j in range(d):
        others = [at[:, k] for k in reversed(range(d)) if k != j]
        order = np.lexsort([at[:, j]] + others)
        lo, hi = order[:-1:2], order[1::2]
        for bad, what in (
            (np.delete(at[lo] != at[hi], j, axis=1).any(axis=1), "line changes"),
            ((toward[lo, j] != 1) | (toward[hi, j] != -1), "edges point apart"),
            (tau[lo] != -tau[hi], "tau signs fail to alternate"),
        ):
            if bad.any():
                a, b = points[lo[bad][0]], points[hi[bad][0]]
                raise ConsistencyError(f"{what} along {a} .. {b}")
        arcs.extend((points[a], points[b], j + 1) for a, b in zip(lo, hi))
    graph = SkeletonGraph(nodes, tuple(sorted(arcs)))
    for point, deg in graph.degrees().items():
        if deg != P.dim:
            raise ConsistencyError(f"vertex {point} has skeleton degree {deg}")
    return graph


def _sign_bits(d, mask):
    """The (pos, neg, mixed) axis bitmasks from the two cofactors of each
    axis, as the scan once found them for every mask."""
    bits = [0, 0, 0]
    for pos in range(d):
        plus, minus = _cofactor(mask, d, pos, True), _cofactor(mask, d, pos, False)
        if plus != minus:
            bits[0 if not minus & ~plus else 1 if not plus & ~minus else 2] |= 1 << pos
    return tuple(bits)


def test_carried_signs_and_skeleton_match_the_old_code():
    # the carried axis signs and _axis_signs against cofactors, and the skeleton
    # against the one that re-read the vertex points, on cubes, generic
    # unions, touching unions with witnesses and crossing stripes
    rng = random.Random(1802)
    models = [unit_cube(d) for d in range(1, 13)]
    models += [
        random_generic(d, n, 4 * n + 10, seed)
        for d, n in ((1, 6), (2, 12), (3, 8), (4, 5), (5, 3), (6, 2))
        for seed in (1, 2)
    ]
    touching = [_random_touching_union(rng, _POOLS[d], 3) for d in range(1, 8) for _ in range(3)]
    assert sum(not check_generic(P) for P in touching) >= 5
    models += touching + [_crossing_stripes(12)]
    for P in models:
        scan = lattice._scan_for(P)
        expected = [_sign_bits(P.dim, m) for m in scan.vertex_masks]
        assert scan.vertex_signs == expected, P.boxes
        found = [_axis_signs(P.dim, m) for m in scan.vertex_masks]
        assert [
            tuple(sum(1 << (a - 1) for a, s in signs.items() if s == w) for w in (1, -1, 0))
            for signs in found
        ] == expected, P.boxes
        if check_generic(P):
            assert skeleton(P) == _previous_skeleton(P), P.boxes
        else:
            for run in (skeleton, _previous_skeleton):
                with pytest.raises(NotGenericError):
                    run(P)


def test_skeleton_requires_generic(q_solid):
    with pytest.raises(NotGenericError):
        skeleton(q_solid)


# ---------------------------------------------------------------------------
# face poset


def test_face_poset_unit_cube():
    fp = face_poset(unit_cube())
    assert fp.f_vector() == (8, 12, 6, 1)
    # each vertex meets a simplex of higher dimensional faces
    for i, f in enumerate(fp.faces):
        if f.dim == 0:
            for k in (1, 2):
                count = sum(
                    1 for (a, b) in fp.incidence if a == i and fp.faces[b].dim == k
                )
                assert count == comb(3, k)


def test_face_poset_l_shape():
    fp = face_poset(from_cells(2, L_CELLS))
    assert fp.f_vector() == (6, 6, 1)
    top = [i for i, f in enumerate(fp.faces) if f.dim == 2]
    assert len(top) == 1
    assert fp.faces[top[0]].cells == frozenset(L_CELLS)


def test_face_poset_torus_alternating_sum(torus):
    fv = face_poset(torus).f_vector()
    assert fv[0] == 32 and fv[1] == 48
    assert sum((-1) ** k * n for k, n in enumerate(fv)) == 0


def test_face_closures_are_generic(torus):
    for P in (from_cells(2, L_CELLS), torus):
        fp = face_poset(P)
        for f in fp.faces:
            if f.dim == 0:
                continue
            sub = from_cells(f.dim, f.cells, P.scale)
            assert check_generic(sub), f
            assert volume(sub, VolumeMethod.VOXEL_COUNT) > 0


def test_vertex_face_counts_on_random_unions():
    rng = random.Random(71)
    for dim in (2, 3):
        P = _random_box_union(rng, dim, 3, 8)
        fp = face_poset(P)
        for i, f in enumerate(fp.faces):
            if f.dim != 0:
                continue
            for k in range(1, dim):
                count = sum(
                    1 for (a, b) in fp.incidence if a == i and fp.faces[b].dim == k
                )
                assert count == comb(dim, k)


def test_face_poset_requires_generic(q_solid):
    with pytest.raises(NotGenericError):
        face_poset(q_solid)


def _reference_face_poset(P):
    """Faces and incidence built independently of the library's labeling:
    regions are the ``networkx`` components of axis-adjacent positions with
    one nonempty mask, and face a lies in the closure of face b when every
    cell of a, pushed to either side of a's fixed coordinate on each axis
    free in b only, is a cell of b (a per-cell check over all face pairs).
    Each face holds the unit boxes of its cells."""
    scan = _FullScan(P)
    d = P.dim
    masks = scan.masks
    graph = nx.Graph()
    for idx in np.ndindex(masks.shape):
        if masks[idx] == 0:
            continue
        graph.add_node(idx)
        for j in range(d):
            nb = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
            if nb[j] < masks.shape[j] and masks[nb] == masks[idx]:
                graph.add_edge(idx, nb)
    faces = []
    for region in nx.connected_components(graph):
        members = sorted(region)
        mask = masks[members[0]]
        prof = scan.profile(members[0])
        free = tuple(a for a in range(1, d + 1) if a not in prof.essential)
        fixed = tuple(
            (a, int(scan.edges[a - 1][(members[0][a - 1] + 1) // 2]))
            for a in prof.essential
        )
        cells = frozenset(
            tuple(int(scan.edges[a - 1][idx[a - 1] // 2]) for a in free)
            for idx in members
            if all(idx[a - 1] % 2 == 0 for a in free)
        )
        rep = lattice.PointClass(
            scan.point_of(members[0]),
            lattice.OrthantSet(d, mask),
            prof.essential,
            prof.degree,
            prof.floral,
        )
        boxes = tuple((c, tuple(x + 1 for x in c)) for c in sorted(cells))
        faces.append(lattice.Face(len(free), free, fixed, boxes, rep))
    faces.sort(key=lambda f: (f.dim, f.representative.point))
    incidence = set()
    for i, a in enumerate(faces):
        for j, b in enumerate(faces):
            if a.dim >= b.dim:
                continue
            if not set(a.free_axes) <= set(b.free_axes):
                continue
            b_fixed = dict(b.fixed)
            a_fixed = dict(a.fixed)
            if any(a_fixed[ax] != v for ax, v in b_fixed.items()):
                continue
            between = [ax for ax in b.free_axes if ax not in a.free_axes]
            ok = True
            for cell in a.cells:
                placed = dict(zip(a.free_axes, cell))
                hit = False
                for choice in itertools.product(*(
                    (a_fixed[ax] - 1, a_fixed[ax]) for ax in between
                )):
                    cand = tuple(
                        placed[ax] if ax in placed else choice[between.index(ax)]
                        for ax in b.free_axes
                    )
                    if cand in b.cells:
                        hit = True
                        break
                if not hit:
                    ok = False
                    break
            if ok:
                incidence.add((i, j))
    return tuple(faces), frozenset(incidence)


def _face_poset_models():
    yield pytest.param(unit_cube(), id="cube")
    yield pytest.param(from_cells(2, L_CELLS), id="L")
    yield pytest.param(from_cells(3, TORUS_CELLS), id="torus")
    for dim, count, extent in ((1, 3, 9), (2, 4, 9), (3, 3, 7), (4, 2, 5)):
        for seed in range(3):
            P = random_generic(dim, count, extent, seed)
            yield pytest.param(P, id=f"generic-d{dim}-{seed}")
    rng = random.Random(83)
    for dim in (2, 3):
        yield pytest.param(_random_box_union(rng, dim, 3, 7), id=f"union-d{dim}")
    # touching boxes whose shared coordinates merge slabs of the scan
    yield pytest.param(
        from_boxes(2, [((0, 0), (2, 2)), ((2, 0), (4, 2)), ((1, 2), (3, 5))]),
        id="merged-slabs",
    )
    yield pytest.param(
        from_boxes(2, [((0, 0), (3, 1)), ((0, 1), (1, 3))], scale=2), id="scale2"
    )
    # wide slabs, so the compressed and full grids differ on every axis
    wide = random_generic(3, 3, 7, 1).boxes
    five = [(tuple(5 * c for c in lo), tuple(5 * c for c in hi)) for lo, hi in wide]
    yield pytest.param(from_boxes(3, five), id="generic-d3-x5")


@pytest.mark.parametrize("P", list(_face_poset_models()))
def test_face_poset_matches_networkx_regions_and_cell_incidence(P):
    fp = face_poset(P)
    faces, incidence = _reference_face_poset(P)

    def seen(f):
        return f.dim, f.free_axes, f.fixed, f.cells, f.representative

    assert [seen(f) for f in fp.faces] == [seen(f) for f in faces]
    assert fp.incidence == incidence
    # the boxes of a face are disjoint, so their volumes count its cells
    for f in fp.faces:
        assert sum(math.prod(map(operator.sub, h, l)) for l, h in f.boxes) == len(f.cells)



def _joined_along_the_last_axis(boxes):
    """``boxes``, disjoint, with each run of them that meet end to start
    along the last coordinate, the others equal, joined into one box;
    sorted."""
    out = []
    for lo, hi in sorted(boxes, key=lambda b: (b[0][:-1], b[1][:-1], b[0][-1])):
        if out and out[-1][0][:-1] == lo[:-1] and out[-1][1][:-1] == hi[:-1]:
            if out[-1][1][-1] == lo[-1]:
                out[-1] = (out[-1][0], hi)
                continue
        out.append((lo, hi))
    return sorted(out)


def _assert_faces_match_the_full_grid(P):
    """The run-based faces of ``P`` against the dense full-grid oracle:
    the same order, dims, free and fixed axes, representatives and
    incidence.  The oracle holds a box per slab interior; where the grid's
    last axis is free in a face, joining them along it gives the face's
    boxes, each a maximal last-axis run, so they are disjoint and cover
    the face's cells, and their volumes sum to its cell count."""
    fp = face_poset(P)
    faces, incidence = _grid_face_poset(P)

    def seen(f):
        return f.dim, f.free_axes, f.fixed, f.representative

    assert [seen(f) for f in fp.faces] == [seen(f) for f in faces], P.boxes
    assert fp.incidence == incidence, P.boxes
    for f, slabs in zip(fp.faces, faces):
        expected = sorted(slabs.boxes)
        if f.free_axes and f.free_axes[-1] == P.dim:
            expected = _joined_along_the_last_axis(expected)
        assert sorted(f.boxes) == expected, (P.boxes, f)

        def volume_of(boxes):
            return sum(math.prod(map(operator.sub, h, l)) for l, h in boxes)

        assert volume_of(f.boxes) == volume_of(slabs.boxes)


def _far_models():
    """Models the dense oracle can check but cell lists cannot: empty
    ones, d=1, coordinates at both ends of the range the scan holds, and
    slabs wider than int64."""
    least, most = lattice._COORDINATE_RANGE
    yield from (from_boxes(d, []) for d in (1, 2, 3))
    yield from_boxes(1, [((least,), (least + 2,)), ((least + 3,), (most,))])
    yield from_boxes(
        2, [((least, least), (least + 3, most)), ((most - 5, least + 1), (most, least + 4))]
    )
    yield from_boxes(3, [((least,) * 3, (least + 2, most, most)), ((0, 0, least + 1), (most,) * 3)])
    yield from_boxes(2, [((-(2**62) - 5, 0), (2**62 + 5, 1))])
    yield from_boxes(2, [((-(2**62) - 5, 0), (2**62 + 5, 1)), ((0, 1), (1, 2**62))])


@pytest.mark.parametrize("P", list(_face_poset_models()) + list(_far_models()))
def test_run_faces_match_the_full_grid(P):
    _assert_faces_match_the_full_grid(P)


@pytest.mark.parametrize("dim", (1, 2, 3, 4))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_run_faces_match_the_full_grid_on_generic_unions(dim, data):
    if data.draw(st.booleans()):
        # corners from a few coordinates, so boxes touch and slabs merge
        P = _contact_union(data, dim)
        if not check_generic(P):
            return
    else:
        count = data.draw(st.integers(1, 6))
        extent = data.draw(st.integers(2 * count - 1, 6 * count))
        P = random_generic(dim, count, extent, data.draw(st.integers(0, 2**16)))
    _assert_faces_match_the_full_grid(P)

def test_face_poset_on_long_thin_boxes_reads_the_small_scan(monkeypatch):
    P = from_boxes(2, [((0, 0), (10**4, 1)), ((5000, 1), (5001, 10**4))])
    built = _count_scans(monkeypatch)
    fp = face_poset(P)
    assert built == [P] and P._scan.shape == (9, 7)
    assert fp.f_vector() == (8, 8, 1)
    assert sum(len(f.cells) for f in fp.faces) == 60_007


def test_face_poset_refuses_too_many_cells_before_building_them(monkeypatch):
    P = from_boxes(2, [((0, 0), (10, 1)), ((5, 1), (6, 10))])
    # 8 vertices, 40 edge cells around the outline and 19 in the top face;
    # each face refuses its own cells, when they are asked for
    monkeypatch.setattr(lattice, "_CELL_LIMIT", 18)
    fp = face_poset(P)
    (top,) = fp.faces_of_dim(2)
    with pytest.raises(TooManyCellsError, match="materialize about 19 cells"):
        top.cells
    assert sum(len(f.cells) for f in fp.faces if f.dim < 2) == 8 + 40
    monkeypatch.undo()
    assert sum(len(f.cells) for f in face_poset(P).faces) == 67
    # 2^80 cells in the square alone: the faces hold boxes, and no cell is built
    side = 1 << 40
    square = from_boxes(2, [((0, 0), (side, side))])
    tracemalloc.start()
    try:
        fp = face_poset(square)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    volumes = [math.prod(map(operator.sub, h, l)) for f in fp.faces for l, h in f.boxes]
    assert sum(volumes) == side * side + 4 * side + 4
    (top,) = fp.faces_of_dim(2)
    with pytest.raises(TooManyCellsError, match=f"about {side * side} cells"):
        top.cells


def test_face_equality_and_hash_need_no_cells(monkeypatch):
    models = [from_boxes(2, [((0, 0), (10**4, 1)), ((5000, 1), (5001, 10**4))])]
    models += [from_boxes(3, [((0, 0, 0), (200, 200, 200))]), from_cells(3, TORUS_CELLS)]
    posets = [face_poset(P) for P in models]

    def refuse(boxes):
        raise AssertionError("cells listed")

    monkeypatch.setattr(lattice, "_cells_of", refuse)
    for P, fp in zip(models, posets):
        again = face_poset(P)
        assert again == fp and hash(again) == hash(fp)
        assert len(set(fp.faces)) == len(fp.faces)
        assert all(f == g and hash(f) == hash(g) for f, g in zip(fp.faces, again.faces))


def test_face_equality_compares_boxes_as_listed():
    # one L from its five cells (unit slabs) and from two boxes (a slab of
    # width 2 on each arm): the same point set, decomposed differently.  A
    # face holds one box per maximal run along the last axis, y: the cells
    # give the runs x=0: y in [0,3), x=1: [0,1) and x=2: [0,1), three
    # boxes; the two boxes give x in [0,1): [0,3) and x in [1,3): [0,1),
    # two boxes
    cells = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]
    by_cells = face_poset(from_cells(2, cells)).faces
    by_boxes = face_poset(from_boxes(2, [((0, 0), (3, 1)), ((0, 1), (1, 3))])).faces
    assert len(by_cells) == len(by_boxes) == 13
    assert [f.cells for f in by_cells] == [f.cells for f in by_boxes]
    assert by_cells != by_boxes
    (top_cells,), (top_boxes,) = (
        [f for f in faces if f.dim == 2] for faces in (by_cells, by_boxes)
    )
    assert top_cells.boxes == (((0, 0), (1, 3)), ((1, 0), (2, 1)), ((2, 0), (3, 1)))
    assert top_boxes.boxes == (((0, 0), (1, 3)), ((1, 0), (3, 1)))
    assert top_cells != top_boxes and top_cells.cells == top_boxes.cells == set(cells)


# ---------------------------------------------------------------------------
# cross-sections


def test_cross_section_torus_layers(torus):
    low = cross_section(torus, {3: Fraction(1, 2)})
    assert low.dim == 2
    assert low.cells == {(x, y) for x, y, z in TORUS_CELLS if z == 0}
    high = cross_section(torus, {3: Fraction(5, 2)})
    assert high.cells == {(1, 0), (2, 0), (3, 0), (4, 0)}


def test_cross_section_multi_axis(torus):
    line = cross_section(torus, {3: Fraction(1, 2), 2: Fraction(1, 2)})
    assert line.dim == 1
    assert line.cells == {(x,) for x, y, z in TORUS_CELLS if y == 0 and z == 0}


def test_cross_section_integer_value_uses_closed_layers():
    cube = unit_cube()
    boundary = cross_section(cube, {1: 1})
    assert boundary.cells == {(0, 0)}
    wide = from_boxes(2, [((0, 0), (2, 2))])
    middle = cross_section(wide, {1: 1})
    assert middle.cells == {(0,), (1,)}
    beyond = cross_section(wide, {1: 7})
    assert beyond.is_empty


def test_cross_section_validation(torus):
    with pytest.raises(ValueError, match="axis"):
        cross_section(torus, {5: Fraction(1, 2)})
    with pytest.raises(ValueError, match="at least one axis"):
        cross_section(torus, {1: 0, 2: 0, 3: 0})
    with pytest.raises(ValueError, match="multiple of 1/2"):
        cross_section(torus, {1: Fraction(1, 3)})


def test_cross_sections_of_generic_unions_are_generic():
    rng = random.Random(83)
    for dim in (2, 3):
        P = _random_box_union(rng, dim, 3, 8)
        lo, hi = P.bounding_box()
        for axis in range(1, dim + 1):
            for twice in range(2 * lo[axis - 1] - 1, 2 * hi[axis - 1] + 2):
                S = cross_section(P, {axis: Fraction(twice, 2)})
                assert check_generic(S), (axis, twice)


# ---------------------------------------------------------------------------
# set operations


def test_set_ops_validation(torus):
    with pytest.raises(ValueError, match="dimension"):
        set_ops(torus, unit_cube(2), SetOp.UNION)
    with pytest.raises(ValueError, match="complement"):
        set_ops(torus, torus, SetOp.COMPLEMENT)


def test_set_ops_union_and_intersection_cells():
    P = from_boxes(2, [((0, 0), (2, 2))])
    Q = from_boxes(2, [((1, 1), (3, 3))])
    union, gu = set_ops(P, Q, SetOp.UNION)
    inter, gi = set_ops(P, Q, SetOp.INTERSECT)
    assert union.cell_count() == 7
    assert inter.cells == {(1, 1)}
    # the staircase outline keeps every corner floral
    assert gu.generic and gi.generic


def test_set_ops_flags_corner_touch_as_degenerate():
    P = from_boxes(2, [((0, 0), (1, 1))])
    Q = from_boxes(2, [((1, 1), (2, 2))])
    union, verdict = set_ops(P, Q, SetOp.UNION)
    assert union.cell_count() == 2
    assert not verdict.generic and verdict.witness == (1, 1)
    inter, verdict = set_ops(P, Q, SetOp.INTERSECT)
    assert inter.is_empty and verdict.generic


def test_set_ops_reconcile_scales():
    P = from_boxes(1, [((0,), (2,))], scale=2)
    Q = from_boxes(1, [((0,), (3,))], scale=3)
    union, verdict = set_ops(P, Q, SetOp.UNION)
    assert union.scale == 6
    assert volume(union, VolumeMethod.VOXEL_COUNT) == 1
    assert verdict.generic


def test_disjoint_translates_stay_generic():
    P = from_boxes(2, [((0, 0), (2, 2))])
    Q = from_boxes(2, [((5, 5), (8, 7))])
    union, verdict = set_ops(P, Q, SetOp.UNION)
    assert verdict.generic
    assert euler(union) == 2


def test_sigma_quadruple_on_offset_grids():
    rng = random.Random(97)
    checked = 0
    while checked < 12:
        P = _random_box_union(rng, 2, rng.randrange(1, 4), 10)
        shift = rng.choice((1, 3))
        Q_boxes = [
            (tuple(2 * c + shift for c in lo), tuple(2 * c + shift for c in hi))
            for lo, hi in _random_box_union(rng, 2, rng.randrange(1, 4), 10).boxes
        ]
        P_boxes = [
            (tuple(2 * c for c in lo), tuple(2 * c for c in hi)) for lo, hi in P.boxes
        ]
        A = from_boxes(2, P_boxes)
        B = from_boxes(2, Q_boxes)
        union, gu = set_ops(A, B, SetOp.UNION)
        inter, gi = set_ops(A, B, SetOp.INTERSECT)
        if not (gu.generic and gi.generic):
            continue
        checked += 1
        assert sigma_sum(A) + sigma_sum(B) == sigma_sum(union) + sigma_sum(inter)


# ---------------------------------------------------------------------------
# the classification scan


def _mask_dtype(dim):
    """Narrowest numpy dtype that holds a 2^dim-bit orthant mask; object
    (Python ints) past 64 bits."""
    if dim <= 3:
        return np.uint8
    if dim <= 4:
        return np.uint16
    if dim <= 5:
        return np.uint32
    if dim <= 6:
        return np.uint64
    return object


def _masks_by_orthant(dim, occ):
    """Reference mask build: one ``np.ix_`` gather per orthant, 2^dim
    passes over the doubled grid, with the masks stored at every position.
    The library composes codes of the same masks in one pass per axis.
    Past 64 bits the masks are gathered as 64-bit words and joined into
    Python ints at the end."""
    sizes = tuple(2 * n - 1 for n in occ.shape)
    lo_sel = [np.arange(s) // 2 for s in sizes]
    hi_sel = [(np.arange(s) + 1) // 2 for s in sizes]
    dtype = _mask_dtype(dim)
    if dtype is object:
        words = [np.zeros(sizes, dtype=np.uint64) for _ in range((1 << dim) // 64)]
        source = occ.astype(np.uint64)
    else:
        masks = np.zeros(sizes, dtype=dtype)
        source = occ.astype(dtype)
    for s in range(1 << dim):
        sel = tuple(hi_sel[j] if (s >> j) & 1 else lo_sel[j] for j in range(dim))
        contrib = source[np.ix_(*sel)]
        if dtype is object:
            words[s // 64] |= contrib << np.uint64(s % 64)
        else:
            masks |= contrib << dtype(s)
    if dtype is object:
        raw = np.stack(words, axis=-1).astype("<u8").tobytes()
        width = 8 * len(words)
        masks = np.empty(math.prod(sizes), dtype=object)
        masks[:] = [
            int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
        ]
        masks = masks.reshape(sizes)
    return masks


class _FullScan:
    """Full-resolution oracle of the classification scan, independent of
    the library's axis passes: an edge at every integer from one below the
    bounding box to one above it, and the mask of every position gathered
    orthant by orthant from the dense unit-cell occupancy."""

    def __init__(self, P):
        self.dim = P.dim
        lo, hi = P.bounding_box()
        self.edges = [np.arange(l - 1, h + 2) for l, h in zip(lo, hi)]
        occ = np.zeros([h - l + 2 for l, h in zip(lo, hi)], dtype=bool)
        for box in P.boxes:
            occ[tuple(slice(a - l + 1, b - l + 1) for a, b, l in zip(*box, lo))] = True
        self.masks = _masks_by_orthant(P.dim, occ).astype(object)

    def point_of(self, idx):
        half = [Fraction(int(e[0]) * 2 + r + 1, 2) for e, r in zip(self.edges, idx)]
        return tuple(int(c) if c.denominator == 1 else c for c in half)

    def profile(self, idx):
        return lattice._class_profile(self.dim, int(self.masks[idx]))

    def verdict(self):
        for idx in np.ndindex(self.masks.shape):
            if self.profile(idx).degenerate:
                return Genericity(False, self.point_of(idx))
        return Genericity(True)

    def vertex_entries(self):
        """(point, mask, profile) of every degree-0 position, in order."""
        return [
            (self.point_of(idx), int(self.masks[idx]), self.profile(idx))
            for idx in np.ndindex(self.masks.shape)
            if self.profile(idx).degree == 0
        ]


def _vertex_codes(scan):
    """The vertex grid's codes at every position, expanded from the scan's
    ``vertex_runs``."""
    keys, codes = scan.vertex_runs
    lengths = lattice._run_ends(keys, math.prod(scan.vertex_shape)) - keys
    return np.repeat(codes, lengths).reshape(scan.vertex_shape)


def _expand_axis(codes, table, dim, j):
    """One axis pass from the vertex grid to the full doubled grid: the
    edges of axis j, coded into ``table``, are interleaved with the slab
    interiors beside them.  Slab k's cone is the cylinder over the lo side
    of the cone on edge k, the edge between slabs k and k+1, and the last
    slab, the padding, is empty, so the slab codes are read off one lookup
    entry per code.  Masks first met there get codes K, K+1, ..., so every
    mask is held once and every code is used."""
    code = {m: c for c, m in enumerate(table)}
    lo = [code.setdefault(_cofactor(m, dim, j, False), len(code)) for m in table]
    exterior = code.setdefault(0, len(code))
    dtype = lattice._code_dtype(len(code))
    head = (slice(None),) * j
    shape = list(codes.shape)
    shape[j] = 2 * shape[j] + 1
    out = np.empty(shape, dtype=dtype)
    out[head + (slice(1, None, 2),)] = codes
    out[head + (slice(0, -1, 2),)] = np.array(lo, dtype=dtype)[codes]
    out[head + (-1,)] = exterior
    return out, list(code)


def _run_starts(codes):
    """The C-order flat index of the first position of each maximal run of
    ``codes`` along the last axis, the first of every row included."""
    flat = codes.reshape(-1, codes.shape[-1])
    starts = np.ones(flat.shape, dtype=bool)
    starts[:, 1:] = flat[:, 1:] != flat[:, :-1]
    return np.flatnonzero(starts)


def _full_grid(scan):
    """Oracle of the full doubled grid of a scan, dense: the code of every
    position and the masks they index, composed from the vertex grid's
    codes with one ``_expand_axis`` pass per axis.  The library holds the
    same grid as runs (``lattice._full_runs``)."""
    codes, table = _vertex_codes(scan), scan.vertex_masks
    for j in range(scan.dim):
        codes, table = _expand_axis(codes, table, scan.dim, j)
    return codes, table


def _full_grid_bytes(shape, runs=0):
    """Estimated peak bytes of ``_full_grid`` on a doubled grid of this
    shape from ``runs`` vertex runs, as the library charged it when it
    composed the grid: the last axis pass holds the previous pass's codes,
    their slab codes and the new codes, 2 bytes each, beside the vertex
    codes and 8 bytes per run.  Kept as the yardstick of what a dense grid
    costs."""
    positions = math.prod(shape)
    previous = positions // shape[-1] * ((shape[-1] - 1) // 2)
    vertex = math.prod((n - 1) // 2 for n in shape)
    return 2 * vertex + 8 * runs + 4 * previous + 2 * positions


def _grid_regions(inverse, empty):
    """Oracle labelling on the dense full grid: connected components of
    axis-adjacent positions that share one code other than ``empty``, each
    labelled by the C-order flat index of its first position; exterior
    positions get -1.  Roots hook under the smallest root they meet and
    pointer jumping flattens the trees, until no join crosses two trees."""
    sides = [
        ((slice(None),) * j + (slice(None, -1),), (slice(None),) * j + (slice(1, None),))
        for j in range(inverse.ndim)
    ]
    joins = [(inverse[lo] == inverse[hi]) & (inverse[lo] != empty) for lo, hi in sides]
    index = np.arange(inverse.size).reshape(inverse.shape)
    u = np.concatenate([index[lo][join] for (lo, _hi), join in zip(sides, joins)])
    v = np.concatenate([index[hi][join] for (_lo, hi), join in zip(sides, joins)])
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


def _grid_face_poset(P):
    """Oracle of ``face_poset`` on the dense full grid, as the library
    computed it before it held the grid as runs: regions labelled position
    by position, one box per slab interior of each region, and the closure
    incidence read off all 3^d - 1 offsets, where position p lies in the
    closure of position q iff on every axis p_j == q_j, or q_j is even and
    |p_j - q_j| == 1."""
    scan = lattice._require_generic(P)
    if P.is_empty:
        return (), frozenset()
    d = P.dim
    inverse, masks = _full_grid(scan)
    labels = _grid_regions(inverse, masks.index(0))
    inside = np.flatnonzero(labels.reshape(-1) >= 0)
    roots, owner = np.unique(labels.reshape(-1)[inside], return_inverse=True)
    pos = np.stack(np.unravel_index(inside, labels.shape), axis=-1)
    heads = np.stack(np.unravel_index(roots, labels.shape), axis=-1).tolist()
    masks = [masks[c] for c in inverse.reshape(-1)[roots].tolist()]
    profs = [lattice._class_profile(d, m) for m in masks]
    fixed_axes = np.array(
        [[a in p.essential for a in range(1, d + 1)] for p in profs], dtype=bool
    )[owner]
    rows = np.flatnonzero(((pos % 2 == 0) | fixed_axes).all(axis=1))
    rows = rows[np.argsort(owner[rows], kind="stable")]
    slab = pos[rows] // 2
    lo = np.stack([scan.edges[j][slab[:, j]] for j in range(d)], axis=-1).tolist()
    hi = np.stack([scan.edges[j][slab[:, j] + 1] for j in range(d)], axis=-1).tolist()
    keep = (~fixed_axes[rows]).tolist()
    boxes = list(zip(*(map(tuple, map(itertools.compress, c, keep)) for c in (lo, hi))))
    bounds = np.searchsorted(owner[rows], np.arange(len(roots) + 1))
    order = sorted(range(len(roots)), key=lambda r: (d - len(profs[r].essential), heads[r]))
    faces = []
    for r in order:
        head, prof = heads[r], profs[r]
        free = tuple(a for a in range(1, d + 1) if a not in prof.essential)
        fixed = tuple(
            (a, int(scan.edges[a - 1][(head[a - 1] + 1) // 2])) for a in prof.essential
        )
        rep = lattice.PointClass(
            scan.point_of(head), OrthantSet(d, masks[r]), prof.essential, prof.degree, prof.floral
        )
        faces.append(
            lattice.Face(len(free), free, fixed, tuple(boxes[bounds[r] : bounds[r + 1]]), rep)
        )
    rank = np.full(labels.size + 1, -1)
    rank[roots[order]] = np.arange(len(faces))
    face_at = rank[labels]
    steps = [
        [(slice(None), slice(None))]
        + [(slice(1, n - 1, 2), slice(1 + o, n - 1 + o, 2)) for o in (-1, 1)]
        for n in labels.shape
    ]
    incidence = set()
    for step in itertools.islice(itertools.product(*steps), 1, None):
        src, tgt = zip(*step)
        a, b = face_at[src], face_at[tgt]
        hit = (a != b) & (a >= 0) & (b >= 0)
        incidence.update(zip(a[hit].tolist(), b[hit].tolist()))
    return tuple(faces), frozenset(incidence)


def _assert_codes_match_orthant_passes(P, rng, samples=6):
    """The scan's full grid, composed by the oracle ``_full_grid`` and
    decoded through its masks, equals the reference masks at every
    position and ``classify_point`` at sampled ones; the table holds each
    mask once and every code is used.  The library's ``_full_runs`` are
    the maximal runs of those codes along the last axis, codes and dtype
    included."""
    scan = lattice._Scan(P)
    expected = _masks_by_orthant(P.dim, lattice._occupancy(P, scan.edges))
    inverse, masks = _full_grid(scan)
    decoded = np.array(masks, dtype=object)[inverse]
    assert decoded.shape == expected.shape
    assert np.array_equal(decoded, expected.astype(object))
    count = len(masks)
    assert len(set(masks)) == count
    assert np.array_equal(np.unique(inverse), np.arange(count))
    assert inverse.dtype == np.dtype(np.int16 if count <= 32767 else np.int32)
    keys, codes, run_masks = lattice._full_runs(scan)
    assert run_masks == masks and codes.dtype == inverse.dtype
    assert np.array_equal(keys, _run_starts(inverse)), P.boxes
    assert np.array_equal(codes, inverse.reshape(-1)[keys]), P.boxes
    # the vertex grid holds the full grid's all-odd positions, and it too
    # holds each mask once and uses every code
    vertex_codes = _vertex_codes(scan)
    vertex = np.array(scan.vertex_masks, dtype=object)[vertex_codes]
    assert np.array_equal(vertex, decoded[(slice(1, None, 2),) * P.dim])
    count = len(scan.vertex_masks)
    assert len(set(scan.vertex_masks)) == count
    assert np.array_equal(np.unique(vertex_codes), np.arange(count))
    assert vertex_codes.dtype == np.dtype(np.int16 if count <= 32767 else np.int32)
    for _ in range(samples):
        idx = tuple(rng.randrange(s) for s in decoded.shape)
        cone = classify_point(P, scan.point_of(idx)).cone
        assert decoded[idx] == cone.mask, (idx, P.boxes)
    return scan


def _random_touching_union(rng, pool_sizes, count):
    """Union of ``count`` boxes whose corners on axis j come from a pool of
    ``pool_sizes[j]`` coordinates, so boxes overlap and share faces, edges
    and corners; the result is often degenerate."""
    pools = [sorted(rng.sample(range(2 * k), k)) for k in pool_sizes]
    boxes = []
    for _ in range(count):
        spans = [sorted(rng.sample(pool, 2)) for pool in pools]
        boxes.append((tuple(a for a, _b in spans), tuple(b for _a, b in spans)))
    return from_boxes(len(pool_sizes), boxes)


# Coordinate pools per axis, small enough in d = 6 and 7 that the 2^d-pass
# reference stays quick; d = 7 masks are Python ints.
_POOLS = {
    1: (9,),
    2: (7, 7),
    3: (5, 5, 5),
    4: (4, 4, 4, 4),
    5: (3, 3, 3, 3, 3),
    6: (3, 3, 3, 3, 2, 2),
    7: (3, 3, 2, 2, 2, 2, 2),
}


@pytest.mark.parametrize("dim", sorted(_POOLS))
def test_axis_pass_masks_match_orthant_passes(dim):
    rng = random.Random(1000 + dim)
    for trial in range(4):
        P = _random_touching_union(rng, _POOLS[dim], 1 + trial)
        _assert_codes_match_orthant_passes(P, rng)


def test_axis_pass_masks_match_orthant_passes_in_dimension_8():
    rng = random.Random(1008)
    cube = _assert_codes_match_orthant_passes(unit_cube(8), rng)
    assert len(_full_grid(cube)[1]) == 3**8 + 1
    # two unit cubes meeting along a 6-dimensional face: degenerate there
    pair = from_boxes(
        8,
        [((0,) * 8, (1,) * 8), ((1,) + (0,) * 6 + (1,), (2,) + (1,) * 6 + (2,))],
    )
    _assert_codes_match_orthant_passes(pair, rng)
    assert not check_generic(pair)


def test_full_grid_past_32767_masks_takes_int32_codes():
    # the d=10 cube's full grid holds 3^10 + 1 masks: each face of the cube
    # has its own, and the exterior one more
    rng = random.Random(1010)
    cube = unit_cube(10)
    scan = lattice._Scan(cube)
    keys, codes, masks = lattice._full_runs(scan)
    count = len(masks)
    assert count == 3**10 + 1 and len(set(masks)) == count
    assert codes.dtype == np.int32
    assert np.bincount(codes, minlength=count).all()
    inverse, oracle_masks = _full_grid(scan)
    assert oracle_masks == masks and np.array_equal(keys, _run_starts(inverse))
    # positions 1..3 on every axis lie in the closed cube, where masks differ
    for trial in range(40):
        idx = tuple(rng.randrange(1, 4) if trial % 4 else rng.randrange(5) for _ in range(10))
        cone = classify_point(cube, scan.point_of(idx)).cone
        run = np.searchsorted(keys, np.ravel_multi_index(idx, scan.shape), "right") - 1
        assert masks[codes[run]] == cone.mask, idx


def test_pair_table_fallback_gives_the_same_codes(monkeypatch):
    rng = random.Random(2000)
    models = [_random_touching_union(rng, _POOLS[d], 3) for d in range(1, 6)]
    dense = [lattice._Scan(P) for P in models]
    monkeypatch.setattr(lattice, "_PAIR_TABLE_LIMIT", 0)
    for P, scan in zip(models, dense):
        sorted_scan = _assert_codes_match_orthant_passes(P, rng)
        assert sorted_scan.vertex_masks == scan.vertex_masks
        for got, want in zip(sorted_scan.vertex_runs, scan.vertex_runs):
            assert np.array_equal(got, want)


# Corner coordinates per axis for the property test below: every box
# corner comes from range(k), so boxes overlap, touch along faces and meet
# at edges and corners.  With these pools 8% (d = 2) to 55% (d = 4) of the
# unions are degenerate; in d = 1 every union is generic.
_CONTACT_POOLS = {
    1: (6,),
    2: (6, 6),
    3: (4, 4, 4),
    4: (3, 3, 3, 3),
    5: (3, 3, 3, 2, 2),
}


def _contact_union(data, dim):
    boxes = []
    for _ in range(data.draw(st.integers(2, 4))):
        spans = []
        for k in _CONTACT_POOLS[dim]:
            lo = data.draw(st.integers(0, k - 2))
            spans.append((lo, data.draw(st.integers(lo + 1, k - 1))))
        boxes.append((tuple(a for a, _b in spans), tuple(b for _a, b in spans)))
    return from_boxes(dim, boxes)


@pytest.mark.parametrize("dim", sorted(_CONTACT_POOLS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_scan_agrees_with_oracles_on_contact_unions(dim, data):
    P = _contact_union(data, dim)
    d = P.dim
    cells = P.cells
    by_cells = from_cells(d, cells)
    scan = lattice._Scan(P)
    full = _FullScan(P)
    # every position's code decodes to the brute-force cone
    inverse, masks = _full_grid(scan)
    decoded = np.array(masks, dtype=object)[inverse]
    for idx in np.ndindex(decoded.shape):
        assert decoded[idx] == classify_point(by_cells, scan.point_of(idx)).cone.mask
    # verdict and witness: compressed scan, full-resolution scan, brute force
    verdict = check_generic(P)
    assert verdict == full.verdict()
    if d <= 3:
        assert verdict.witness == _brute_first_degenerate(by_cells)
    # vertices against the full-resolution scan
    points = [(pc.point, pc.cone.mask) for pc in vertices(P)]
    assert points == [(point, mask) for point, mask, _prof in full.vertex_entries()]
    assert volume(P, VolumeMethod.VOXEL_COUNT) == len(cells)
    cubical = euler(P, EulerMethod.CUBICAL_COMPLEX)
    assert cubical == euler(by_cells, EulerMethod.CUBICAL_COMPLEX)
    if not verdict:
        for formula in (
            vertex_census,
            skeleton,
            lambda Q: volume(Q, VolumeMethod.MU_SUM),
            lambda Q: volume(Q, VolumeMethod.DETERMINANTAL),
            lambda Q: euler(Q, EulerMethod.SIGMA_SUM),
        ):
            with pytest.raises(NotGenericError) as info:
                formula(P)
            assert info.value.witness == verdict.witness
        return
    by_class, by_mu = {}, {}
    for _point, mask, prof in full.vertex_entries():
        mu_d = orthant_counts(OrthantSet(d, mask))[0]
        by_class[prof.class_key] = by_class.get(prof.class_key, 0) + 1
        by_mu[mu_d] = by_mu.get(mu_d, 0) + 1
    census = vertex_census(P)
    assert census.by_class == by_class and census.by_mu == by_mu
    assert volume(P) == volume(P, VolumeMethod.DETERMINANTAL) == len(cells)
    assert volume(P) == _reference_mu_sum(scan)
    assert euler(P) == cubical
    assert skeleton(P) == _reference_skeleton(P)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_vertex_grid_verdict_matches_the_full_resolution_scan(data):
    # the verdict reads only the vertex grid; the full-resolution oracle
    # searches every position, so a degenerate cone the vertex grid missed
    # would show as a generic verdict here
    P = _contact_union(data, 5)
    assert check_generic(P) == _FullScan(P).verdict()


def test_witness_is_the_first_degenerate_position_of_the_full_grid():
    # corners from range(k) with 1-6 boxes, so boxes touch along faces,
    # edges and corners; the witness is read off the vertex grid and must
    # still be the first degenerate position of the full-resolution scan
    rng = random.Random(4100)
    plan = {1: (6, 40), 2: (6, 100), 3: (5, 60), 4: (4, 60), 5: (3, 40), 6: (3, 10)}
    for d, (k, count) in plan.items():
        degenerate = 0
        for _ in range(count):
            boxes = []
            for _ in range(rng.randint(1, 6)):
                spans = [sorted(rng.sample(range(k), 2)) for _ in range(d)]
                boxes.append((tuple(a for a, _b in spans), tuple(b for _a, b in spans)))
            P = from_boxes(d, boxes)
            verdict = check_generic(P)
            assert verdict == _FullScan(P).verdict(), (d, boxes)
            degenerate += not verdict
        assert degenerate >= (0 if d == 1 else 1 if d == 2 else count // 6), d


def _pair_axis(codes, table, j):
    """Dense reference of one vertex-scan axis pass, on codes into
    ``table`` at every position: each edge of axis j gets the pair code
    hi * K + lo of the slabs beside it, and the pairs found are coded in
    pair order, as the library's run passes code them."""
    k = len(table)
    head = (slice(None),) * j
    pair = codes[head + (slice(1, None),)].astype(np.intp)
    pair *= k
    pair += codes[head + (slice(None, -1),)]
    used, out = lattice._hash_cons(pair, k * k)
    shift = 1 << j
    return out, [(table[p // k] << shift) | table[p % k] for p in used.tolist()]


def _assert_runs_match_dense_passes(P):
    """With the dense presence table and with its ``np.unique`` fallback,
    the run scan of ``P`` equals one dense ``_pair_axis`` pass per axis
    over the slab occupancy: the mask table, the expanded codes (values
    and dtype), the vertex entries, the verdict and the witness; and its
    runs are the maximal runs of the dense codes along the last axis."""
    for limit in (lattice._PAIR_TABLE_LIMIT, 0):
        with mock.patch.object(lattice, "_PAIR_TABLE_LIMIT", limit):
            scan = lattice._Scan(P)
            codes, table = lattice._occupancy(P, scan.edges).view(np.int8), [0, 1]
            for j in range(P.dim):
                codes, table = _pair_axis(codes, table, j)
            verdict = check_generic(from_boxes(P.dim, P.boxes))
        assert scan.vertex_masks == table, P.boxes
        assert scan.vertex_runs[1].dtype == codes.dtype
        assert np.array_equal(_vertex_codes(scan), codes), P.boxes
        keys = _run_starts(codes)
        assert np.array_equal(scan.vertex_runs[0], keys)
        assert np.array_equal(scan.vertex_runs[1], codes.reshape(-1)[keys])
        vertex = np.array([m in scan.profiles for m in table], dtype=bool)
        pos = np.argwhere(vertex[codes])
        entries = [
            (tuple(int(scan.edges[j][i + 1]) for j, i in enumerate(p)), table[c])
            for p, c in zip(pos.tolist(), codes[tuple(pos.T)].tolist())
        ]
        assert [(p, m) for p, m, _prof in scan.vertex_entries] == entries
        assert all(prof is scan.profiles[m] for _p, m, prof in scan.vertex_entries)
        witness = next((p for p, m in entries if scan.profiles[m].degenerate), None)
        assert verdict == Genericity(witness is None, witness)


@pytest.mark.parametrize("dim", sorted(_CONTACT_POOLS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_run_scan_matches_dense_passes_on_contact_unions(dim, data):
    _assert_runs_match_dense_passes(_contact_union(data, dim))


def test_run_scan_matches_dense_passes_on_cubes_and_generic_unions():
    models = [unit_cube(d) for d in range(1, 11)]
    models += [from_boxes(d, []) for d in (1, 2, 3)]
    models += [random_generic(d, n, 4 * n + 10, 1) for d, n in ((2, 300), (3, 30), (4, 6), (5, 3))]
    # boxes at both ends of the coordinate range, where the padded edges
    # reach the ends of int64: touching at the low end, overlapping at the
    # high end, and spanning the whole range
    a, b = lattice._COORDINATE_RANGE
    models += [
        from_boxes(1, [((a,), (a + 2,)), ((a + 2,), (a + 5,))]),
        from_boxes(1, [((a,), (a + 2,)), ((b - 5,), (b - 1,)), ((b - 3,), (b,))]),
        from_boxes(1, [((a,), (b,)), ((a + 1,), (a + 3,)), ((b - 1,), (b,))]),
        from_boxes(2, [((a, a), (a + 2, a + 3)), ((a + 2, a + 1), (a + 4, a + 2))]),
        from_boxes(2, [((a, a), (a + 2, a + 2)), ((a + 2, a + 2), (a + 3, a + 4))]),
        from_boxes(2, [((b - 4, b - 4), (b, b - 1)), ((b - 3, b - 2), (b - 1, b))]),
        from_boxes(2, [((a, 0), (b, 2)), ((0, a), (1, b)), ((b - 2, b - 3), (b, b))]),
    ]
    for P in models:
        _assert_runs_match_dense_passes(P)


def _assert_each_pass_matches_its_dense_pass(P):
    """With the dense presence table and with its ``np.unique`` fallback,
    every axis pass of the run scan of ``P`` equals that axis's
    ``_pair_axis`` pass: the mask table, the code dtype, and the runs,
    expanded over the partly paired grid and read as its maximal runs along
    the last axis."""
    passes, original = [], lattice._pair_rows

    def record(*args):
        passes.append(original(*args))
        return passes[-1]

    for limit in (lattice._PAIR_TABLE_LIMIT, 0):
        passes.clear()
        with mock.patch.object(lattice, "_PAIR_TABLE_LIMIT", limit):
            with mock.patch.object(lattice, "_pair_rows", record):
                scan = lattice._Scan(P)
            codes, table = lattice._occupancy(P, scan.edges).view(np.int8), [0, 1]
            assert len(passes) == P.dim, P.boxes
            for j, (keys, runs, entries) in enumerate(passes):
                codes, table = _pair_axis(codes, table, j)
                assert [entry[0] for entry in entries] == table, (j, P.boxes)
                assert runs.dtype == codes.dtype, (j, P.boxes)
                lengths = lattice._run_ends(keys, codes.size) - keys
                assert np.array_equal(np.repeat(runs, lengths), codes.reshape(-1)), (j, P.boxes)
                assert np.array_equal(keys, _run_starts(codes)), (j, P.boxes)


def test_every_run_pass_matches_its_dense_pass():
    # each pass drops the positions that pair padding with padding, so it
    # numbers the partly paired grid as the dense pass does
    models = [unit_cube(d) for d in range(1, 9)]
    models += [from_boxes(d, []) for d in (1, 2, 3)]
    models += [random_generic(d, n, 4 * n + 10, 1) for d, n in ((2, 40), (3, 12), (4, 5), (5, 3))]
    models += [_crossing_stripes(20), from_boxes(3, [((0, 1, 2), (3, 5, 4))])]
    for P in models:
        _assert_each_pass_matches_its_dense_pass(P)


def _assert_carried_counts_are_orthant_counts(P):
    """With the dense presence table and with its ``np.unique`` fallback,
    every table entry of every axis pass of the scan of ``P`` carries the
    ``orthant_counts`` of its mask over the axes paired so far, and the
    scan keeps the last pass's as int64 arrays by code."""
    passes, original = [], lattice._pair_rows

    def record(*args):
        passes.append(original(*args))
        return passes[-1]

    for limit in (lattice._PAIR_TABLE_LIMIT, 0):
        passes.clear()
        with mock.patch.object(lattice, "_PAIR_TABLE_LIMIT", limit):
            with mock.patch.object(lattice, "_pair_rows", record):
                scan = lattice._Scan(P)
        assert len(passes) == P.dim, P.boxes
        for j, (_keys, _codes, table) in enumerate(passes):
            counts = [orthant_counts(OrthantSet(j + 1, entry[0])) for entry in table]
            assert [tuple(entry[4:]) for entry in table] == counts, (j, P.boxes)
        assert scan.vertex_mu.dtype == scan.vertex_tau.dtype == np.int64
        carried = zip(scan.vertex_mu.tolist(), scan.vertex_tau.tolist())
        assert list(carried) == counts, P.boxes


def test_carried_counts_are_orthant_counts():
    # mu_d and tau_d compose along each pass as mu(hi) + mu(lo) and
    # tau(hi) - tau(lo); checked against the direct count on cubes, generic
    # unions, touching unions with witnesses and crossing stripes
    rng = random.Random(2700)
    models = [unit_cube(d) for d in range(1, 13)]
    models += [random_generic(d, n, 4 * n + 10, 1) for d, n in ((2, 40), (3, 12), (4, 5), (5, 3))]
    touching = [_random_touching_union(rng, _POOLS[d], 3) for d in range(1, 8) for _ in range(3)]
    assert sum(not check_generic(P) for P in touching) >= 5
    models += touching + [_crossing_stripes(20)]
    for P in models:
        _assert_carried_counts_are_orthant_counts(P)
    # what is read off the int64 arrays leaves as Python ints and Fractions
    P = random_generic(3, 8, 42, 1)
    census, graph = vertex_census(P), skeleton(P)
    read = [t for _p, t in lattice._scan_for(P).signed_vertices + graph.nodes]
    read += [*census.by_mu, *census.by_mu.values()]
    assert read and all(type(v) is int for v in read)
    for method in VolumeMethod:
        value = volume(P, method)
        assert (type(value), type(value.numerator), type(value.denominator)) == (Fraction, int, int)


def test_a_vertex_run_longer_than_one_point_is_refused(monkeypatch):
    # a cone with every axis essential differs from both of its neighbours
    # along the last axis, so its run is one point; dropping the run after
    # a vertex widens it
    scan = lattice._Scan(random_generic(3, 6, 30, seed=1))
    keys, codes = scan.vertex_runs
    vertex = [m in scan.profiles for m in scan.vertex_masks]
    first = next(i for i, c in enumerate(codes.tolist()) if vertex[c])
    wide = (np.delete(keys, first + 1), np.delete(codes, first + 1))
    monkeypatch.setattr(scan, "vertex_runs", wide)
    with pytest.raises(ConsistencyError, match="longer than one point"):
        scan.vertex_entries


def _assert_class_profile_is_direct(d, mask):
    """For a nonempty mask, the profile ``_mask_profile`` derives from its
    sign class equals direct recognition of the mask itself in every field,
    the diagram or cylinder included, and a vertex's edge directions are
    those of its diagram; returns that profile."""
    signs = _axis_signs(d, mask)
    neg = sum(1 << (a - 1) for a, s in signs.items() if s < 0)
    mixed = sum(1 << (a - 1) for a, s in signs.items() if s == 0)
    derived = lattice._mask_profile(d, mask, neg, mixed)
    direct = lattice._class_profile(d, mask)
    assert derived._asdict() == direct._asdict(), (d, mask)
    if direct.is_vertex:
        toward = tuple(edge_direction(direct.floral, a) for a in range(1, d + 1))
        assert derived.toward == toward, (d, mask)
    return direct


def _face_cones_met(d, found):
    """Assert that ``found``, nonempty masks with their profiles, holds
    face cones with one and with two free axes wherever ``d`` leaves room
    for an essential axis beside them: floral ones with a negative literal
    and degenerate ones not unate in some axis."""
    for free in (1, 2):
        faces = {m: p for m, p in found.items() if p.degree == free}
        floral = [p.floral for p in faces.values() if not p.degenerate]
        assert (d > free) == any(isinstance(c, Cylinder) and c.diagram.neg for c in floral)
        unate = {m: 0 not in _axis_signs(d, m).values() for m in faces}
        assert (d > free + 1) == any(p.degenerate and not unate[m] for m, p in faces.items())


def test_sign_class_profiles_match_direct_recognition_up_to_dimension_four():
    for d in range(1, 5):
        found = {m: _assert_class_profile_is_direct(d, m) for m in range(1, 1 << (1 << d))}
        assert {prof.degree for prof in found.values()} == set(range(d + 1))
        _face_cones_met(d, found)
        found = {m: prof for m, prof in found.items() if prof.degree == 0}
        # floral masks are met, from d = 2 masks not unate in some axis, and
        # from d = 3 unate ones that are not read-once, such as majority
        assert any(prof.is_vertex for prof in found.values())
        unate = {m: 0 not in _axis_signs(d, m).values() for m in found}
        assert (d >= 2) == any(p.degenerate and not unate[m] for m, p in found.items())
        assert (d >= 3) == any(p.degenerate and unate[m] for m, p in found.items())


def test_sign_class_profiles_match_direct_recognition_in_dimensions_5_to_8():
    rng = random.Random(4200)
    for d in range(5, 9):
        masks = [
            orthants_of(_random_signed(rng, list(range(1, d + 1))), d).mask
            for _ in range(12)
        ]
        masks += _oracle_masks(rng, d) + [rng.getrandbits(1 << d) for _ in range(4)]
        # cylinders over one or two free axes, floral and of a parity
        for free in (1, 2):
            labels = rng.sample(range(1, d + 1), d - free)
            for _ in range(6):
                masks.append(orthants_of(_random_signed(rng, labels), d).mask)
            half = (_half_space_mask(d, a - 1, True) for a in labels)
            masks.append(functools.reduce(operator.xor, half))
        found = {m: _assert_class_profile_is_direct(d, m) for m in masks}
        _face_cones_met(d, found)
        vertices_met = [p for p in found.values() if p.degree == 0 and p.is_vertex]
        assert len(vertices_met) >= 12 and any(p.floral.neg for p in vertices_met)
        # a unate cone that is not read-once mirrors to a degenerate class
        assert any(
            p.degree == 0 and p.degenerate and 0 not in _axis_signs(d, m).values()
            for m, p in found.items()
        ), d


def test_every_floral_member_evaluates_back_to_its_mask():
    # a member's diagram is derived from its sign class, not checked against
    # its mask when it is built; here every floral one is, on the cubes,
    # whose corners mirror one class, and on unions of the benchmark's sizes
    models = [unit_cube(d) for d in range(1, 13)]
    models += [random_generic(d, n, 4 * n + 10, 1) for d, n in ((2, 355), (3, 28), (4, 7))]
    lattice._mask_profile.cache_clear()
    for P in models:
        profiles = lattice._Scan(P).profiles
        floral = {m: prof.floral for m, prof in profiles.items() if not prof.degenerate}
        assert len(floral) >= 2, P.dim
        for mask, diagram in floral.items():
            assert orthants_of(diagram, P.dim).mask == mask, (P.dim, mask)


def test_scan_recognizes_only_sign_class_representatives(monkeypatch):
    recognized = []
    original = lattice._recognize

    def counting(orthants):
        recognized.append(orthants)
        return original(orthants)

    monkeypatch.setattr(lattice, "_recognize", counting)

    def clear_caches():
        lattice._mask_profile.cache_clear()
        lattice._class_profile.cache_clear()
        recognized.clear()

    clear_caches()
    # the cube's 2^8 corners are one sign class, its positive orthant
    body, code = cli._report(unit_cube(8))
    assert code == 0 and body["census_by_class"] and len(recognized) == 1
    assert recognized[0] == OrthantSet(8, 1 << 255)
    recognized.clear()
    scan = lattice._Scan(random_generic(5, 8, 42, seed=1))
    assert len(scan.profiles) < len(scan.vertex_masks)  # cylinders were met
    assert 0 < len(recognized) < len(scan.profiles)
    assert all(len(orthants.essential_axes()) == 5 for orthants in recognized)
    # face_poset, its scan included, recognizes each sign class of its
    # faces' cones once, on the monotone mirror of its members
    for P in (random_generic(3, 6, 20, seed=2), random_generic(4, 4, 12, seed=1)):
        clear_caches()
        cones = {f.representative.cone for f in face_poset(P).faces}
        classes = set()
        for cone in cones:
            signs = _axis_signs(P.dim, cone.mask)
            mirror = [
                tuple(-x if signs.get(a) == -1 else x for a, x in enumerate(m, 1))
                for m in cone.members()
            ]
            classes.add(OrthantSet.from_signs(P.dim, mirror))
        assert len(recognized) == len(set(recognized)) and set(recognized) == classes
        assert len(classes) < len(cones)


def test_equality_hash_and_cell_count_never_recognize(monkeypatch, q_solid):
    def refuse(orthants):
        raise AssertionError(f"recognized {orthants}")

    monkeypatch.setattr(lattice, "_recognize", refuse)
    lattice._mask_profile.cache_clear()
    lattice._class_profile.cache_clear()
    for model in (unit_cube(8), random_generic(3, 6, 20, seed=2), q_solid):
        P, Q = (from_boxes(model.dim, model.boxes) for _ in range(2))
        assert P == Q and hash(P) == hash(Q)
        assert P != from_boxes(model.dim, model.boxes[1:] or [((0,) * model.dim, (2,) * model.dim)])
        assert P.cell_count() == volume(P, VolumeMethod.VOXEL_COUNT) == len(model.cells)
    with pytest.raises(AssertionError, match="recognized"):
        check_generic(P)


def test_scan_over_budget_raises_before_allocating(monkeypatch):
    boxes = [((0, 0, 0), (2, 2, 1)), ((1, 1, 1), (3, 3, 2))]
    P = from_boxes(3, boxes)
    monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", 100)

    def allocate(*_args):
        raise AssertionError("the occupancy was allocated over budget")

    monkeypatch.setattr(lattice, "_occupancy", allocate)
    for run in (check_generic, face_poset):
        with pytest.raises(lattice.ScanTooLargeError) as info:
            run(P)
    assert not isinstance(info.value, ValueError)
    assert info.value.positions == 9 * 9 * 7
    # the first charge is the occupancy's 5 * 5 * 4 slabs, not the full grid
    assert info.value.estimate == lattice._first_bytes(5 * 5 * 4, 0, 2) > 100
    assert str(info.value.estimate) in str(info.value)
    assert P._scan is None


def test_mask_bits_over_the_limit_are_refused_before_allocating(monkeypatch):
    def allocate(*_args):
        raise AssertionError("the occupancy was allocated past the mask-bit limit")

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_occupancy", allocate)
        # a nonempty model has 2^d corner masks of 2^d bits each: the d=15
        # cube is refused on those alone, before anything is allocated
        P = from_boxes(15, [((0,) * 15, (1,) * 15)])
        with pytest.raises(lattice.ScanTooLargeError) as info:
            check_generic(P)
        assert info.value.estimate == 1 << 30 > lattice._MASK_BIT_LIMIT
        assert info.value.positions == 5**15 and "1073741824 mask bits" in str(info.value)
        assert P._scan is None
    monkeypatch.setattr(lattice, "_MASK_BIT_LIMIT", 4**4 - 1)
    with pytest.raises(lattice.ScanTooLargeError):
        check_generic(unit_cube(4))
    assert check_generic(unit_cube(3))
    assert check_generic(from_boxes(4, []))  # no corners, only the exterior


def test_equality_and_hash_are_charged_before_they_allocate(monkeypatch):
    P = random_generic(3, 40, 170, seed=1)
    (lo, hi), *rest = P.boxes
    cut = (lo[0] + hi[0]) // 2
    halves = [(lo, (cut,) + hi[1:]), ((cut,) + lo[1:], hi)]
    Q = from_boxes(3, halves + rest)  # the same point set in other boxes
    assert Q.boxes != P.boxes and P == Q and hash(P) == hash(Q)
    assert P != random_generic(3, 40, 170, seed=2)
    # equality and hash build the scan, charged first on its occupancy
    slabs = math.prod(len(e) - 1 for e in lattice._slab_edges(P))
    first = lattice._first_bytes(slabs, 0, len(P.boxes))
    monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", first - 1)
    fresh = [from_boxes(3, P.boxes) for _ in range(2)]
    tracemalloc.start()
    try:
        for compare, X in zip((hash, lambda X: X == Q), fresh):
            with pytest.raises(lattice.ScanTooLargeError) as info:
                compare(X)
            assert info.value.estimate == first
            assert X._scan is None
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < slabs / 20


def _crossing_stripes(count):
    """``count`` stripes along each axis of the plane, crossing: about half
    the slabs start a run along the last axis, and every vertex-grid
    position starts one."""
    span = 4 * count + 4
    boxes = [((4 * i + 1, 0), (4 * i + 2, span)) for i in range(count)]
    boxes += [((0, 4 * i + 1), (span, 4 * i + 2)) for i in range(count)]
    return from_boxes(2, boxes)


def _record_charges(monkeypatch, name="_run_bytes"):
    """The estimates the budget function ``name`` gives from now on, in
    call order."""
    charges = []
    charge = getattr(lattice, name)

    def record(*args):
        charges.append(charge(*args))
        return charges[-1]

    monkeypatch.setattr(lattice, name, record)
    return charges


def _traced_peak(run, *args):
    """The result of ``run(*args)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = run(*args)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _scan_peaks(P):
    """A fresh scan of ``P`` and the traced peak bytes of building it, with
    the mask-profile cache filled first."""
    lattice._Scan(P)
    return _traced_peak(lattice._Scan, P)


def _face_runs(scan):
    """The steps of ``face_poset`` that hold runs: the full grid's runs,
    charged once more before they are labelled, and their regions."""
    keys, codes, masks = lattice._full_runs(scan)
    lattice._check_budget(scan.shape, lattice._face_bytes(len(keys)))
    return lattice._run_regions(keys, codes, scan.shape, masks.index(0))


def test_scan_peak_matches_its_estimate(monkeypatch):
    # the run scan, all that a generic analyze builds, is charged on its
    # occupancy and the occupancy's runs, then on its runs and stretches
    # before each pass; it peaked at 0.92, 0.77 and 0.75 of its largest
    # charge on these models, and under 0.2 of what composing the dense
    # full grid needed
    runs = _record_charges(monkeypatch)
    first = _record_charges(monkeypatch, "_first_bytes")
    for args in ((2, 300, 1210, 1), (3, 30, 130, 1), (4, 6, 34, 1)):
        first.clear()
        runs.clear()
        scan, peak = _scan_peaks(random_generic(*args))
        charge = max(first + runs)
        assert 0.7 * charge <= peak <= charge, args
        assert peak < 0.3 * _full_grid_bytes(scan.shape), args
        assert charge < _full_grid_bytes(scan.shape), args


def test_run_scan_peak_matches_the_charge_of_its_passes(monkeypatch):
    # on crossing stripes the run passes, not the occupancy, set the peak:
    # 0.75 of their largest charge with the presence table and 0.76 with
    # np.unique, each charge 4.4 and 4.9 times a dense full grid's estimate
    charges = _record_charges(monkeypatch)
    P = _crossing_stripes(150)
    for limit in (lattice._PAIR_TABLE_LIMIT, 0):
        monkeypatch.setattr(lattice, "_PAIR_TABLE_LIMIT", limit)
        charges.clear()
        scan, peak = _scan_peaks(P)
        assert len(scan.vertex_runs[0]) == math.prod(scan.vertex_shape)
        assert max(charges) > 4 * _full_grid_bytes(scan.shape), limit
        assert 0.7 * max(charges) <= peak <= max(charges), limit


def test_each_run_pass_peaks_within_its_own_charge(monkeypatch):
    # a pass is charged on its runs and its stretches, not on the largest
    # pass: every pass's traced peak, what the scan already holds included,
    # stays under the charge made just before it
    charges, peaks = _record_charges(monkeypatch), []
    original = lattice._pair_rows

    def traced(*args):
        tracemalloc.reset_peak()
        result = original(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return result

    models = [_crossing_stripes(150)]
    models += [random_generic(*args) for args in ((2, 300, 1210, 1), (3, 30, 130, 1), (4, 6, 34, 1))]
    for limit in (lattice._PAIR_TABLE_LIMIT, 0):
        monkeypatch.setattr(lattice, "_PAIR_TABLE_LIMIT", limit)
        for P in models:
            lattice._Scan(P)
            charges.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lattice, "_pair_rows", traced)
                peaks.clear()
                _traced_peak(lattice._Scan, P)
            assert len(peaks) == len(charges) == P.dim, (limit, P.dim)
            assert all(peak <= charge for peak, charge in zip(peaks, charges)), (limit, P.boxes[:2])


def test_occupancy_of_many_boxes_stays_within_the_run_charge(monkeypatch):
    # a 400 x 400 checkerboard of 80,000 unit boxes: converting them all to
    # Python lists at once peaked at 1.66 times the largest run-pass charge
    charges = _record_charges(monkeypatch)
    P = from_cells(2, [(x, y) for x in range(400) for y in range(400) if (x + y) % 2 == 0])
    assert len(P.boxes) == 80_000
    _scan, peak = _scan_peaks(P)
    assert peak <= max(charges)


def test_runs_over_budget_are_refused_before_their_pass(monkeypatch):
    P = _crossing_stripes(60)
    charges = _record_charges(monkeypatch)
    shape = lattice._Scan(P).shape
    need = max(charges)
    monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", need - 1)
    slabs = math.prod((n + 1) // 2 for n in shape)
    assert lattice._first_bytes(slabs, 0, len(P.boxes)) < need - 1  # the slabs alone would pass
    charges.clear()
    # the traced peak when each pass is charged, before it allocates
    charge, peaks = lattice._run_bytes, []
    monkeypatch.setattr(
        lattice,
        "_run_bytes",
        lambda *args: peaks.append(tracemalloc.get_traced_memory()[1]) or charge(*args),
    )
    tracemalloc.start()
    try:
        with pytest.raises(lattice.ScanTooLargeError) as info:
            check_generic(P)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.positions == math.prod(shape)
    assert info.value.estimate == need == charges[-1]
    assert peak == peaks[-1]  # the refused pass allocated nothing
    assert P._scan is None

    # face_poset charges the full grid's first axis on the vertex runs the
    # scan found, before that axis allocates
    P = random_generic(2, 40, 170, seed=1)
    scan = lattice._scan_for(P)
    estimate = lattice._face_bytes(len(scan.vertex_runs[0]))
    monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", estimate - 1)
    assert check_generic(P)
    charge, peaks = lattice._face_bytes, []
    monkeypatch.setattr(
        lattice,
        "_face_bytes",
        lambda runs: peaks.append(tracemalloc.get_traced_memory()[1]) or charge(runs),
    )
    tracemalloc.start()
    try:
        with pytest.raises(lattice.ScanTooLargeError) as info:
            face_poset(P)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.estimate == estimate > charge(0)
    # nothing but the error itself was allocated after the charge
    assert len(peaks) == 1 and peak < peaks[0] + 2048


def test_label_bound_covers_the_labelling_peak(monkeypatch):
    # face_poset's steps on runs, the full grid's axes and the labelling,
    # are charged on the runs they read; the peak was 0.62 to 0.86 of the
    # largest charge, the labelling's, on these models
    charges = _record_charges(monkeypatch, "_face_bytes")
    models = ((4, 6, 34, 1), (3, 10, 50, 1), (3, 30, 130, 1), (2, 300, 1210, 1))
    for args in models + ((5, 3, 9, 1), (6, 2, 5, 1)):
        scan = lattice._Scan(random_generic(*args))
        charges.clear()
        _regions, peak = _traced_peak(_face_runs, scan)
        assert len(charges) == scan.dim + 1 and max(charges) == charges[-1]
        assert charges[0] < charges[-1]  # on the vertex runs, then on the full grid's
        assert charges[-1] / 2 <= peak <= charges[-1], args


def test_face_poset_refuses_a_labelling_over_budget(monkeypatch):
    # each step of face_poset on runs is charged before it allocates, and
    # the charges grow step by step: with the limit just under a step's
    # charge, the steps before it run and that one allocates nothing
    P = random_generic(3, 10, 50, seed=1)
    scan = lattice._scan_for(P)
    charges = _record_charges(monkeypatch, "_face_bytes")
    face_poset(P)
    steps = list(charges)
    assert len(steps) == P.dim + 1 and all(a < b for a, b in zip(steps, steps[1:]))
    charge, peaks = lattice._face_bytes, []
    monkeypatch.setattr(
        lattice,
        "_face_bytes",
        lambda runs: peaks.append(tracemalloc.get_traced_memory()[1]) or charge(runs),
    )
    for k, need in enumerate(steps):
        monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", need - 1)
        charges.clear()
        peaks.clear()
        tracemalloc.start()
        try:
            with pytest.raises(lattice.ScanTooLargeError) as info:
                face_poset(P)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.positions == math.prod(scan.shape)
        assert info.value.estimate == need and charges == steps[: k + 1]
        assert peak < peaks[-1] + 2048  # the refused step allocated only the error


def test_face_poset_charges_its_output_before_building_it(monkeypatch):
    # crossing stripes have 182,401 faces against about 33 MB of runs: a
    # limit that admits every charge on runs refuses the faces, before the
    # first Face is built
    charges = {
        name: _record_charges(monkeypatch, name)
        for name in ("_first_bytes", "_run_bytes", "_face_bytes")
    }
    output, charge = [], lattice._output_bytes

    class Counted(Exception):
        pass

    def count(*args):
        output.append(charge(*args))
        raise Counted

    monkeypatch.setattr(lattice, "_output_bytes", count)
    with pytest.raises(Counted):
        face_poset(_crossing_stripes(150))
    limit = max(max(c) for c in charges.values())
    need = charges["_face_bytes"][-1] + output[0]
    assert need > limit

    def refuse(*_args):
        raise AssertionError("a Face was built over budget")

    monkeypatch.setattr(lattice, "_output_bytes", charge)
    monkeypatch.setattr(lattice, "Face", refuse)
    monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", limit)
    with pytest.raises(lattice.ScanTooLargeError) as info:
        face_poset(_crossing_stripes(150))
    assert info.value.estimate == need
    monkeypatch.undo()
    # with its run tables the charge covers the traced peak: 0.47 to 0.87
    # of it on these models
    labelling = _record_charges(monkeypatch, "_face_bytes")
    output = _record_charges(monkeypatch, "_output_bytes")
    for args in ((2, 300, 1210, 1), (3, 10, 50, 1), (4, 6, 34, 1), (5, 3, 9, 1)):
        P = random_generic(*args)
        lattice._scan_for(P).profiles
        _faces, peak = _traced_peak(face_poset, P)
        assert peak <= labelling[-1] + output[-1], args


def test_cubical_euler_peak_stays_under_the_scan_estimate():
    P = random_generic(3, 30, 130, seed=1)
    scan = lattice._scan_for(P)
    tracemalloc.start()
    try:
        chi = euler(P, EulerMethod.CUBICAL_COMPLEX)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _full_grid_bytes(scan.shape)
    assert chi == euler(P)


def test_cubical_euler_is_charged_before_its_grid(monkeypatch):
    for P in (unit_cube(5), random_generic(3, 30, 130, seed=1)):
        sizes = tuple(2 * len(e) - 1 for e in lattice._slab_edges(P))
        tracemalloc.start()
        try:
            chi = euler(P, EulerMethod.CUBICAL_COMPLEX)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chi == euler(P)
        assert peak <= lattice._cubical_bytes(sizes)

    # a limit the scan fits under and the cubical grid does not
    P = unit_cube(5)
    charges = []
    original = lattice._check_budget
    monkeypatch.setattr(
        lattice, "_check_budget", lambda shape, est: (charges.append(est), original(shape, est))
    )
    lattice._Scan(P)
    sizes = tuple(2 * len(e) - 1 for e in lattice._slab_edges(P))
    cubical = lattice._cubical_bytes(sizes)
    assert max(charges) < cubical
    monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", (max(charges) + cubical) // 2)
    assert check_generic(P)
    tracemalloc.start()
    try:
        with pytest.raises(lattice.ScanTooLargeError) as info:
            euler(P, EulerMethod.CUBICAL_COMPLEX)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.positions == math.prod(sizes)
    assert info.value.estimate == cubical
    assert peak < math.prod(sizes)  # refused before the grid was allocated
    assert euler(P, EulerMethod.SIGMA_SUM) == 1


def _count_scans(monkeypatch):
    """Record the model of every scan built from now on."""
    built = []
    original = lattice._Scan.__init__

    def counting(self, P):
        built.append(P)
        original(self, P)

    monkeypatch.setattr(lattice._Scan, "__init__", counting)
    return built


def test_analyze_builds_one_scan(monkeypatch):
    P = from_boxes(3, from_cells(3, TORUS_CELLS).boxes)
    built = _count_scans(monkeypatch)
    body, code = cli._report(P)
    assert code == 0 and body["generic"]
    assert built == [P]
    assert P.cell_count() == 28 and volume(P, VolumeMethod.VOXEL_COUNT) == 28
    assert euler(P, EulerMethod.CUBICAL_COMPLEX) == 0
    assert built == [P]


def test_only_face_poset_composes_the_full_grid(monkeypatch, torus):
    """Only ``face_poset`` derives the full doubled grid, as runs, once per
    call.  The witness of a degenerate verdict is read off the vertex grid,
    so neither ``check_generic`` nor the formulas that raise with the
    witness derive it.  On a scan already built, ``face_poset`` peaks under
    a fifth of what composing the dense grid needed."""
    derived = []
    original = lattice._full_runs

    def counting(scan):
        derived.append(scan)
        return original(scan)

    monkeypatch.setattr(lattice, "_full_runs", counting)
    models = [from_boxes(3, torus.boxes), unit_cube(7)] + [
        random_generic(d, 6, 30, seed=1) for d in (1, 2, 3, 4)
    ]
    for P in models:
        body, code = cli._report(P)
        assert code == 0 and body["generic"]
        vertices(P)
        volume(P, VolumeMethod.VOXEL_COUNT)
        euler(P, EulerMethod.CUBICAL_COMPLEX)
    assert derived == []
    P = models[0]
    face_poset(P)
    face_poset(P)
    assert derived == [P._scan] * 2
    Q = from_boxes(
        3, [((0, 0, 0), (2, 2, 1)), ((0, 0, 1), (1, 1, 2)), ((1, 1, 1), (2, 2, 2))]
    )
    witness = check_generic(Q).witness
    assert witness is not None
    body, code = cli._report(Q)
    assert code == cli.EXIT_NOT_GENERIC
    for formula in (vertex_census, skeleton, volume, euler, face_poset):
        with pytest.raises(NotGenericError) as info:
            formula(Q)
        assert info.value.witness == witness
    assert derived == [P._scan] * 2
    # a grid of 4001^2 positions, which the dense grid needed 72 MB for
    P = random_generic(2, 1000, 4010, seed=1)
    face_poset(P)  # fill the mask-profile cache first
    P = from_boxes(2, P.boxes)
    yardstick = _full_grid_bytes(lattice._scan_for(P).shape)
    assert yardstick > 70e6
    _fp, peak = _traced_peak(face_poset, P)
    assert peak < yardstick / 5


def test_face_poset_reuses_the_cached_scan(monkeypatch):
    P = from_cells(3, TORUS_CELLS)
    built = _count_scans(monkeypatch)
    assert check_generic(P)
    cached = P._scan
    assert cached is not None and built == [P]
    face_poset(P)
    assert built == [P]
    assert P._scan is cached


def test_cached_scan_leaves_equality_and_hash_alone():
    P = from_boxes(2, [((0, 0), (3, 2)), ((1, 1), (4, 3))])
    Q = from_boxes(2, [((0, 0), (3, 2)), ((1, 1), (4, 3))])
    R = from_cells(2, P.cells)
    assert check_generic(P)
    assert P._scan is not None and Q._scan is None and R._scan is None
    assert P == Q and Q == P and P == R
    assert hash(P) == hash(Q) == hash(R)


def _canonical_occupancy(P):
    """Equality oracle: the compressed occupancy with every slab equal to
    its neighbour merged away, as (edges, occupancy bytes); ``None`` when
    empty.  What is left has an edge only where the point set changes, so
    two orthotopes of the same dim and scale have the same cells iff these
    agree."""
    if P.is_empty:
        return None
    edges = lattice._slab_edges(P)
    occ = lattice._occupancy(P, edges)
    for j in range(P.dim):
        others = tuple(k for k in range(P.dim) if k != j)
        changed = np.diff(occ, axis=j).any(axis=others)
        occ = occ.compress(np.concatenate(([True], changed)), axis=j)
        edges[j] = edges[j][np.concatenate(([True], changed, [True]))]
    return tuple(tuple(e.tolist()) for e in edges), occ.tobytes()


def _split_one_box(P):
    """``P`` with its first box of width 2 or more on some axis cut in two
    there, or ``None`` when every box is a unit cell."""
    for k, (lo, hi) in enumerate(P.boxes):
        for j in range(P.dim):
            if hi[j] - lo[j] >= 2:
                cut = lo[j] + 1
                halves = [(lo, hi[:j] + (cut,) + hi[j + 1 :]), (lo[:j] + (cut,) + lo[j + 1 :], hi)]
                return from_boxes(P.dim, P.boxes[:k] + tuple(halves) + P.boxes[k + 1 :], P.scale)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_equality_and_hash_agree_with_the_point_set(data):
    dim, k = data.draw(st.integers(1, 4)), data.draw(st.integers(3, 5))
    corners = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True).map(sorted)

    def union():
        boxes = [
            tuple(zip(*(data.draw(corners) for _ in range(dim))))
            for _ in range(data.draw(st.integers(0, 5)))
        ]
        return from_boxes(dim, boxes, scale=data.draw(st.sampled_from((1, 2))))

    P, Q = union(), union()
    same = P.scale == Q.scale and P.cells == Q.cells
    assert same == (P.scale == Q.scale and _canonical_occupancy(P) == _canonical_occupancy(Q))
    assert (P == Q) == same == (Q == P)
    if same:
        assert hash(P) == hash(Q)
    for R in (P, Q):
        if R.is_empty:
            continue
        rebuilt, split = from_cells(dim, R.cells, R.scale), _split_one_box(R)
        assert R == rebuilt and hash(R) == hash(rebuilt)
        if split is not None:
            assert split.boxes != R.boxes and R == split and hash(R) == hash(split)


def test_equality_and_hash_need_no_cells():
    # [0,200)^3 holds 8 million cells, more than P.cells will materialize
    one = from_boxes(3, [((0, 0, 0), (200, 200, 200))])
    two = from_boxes(3, [((0, 0, 0), (120, 200, 200)), ((80, 0, 0), (200, 200, 200))])
    short = from_boxes(3, [((0, 0, 0), (200, 200, 199))])
    assert one == two and hash(one) == hash(two)
    assert one != short
    # they compare the cached scans' signed vertices: the 2^3 corners
    assert one._scan.signed_vertices == two._scan.signed_vertices
    assert len(one._scan.signed_vertices) == 8 and short._scan is not None
    with pytest.raises(TooManyCellsError):
        one.cells
    joined = from_boxes(1, [((0,), (2,)), ((2,), (5,))])
    assert joined == from_boxes(1, [((0,), (5,))]) == from_cells(1, [(c,) for c in range(5)])
    assert joined != from_boxes(1, [((0,), (2,)), ((3,), (5,))])
    assert joined != from_boxes(1, [((0,), (5,))], scale=2)
