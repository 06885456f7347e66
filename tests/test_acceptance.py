"""Acceptance gate: eleven frozen end-to-end checks.

Each test prints exactly one ``criterion NN: PASS`` or ``criterion NN:
FAIL`` line, checks frozen values by exact comparison, and enforces its
stated wall-clock budget.  Nothing here is tolerance-based: volumes,
Euler characteristics, censuses, and distances are exact rationals or
integers.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from orthotopes.arrangement import (
    OrthantSet,
    edge_cross_section,
    edge_direction,
    facet,
    orthants_of,
    recognize,
    residual_cross_section,
)
from orthotopes.cli import load_model
from orthotopes.genericize import distance_to_faces, random_generic, thicken
from orthotopes.lattice import (
    EulerMethod,
    SetOp,
    VolumeMethod,
    check_generic,
    cross_section,
    euler,
    face_poset,
    from_boxes,
    from_cells,
    set_ops,
    sigma_sum,
    skeleton,
    vertex_census,
    volume,
)
from orthotopes.spd import (
    EMPTY,
    FULL,
    TRIVIAL,
    SignedSpd,
    axes,
    bouquet,
    enumerate_shapes,
    format_expr,
    mu,
    parse_expr,
    relabel,
)
from test_lattice import _FullScan

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "torus.json"


def _verdict(num: int, problems: list, elapsed: float, budget: float | None) -> None:
    if budget is not None and elapsed >= budget:
        problems.append(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    print(f"criterion {num}: {'FAIL' if problems else 'PASS'}")
    assert not problems, f"criterion {num}: " + "; ".join(str(p) for p in problems)


def _slice_signs(x, dim: int, dropped: int) -> OrthantSet:
    """Orthant set of a cross-section result whose labels still refer to
    the original axes; labels above the dropped axis shift down by one."""
    if x is FULL:
        return OrthantSet.full(dim)
    if x is EMPTY:
        return OrthantSet.empty(dim)
    if x is TRIVIAL:
        return OrthantSet.full(0)
    mapping = {a: a - 1 for a in axes(x.shape) if a > dropped}
    shifted = SignedSpd(
        relabel(x.shape, mapping), frozenset(mapping.get(a, a) for a in x.neg)
    )
    return orthants_of(shifted, dim)


def _all_signed(d: int):
    for shape in enumerate_shapes(d):
        for bits in itertools.product((False, True), repeat=d):
            neg = frozenset(a for a, b in zip(range(1, d + 1), bits) if b)
            yield SignedSpd(shape, neg)


def _connected(cells) -> bool:
    cells = set(cells)
    if not cells:
        return True
    d = len(next(iter(cells)))
    seen = {next(iter(cells))}
    queue = list(seen)
    while queue:
        cur = queue.pop()
        for j in range(d):
            for step in (-1, 1):
                nxt = cur[:j] + (cur[j] + step,) + cur[j + 1 :]
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return len(seen) == len(cells)


def test_criterion_01_torus_fixture_report():
    t0 = time.monotonic()
    problems = []
    P = load_model(str(FIXTURE))
    if not check_generic(P).generic:
        problems.append("fixture flagged degenerate")
    census = vertex_census(P)
    if census.by_mu != {1: 15, 3: 11, 5: 5, 7: 1}:
        problems.append(f"census {census.by_mu}")
    n = census.by_mu
    if n[1] - n[3] - n[5] + n[7] != 0:
        problems.append("alternating census sum nonzero")
    for method in EulerMethod:
        if euler(P, method) != 0:
            problems.append(f"euler {method.value} != 0")
    for method in VolumeMethod:
        if volume(P, method) != 28:
            problems.append(f"volume {method.value} != 28")
    graph = skeleton(P)
    if len(graph.nodes) != 32:
        problems.append(f"{len(graph.nodes)} skeleton nodes")
    if any(deg != 3 for deg in graph.degrees().values()):
        problems.append("skeleton not 3-regular")
    if not graph.is_bipartite:
        problems.append("skeleton not bipartite")
    _verdict(1, problems, time.monotonic() - t0, 5.0)


def test_criterion_02_facet_golden():
    # Frozen expected output for the facet of the wide example at axis 4,
    # derived by hand from the definition in ``facet``'s docstring: the
    # facet is the part of the cone lying in x_4 = 0, which is the
    # boundary slice, the xor of the two one-sided slices at axis 4.  For
    # f = (((((1|2)&3)|4)&5)|6)&(7|8):
    #   f(x4=+) = (5|6)&(7|8)
    #   f(x4=-) = (((1|2)&3&5)|6)&(7|8)
    #   f(x4=+) xor f(x4=-) = ((~1&~2)|~3)&5&~6&(7|8)
    # The facet lives on all of the other d-1 axes, so axis 3 stays
    # essential.  The same input is checked against the boundary oracle by
    # test_arrangement.py::test_facet_of_wide_example_matches_boundary_oracle,
    # and criterion 6 checks facet against that oracle for every signed
    # shape with d <= 5.
    t0 = time.monotonic()
    problems = []
    golden = parse_expr("((~1&~2)|~3)&5&~6&(7|8)")
    computed = facet(parse_expr("(((((1|2)&3)|4)&5)|6)&(7|8)"), 4)
    if axes(golden.shape) != {1, 2, 3, 5, 6, 7, 8}:
        problems.append(
            f"frozen facet {format_expr(golden)} does not live on axes 1-3, 5-8: "
            f"axes {sorted(axes(golden.shape))}"
        )
    if orthants_of(computed, 8) != orthants_of(golden, 8):
        problems.append(
            f"facet differs from frozen value: computed {format_expr(computed)}, "
            f"frozen {format_expr(golden)}"
        )
    _verdict(2, problems, time.monotonic() - t0, 1.0)


def test_criterion_03_four_dimensional_local_table():
    t0 = time.monotonic()
    problems = []
    table = [
        ("1&2&3&4", 1, 1),
        ("(1|2)&3&4", 3, -1),
        ("((1&2)|3)&4", 5, -1),
        ("(1|2|3)&4", 7, 1),
        ("(1|2)&(3|4)", 9, 1),
        ("(1&2)|(3&4)", 7, -1),
        ("(1&2&3)|4", 9, -1),
        ("((1|2)&3)|4", 11, 1),
        ("(1&2)|3|4", 13, 1),
        ("1|2|3|4", 15, -1),
    ]
    for text, want_mu, want_sigma in table:
        shape = parse_expr(text).shape
        got_mu = mu(shape)
        got_sigma = bouquet(shape).sign
        if (got_mu, got_sigma) != (want_mu, want_sigma):
            problems.append(f"{text}: ({got_mu}, {got_sigma:+d})")
    _verdict(3, problems, time.monotonic() - t0, 1.0)


def test_criterion_04_shape_counts():
    t0 = time.monotonic()
    problems = []
    expected = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624]
    got = [len(enumerate_shapes(d)) for d in range(1, 11)]
    if got != expected:
        problems.append(f"counts {got}")
    _verdict(4, problems, time.monotonic() - t0, 30.0)


def test_criterion_05_recognition_round_trip():
    t0 = time.monotonic()
    problems = []
    for d in range(1, 6):
        for signed in _all_signed(d):
            back = recognize(orthants_of(signed, d))
            if back != signed:
                problems.append(f"{signed} -> {back}")
                break
    _verdict(5, problems, time.monotonic() - t0, 60.0)


def test_criterion_06_cross_section_propositions():
    t0 = time.monotonic()
    problems = []
    for d in range(1, 6):
        for signed in _all_signed(d):
            s = orthants_of(signed, d)
            for axis in range(1, d + 1):
                eps = edge_direction(signed, axis)
                near = s.slice(axis, eps)
                far = s.slice(axis, -eps)
                if _slice_signs(edge_cross_section(signed, axis), d - 1, axis) != near:
                    problems.append(f"edge slice {signed} axis {axis}")
                if _slice_signs(residual_cross_section(signed, axis), d - 1, axis) != far:
                    problems.append(f"residual slice {signed} axis {axis}")
                plus, minus = s.slice(axis, 1), s.slice(axis, -1)
                boundary = OrthantSet(d - 1, plus.mask ^ minus.mask)
                if _slice_signs(facet(signed, axis), d - 1, axis) != boundary:
                    problems.append(f"facet {signed} axis {axis}")
            if problems:
                break
        if problems:
            break
    _verdict(6, problems, time.monotonic() - t0, 120.0)


def test_criterion_07_global_formula_agreement():
    t0 = time.monotonic()
    problems = []
    plans = {
        2: (80, [(10, 24), (6, 16), (12, 30)]),
        3: (80, [(6, 12), (4, 9), (7, 14)]),
        4: (40, [(3, 8), (4, 10), (2, 6)]),
    }
    seed = 0
    checked = 0
    for d, (quota, sizes) in plans.items():
        accepted = 0
        while accepted < quota:
            seed += 1
            count, extent = sizes[seed % len(sizes)]
            P = random_generic(d, count, extent, seed=seed)
            if len(P.cells) > 500:
                continue
            accepted += 1
            checked += 1
            vols = {m: volume(P, m) for m in VolumeMethod}
            if len(set(vols.values())) != 1:
                problems.append(f"seed {seed}: volumes {vols}")
            if euler(P, EulerMethod.SIGMA_SUM) != euler(P, EulerMethod.CUBICAL_COMPLEX):
                problems.append(f"seed {seed}: euler methods disagree")
            lows = [min(lo[j] for lo, _ in P.boxes) for j in range(d)]
            highs = [max(hi[j] for _, hi in P.boxes) for j in range(d)]
            for axis in range(1, d + 1):
                for c in range(lows[axis - 1], highs[axis - 1]):
                    section = cross_section(P, {axis: Fraction(2 * c + 1, 2)})
                    if not check_generic(section).generic:
                        problems.append(f"seed {seed}: axis {axis} at {c}+1/2")
            for f in face_poset(P).faces:
                if f.dim == 0:
                    continue
                if not check_generic(from_cells(f.dim, f.cells, P.scale)).generic:
                    problems.append(f"seed {seed}: face {f.fixed} degenerate")
            if problems:
                break
        if problems:
            break
    if checked < 200 and not problems:
        problems.append(f"only {checked} instances")
    _verdict(7, problems, time.monotonic() - t0, 600.0)


def test_criterion_08_planar_corner_law():
    t0 = time.monotonic()
    problems = []
    simply_connected = 0
    seed = 1000
    while simply_connected < 30 and seed < 1400:
        seed += 1
        P = random_generic(2, 8, 30, seed=seed)
        census = vertex_census(P)
        n1 = census.by_mu.get(1, 0)
        n3 = census.by_mu.get(3, 0)
        chi = euler(P)
        if n1 - n3 != 4 * chi:
            problems.append(f"seed {seed}: n1-n3={n1 - n3}, chi={chi}")
            break
        if chi == 1 and _connected(P.cells):
            simply_connected += 1
            if n1 - n3 != 4:
                problems.append(f"seed {seed}: simply connected but n1-n3={n1 - n3}")
                break
    if simply_connected < 30 and not problems:
        problems.append(f"only {simply_connected} simply-connected instances")
    _verdict(8, problems, time.monotonic() - t0, None)


def test_criterion_09_rigid_degenerate_witness():
    t0 = time.monotonic()
    problems = []
    Q = from_boxes(
        3,
        [((0, 0, 0), (2, 2, 1)), ((0, 0, 1), (1, 1, 2)), ((1, 1, 1), (2, 2, 2))],
    )
    # the library's compressed scan and the test-side full-resolution oracle
    for verdict in (check_generic(Q), _FullScan(Q).verdict()):
        if verdict.generic:
            problems.append("Q reported generic")
        elif verdict.witness != (1, 1, 1):
            problems.append(f"witness {verdict.witness}")
    _verdict(9, problems, time.monotonic() - t0, None)


def test_criterion_10_sign_sum_valuation():
    t0 = time.monotonic()
    problems = []
    pairs = 0
    plans = [(2, 8, 64, 60), (3, 6, 48, 40)]
    seed = 5000
    for d, count, extent, quota in plans:
        done = 0
        while done < quota:
            seed += 1
            whole = random_generic(d, count, extent, seed=seed)
            half = count // 2
            P = from_boxes(d, whole.boxes[:half])
            Q = from_boxes(d, whole.boxes[half:])
            union, gu = set_ops(P, Q, SetOp.UNION)
            meet, gm = set_ops(P, Q, SetOp.INTERSECT)
            if not (check_generic(P).generic and check_generic(Q).generic
                    and gu.generic and gm.generic):
                continue
            done += 1
            pairs += 1
            lhs = sigma_sum(P) + sigma_sum(Q)
            rhs = sigma_sum(union) + sigma_sum(meet)
            if lhs != rhs:
                problems.append(f"seed {seed}: {lhs} != {rhs}")
                break
        if problems:
            break
    if pairs < 100 and not problems:
        problems.append(f"only {pairs} pairs")
    _verdict(10, problems, time.monotonic() - t0, None)


def test_criterion_11_density_construction():
    t0 = time.monotonic()
    problems = []
    rng = random.Random(1187)
    bounds = (Fraction(1), Fraction(1, 2), Fraction(1, 4))

    def random_faces(dim, count, extent):
        out = []
        for _ in range(count):
            corner = tuple(rng.randrange(0, extent) for _ in range(dim))
            spec = tuple(rng.choice((0, 1, None)) for _ in range(dim))
            out.append((corner, spec))
        return out

    plan = []
    for bound in bounds:
        plan.extend((1, 20, 30, bound) for _ in range(5))
    for count in (30, 50):
        for bound in bounds:
            plan.extend((2, count, 10, bound) for _ in range(3))
    for count in (8, 20, 50):
        for bound in bounds:
            plan.extend((3, count, 8, bound) for _ in range(2))
    for dim, count, extent, bound in plan:
        faces = random_faces(dim, count, extent)
        out = thicken(dim, faces, bound)
        verdict = check_generic(out)
        if not verdict.generic:
            problems.append(f"d={dim} n={count} eps={bound}: witness {verdict.witness}")
            break
        dist = distance_to_faces(out, faces)
        if not dist < bound:
            problems.append(f"d={dim} n={count} eps={bound}: distance {dist}")
            break
    _verdict(11, problems, time.monotonic() - t0, None)
