"""Orthant sets, recognition, and the face operations of floral vertices."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signed_spds
from test_spd import _reference_normalize
from orthotopes.arrangement import (
    DEGENERATE,
    Cylinder,
    FloralVertex,
    OrthantSet,
    SetOp,
    _cofactor,
    combine,
    edge_cross_section,
    edge_direction,
    facet,
    orthant_counts,
    orthants_of,
    recognize,
    residual_cross_section,
)
from orthotopes.spd import (
    EMPTY,
    FULL,
    TRIVIAL,
    Leaf,
    Parallel,
    Series,
    SignedSpd,
    _join,
    axes,
    dual,
    edge_count,
    enumerate_shapes,
    format_expr,
    mu,
    normalize,
    parse_expr,
    relabel,
    tau,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _boundary_slice(s: OrthantSet, axis: int) -> OrthantSet:
    """Orthants of the boundary cross-section in the hyperplane x_axis = 0:
    closed boxes inside the set that are limits of outside points, i.e. the
    symmetric difference of the two coordinate slices."""
    plus, minus = s.slice(axis, 1), s.slice(axis, -1)
    return OrthantSet(s.dim - 1, plus.mask ^ minus.mask)


def _is_edge_ray(s: OrthantSet, axis: int, side: int) -> bool:
    """The ray side * e_axis is an edge iff the cross-section there has the
    apex as a vertex: nonempty, proper, with every axis essential."""
    t = s.slice(axis, side)
    if t.is_empty:
        return False
    if t.dim == 0:
        return True
    return not t.is_full and len(t.essential_axes()) == t.dim


def _packed(signed: SignedSpd) -> SignedSpd:
    """Relabel onto 1..k keeping order."""
    labels = sorted(axes(signed.shape))
    mapping = {a: i + 1 for i, a in enumerate(labels)}
    return SignedSpd(
        relabel(signed.shape, mapping), frozenset(mapping[a] for a in signed.neg)
    )


def _slice_signs(x, dim: int, dropped: int) -> OrthantSet:
    """Orthant set in R^dim of a cross-section result (diagram or marker)
    whose labels still refer to the original axes; labels above the dropped
    axis shift down by one."""
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


def _essential_by_slices(s: OrthantSet) -> tuple[int, ...]:
    """Definition of the essential axes: those whose two cross-sections
    differ."""
    return tuple(i for i in range(1, s.dim + 1) if s.slice(i, 1) != s.slice(i, -1))


# The bipartition search that recognized floral sets before read-once
# decomposition on the mask replaced it, kept verbatim as an oracle.


def _factor_once(members: frozenset, positions: tuple[int, ...]):
    """Split a set of 0/1 tuples as a Cartesian product across a bipartition
    of coordinate slots; yields (slots_a, proj_a, slots_b, proj_b)."""
    k = len(positions)
    slots = range(k)
    # the first slot anchors side a; a full side-a pick would leave b empty
    for pick in range((1 << (k - 1)) - 1):
        a = [0] + [j for j in slots if j and (pick >> (j - 1)) & 1]
        b = [j for j in slots if j and not (pick >> (j - 1)) & 1]
        proj_a = frozenset(tuple(t[j] for j in a) for t in members)
        proj_b = frozenset(tuple(t[j] for j in b) for t in members)
        if len(proj_a) * len(proj_b) == len(members):
            yield (tuple(positions[j] for j in a), proj_a, tuple(positions[j] for j in b), proj_b)


def _recognize_core(members: frozenset, positions: tuple[int, ...]) -> SignedSpd | None:
    """Invert the evaluation map on a set with every listed axis essential;
    None when the set is not read-once."""
    if len(positions) == 1:
        ((bit,),) = members
        leaf = Leaf(positions[0])
        return SignedSpd(leaf, frozenset() if bit else frozenset((positions[0],)))
    for slots_a, proj_a, slots_b, proj_b in _factor_once(members, positions):
        left = _recognize_core(proj_a, slots_a)
        if left is None:
            continue
        right = _recognize_core(proj_b, slots_b)
        if right is not None:
            return _join(Series, [left, right])
    complement = frozenset(
        t for t in _all_tuples(len(positions)) if t not in members
    )
    for slots_a, proj_a, slots_b, proj_b in _factor_once(complement, positions):
        left = _recognize_core(proj_a, slots_a)
        if left is None:
            continue
        right = _recognize_core(proj_b, slots_b)
        if right is not None:
            return dual(_join(Series, [left, right]))
    return None


def _all_tuples(k: int):
    for bits in range(1 << k):
        yield tuple((bits >> j) & 1 for j in range(k))


def _recognize_by_bipartition(orthants: OrthantSet):
    """``recognize`` as the bipartition search computed it."""
    if orthants.is_empty:
        return EMPTY
    if orthants.is_full:
        return FULL
    essential = _essential_by_slices(orthants)
    free = tuple(i for i in range(1, orthants.dim + 1) if i not in essential)
    slots = [a - 1 for a in essential]
    members = frozenset(
        tuple(1 if s > 0 else 0 for j, s in enumerate(signs) if j in slots)
        for signs in orthants.members()
    )
    diagram = _recognize_core(members, tuple(essential))
    if diagram is None:
        return DEGENERATE
    if free:
        return Cylinder(free, diagram)
    return diagram


def _random_signed(rng: random.Random, labels: list[int]) -> SignedSpd:
    """Random normal-form signed diagram on exactly the given labels."""

    def build(axs, forbid):
        if len(axs) == 1:
            return Leaf(axs[0])
        kind = {Series: Parallel, Parallel: Series}.get(forbid) or rng.choice((Series, Parallel))
        cuts = sorted(rng.sample(range(1, len(axs)), rng.randint(1, len(axs) - 1)))
        bounds = [0] + cuts + [len(axs)]
        return kind(tuple(build(axs[a:b], kind) for a, b in zip(bounds, bounds[1:])))

    labels = rng.sample(labels, len(labels))
    neg = frozenset(a for a in labels if rng.random() < 0.5)
    return SignedSpd(normalize(build(labels, None)), neg)


# ---------------------------------------------------------------------------
# orthant sets
# ---------------------------------------------------------------------------


def test_orthants_of_examples():
    assert set(orthants_of(parse_expr("1&2"), 2).members()) == {(1, 1)}
    assert set(orthants_of(parse_expr("1|2"), 2).members()) == {(1, 1), (1, -1), (-1, 1)}
    assert set(orthants_of(parse_expr("~1|2"), 2).members()) == {(-1, 1), (-1, -1), (1, 1)}


def test_orthants_of_defaults_and_errors():
    assert orthants_of(parse_expr("1&2")) == orthants_of(parse_expr("1&2"), 2)
    with pytest.raises(ValueError):
        orthants_of(parse_expr("1&3"), 2)


def test_free_axes_make_cylinders():
    s = orthants_of(parse_expr("1|2"), 3)
    assert orthant_counts(s) == (6, 0)
    assert s.essential_axes() == (1, 2)


def test_orthant_counts_examples():
    assert orthant_counts(orthants_of(parse_expr("1&2&3"), 3)) == (1, 1)
    assert orthant_counts(orthants_of(parse_expr("(1|2)&(3|4)"), 4)) == (9, 1)


def test_from_signs_round_trip():
    members = {(1, -1, 1), (-1, -1, -1)}
    s = OrthantSet.from_signs(3, members)
    assert set(s.members()) == members
    assert s.count == 2
    assert all(s.contains(m) for m in members)
    assert not s.contains((1, 1, 1))


def test_complement_and_dimension_checks():
    s = orthants_of(parse_expr("1|2"), 2)
    assert s.complement().complement() == s
    assert combine(s, s.complement(), SetOp.UNION).is_full
    assert combine(s, s.complement(), SetOp.INTERSECT).is_empty
    assert combine(s, None, SetOp.COMPLEMENT) == s.complement()
    with pytest.raises(ValueError):
        combine(s, OrthantSet.empty(3), SetOp.UNION)
    with pytest.raises(ValueError):
        s.slice(3, 1)
    with pytest.raises(ValueError):
        s.slice(1, 0)
    with pytest.raises(ValueError):
        OrthantSet(2, 1 << 16)


@settings(max_examples=80)
@given(signed_spds(max_axes=6), signed_spds(max_axes=6))
def test_counts_obey_inclusion_exclusion(x, y):
    dim = max(max(axes(x.shape)), max(axes(y.shape)))
    a, b = orthants_of(x, dim), orthants_of(y, dim)
    mu_a, tau_a = orthant_counts(a)
    mu_b, tau_b = orthant_counts(b)
    mu_i, tau_i = orthant_counts(a & b)
    mu_u, tau_u = orthant_counts(a | b)
    assert mu_a + mu_b == mu_i + mu_u
    assert tau_a + tau_b == tau_i + tau_u


@settings(max_examples=80)
@given(signed_spds(max_axes=6), st.integers(0, 2))
def test_counts_against_shape_valuations(signed, extra):
    labels = axes(signed.shape)
    dim = max(labels) + extra
    mu_d, tau_d = orthant_counts(orthants_of(signed, dim))
    assert mu_d == (1 << (dim - len(labels))) * mu(signed.shape)
    assert tau_d == (tau(signed) if len(labels) == dim else 0)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


def test_recognize_markers_and_examples():
    assert recognize(OrthantSet.empty(3)) is EMPTY
    assert recognize(OrthantSet.full(3)) is FULL
    assert recognize(OrthantSet.full(0)) is FULL
    assert recognize(OrthantSet.empty(0)) is EMPTY
    corner = OrthantSet.from_signs(3, [(1, 1, 1)])
    assert recognize(corner) == parse_expr("1&2&3")
    pair = OrthantSet.from_signs(3, [(1, 1, 1), (-1, -1, 1)])
    assert recognize(pair) is DEGENERATE


def test_recognize_cylinder():
    s = orthants_of(parse_expr("1|2"), 3)
    got = recognize(s)
    assert isinstance(got, Cylinder)
    assert got.free_axes == (3,)
    assert got.diagram == parse_expr("1|2")
    gap = orthants_of(SignedSpd(relabel(parse_expr("1&2").shape, {2: 3})), 3)
    got = recognize(gap)
    assert got == Cylinder((2,), parse_expr("1&3"))


def test_recognize_round_trip_exhaustive_small():
    for d in range(1, 5):
        for signed in _all_signed(d):
            assert recognize(orthants_of(signed, d)) == signed


def _floral_table(d: int) -> dict:
    """Every proper floral mask in R^d mapped to its recognition result,
    from every signed shape on every nonempty subset of the axes."""
    table: dict = {}
    for k in range(1, d + 1):
        shapes = enumerate_shapes(k)
        for support in itertools.combinations(range(1, d + 1), k):
            free = tuple(a for a in range(1, d + 1) if a not in support)
            for shape in shapes:
                for image in itertools.permutations(support):
                    labeled = relabel(shape, dict(zip(range(1, k + 1), image)))
                    for bits in itertools.product((False, True), repeat=k):
                        neg = frozenset(a for a, b in zip(support, bits) if b)
                        signed = SignedSpd(labeled, neg)
                        want = Cylinder(free, signed) if free else signed
                        mask = orthants_of(signed, d).mask
                        # one normal form per mask
                        assert table.setdefault(mask, want) == want
    return table


def test_recognize_every_mask_up_to_dimension_four():
    for d in range(5):
        table = _floral_table(d)
        full = (1 << (1 << d)) - 1
        for mask in range(full + 1):
            if mask == 0:
                want = EMPTY
            elif mask == full:
                want = FULL
            else:
                want = table.get(mask, DEGENERATE)
            assert recognize(OrthantSet(d, mask)) == want, (d, mask)


def test_cofactors_of_floral_masks_are_floral():
    # The classification scan decides genericity on the vertex grid alone:
    # a slab interior's cone is a one-sided cofactor of the cone at the
    # edge beside it, so no degenerate cone may hide among the cofactors
    # of non-degenerate ones.  Read-once functions are closed under
    # restriction (Golumbic, Mintz and Rotics 2006).
    def cofactors(d, mask):
        for pos in range(d):
            for positive in (False, True):
                yield _cofactor(mask, d, pos, positive)

    checked = 0
    for d in range(1, 5):
        full = (1 << (1 << d)) - 1
        for mask in [0, full, *_floral_table(d)]:
            for cut in cofactors(d, mask):
                assert recognize(OrthantSet(d, cut)) is not DEGENERATE, (d, mask, cut)
            checked += 1
    assert checked == 1260
    rng = random.Random(61)
    for d in range(5, 8):
        for _ in range(40):
            labels = list(range(1, d + 1))
            if rng.random() < 0.3:
                labels.remove(rng.choice(labels))
            mask = orthants_of(_random_signed(rng, labels), d).mask
            for cut in cofactors(d, mask):
                assert recognize(OrthantSet(d, cut)) is not DEGENERATE, (d, mask, cut)


def _oracle_masks(rng: random.Random, d: int) -> list[int]:
    """Masks in R^d for the oracle comparison: floral ones (some with a
    free axis), unions and intersections of two floral masks with the same
    literal signs, unate sums of products, floral masks with one orthant
    toggled, and a uniform random mask."""
    out = []
    for _ in range(10):
        labels = list(range(1, d + 1))
        if rng.random() < 0.3:
            labels.remove(rng.choice(labels))
        out.append(orthants_of(_random_signed(rng, labels), d).mask)
    for _ in range(10):
        a = _random_signed(rng, list(range(1, d + 1)))
        b = _random_signed(rng, list(range(1, d + 1)))
        b = SignedSpd(b.shape, a.neg)
        pair = orthants_of(a, d).mask, orthants_of(b, d).mask
        out.append(pair[0] | pair[1] if rng.random() < 0.5 else pair[0] & pair[1])
    for _ in range(6):
        # a union of three conjunctions of literals with fixed signs, or its
        # complement: unate, and read-once only by accident
        neg = frozenset(a for a in range(1, d + 1) if rng.random() < 0.5)
        mask = 0
        for _ in range(3):
            term = rng.sample(range(1, d + 1), rng.randint(2, d - 1))
            shape = normalize(Series(tuple(Leaf(a) for a in term)))
            mask |= orthants_of(SignedSpd(shape, neg & frozenset(term)), d).mask
        out.append(mask ^ ((1 << (1 << d)) - 1) if rng.random() < 0.5 else mask)
    for _ in range(3):
        floral = orthants_of(_random_signed(rng, list(range(1, d + 1))), d).mask
        out.append(floral ^ (1 << rng.randrange(1 << d)))
    out.append(rng.getrandbits(1 << d))
    return out


def test_recognize_matches_bipartition_search():
    rng = random.Random(20221)
    for d in range(5, 9):
        for mask in _oracle_masks(rng, d):
            s = OrthantSet(d, mask)
            got = recognize(s)
            assert got == _recognize_by_bipartition(s), (d, mask)
            if isinstance(got, Cylinder):
                got = got.diagram
            if isinstance(got, SignedSpd):
                assert _reference_normalize(got.shape) == got.shape


def test_essential_axes_match_slice_definition():
    rng = random.Random(7)
    cases = [OrthantSet(d, m) for d in range(4) for m in range(1 << (1 << d))]
    cases += [OrthantSet(d, m) for d in range(4, 9) for m in _oracle_masks(rng, d)]
    for s in cases:
        assert s.essential_axes() == _essential_by_slices(s), (s.dim, s.mask)


@settings(max_examples=100)
@given(signed_spds(max_axes=6), st.integers(0, 1))
def test_recognize_round_trip(signed, extra):
    labels = axes(signed.shape)
    dim = max(labels) + extra
    got = recognize(orthants_of(signed, dim))
    free = frozenset(range(1, dim + 1)) - labels
    if free:
        assert isinstance(got, Cylinder)
        assert frozenset(got.free_axes) == free
        got = got.diagram
    assert got == signed
    assert _reference_normalize(got.shape) == got.shape


def test_union_of_floral_need_not_be_floral():
    a = orthants_of(parse_expr("(1|2)&3"), 3)
    b = orthants_of(parse_expr("(1|3)&2"), 3)
    u = combine(a, b, SetOp.UNION)
    # 3 + 3 - 2 overlapping orthants; the even count already rules out
    # any read-once diagram
    assert orthant_counts(u)[0] == 4
    assert recognize(u) is DEGENERATE


def test_degenerate_detection_on_random_even_sets():
    # every floral set has odd essential core count, so these two-orthant
    # sets with both axes essential must all be degenerate
    s = OrthantSet.from_signs(2, [(1, 1), (-1, -1)])
    assert recognize(s) is DEGENERATE


# ---------------------------------------------------------------------------
# floral vertices: facets, edges, cross-sections
# ---------------------------------------------------------------------------


def test_floral_vertex_validation():
    v = FloralVertex.from_diagram(parse_expr("(1|2)&3"))
    assert v.dim == 3
    assert v.orthants.count == 3
    with pytest.raises(ValueError):
        FloralVertex.from_diagram(parse_expr("1&3"))
    with pytest.raises(ValueError):
        FloralVertex(parse_expr("1&2"), OrthantSet.full(2))


def test_facet_examples():
    assert format_expr(facet(parse_expr("1&2&3"), 1)) == "2&3"
    assert format_expr(facet(parse_expr("1|2"), 1)) == "~2"
    assert facet(parse_expr("1"), 1) is TRIVIAL
    assert facet(parse_expr("~1"), 1) is TRIVIAL
    with pytest.raises(ValueError):
        facet(parse_expr("1&2"), 5)


def test_facet_of_wide_example_matches_boundary_oracle():
    # the boundary slice pins the answer; note axis 3 stays essential in it
    v = FloralVertex.from_diagram(parse_expr("(((((1|2)&3)|4)&5)|6)&(7|8)"))
    got = facet(v, 4)
    assert format_expr(got) == "((~1&~2)|~3)&(7|8)&5&~6"
    oracle = _boundary_slice(v.orthants, 4)
    assert _slice_signs(got, v.dim - 1, 4) == oracle


def _facet_agrees_with_boundary(signed: SignedSpd):
    v = FloralVertex.from_diagram(signed)
    for axis in range(1, v.dim + 1):
        got = facet(v, axis)
        expected = _boundary_slice(v.orthants, axis)
        assert _slice_signs(got, v.dim - 1, axis) == expected, (format_expr(signed), axis)
        if v.dim >= 2:
            assert axes(got.shape) == axes(signed.shape) - {axis}
            assert _reference_normalize(got.shape) == got.shape


def test_facet_agrees_with_boundary_exhaustive_small():
    for d in range(1, 5):
        for signed in _all_signed(d):
            _facet_agrees_with_boundary(signed)


@settings(max_examples=60)
@given(signed_spds(min_axes=2, max_axes=6))
def test_facet_agrees_with_boundary(signed):
    _facet_agrees_with_boundary(_packed(signed))


def test_edge_direction_examples():
    assert edge_direction(parse_expr("1&2"), 1) == 1
    assert edge_direction(parse_expr("1|2"), 1) == -1
    assert edge_direction(parse_expr("~1|2"), 1) == 1
    assert edge_direction(parse_expr("~1&2"), 1) == -1
    assert edge_direction(parse_expr("1"), 1) == 1


@settings(max_examples=80)
@given(signed_spds(max_axes=6))
def test_exactly_one_edge_ray_per_axis(signed):
    v = FloralVertex.from_diagram(_packed(signed))
    for axis in range(1, v.dim + 1):
        eps = edge_direction(v, axis)
        assert _is_edge_ray(v.orthants, axis, eps)
        assert not _is_edge_ray(v.orthants, axis, -eps)


def test_cross_section_examples():
    assert format_expr(edge_cross_section(parse_expr("(1|2)&3"), 3)) == "1|2"
    assert format_expr(edge_cross_section(parse_expr("1|2"), 1)) == "2"
    assert format_expr(edge_cross_section(parse_expr("1&2"), 1)) == "2"
    assert edge_cross_section(parse_expr("1"), 1) is TRIVIAL
    assert residual_cross_section(parse_expr("1&2"), 1) is EMPTY
    assert residual_cross_section(parse_expr("1|2"), 1) is FULL
    got = residual_cross_section(parse_expr("((1&2)|3)&4"), 1)
    assert format_expr(got) == "3&4"


@settings(max_examples=80)
@given(signed_spds(max_axes=6))
def test_cross_sections_match_slice_oracle(signed):
    v = FloralVertex.from_diagram(_packed(signed))
    for axis in range(1, v.dim + 1):
        eps = edge_direction(v, axis)
        near = v.orthants.slice(axis, eps)
        far = v.orthants.slice(axis, -eps)
        cross = edge_cross_section(v, axis)
        residue = residual_cross_section(v, axis)
        assert _slice_signs(cross, v.dim - 1, axis) == near
        assert _slice_signs(residue, v.dim - 1, axis) == far
        for x in (cross, residue):
            if isinstance(x, SignedSpd):
                assert _reference_normalize(x.shape) == x.shape


@settings(max_examples=80)
@given(signed_spds(max_axes=6))
def test_cross_section_signs_inherited(signed):
    v = FloralVertex.from_diagram(_packed(signed))
    for axis in range(1, v.dim + 1):
        cross = edge_cross_section(v, axis)
        if cross is TRIVIAL:
            continue
        assert cross.neg == v.diagram.neg & axes(cross.shape)
        assert edge_count(cross.shape) == v.dim - 1
