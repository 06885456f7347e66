"""Diagram calculus: parsing, normal form, valuations, edge operations."""

import functools
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signed_spds, spd_shapes
from orthotopes.spd import (
    EMPTY,
    FULL,
    TRIVIAL,
    EdgeKind,
    Leaf,
    Parallel,
    ParseError,
    Series,
    SignedSpd,
    _iter_axes,
    _label,
    _non_parallel,
    _non_series,
    axes,
    bouquet,
    canonical_form,
    canonical_key,
    delete_edge,
    dual,
    edge_count,
    edge_kind,
    enumerate_shapes,
    format_expr,
    mu,
    normalize,
    parse_expr,
    relabel,
    residual_diagram,
    tau,
    vertex_count,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _two_terminal_graph(spd):
    """Realise the diagram as a two-terminal multigraph."""
    g = nx.MultiGraph()
    counter = itertools.count()

    def build(node, a, b):
        if isinstance(node, Leaf):
            g.add_edge(a, b, axis=node.axis)
        elif isinstance(node, Series):
            stops = [a] + [next(counter) for _ in node.children[:-1]] + [b]
            for child, (u, v) in zip(node.children, zip(stops, stops[1:])):
                build(child, u, v)
        else:
            for child in node.children:
                build(child, a, b)

    src, snk = "s", "t"
    g.add_node(src)
    g.add_node(snk)
    build(spd, src, snk)
    return g


def _reference_form(spd):
    """``canonical_form`` as it was before nodes carried structure keys:
    children sorted by their rendered canonical keys, then axes renumbered
    along a depth-first walk."""

    def sort_shape(node):
        if isinstance(node, Leaf):
            return node
        kids = sorted((sort_shape(c) for c in node.children), key=_reference_child_key)
        return type(node)(tuple(kids))

    counter = iter(range(1, len(list(_iter_axes(spd))) + 1))

    def fresh(node):
        if isinstance(node, Leaf):
            return Leaf(next(counter))
        return type(node)(tuple(fresh(c) for c in node.children))

    return fresh(sort_shape(spd))


@functools.lru_cache(maxsize=65536)
def _reference_key(spd):
    """``canonical_key`` as it was: the rendering of the canonical form."""
    return format_expr(_reference_form(spd))


def _reference_child_key(child):
    # composite children compare by their parenthesised rendering, so they
    # sort ahead of plain literals ('(' < '0' in ASCII)
    key = _reference_key(child)
    return key if isinstance(child, Leaf) else "(" + key + ")"


def _sort_key(child):
    """The child order of the normal form: rendered key, then least axis."""
    return (_reference_child_key(child), min(_iter_axes(child)))


def _raw_tree(rng, labels):
    """A random tree on ``labels``, children in random order and never
    normalized; no node has a child of its own kind."""

    def build(axs, forbid):
        if len(axs) == 1:
            return Leaf(axs[0])
        kinds = [k for k in (Series, Parallel) if k is not forbid]
        kind = rng.choice(kinds)
        cuts = sorted(rng.sample(range(1, len(axs)), rng.randint(1, len(axs) - 1)))
        bounds = [0] + cuts + [len(axs)]
        return kind(tuple(build(axs[a:b], kind) for a, b in zip(bounds, bounds[1:])))

    labels = list(labels)
    rng.shuffle(labels)
    return build(labels, None)


def _reference_normalize(spd):
    """The normal form by one re-walk of the whole tree, independent of
    ``spd._node``: the oracle for the outputs of every tree edit."""
    if isinstance(spd, Leaf):
        return spd
    kids = []
    for c in spd.children:
        c = _reference_normalize(c)
        if type(c) is type(spd):
            kids.extend(c.children)  # type: ignore[union-attr]
        else:
            kids.append(c)
    kids.sort(key=_sort_key)
    node = Series(tuple(kids)) if isinstance(spd, Series) else Parallel(tuple(kids))
    seen: set[int] = set()
    for a in _iter_axes(node):
        if a in seen:
            raise ValueError(f"axis {a} occurs more than once")
        seen.add(a)
    return node


def _mu_truth_table(spd):
    """Count satisfying assignments of the monotone read-once formula."""
    labels = sorted(axes(spd))

    def evaluate(node, assign):
        if isinstance(node, Leaf):
            return assign[node.axis]
        if isinstance(node, Series):
            return all(evaluate(c, assign) for c in node.children)
        return any(evaluate(c, assign) for c in node.children)

    return sum(
        evaluate(spd, dict(zip(labels, bits)))
        for bits in itertools.product((False, True), repeat=len(labels))
    )


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["1", "1&2", "1|2", "(1&2)|3", "(1|2)&3", "((1&2)|3)&4", "(1|2)&(3|4)", "~1|2", "~1&~2&3"],
)
def test_round_trip(text):
    assert format_expr(parse_expr(text)) == text


def test_whitespace_and_parens_ignored():
    assert parse_expr(" ( 1 | 2 ) & 3 ") == parse_expr("(1|2)&3")
    assert parse_expr("((1))") == SignedSpd(Leaf(1))


def test_precedence():
    # '&' binds tighter than '|'
    assert parse_expr("1&2|3") == parse_expr("(1&2)|3")
    assert parse_expr("1|2&3") == parse_expr("1|(2&3)")


def test_group_negation_is_duality():
    assert parse_expr("~(1&(2|3))") == dual(parse_expr("1&(2|3)"))
    assert parse_expr("~(~1|2)") == parse_expr("1&~2")


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("1&&2", 2),
        ("(1|2", 4),
        ("1)", 1),
        ("&1", 0),
        ("1 2", 2),
        ("a", 0),
        ("0&1", 0),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.position == pos


def test_repeated_axis_rejected():
    # the error points at the repeated literal, also inside a negated group
    for text, pos in (("1&1", 2), ("(1|2)&(2|3)", 7), ("~(1|1)", 4), ("~(1&2)|(2&3)", 8)):
        with pytest.raises(ParseError, match="axis . occurs more than once") as err:
            parse_expr(text)
        assert err.value.position == pos


def test_normal_form_orders_composites_first():
    assert format_expr(parse_expr("3&(1|2)")) == "(1|2)&3"
    assert format_expr(parse_expr("4|3|(1&2)")) == "(1&2)|3|4"


@settings(max_examples=150)
@given(signed_spds())
def test_print_parse_identity(signed):
    assert parse_expr(format_expr(signed)) == signed


# ---------------------------------------------------------------------------
# bouquet rank against the multigraph
# ---------------------------------------------------------------------------


@settings(max_examples=150)
@given(spd_shapes())
def test_counts_match_two_terminal_graph(shape):
    g = _two_terminal_graph(shape)
    assert g.number_of_nodes() == vertex_count(shape)
    assert g.number_of_edges() == edge_count(shape)
    assert nx.number_connected_components(g) == 1
    cycle_rank = g.number_of_edges() - g.number_of_nodes() + 1
    assert bouquet(shape).rank == cycle_rank


def test_bouquet_examples():
    assert bouquet(parse_expr("1|2|3|4").shape).rank == 3
    assert bouquet(parse_expr("(((((1|2)&3)|4)&5)|6)&(7|8)").shape) == (4, 1)
    assert bouquet(TRIVIAL) == (0, 1)
    assert bouquet(Leaf(1)) == (0, 1)


# ---------------------------------------------------------------------------
# mu and tau
# ---------------------------------------------------------------------------


FOUR_AXIS_TABLE = {
    "1&2&3&4": (1, 1),
    "(1|2)&3&4": (3, -1),
    "((1&2)|3)&4": (5, -1),
    "(1|2|3)&4": (7, 1),
    "(1|2)&(3|4)": (9, 1),
    "(1&2)|(3&4)": (7, -1),
    "(1&2&3)|4": (9, -1),
    "((1|2)&3)|4": (11, 1),
    "(1&2)|3|4": (13, 1),
    "1|2|3|4": (15, -1),
}


def test_four_axis_classes_are_complete():
    assert {canonical_key(s) for s in enumerate_shapes(4)} == set(FOUR_AXIS_TABLE)


@pytest.mark.parametrize("expr,expected", sorted(FOUR_AXIS_TABLE.items()))
def test_four_axis_mu_sigma(expr, expected):
    shape = parse_expr(expr).shape
    assert (mu(shape), bouquet(shape).sign) == expected


@settings(max_examples=120)
@given(spd_shapes())
def test_mu_is_odd_and_counts_satisfying_assignments(shape):
    m = mu(shape)
    assert m % 2 == 1
    assert m == _mu_truth_table(shape)


@settings(max_examples=120)
@given(spd_shapes())
def test_dual_is_an_involution(shape):
    d = edge_count(shape)
    co = dual(shape)
    assert _reference_normalize(co) == co
    assert dual(co) == shape
    assert mu(shape) + mu(co) == 1 << d
    assert bouquet(shape).rank + bouquet(co).rank == d - 1
    assert bouquet(shape).sign * bouquet(co).sign == (-1) ** (d - 1)


@settings(max_examples=120)
@given(spd_shapes(max_axes=4), spd_shapes(max_axes=4))
def test_sign_product_rules(left, right):
    shift = max(axes(left))
    moved = relabel(right, {a: a + shift for a in axes(right)})
    # building through parse keeps the constructors honest about flattening
    combined_and = parse_expr(f"({format_expr(left)})&({format_expr(moved)})").shape
    combined_or = parse_expr(f"({format_expr(left)})|({format_expr(moved)})").shape
    s1, s2 = bouquet(left).sign, bouquet(moved).sign
    assert bouquet(combined_and).sign == s1 * s2
    assert bouquet(combined_or).sign == -s1 * s2
    assert mu(combined_and) == mu(left) * mu(moved)


@settings(max_examples=120)
@given(signed_spds())
def test_tau_is_sign_product_times_bouquet_sign(signed):
    prod = 1
    for s in signed.signs.values():
        prod *= s
    assert tau(signed) == prod * bouquet(signed.shape).sign
    assert tau(dual(signed)) == -tau(signed)


# ---------------------------------------------------------------------------
# edge operations
# ---------------------------------------------------------------------------


def test_edge_kind_examples():
    shape = parse_expr("((1&2)|3)&4").shape
    kinds = {a: edge_kind(shape, a) for a in (1, 2, 3, 4)}
    assert kinds == {
        1: EdgeKind.CONJUNCTIVE,
        2: EdgeKind.CONJUNCTIVE,
        3: EdgeKind.DISJUNCTIVE,
        4: EdgeKind.CONJUNCTIVE,
    }
    assert edge_kind(Leaf(1), 1) is EdgeKind.CONJUNCTIVE


def test_delete_edge_examples():
    shape = parse_expr("((1&2)|3)&4").shape
    assert format_expr(delete_edge(shape, 1)) == "(2|3)&4"
    assert format_expr(delete_edge(shape, 3)) == "1&2&4"
    assert format_expr(delete_edge(shape, 4)) == "(1&2)|3"
    small = parse_expr("(1|2)&3").shape
    assert format_expr(delete_edge(small, 3)) == "1|2"
    assert format_expr(delete_edge(small, 1)) == "2&3"
    wide = parse_expr("(((((1|2)&3)|4)&5)|6)&(7|8)").shape
    assert delete_edge(wide, 6) == parse_expr("((((1|2)&3)|4)&5)&(7|8)").shape
    assert delete_edge(Leaf(1), 1) is TRIVIAL
    with pytest.raises(ValueError):
        delete_edge(shape, 9)


@settings(max_examples=120)
@given(spd_shapes(min_axes=2), st.data())
def test_delete_preserves_sign_exactly_for_conjunctive_edges(shape, data):
    axis = data.draw(st.sampled_from(sorted(axes(shape))))
    smaller = delete_edge(shape, axis)
    assert _reference_normalize(smaller) == smaller
    assert axes(smaller) == axes(shape) - {axis}
    same_sign = bouquet(shape).sign == bouquet(smaller).sign
    assert same_sign == (edge_kind(shape, axis) is EdgeKind.CONJUNCTIVE)


def test_residual_examples():
    assert residual_diagram(parse_expr("1|2").shape, 1) is FULL
    assert residual_diagram(parse_expr("1&2").shape, 1) is EMPTY
    shape = parse_expr("((1&2)|3)&4").shape
    assert residual_diagram(shape, 3) == Leaf(4)
    assert residual_diagram(shape, 1) == parse_expr("3&4").shape


@settings(max_examples=120)
@given(spd_shapes(min_axes=2), st.data())
def test_residual_either_collapses_or_loses_joined_subdiagram(shape, data):
    axis = data.draw(st.sampled_from(sorted(axes(shape))))
    res = residual_diagram(shape, axis)
    if res is FULL or res is EMPTY:
        return
    assert _reference_normalize(res) == res
    assert axis not in axes(res)
    assert axes(res) < axes(shape)


# ---------------------------------------------------------------------------
# canonical keys and enumeration
# ---------------------------------------------------------------------------


@settings(max_examples=120)
@given(spd_shapes(), st.randoms(use_true_random=False))
def test_canonical_key_is_relabeling_invariant(shape, rng):
    labels = sorted(axes(shape))
    shuffled = labels[:]
    rng.shuffle(shuffled)
    other = relabel(shape, dict(zip(labels, shuffled)))
    assert _reference_normalize(other) == other
    assert canonical_key(other) == canonical_key(shape)
    assert canonical_form(other) == canonical_form(shape)


def test_relabel_must_be_injective():
    with pytest.raises(ValueError, match="injective"):
        relabel(parse_expr("1|2").shape, {1: 2})
    with pytest.raises(ValueError, match="injective"):
        relabel(parse_expr("(1&2)|3").shape, {1: 3, 3: 1, 2: 1})


def test_raw_tree_with_a_repeated_axis_is_refused():
    raw = Parallel((Leaf(1), Leaf(1), Leaf(2)))
    edits = (
        normalize,
        dual,
        lambda x: delete_edge(x, 2),
        lambda x: residual_diagram(x, 2),
        lambda x: relabel(x, {2: 3}),
    )
    for edit in edits:
        with pytest.raises(ValueError, match="axis 1 occurs more than once"):
            edit(raw)


@settings(max_examples=120)
@given(spd_shapes())
def test_canonical_form_is_idempotent(shape):
    c = canonical_form(shape)
    assert canonical_form(c) == c
    assert normalize(c) == c


def test_shape_counts():
    # series-parallel networks with d edges
    expected = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624]
    got = [len(enumerate_shapes(d)) for d in range(1, 11)]
    assert got == expected


def test_enumeration_has_no_duplicates_and_is_sorted():
    for d in range(1, 7):
        shapes = enumerate_shapes(d)
        keys = [canonical_key(s) for s in shapes]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
        assert all(edge_count(s) == d for s in shapes)
        assert all(canonical_form(s) == s for s in shapes)


def _assert_keys_match_the_rendering(tree):
    """The key, form and normal form of ``tree`` from the structure keys
    equal the ones rendered and sorted by the old code."""
    assert canonical_key(tree) == _reference_key(tree)
    assert canonical_key(tree) == format_expr(canonical_form(tree))
    assert canonical_form(tree) == _reference_form(tree)
    normal = normalize(tree)
    assert normal == _reference_normalize(tree)
    assert canonical_key(normal) == canonical_key(tree)


def test_structure_keys_order_as_rendered_keys_on_every_shape_to_eight_axes():
    rng = random.Random(1800)
    for d in range(1, 9):
        for shape in enumerate_shapes(d):
            labels = rng.sample(range(1, 16), d)
            tree = relabel(shape, dict(zip(range(1, d + 1), labels)))
            assert tree == _reference_normalize(tree)
            _assert_keys_match_the_rendering(tree)


def test_structure_keys_order_as_rendered_keys_on_raw_trees():
    # two-digit labels from d = 10 on, and unsorted raw children throughout
    rng = random.Random(1801)
    for d in list(range(1, 9)) * 25 + [10, 11, 12] * 40:
        labels = rng.sample(range(1, 40), d) if rng.random() < 0.5 else range(1, d + 1)
        _assert_keys_match_the_rendering(_raw_tree(rng, labels))


def test_enumeration_is_the_old_one():
    for d in range(1, 11):
        raw = (("L",),) if d == 1 else _non_series(d) + _non_parallel(d)
        shapes = [_reference_form(_label(s, iter(range(1, d + 1)))) for s in raw]
        shapes.sort(key=_reference_key)
        assert enumerate_shapes(d) == shapes


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_shapes(0)
    with pytest.raises(ValueError):
        enumerate_shapes(99)
