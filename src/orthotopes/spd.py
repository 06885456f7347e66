"""Series-parallel diagrams (SPDs) and the local calculus of floral vertices.

An SPD is the parse tree of a read-once Boolean expression over half-space
literals: each axis label appears in exactly one leaf, series composition is
intersection (&) and parallel composition is union (|).  Viewed as a
two-terminal graph, series composition concatenates at a shared junction and
parallel composition glues both terminal pairs, which is where the vertex and
edge counts below come from.

The quantities attached to a diagram:

* bouquet rank  rho = e - v + 1   (cycle rank of the two-terminal graph),
  with sign sigma = (-1)^rho;
* mu, the number of orthants covered by the arrangement of the diagram on
  its own axes (always odd);
* tau, the signed volume +-1 of a signed diagram, equal to
  (product of literal signs) * sigma.

Duality swaps series and parallel and negates every literal (De Morgan).
Deleting an edge contracts it when conjunctive (its parent is a series node)
and removes it when disjunctive, which is exactly what a coordinate slice of
the arrangement does on the appropriate side.

Normal form: nodes are n-ary, no series node has a series child (same for
parallel), children are ordered by structure key (the canonical key with
each leaf written ``x``) and then by least axis label, both computed once,
with the axis set and edge count, when a node is built.  Every tree edit
builds its nodes through ``_node``, which takes normal-form children and
returns the normal-form node, so all public constructors return normal
forms and structural equality is semantic equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Union

MAX_ENUM_EDGES = 12  # enumeration guard; shape counts grow like 4^d


class ParseError(ValueError):
    """Raised on malformed expressions; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Marker:
    """Named singleton for honorary diagrams (point, whole space, empty set)."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Honorary single-vertex diagram (the origin), e.g. an edge deleted from itself.
TRIVIAL = _Marker("Trivial")
#: The whole space, produced when a residual substitution collapses to "true".
FULL = _Marker("Full")
#: The empty arrangement, produced when a residual substitution collapses to "false".
EMPTY = _Marker("Empty")


def _settle(node, sep: str) -> None:
    # a frozen node keeps the invariants it computes outside its compared fields
    kids = node.children
    node.__dict__.update(
        structure_key="(" + sep.join(sorted([c.structure_key for c in kids])) + ")",
        least=min([c.least for c in kids]),
        axis_set=frozenset().union(*[c.axis_set for c in kids]),
        edge_total=sum([c.edge_total for c in kids]),
    )


@dataclass(frozen=True)
class Leaf:
    axis: int

    def __post_init__(self):
        if self.axis < 1:
            raise ValueError(f"axis labels are positive integers, got {self.axis}")
        a = self.axis
        self.__dict__.update(structure_key="x", least=a, axis_set=frozenset((a,)), edge_total=1)


@dataclass(frozen=True)
class Series:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("series node needs at least two children")
        if any(isinstance(c, Series) for c in self.children):
            raise ValueError("series node may not have a series child")
        _settle(self, "&")


@dataclass(frozen=True)
class Parallel:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("parallel node needs at least two children")
        if any(isinstance(c, Parallel) for c in self.children):
            raise ValueError("parallel node may not have a parallel child")
        _settle(self, "|")


Spd = Union[Leaf, Series, Parallel]


class EdgeKind(enum.Enum):
    CONJUNCTIVE = "conjunctive"
    DISJUNCTIVE = "disjunctive"


def axes(spd: Spd) -> frozenset[int]:
    """Set of axis labels (edge labels) occurring in the diagram, as the
    node computed it when it was built."""
    return spd.axis_set


def edge_count(spd: Spd) -> int:
    return spd.edge_total


def vertex_count(spd: Spd) -> int:
    """Vertices of the two-terminal graph realisation.

    A chain of k parts shares k-1 junctions; a bundle of k parts glues
    both terminals, removing 2(k-1) vertices from the disjoint union.
    """
    if isinstance(spd, Leaf):
        return 2
    total = sum(vertex_count(c) for c in spd.children)
    k = len(spd.children)
    if isinstance(spd, Series):
        return total - (k - 1)
    return total - 2 * (k - 1)


@dataclass(frozen=True)
class SignedSpd:
    """A diagram together with a sign for every axis.

    ``neg`` lists the negated axes; all other axes of the shape are positive.
    The sign mapping therefore has exactly the edge set as its domain.
    """

    shape: Spd
    neg: frozenset[int] = frozenset()

    def __post_init__(self):
        extra = self.neg - axes(self.shape)
        if extra:
            raise ValueError(f"negated axes {sorted(extra)} do not occur in the shape")

    def sign(self, axis: int) -> int:
        if axis not in axes(self.shape):
            raise ValueError(f"axis {axis} does not occur in the shape")
        return -1 if axis in self.neg else 1

    @property
    def signs(self) -> Mapping[int, int]:
        return {a: -1 if a in self.neg else 1 for a in sorted(axes(self.shape))}

    @property
    def dim(self) -> int:
        return edge_count(self.shape)


# ---------------------------------------------------------------------------
# normal form and canonical keys
# ---------------------------------------------------------------------------


def _node(kind, kids) -> Spd:
    """The normal-form ``kind`` node over normal-form children: same-kind
    children are flattened in, a lone child stands for itself, and the
    children are ordered by structure key, then least axis, both read off
    the children."""
    flat: list[Spd] = []
    for c in kids:
        if isinstance(c, kind):
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=attrgetter("structure_key", "least"))
    return kind(tuple(flat))


def _check_distinct_axes(spd: Spd) -> None:
    """Refuse a tree that carries some axis label on two leaves."""
    seen: set[int] = set()
    for a in _iter_axes(spd):
        if a in seen:
            raise ValueError(f"axis {a} occurs more than once")
        seen.add(a)


def normalize(spd: Spd) -> Spd:
    """Flatten nested same-kind nodes and order children canonically."""
    _check_distinct_axes(spd)

    def rec(node: Spd) -> Spd:
        if isinstance(node, Leaf):
            return node
        return _node(type(node), [rec(c) for c in node.children])

    return rec(spd)


def _iter_axes(spd: Spd) -> Iterator[int]:
    if isinstance(spd, Leaf):
        yield spd.axis
    else:
        for c in spd.children:
            yield from _iter_axes(c)


def canonical_form(spd: Spd) -> Spd:
    """Representative of the unlabeled shape: children in structure-key
    order, axes renumbered 1..d along a depth-first walk."""
    counter = iter(range(1, spd.edge_total + 1))

    def fresh(node: Spd) -> Spd:
        if isinstance(node, Leaf):
            return Leaf(next(counter))
        kids = sorted(node.children, key=attrgetter("structure_key"))
        return type(node)(tuple(fresh(c) for c in kids))

    return fresh(spd)


def canonical_key(spd: Spd) -> str:
    """Printable complete invariant of the unlabeled shape: the structure
    key, outer parentheses dropped, with its leaves numbered 1..d in order,
    which is ``format_expr(canonical_form(spd))`` without building it.

    Two diagrams get the same key exactly when they differ only by a
    relabeling of axes, which is the congruence class used by the census.
    Keys order as structure keys do: two keys agree up to their first
    difference, so the leaves before it carry the same numbers, and every
    digit, like ``x``, sorts between ``)`` and ``|``.
    """
    key = spd.structure_key
    head, *rest = (key if isinstance(spd, Leaf) else key[1:-1]).split("x")
    return head + "".join(f"{i}{part}" for i, part in enumerate(rest, 1))


# ---------------------------------------------------------------------------
# concrete syntax
# ---------------------------------------------------------------------------


def format_expr(x: SignedSpd | Spd) -> str:
    """Render with '&' binding tighter than '|'; composite children are
    always parenthesised, negative literals carry '~'."""
    if isinstance(x, SignedSpd):
        shape, neg = x.shape, x.neg
    else:
        shape, neg = x, frozenset()

    def rend(node: Spd, top: bool) -> str:
        if isinstance(node, Leaf):
            return ("~" if node.axis in neg else "") + str(node.axis)
        sep = "&" if isinstance(node, Series) else "|"
        body = sep.join(
            rend(c, False) if isinstance(c, Leaf) else "(" + rend(c, True) + ")"
            for c in node.children
        )
        return body

    return rend(shape, True)


def parse_expr(text: str) -> SignedSpd:
    """Parse ``expr := term ('|' term)*; term := factor ('&' factor)*;
    factor := ['~'] (INT | '(' expr ')')``, whitespace-insensitive.

    '~' before a parenthesised group complements the whole group
    (De Morgan), so every input still denotes a read-once arrangement.
    Raises ParseError on syntax errors, repeated axes, or empty input.
    """
    toks: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch in "&|~()":
            toks.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    if not toks:
        raise ParseError("empty expression", 0)

    pos = 0

    def peek() -> tuple[str, str, int]:
        return toks[pos] if pos < len(toks) else ("end", "", len(text))

    def take(kind: str) -> tuple[str, str, int]:
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        pos += 1
        return tok

    seen: set[int] = set()

    def literal(negated: bool) -> SignedSpd:
        _, val, at = take("int")
        ax = int(val)
        if ax < 1:
            raise ParseError("axis labels start at 1", at)
        if ax in seen:
            raise ParseError(f"axis {ax} occurs more than once", at)
        seen.add(ax)
        return SignedSpd(Leaf(ax), frozenset((ax,)) if negated else frozenset())

    def factor() -> SignedSpd:
        tok = peek()
        if tok[0] == "~":
            take("~")
            if peek()[0] == "int":
                return literal(True)
            take("(")
            node = expr()
            take(")")
            return dual(node)
        if tok[0] == "int":
            return literal(False)
        if tok[0] == "(":
            take("(")
            node = expr()
            take(")")
            return node
        raise ParseError(f"expected a literal or '(', found {tok[1] or 'end of input'!r}", tok[2])

    def term() -> SignedSpd:
        parts = [factor()]
        while peek()[0] == "&":
            take("&")
            parts.append(factor())
        return _join(Series, parts)

    def expr() -> SignedSpd:
        parts = [term()]
        while peek()[0] == "|":
            take("|")
            parts.append(term())
        return _join(Parallel, parts)

    result = expr()
    tok = peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
    return result


def _join(kind, parts: list[SignedSpd]) -> SignedSpd:
    """``kind`` composition of normal-form signed diagrams on disjoint axes."""
    neg = frozenset().union(*(p.neg for p in parts))
    return SignedSpd(_node(kind, [p.shape for p in parts]), neg)


# ---------------------------------------------------------------------------
# duality and valuations
# ---------------------------------------------------------------------------


def dual(x: SignedSpd | Spd) -> SignedSpd | Spd:
    """De Morgan dual: swap series/parallel; on signed diagrams also negate
    every literal, so the dual arrangement is the set complement."""
    if isinstance(x, SignedSpd):
        return SignedSpd(dual(x.shape), axes(x.shape) - x.neg)  # type: ignore[arg-type]

    def swap(node: Spd) -> Spd:
        if isinstance(node, Leaf):
            return node
        kind = Parallel if isinstance(node, Series) else Series
        return _node(kind, [swap(c) for c in node.children])

    _check_distinct_axes(x)
    return swap(x)


class Bouquet(NamedTuple):
    rank: int
    sign: int


def bouquet(spd) -> Bouquet:
    """Bouquet rank rho = e - v + 1 of the two-terminal graph and its sign.

    Accepts the honorary single-vertex diagram TRIVIAL (rank 0, sign +1).
    """
    if spd is TRIVIAL:
        return Bouquet(0, 1)
    rank = edge_count(spd) - vertex_count(spd) + 1
    return Bouquet(rank, -1 if rank % 2 else 1)


def mu(spd: Spd) -> int:
    """Orthant count of the arrangement on the diagram's own d axes.

    Recursion: mu(edge) = 1, mu is multiplicative over series composition,
    and complements satisfy mu(D) + mu(dual D) = 2^d.  Always odd.
    """
    result = _mu(spd)
    assert result % 2 == 1, "mu must be odd"
    return result


def _mu(spd: Spd) -> int:
    if isinstance(spd, Leaf):
        return 1
    if isinstance(spd, Series):
        out = 1
        for c in spd.children:
            out *= _mu(c)
        return out
    d = edge_count(spd)
    comp = 1
    for c in spd.children:
        comp *= (1 << edge_count(c)) - _mu(c)
    return (1 << d) - comp


def tau(signed: SignedSpd) -> int:
    """Signed volume of a signed diagram: +-1.

    Determined by tau(positive edge) = 1, multiplicativity over series
    composition, and tau(dual a) = -tau(a); equivalently the product of
    the literal signs times the bouquet sign.
    """

    def rec(node: Spd) -> int:
        if isinstance(node, Leaf):
            return -1 if node.axis in signed.neg else 1
        prod = 1
        for c in node.children:
            prod *= rec(c)
        if isinstance(node, Parallel) and len(node.children) % 2 == 0:
            prod = -prod
        return prod

    return rec(signed.shape)


# ---------------------------------------------------------------------------
# edge operations
# ---------------------------------------------------------------------------


def _parent(spd: Spd, axis: int) -> Spd | None:
    """Parent node of the leaf carrying ``axis``; None when the leaf is the root."""
    if isinstance(spd, Leaf):
        if spd.axis == axis:
            return None
        raise ValueError(f"axis {axis} does not occur in the diagram")

    def walk(node: Spd) -> Spd | None:
        for c in node.children:
            if isinstance(c, Leaf):
                if c.axis == axis:
                    return node
            elif axis in axes(c):
                return walk(c)
        raise ValueError(f"axis {axis} does not occur in the diagram")

    return walk(spd)


def edge_kind(spd: Spd, axis: int) -> EdgeKind:
    """Disjunctive when the leaf's parent is a parallel node, else conjunctive."""
    parent = _parent(spd, axis)
    if isinstance(parent, Parallel):
        return EdgeKind.DISJUNCTIVE
    return EdgeKind.CONJUNCTIVE


def delete_edge(spd: Spd, axis: int):
    """Delete edge ``axis``: contract it when conjunctive (identify its
    terminals), remove it when disjunctive.  On the parse tree both cases
    drop the leaf and collapse a one-child parent.

    Deleting the only edge yields the honorary vertex diagram TRIVIAL.
    """
    if axis not in axes(spd):
        raise ValueError(f"axis {axis} does not occur in the diagram")
    _check_distinct_axes(spd)
    if isinstance(spd, Leaf):
        return TRIVIAL
    gone = Leaf(axis)

    def rec(node: Spd) -> Spd:
        if isinstance(node, Leaf):
            return node
        return _node(type(node), [rec(c) for c in node.children if c != gone])

    return rec(spd)


def residual_diagram(spd: Spd, axis: int):
    """Diagram of the slice on the far side of edge ``axis`` (opposite the
    edge direction): substitute a constant for the literal -- true when the
    edge is disjunctive, false when conjunctive -- and simplify.

    The constant first erases the maximal subdiagram joined to the edge
    (series partners of a conjunctive edge, parallel partners of a
    disjunctive one) and may then cascade.  Returns a Spd, or FULL/EMPTY
    when everything collapses.
    """
    _check_distinct_axes(spd)
    value = edge_kind(spd, axis) is EdgeKind.DISJUNCTIVE

    def rec(node: Spd):
        if isinstance(node, Leaf):
            return value if node.axis == axis else node
        kids: list[Spd] = []
        for c in node.children:
            r = rec(c)
            if r is True:
                if isinstance(node, Parallel):
                    return True
                continue
            if r is False:
                if isinstance(node, Series):
                    return False
                continue
            kids.append(r)
        if not kids:
            # all children absorbed by the constant
            return isinstance(node, Series)
        return _node(type(node), kids)

    out = rec(spd)
    if out is True:
        return FULL
    if out is False:
        return EMPTY
    return out


def relabel(spd: Spd, mapping: Mapping[int, int]) -> Spd:
    """Rename axes through an injective mapping; labels absent from the
    mapping are kept."""
    _check_distinct_axes(spd)

    def rec(node: Spd) -> Spd:
        if isinstance(node, Leaf):
            return Leaf(mapping.get(node.axis, node.axis))
        return _node(type(node), [rec(c) for c in node.children])

    out = rec(spd)
    if len(axes(out)) != edge_count(spd):
        raise ValueError("relabeling must be injective")
    return out


# ---------------------------------------------------------------------------
# shape enumeration
# ---------------------------------------------------------------------------

# unlabeled shapes are nested tuples: ("L",), ("S", kids), ("P", kids);
# kids are stored in non-increasing tuple order so each multiset appears once


@lru_cache(maxsize=None)
def _non_series(d: int) -> tuple:
    if d == 1:
        return (("L",),)
    return tuple(("P", kids) for kids in _bundles(d, _non_parallel))


@lru_cache(maxsize=None)
def _non_parallel(d: int) -> tuple:
    if d == 1:
        return (("L",),)
    return tuple(("S", kids) for kids in _bundles(d, _non_series))


def _bundles(total: int, pool) -> list[tuple]:
    """Multisets of at least two pool shapes with edge counts summing to
    ``total``, each multiset listed once in non-increasing (size, index)
    order."""
    out: list[tuple] = []

    def grow(remaining: int, max_size: int, max_idx: int, acc: list, count: int):
        if remaining == 0:
            if count >= 2:
                out.append(tuple(acc))
            return
        for size in range(min(max_size, remaining), 0, -1):
            shapes = pool(size)
            start = min(max_idx, len(shapes) - 1) if size == max_size else len(shapes) - 1
            for idx in range(start, -1, -1):
                acc.append(shapes[idx])
                grow(remaining - size, size, idx, acc, count + 1)
                acc.pop()

    grow(total, total - 1, 1 << 30, [], 0)
    return out


def _label(shape: tuple, counter: Iterator[int]) -> Spd:
    if shape[0] == "L":
        return Leaf(next(counter))
    kids = tuple(_label(c, counter) for c in shape[1])
    return Series(kids) if shape[0] == "S" else Parallel(kids)


def enumerate_shapes(d: int) -> list[Spd]:
    """All unlabeled shapes on d edges, one canonical representative each,
    in canonical-key order.  Counts follow the series-parallel network
    numbers 1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624, ... for d = 1, 2, ...
    """
    if not 1 <= d <= MAX_ENUM_EDGES:
        raise ValueError(f"d must be between 1 and {MAX_ENUM_EDGES}")
    if d == 1:
        raw: tuple = (("L",),)
    else:
        raw = _non_series(d) + _non_parallel(d)
    shapes = [canonical_form(_label(s, iter(range(1, d + 1)))) for s in raw]
    shapes.sort(key=canonical_key)
    return shapes
