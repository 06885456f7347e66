"""Seeded inputs, operations and output checks of the benchmark workloads.

A workload is a *round*: a fixed list of slots, run in order.  Each slot has
a small pool of input variants, and the run's seed picks one variant per
slot.  The composition of a round (operation kinds and input sizes) is the
same for every seed, so per-run statistics are comparable across seeds,
while the concrete boxes, faces and masks change with the seed.  The pool is
finite so that the output of every variant can be frozen in
``digests.json`` at the commit that defined the benchmark; any later change
to an output shows as a failed operation.

Inputs come from this module's own generator (SplitMix64 keyed by SHA-256),
never from the library's ``random_generic``, so a change to ``genericize``
cannot change the inputs.  The library receives only the generated boxes,
faces and masks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from orthotopes import arrangement, genericize, lattice, spd

ROOT = Path(__file__).resolve().parent.parent

_WORD = (1 << 64) - 1

#: Number of input variants per slot; the seed picks one of them.
VARIANTS = 8


class Rng:
    """SplitMix64 stream whose state is derived from the key parts, so that
    the same key reproduces the same numbers on any Python version."""

    def __init__(self, *key):
        digest = hashlib.sha256(repr(key).encode()).digest()
        self.state = int.from_bytes(digest[:8], "little")

    def word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _WORD
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.word() % bound

    def bits(self, count: int) -> int:
        value = 0
        for shift in range(0, count, 64):
            value |= self.word() << shift
        return value & ((1 << count) - 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------------------
# input generators


def generic_boxes(rng: Rng, dim: int, count: int, extent: int) -> list:
    """``count`` boxes in ``[0, extent]^dim`` whose coordinates are pairwise
    distinct along every axis, which makes the union generic."""
    per_axis = []
    for _ in range(dim):
        chosen, seen = [], set()
        while len(chosen) < 2 * count:
            value = rng.below(extent + 1)
            if value not in seen:
                seen.add(value)
                chosen.append(value)
        per_axis.append(chosen)
    boxes = []
    for i in range(count):
        pairs = [(axis[2 * i], axis[2 * i + 1]) for axis in per_axis]
        boxes.append((tuple(min(p) for p in pairs), tuple(max(p) for p in pairs)))
    return boxes


def small_generic_boxes(rng: Rng, dim: int, count: int, extent: int, max_cells: int) -> list:
    """Generic boxes, drawn again until the union holds at most
    ``max_cells`` unit cells."""
    while True:
        boxes = generic_boxes(rng, dim, count, extent)
        if cell_count(boxes) <= max_cells:
            return boxes


def degenerate_boxes(rng: Rng, dim: int, count: int, extent: int) -> list:
    """Overlapping and touching boxes with sides 1..3, plus two unit boxes
    beyond them that meet in a single corner, so the union always has a
    degenerate tangent cone."""
    boxes = []
    for _ in range(count):
        lo = tuple(rng.below(extent) for _ in range(dim))
        boxes.append((lo, tuple(c + 1 + rng.below(3) for c in lo)))
    far = extent + 4
    boxes.append(((far,) * dim, (far + 1,) * dim))
    boxes.append(((far + 1,) * dim, (far + 2,) * dim))
    return boxes


def cube_faces(rng: Rng, dim: int, count: int, extent: int) -> list:
    """Closed unit-cube faces as (corner, spec) pairs, spec entries 0, 1 or
    None, in the form ``thicken`` takes."""
    choices = (0, 1, None)
    return [
        (
            tuple(rng.below(extent) for _ in range(dim)),
            tuple(choices[rng.below(3)] for _ in range(dim)),
        )
        for _ in range(count)
    ]


def _half_space(dim: int, axis: int, positive: bool) -> int:
    mask = 0
    for k in range(1 << dim):
        if ((k >> axis) & 1) == positive:
            mask |= 1 << k
    return mask


def floral_mask(rng: Rng, dim: int) -> int:
    """Orthant mask of a random read-once formula over all ``dim`` axes:
    a series-parallel diagram with random signs, evaluated here rather
    than by the library."""
    full = (1 << (1 << dim)) - 1

    def build(axes: list, series: bool) -> int:
        if len(axes) == 1:
            return _half_space(dim, axes[0], bool(rng.below(2)))
        rng.shuffle(axes)
        cuts = list(range(1, len(axes)))
        rng.shuffle(cuts)
        cuts = sorted(cuts[: 1 + rng.below(len(axes) - 1)])
        bounds = [0] + cuts + [len(axes)]
        value = full if series else 0
        for a, b in zip(bounds, bounds[1:]):
            part = build(axes[a:b], not series)
            value = value & part if series else value | part
        return value

    return build(list(range(dim)), bool(rng.below(2)))


def random_mask(rng: Rng, dim: int) -> int:
    """Uniform orthant mask other than the empty and the full set."""
    full = (1 << (1 << dim)) - 1
    while True:
        mask = rng.bits(1 << dim)
        if mask not in (0, full):
            return mask


def cell_count(boxes: list) -> int:
    cells = set()
    for lo, hi in boxes:
        stack = [()]
        for a, b in zip(lo, hi):
            stack = [c + (x,) for c in stack for x in range(a, b)]
        cells.update(stack)
    return len(cells)


def positions(boxes: list) -> int:
    """Positions of the compressed doubled grid the scan classifies:
    the product over axes of 2m - 1, with m slabs between the distinct
    box coordinates plus one empty slab at each end."""
    if not boxes:
        return 0
    total = 1
    for j in range(len(boxes[0][0])):
        coords = {b[0][j] for b in boxes} | {b[1][j] for b in boxes}
        total *= 2 * (len(coords) + 1) - 1
    return total


# ---------------------------------------------------------------------------
# slots and rounds


@dataclass(frozen=True)
class Slot:
    """One position in a round: an operation kind and the parameters its
    input variants are generated from."""

    key: str
    kind: str
    params: tuple
    variants: int = VARIANTS
    smoke: bool = False


@dataclass(frozen=True)
class Op:
    """One operation of a round, with its generated input."""

    slot: Slot
    variant: int
    data: dict

    @property
    def label(self) -> str:
        return f"{self.slot.key}#{self.variant}"


# Dimensions of the recognize masks, and floral and random masks per dimension.
_RECOGNIZE = ((5, 6, 7, 8), 7)

# Criterion-7 sizes: generic unions of at most 500 cells, from one
# (count, extent, batch) plan per slot.
_POSET_PLANS = {
    2: ((10, 24, 4), (6, 16, 6), (12, 30, 4), (10, 24, 4)),
    3: ((6, 12, 1), (4, 9, 2), (7, 14, 1), (6, 12, 1)),
    4: ((2, 6, 1),) * 4,
}

_BOUNDS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))

_TORUS = "fixtures/torus.json"

WORKLOADS: dict[str, tuple[Slot, ...]] = {
    # Low dimension, many boxes: doubled grids of 0.7-2.0 million positions
    # with few unique masks, so building the scan dominates.  The sizes
    # make every model cost about the same, which keeps the latency
    # percentiles inside one cluster of samples.
    "grid": tuple(
        Slot(f"d{d}n{n}{tag}", "analyze", (d, n, 4 * n + 10), smoke=tag == "a")
        for tag in "abc"
        for d, n in ((2, 355), (3, 28), (4, 7))
    ),
    # High dimension, few boxes: small grids with hundreds to thousands of
    # unique masks, so recognition and the local layer dominate.  Most
    # operations cost about the same; the two cubes and the d=6 union are
    # the light and heavy ends.
    "local": (
        Slot("recognize1", "recognize", _RECOGNIZE, smoke=True),
        Slot("cube6", "analyze", (6, "cube"), variants=1),
        Slot("d5n3a", "analyze", (5, 3, 22), smoke=True),
        Slot("recognize2", "recognize", _RECOGNIZE),
        Slot("cube7", "analyze", (7, "cube"), variants=1),
        Slot("d5n3b", "analyze", (5, 3, 22)),
        Slot("recognize3", "recognize", _RECOGNIZE),
        Slot("d6n2", "analyze", (6, 2, 18)),
        Slot("d5n3c", "analyze", (5, 3, 22)),
        Slot("recognize4", "recognize", _RECOGNIZE),
    ),
    # CLI processes on small models: interpreter start-up and imports
    # dominate each request.
    "cli": (
        Slot("torus-analyze", "cli", ("analyze", _TORUS, 0), variants=1, smoke=True),
        Slot("gen2-analyze", "cli", ("analyze", (2, 8, 42), 0), smoke=True),
        Slot("torus-check", "cli", ("check", _TORUS, 0), variants=1),
        Slot("gen3-analyze", "cli", ("analyze", (3, 5, 30), 0)),
        Slot("torus-census", "cli", ("census", _TORUS, 0), variants=1),
        Slot("degenerate-analyze", "cli", ("analyze", "degenerate", 3), smoke=True),
        Slot("torus-volume", "cli", ("volume", _TORUS, 0), variants=1),
        Slot("gen2-census", "cli", ("census", (2, 8, 42), 0)),
        Slot("torus-euler", "cli", ("euler", _TORUS, 0), variants=1),
    ),
    # Degenerate inputs and the paths the other workloads never touch:
    # witnesses, thickening, Hausdorff distance and the face poset.  Small
    # inputs are batched (the last parameter) so that most operations cost
    # about the same, 0.05-0.1 s at the defining commit; the d=4 face posets
    # and the three largest thickenings are the heavy end.
    "repair": tuple(
        slot
        for group in zip(
            [
                Slot(f"witness-d{d}{tag}", "witness", (d, count, extent, batch), smoke=tag == "a")
                for tag in "abcd"
                for d, count, extent, batch in ((2, 16, 10, 32), (3, 10, 8, 8), (4, 6, 6, 1))
            ],
            [
                Slot(f"thicken-d{d}n{count}{tag}", "thicken", (d, count, extent, batch), smoke=(d, tag) == (2, "a"))
                for d, count, extent, batch, tags in (
                    (1, 20, 30, 16, "ab"), (2, 30, 10, 6, "ab"), (2, 50, 10, 3, "a"),
                    (3, 8, 8, 8, "ab"), (3, 20, 8, 1, "ab"), (3, 40, 8, 1, "abc"),
                )
                for tag in tags
            ],
            [
                Slot(f"poset-d{d}{tag}", "poset", (d, *_POSET_PLANS[d][i]), smoke=tag == "a")
                for i, tag in enumerate("abcd")
                for d in (2, 3, 4)
            ],
        )
        for slot in group
    ),
}


def make_input(workload: str, slot: Slot, variant: int) -> dict:
    """The input of one slot variant; depends only on its identity."""
    rng = Rng("input", workload, slot.key, variant)
    kind, params = slot.kind, slot.params
    if kind == "analyze":
        if params[1] == "cube":
            d = params[0]
            return {"dim": d, "boxes": [((0,) * d, (1,) * d)]}
        d, n, extent = params
        return {"dim": d, "boxes": generic_boxes(rng, d, n, extent)}
    if kind == "recognize":
        dims, per_kind = params
        masks = []
        for d in dims:
            for _ in range(per_kind):
                masks.append({"dim": d, "mask": floral_mask(rng, d), "floral": True})
                masks.append({"dim": d, "mask": random_mask(rng, d), "floral": False})
        return {"masks": masks}
    if kind == "witness":
        d, count, extent, batch = params
        return {"items": [{"dim": d, "boxes": degenerate_boxes(rng, d, count, extent)} for _ in range(batch)]}
    if kind == "thicken":
        d, count, extent, batch = params
        return {
            "items": [
                {
                    "dim": d,
                    "faces": cube_faces(rng, d, count, extent),
                    "bound": _BOUNDS[rng.below(len(_BOUNDS))],
                }
                for _ in range(batch)
            ]
        }
    if kind == "poset":
        d, count, extent, batch = params
        return {
            "items": [
                {"dim": d, "boxes": small_generic_boxes(rng, d, count, extent, 500)}
                for _ in range(batch)
            ]
        }
    if kind == "cli":
        command, model, code = params
        if model == _TORUS:
            body = None
            with open(ROOT / _TORUS, encoding="utf-8") as handle:
                cells = json.load(handle)["cells"]
            boxes = [(tuple(c), tuple(x + 1 for x in c)) for c in cells]
        elif model == "degenerate":
            body = {"dim": 3, "scale": 1, "boxes": degenerate_boxes(rng, 3, 6, 6)}
            boxes = body["boxes"]
        else:
            d, n, extent = model
            body = {"dim": d, "scale": 1, "boxes": generic_boxes(rng, d, n, extent)}
            boxes = body["boxes"]
        argv = [command]
        if command == "volume":
            argv += ["--method", "determinantal"]
        return {
            "argv": argv,
            "model": model if body is None else None,
            "body": body,
            "boxes": boxes,
            "code": code,
        }
    raise ValueError(f"unknown slot kind {kind!r}")


def build_round(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one round for ``seed``: one variant per slot."""
    ops = []
    for slot in WORKLOADS[workload]:
        if smoke and not slot.smoke:
            continue
        variant = Rng("round", workload, seed, slot.key).below(slot.variants)
        ops.append(Op(slot, variant, make_input(workload, slot, variant)))
    return ops


# ---------------------------------------------------------------------------
# operations, run in a child process with ``call`` wrapping every library call
#
# Each operation returns the library's results as they are; its renderer,
# run after the operation's timed span, turns them into plain data, and
# ``summarize`` reduces that to the digest and the few facts the checks
# need, so the full output never leaves the child.


def _analyze(data, call) -> dict:
    P = call("lattice.from_boxes", lattice.from_boxes, data["dim"], data["boxes"])
    return {
        "verdict": call("lattice.check_generic", lattice.check_generic, P),
        "census": call("lattice.vertex_census", lattice.vertex_census, P),
        "graph": call("lattice.skeleton", lattice.skeleton, P),
        "volume": call("lattice.volume", lattice.volume, P),
        "euler": call("lattice.euler", lattice.euler, P),
    }


def _render_analyze(raw) -> dict:
    census, graph = raw["census"], raw["graph"]
    return {
        "verdict": _verdict(raw["verdict"]),
        "by_class": dict(census.by_class),
        "by_mu": {str(k): v for k, v in census.by_mu.items()},
        "nodes": [[list(p), tau] for p, tau in graph.nodes],
        "arcs": [[list(a), list(b), axis] for a, b, axis in graph.arcs],
        "volume": str(raw["volume"]),
        "euler": raw["euler"],
    }


def _recognize(data, call) -> list:
    results = []
    for item in data["masks"]:
        d = item["dim"]
        oset = call("arrangement.OrthantSet", arrangement.OrthantSet, d, item["mask"])
        found = call(f"arrangement.recognize.d{d}", arrangement.recognize, oset)
        entry = {"dim": d, "diagram": found}
        if isinstance(found, spd.SignedSpd):
            entry["class"] = call("spd.canonical_key", spd.canonical_key, found.shape)
            entry["bouquet"] = list(call("spd.bouquet", spd.bouquet, found.shape))
        results.append(entry)
    return results


def _render_recognize(raw) -> dict:
    return {"results": [{**e, "diagram": diagram_text(e["diagram"])} for e in raw]}


def _witness(data, call) -> list:
    verdicts = []
    for item in data["items"]:
        P = call("lattice.from_boxes", lattice.from_boxes, item["dim"], item["boxes"])
        verdicts.append(call("lattice.check_generic", lattice.check_generic, P))
    return verdicts


def _render_witness(raw) -> dict:
    return {"items": [{"verdict": _verdict(v)} for v in raw]}


def _thicken(data, call) -> list:
    out = []
    for item in data["items"]:
        d, faces, bound = item["dim"], item["faces"], item["bound"]
        P = call("genericize.thicken", genericize.thicken, d, faces, bound)
        verdict = call("lattice.check_generic", lattice.check_generic, P)
        dist = call("genericize.distance_to_faces", genericize.distance_to_faces, P, faces)
        out.append((P, verdict, dist))
    return out


def _render_thicken(raw) -> dict:
    return {
        "items": [
            {
                "scale": P.scale,
                "boxes": sorted([list(lo), list(hi)] for lo, hi in P.boxes),
                "verdict": _verdict(verdict),
                "distance": str(dist),
            }
            for P, verdict, dist in raw
        ]
    }


def _poset(data, call) -> list:
    out = []
    for item in data["items"]:
        P = call("lattice.from_boxes", lattice.from_boxes, item["dim"], item["boxes"])
        out.append(call("lattice.face_poset", lattice.face_poset, P))
    return out


def _render_poset(raw) -> dict:
    return {"items": [_render_face_poset(fp) for fp in raw]}


def _render_face_poset(fp) -> dict:
    faces = []
    for f in fp.faces:
        rep = f.representative
        faces.append(
            [
                f.dim,
                list(f.free_axes),
                [list(x) for x in f.fixed],
                sorted(list(c) for c in f.cells),
                [str(c) for c in rep.point],
                rep.cone.mask,
                list(rep.essential_axes),
                rep.degree,
                diagram_text(rep.floral),
            ]
        )
    return {"faces": faces, "incidence": sorted(list(p) for p in fp.incidence)}


#: kind -> (operation, renderer); the ``cli`` kind runs as a process instead.
OPERATIONS = {
    "analyze": (_analyze, _render_analyze),
    "recognize": (_recognize, _render_recognize),
    "witness": (_witness, _render_witness),
    "thicken": (_thicken, _render_thicken),
    "poset": (_poset, _render_poset),
}


def _verdict(g) -> dict:
    return {
        "generic": g.generic,
        "witness": None if g.witness is None else [str(c) for c in g.witness],
    }


def diagram_text(x) -> str:
    """Canonical text of a recognition result, independent of set order."""
    if isinstance(x, spd.SignedSpd):
        return f"{_shape_text(x.shape)}|{sorted(x.neg)}"
    if isinstance(x, arrangement.Cylinder):
        return f"cyl{list(x.free_axes)}:{diagram_text(x.diagram)}"
    return repr(x)


def _shape_text(node) -> str:
    if isinstance(node, spd.Leaf):
        return str(node.axis)
    sep = "&" if isinstance(node, spd.Series) else "|"
    return "(" + sep.join(_shape_text(c) for c in node.children) + ")"


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# output checks that need no library call


def _units(op: Op, output: dict) -> list:
    """(input, output) pairs of an operation: one per item of a batch."""
    if "items" in op.data:
        return list(zip(op.data["items"], output["items"]))
    return [(op.data, output)]


def check_output(op: Op, output: dict) -> list[str]:
    """Laws and bounds the output must satisfy, beyond its frozen digest."""
    kind = op.slot.kind
    problems = []
    for data, out in _units(op, output):
        if kind == "analyze":
            if not out["verdict"]["generic"]:
                problems.append("generic input reported degenerate")
            n = {int(k): v for k, v in out["by_mu"].items()}
            chi = out["euler"]
            if data["dim"] == 2 and n.get(1, 0) - n.get(3, 0) != 4 * chi:
                problems.append("planar law n1 - n3 = 4 chi fails")
            if data["dim"] == 3 and n.get(1, 0) - n.get(3, 0) - n.get(5, 0) + n.get(7, 0) != 8 * chi:
                problems.append("law n1 - n3 - n5 + n7 = 8 chi fails")
            if len(out["nodes"]) != sum(n.values()):
                problems.append("skeleton nodes differ from the census total")
        elif kind == "recognize":
            for item, entry in zip(data["masks"], out["results"]):
                if item["floral"] and "class" not in entry:
                    problems.append(f"floral d={item['dim']} mask not recognized")
        elif kind == "witness":
            if out["verdict"]["generic"]:
                problems.append("union with a corner contact reported generic")
        elif kind == "thicken":
            if not out["verdict"]["generic"]:
                problems.append("thickened model is not generic")
            if not Fraction(out["distance"]) < data["bound"]:
                problems.append("thickened model is not within its bound")
        elif kind == "poset":
            if not out["faces"]:
                problems.append("face poset is empty")
        elif kind == "cli":
            if out["code"] != data["code"]:
                problems.append(f"exit code {out['code']}, expected {data['code']}")
    return problems


def _parsed_stdout(out: dict) -> dict:
    text = out["stdout"]
    return json.loads(text) if text.startswith("{") else {}


def witnesses(op: Op, output: dict) -> list:
    """(boxes, witness) for every degenerate verdict in the output, with
    the witness coordinates as the library or the CLI printed them."""
    found = []
    for data, out in _units(op, output):
        if op.slot.kind == "cli":
            witness = _parsed_stdout(out).get("witness")
        else:
            witness = (out.get("verdict") or {}).get("witness")
        if witness is not None:
            found.append((out.get("boxes") or data["boxes"], witness))
    return found


def counts(op: Op, output: dict) -> dict:
    """Work counts of one operation: grid positions (from the boxes of
    every model it analyses), vertices, arcs and witnesses (from the
    output)."""
    total = dict.fromkeys(("positions", "vertices", "arcs", "witnesses"), 0)
    for data, out in _units(op, output):
        boxes = out.get("boxes") or data.get("boxes")
        if boxes:
            total["positions"] += positions([tuple(map(tuple, b)) for b in boxes])
        if op.slot.kind == "cli":
            parsed = _parsed_stdout(out)
            total["vertices"] += sum((parsed.get("census_by_mu") or parsed.get("by_mu") or {}).values())
            total["arcs"] += (parsed.get("skeleton") or {}).get("arcs", 0)
        else:
            total["vertices"] += len(out.get("nodes", ()))
            total["arcs"] += len(out.get("arcs", ()))
    total["witnesses"] = len(witnesses(op, output))
    return total


def summarize(op: Op, output: dict) -> dict:
    """What the harness keeps of one execution: the output's digest, the
    problems found by ``check_output``, the witnesses to classify, the work
    counts and, for ``recognize``, how many results were floral."""
    results = output.get("results", ())
    return {
        "digest": digest(output),
        "problems": check_output(op, output),
        "witnesses": witnesses(op, output),
        "counts": counts(op, output),
        "recognized": len(results),
        "floral": sum("class" in entry for entry in results),
    }
