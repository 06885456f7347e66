"""Command-line interface, model serialization, and 2D rendering.

Models are JSON objects ``{"dim": d, "scale": n, "boxes": [[[lo],[hi]], ...]}``
or ``{"dim": d, "scale": n, "cells": [[x, ...], ...]}`` with integer entries;
the encoded point set is the cell union divided by the scale.  Cells are
read as unit boxes, and models are saved as boxes.  Reports are
JSON objects with genericity verdict, witness, volume, Euler characteristic,
vertex census, and skeleton summary.  All output is byte-stable: fixed key
order, fixed indentation, one trailing newline.

Exit codes: 0 success, 2 malformed input, 3 input not generic where a
formula requires it, 4 internal consistency failure, 5 model too large to
scan within the memory budget, or output of more unit cells than the cell
limit.

Importing this module loads only the standard library.  Each function
imports the layer it uses when it runs, so ``--help``, ``facet``,
``enum-spd`` and argument errors never load numpy, and the scan commands
load ``lattice`` but not ``genericize``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import IntegralOrthotope

__all__ = [
    "ModelFormatError",
    "load_faces",
    "load_model",
    "main",
    "render2d",
    "save_model",
]

EXIT_MALFORMED = 2
EXIT_NOT_GENERIC = 3
EXIT_INCONSISTENT = 4
EXIT_TOO_LARGE = 5

# The values of ``lattice.VolumeMethod`` and ``lattice.EulerMethod``, so
# that building the parser loads no scan; a test keeps them equal.
_VOLUME_METHODS = ("musum", "determinantal", "voxelcount")
_EULER_METHODS = ("sigmasum", "cubicalcomplex")

# rendering constants: fixed so that golden SVG files stay stable
_UNIT_PX = 32
_MARGIN_PX = 16
_FILL = "#c9d8ef"
_EDGE = "#1f3a5f"
_SALIENT = "#1f5a8f"
_REENTRANT = "#b0402a"


class ModelFormatError(ValueError):
    """A model or faces file violates the schema."""


# ---------------------------------------------------------------------------
# model files


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ModelFormatError(f"{where}: {message}")


def _int_list(value, where: str, length: int) -> tuple:
    _expect(isinstance(value, list), where, "expected a list")
    _expect(len(value) == length, where, f"expected {length} entries")
    for i, entry in enumerate(value):
        _expect(
            isinstance(entry, int) and not isinstance(entry, bool),
            f"{where}[{i}]",
            "expected an integer",
        )
    return tuple(value)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ModelFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def load_model(path: str) -> IntegralOrthotope:
    """Read a model file, reporting the offending field on schema errors."""
    from .lattice import from_boxes, from_cells

    data = _read_json(path)
    _expect(isinstance(data, dict), path, "top level must be an object")
    dim = data.get("dim")
    _expect(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
        f"{path}:dim",
        "expected a positive integer",
    )
    scale = data.get("scale", 1)
    _expect(
        isinstance(scale, int) and not isinstance(scale, bool) and scale >= 1,
        f"{path}:scale",
        "expected a positive integer",
    )
    has_boxes = "boxes" in data
    has_cells = "cells" in data
    _expect(
        has_boxes != has_cells,
        path,
        "need exactly one of 'boxes' or 'cells'",
    )
    extra = set(data) - {"dim", "scale", "boxes", "cells"}
    _expect(not extra, path, f"unknown fields {sorted(extra)}")
    try:
        if has_cells:
            field = data["cells"]
            _expect(isinstance(field, list), f"{path}:cells", "expected a list")
            cells = [
                _int_list(cell, f"{path}:cells[{i}]", dim)
                for i, cell in enumerate(field)
            ]
            return from_cells(dim, cells, scale)
        field = data["boxes"]
        _expect(isinstance(field, list), f"{path}:boxes", "expected a list")
        boxes = []
        for i, box in enumerate(field):
            where = f"{path}:boxes[{i}]"
            _expect(
                isinstance(box, list) and len(box) == 2,
                where,
                "expected a [lo, hi] pair",
            )
            boxes.append(
                (
                    _int_list(box[0], f"{where}[0]", dim),
                    _int_list(box[1], f"{where}[1]", dim),
                )
            )
        return from_boxes(dim, boxes, scale)
    except ValueError as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"{path}: {exc}") from exc


def save_model(P: IntegralOrthotope) -> dict:
    """Canonical model object with the boxes in sorted order, so that
    saving and reloading reproduces an equal orthotope byte for byte.  A
    model read from cells is saved as its unit boxes."""
    boxes = [[list(lo), list(hi)] for lo, hi in P.boxes]
    return {"dim": P.dim, "scale": P.scale, "boxes": boxes}


def load_faces(path: str):
    """Read a faces file ``{"dim": d, "faces": [[[corner], [spec]], ...]}``
    where spec entries are 0, 1, or null."""
    data = _read_json(path)
    _expect(isinstance(data, dict), path, "top level must be an object")
    dim = data.get("dim")
    _expect(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
        f"{path}:dim",
        "expected a positive integer",
    )
    field = data.get("faces")
    _expect(isinstance(field, list), f"{path}:faces", "expected a list")
    faces = []
    for i, item in enumerate(field):
        where = f"{path}:faces[{i}]"
        _expect(
            isinstance(item, list) and len(item) == 2,
            where,
            "expected a [corner, spec] pair",
        )
        corner = _int_list(item[0], f"{where}[0]", dim)
        spec = item[1]
        _expect(
            isinstance(spec, list) and len(spec) == dim,
            f"{where}[1]",
            f"expected {dim} entries of 0, 1, or null",
        )
        for j, entry in enumerate(spec):
            _expect(
                entry is None or (type(entry) is int and entry in (0, 1)),
                f"{where}[1][{j}]",
                "expected 0, 1, or null",
            )
        faces.append((corner, tuple(spec)))
    return dim, faces


# ---------------------------------------------------------------------------
# report pieces


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _coord_json(value, scale: int):
    true = Fraction(value, scale)
    if true.denominator == 1:
        return int(true)
    return str(true)


def _report(P: IntegralOrthotope) -> tuple[dict, int]:
    from .lattice import check_generic, euler, skeleton, vertex_census, volume

    verdict = check_generic(P)
    if not verdict.generic:
        body = {
            "generic": False,
            "witness": [_coord_json(c, P.scale) for c in verdict.witness],
            "volume": None,
            "euler": None,
            "census_by_mu": None,
            "census_by_class": None,
            "skeleton": None,
        }
        return body, EXIT_NOT_GENERIC
    census = vertex_census(P)
    graph = skeleton(P)
    body = {
        "generic": True,
        "witness": None,
        "volume": str(volume(P)),
        "euler": euler(P),
        "census_by_mu": {str(k): v for k, v in census.by_mu.items()},
        "census_by_class": dict(census.by_class),
        "skeleton": {
            "nodes": len(graph.nodes),
            "arcs": len(graph.arcs),
            "bipartite": graph.is_bipartite,
        },
    }
    return body, 0


# ---------------------------------------------------------------------------
# rendering


def _px(value: Fraction) -> str:
    if value.denominator == 1:
        return str(int(value))
    scaled = value.limit_denominator(10**6)
    text = f"{int(scaled * 10**6):d}"
    whole, frac = text[:-6] or "0", text[-6:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def render2d(P: IntegralOrthotope) -> str:
    """SVG picture of an orthogon: filled cells, boundary outline, and one
    mark per vertex, a disc for salient corners and a ring for reentrant
    ones.  Output is deterministic for a fixed model."""
    from .lattice import NotGenericError, check_generic, vertices

    if P.dim != 2:
        raise ValueError(f"render2d needs dimension 2, got {P.dim}")
    verdict = check_generic(P)
    if not verdict.generic:
        raise NotGenericError(verdict.witness)
    cells = sorted(P.cells)
    n = P.scale
    if cells:
        xs = [c[0] for c in cells]
        ys = [c[1] for c in cells]
        x0, x1 = min(xs), max(xs) + 1
        y0, y1 = min(ys), max(ys) + 1
    else:
        x0 = y0 = 0
        x1 = y1 = 1
    unit = Fraction(_UNIT_PX, n)

    def gx(x) -> str:
        return _px(_MARGIN_PX + (Fraction(x) - x0) * unit)

    def gy(y) -> str:
        return _px(_MARGIN_PX + (y1 - Fraction(y)) * unit)

    width = _px(2 * _MARGIN_PX + (x1 - x0) * unit)
    height = _px(2 * _MARGIN_PX + (y1 - y0) * unit)
    side = _px(unit)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
    ]
    cellset = set(cells)
    for cx, cy in cells:
        lines.append(
            f'<rect x="{gx(cx)}" y="{gy(cy + 1)}" width="{side}" '
            f'height="{side}" fill="{_FILL}" stroke="none"/>'
        )
    for cx, cy in cells:
        edges = (
            ((cx, cy - 1), (cx, cy), (cx + 1, cy)),
            ((cx, cy + 1), (cx, cy + 1), (cx + 1, cy + 1)),
            ((cx - 1, cy), (cx, cy), (cx, cy + 1)),
            ((cx + 1, cy), (cx + 1, cy), (cx + 1, cy + 1)),
        )
        for neighbour, a, b in edges:
            if neighbour not in cellset:
                lines.append(
                    f'<line x1="{gx(a[0])}" y1="{gy(a[1])}" '
                    f'x2="{gx(b[0])}" y2="{gy(b[1])}" '
                    f'stroke="{_EDGE}" stroke-width="2"/>'
                )
    for pc in sorted(vertices(P), key=lambda pc: pc.point):
        if pc.cone.count == 1:
            style = f'fill="{_SALIENT}" stroke="none"'
        else:
            style = f'fill="#ffffff" stroke="{_REENTRANT}" stroke-width="2"'
        lines.append(
            f'<circle cx="{gx(pc.point[0])}" cy="{gy(pc.point[1])}" '
            f'r="4" {style}/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(args) -> int:
    body, code = _report(load_model(args.model))
    _emit(_dumps(body), args.out)
    return code


def _cmd_check(args) -> int:
    from .lattice import check_generic

    P = load_model(args.model)
    verdict = check_generic(P)
    body = {
        "generic": verdict.generic,
        "witness": None
        if verdict.generic
        else [_coord_json(c, P.scale) for c in verdict.witness],
    }
    _emit(_dumps(body), args.out)
    return 0


def _cmd_census(args) -> int:
    from .lattice import vertex_census

    census = vertex_census(load_model(args.model))
    body = {
        "by_class": dict(census.by_class),
        "by_mu": {str(k): v for k, v in census.by_mu.items()},
        "total": census.total,
    }
    _emit(_dumps(body), args.out)
    return 0


def _cmd_volume(args) -> int:
    from .lattice import VolumeMethod, volume

    method = VolumeMethod(args.method)
    _emit(str(volume(load_model(args.model), method)) + "\n", args.out)
    return 0


def _cmd_euler(args) -> int:
    from .lattice import EulerMethod, euler

    method = EulerMethod(args.method)
    _emit(str(euler(load_model(args.model), method)) + "\n", args.out)
    return 0


def _cmd_facet(args) -> int:
    from .arrangement import facet
    from .spd import SignedSpd, format_expr, parse_expr

    try:
        result = facet(parse_expr(args.expr), args.axis)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    text = format_expr(result) if isinstance(result, SignedSpd) else repr(result)
    _emit(text + "\n", args.out)
    return 0


def _cmd_slice(args) -> int:
    from .lattice import cross_section

    if len(args.axis) != len(args.value):
        raise ModelFormatError("need one --value per --axis")
    P = load_model(args.model)
    fixes = {}
    for axis, text in zip(args.axis, args.value):
        try:
            value = Fraction(text) * P.scale
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"bad slice value {text!r}") from exc
        if axis in fixes:
            raise ModelFormatError(f"axis {axis} fixed twice")
        fixes[axis] = value
    try:
        section = cross_section(P, fixes)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    _emit(_dumps(save_model(section)), args.out)
    return 0


def _cmd_enum_spd(args) -> int:
    from .spd import enumerate_shapes, format_expr

    try:
        shapes = enumerate_shapes(args.dim)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    _emit("".join(format_expr(s) + "\n" for s in shapes), args.out)
    return 0


def _cmd_genericize(args) -> int:
    from .genericize import distance_to_faces, thicken

    dim, faces = load_faces(args.faces)
    try:
        bound = Fraction(args.bound)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(f"bad bound {args.bound!r}") from exc
    try:
        out = thicken(dim, faces, bound)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    _emit(_dumps(save_model(out)), args.out)
    if args.out is not None:
        summary = {
            "boxes": len(out.boxes),
            "distance": str(distance_to_faces(out, faces)),
            "scale": out.scale,
        }
        sys.stdout.write(_dumps(summary))
    return 0


def _cmd_random(args) -> int:
    from .genericize import random_generic

    try:
        out = random_generic(args.dim, args.count, args.extent, args.seed)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    _emit(_dumps(save_model(out)), args.out)
    return 0


def _cmd_render2d(args) -> int:
    P = load_model(args.model)
    if P.dim != 2:
        raise ModelFormatError(f"render2d needs a 2-dimensional model, got {P.dim}")
    _emit(render2d(P), args.out)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthotope",
        description="Exact analysis of unions of axis-aligned boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_model(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="model JSON file")
        p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
        p.set_defaults(handler=handler)
        return p

    with_model("analyze", _cmd_analyze, "full report: verdict, volume, euler, census, skeleton")
    with_model("check", _cmd_check, "genericity verdict with witness")
    with_model("census", _cmd_census, "vertex census by class and by mu")
    p = with_model("volume", _cmd_volume, "exact volume")
    p.add_argument(
        "--method",
        default="musum",
        choices=_VOLUME_METHODS,
    )
    p = with_model("euler", _cmd_euler, "Euler characteristic")
    p.add_argument(
        "--method",
        default="sigmasum",
        choices=_EULER_METHODS,
    )
    p = with_model("slice", _cmd_slice, "cross-section model at fixed axis values")
    p.add_argument("--axis", action="append", type=int, required=True)
    p.add_argument(
        "--value",
        action="append",
        required=True,
        help="coordinate, a rational like 1/2 (true units)",
    )
    with_model("render2d", _cmd_render2d, "SVG picture of a 2-dimensional model")

    p = sub.add_parser("facet", help="facet expression of a floral cone")
    p.add_argument("--expr", required=True)
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(handler=_cmd_facet)

    p = sub.add_parser("enum-spd", help="all series-parallel shapes on d edges")
    p.add_argument("dim", type=int)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(handler=_cmd_enum_spd)

    p = sub.add_parser("genericize", help="thicken a union of cube faces")
    p.add_argument("faces", help="faces JSON file")
    p.add_argument("--bound", required=True, help="rational distance bound")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(handler=_cmd_genericize)

    p = sub.add_parser("random", help="seeded random generic orthotope")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--extent", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(handler=_cmd_random)

    return parser


# How ``main`` reports a library error: the submodule that defines it, its
# name, the message prefix and the exit code, tried in this order.  Only a
# loaded submodule can have raised its errors, so ``main`` finds each in
# ``sys.modules`` and never imports a layer just to map an error.
_FAILURES = (
    ("spd", "ParseError", "error", EXIT_MALFORMED),
    ("lattice", "NotGenericError", "not generic", EXIT_NOT_GENERIC),
    ("lattice", "ConsistencyError", "internal consistency failure", EXIT_INCONSISTENT),
    ("lattice", "ScanTooLargeError", "too large", EXIT_TOO_LARGE),
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as exc:
        for module, name, prefix, code in _FAILURES:
            loaded = sys.modules.get(f"{__package__}.{module}")
            if loaded is not None and isinstance(exc, getattr(loaded, name)):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
