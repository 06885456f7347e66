"""Calculus of generic orthotopes.

Local theory: series-parallel diagrams and floral arrangements of
half-spaces (spd, arrangement).  Global theory: integral orthogonal
polytopes with exact volume, Euler characteristic, vertex census and face
structure (lattice), plus perturbation of degenerate inputs and random
generation (genericize).

Importing the package runs none of these modules.  Each public name, and
each submodule, is loaded on first access (PEP 562), so a user of the
local layer never imports numpy, which only the global layer needs.
"""

import importlib

# Each public name and the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "DEGENERATE": "arrangement",
    "EMPTY": "spd",
    "FULL": "spd",
    "TRIVIAL": "spd",
    "ConsistencyError": "lattice",
    "Cylinder": "arrangement",
    "EdgeKind": "spd",
    "EulerMethod": "lattice",
    "Face": "lattice",
    "FacePoset": "lattice",
    "FloralVertex": "arrangement",
    "Genericity": "lattice",
    "IntegralOrthotope": "lattice",
    "Leaf": "spd",
    "NotGenericError": "lattice",
    "OrthantSet": "arrangement",
    "Parallel": "spd",
    "ParseError": "spd",
    "PointClass": "lattice",
    "ScanTooLargeError": "lattice",
    "Series": "spd",
    "SetOp": "arrangement",
    "SignedSpd": "spd",
    "SkeletonGraph": "lattice",
    "TooManyCellsError": "lattice",
    "VertexCensus": "lattice",
    "VolumeMethod": "lattice",
    "bouquet": "spd",
    "canonical_form": "spd",
    "canonical_key": "spd",
    "check_generic": "lattice",
    "classify_point": "lattice",
    "combine": "arrangement",
    "cross_section": "lattice",
    "delete_edge": "spd",
    "distance_to_faces": "genericize",
    "dual": "spd",
    "edge_count": "spd",
    "edge_cross_section": "arrangement",
    "edge_direction": "arrangement",
    "edge_kind": "spd",
    "enumerate_shapes": "spd",
    "euler": "lattice",
    "face_box": "genericize",
    "face_poset": "lattice",
    "facet": "arrangement",
    "format_expr": "spd",
    "from_boxes": "lattice",
    "from_cells": "lattice",
    "hausdorff_distance": "genericize",
    "mu": "spd",
    "orthant_counts": "arrangement",
    "orthants_of": "arrangement",
    "parse_expr": "spd",
    "random_generic": "genericize",
    "recognize": "arrangement",
    "residual_cross_section": "arrangement",
    "residual_diagram": "spd",
    "set_ops": "lattice",
    "sigma_sum": "lattice",
    "skeleton": "lattice",
    "tau": "spd",
    "thicken": "genericize",
    "vertex_census": "lattice",
    "vertex_count": "spd",
    "vertices": "lattice",
    "volume": "lattice",
}

_SUBMODULES = frozenset({"arrangement", "cli", "genericize", "lattice", "spd"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # cached, so the next access is a plain attribute read
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
