"""The library's runtime dependencies: what the CLI loads on start-up, and
what ``pyproject.toml`` declares against what the source imports."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthotopes"


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, orthotopes.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert result.stdout.strip() == "[]"


def test_repair_paths_load_no_numpy_ma():
    """A fresh process that analyzes, builds a face poset, thickens and
    measures Hausdorff distances never imports ``numpy.ma``, which costs
    a dozen milliseconds at start-up."""
    probe = """
import sys
from orthotopes import cli
from orthotopes.genericize import distance_to_faces, hausdorff_distance, thicken
from orthotopes.lattice import face_poset, from_boxes

P = from_boxes(2, [((0, 0), (3, 1)), ((1, 0), (2, 3))])
Q = from_boxes(3, [((0, 0, 0), (2, 2, 1)), ((0, 0, 1), (1, 1, 2)), ((1, 1, 1), (2, 2, 2))])
for model in (P, Q):
    cli._report(model)
face_poset(P)
faces = [((0, 0), (None, None)), ((1, 1), (0, None))]
R = thicken(2, faces, 1)
distance_to_faces(R, faces)
hausdorff_distance(P, R)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert result.stdout.strip() == "[]"


def test_local_sequence_loads_no_numpy_ma():
    """A fresh process that recognizes masks at d = 5..8, keys and
    bouquets their diagrams, and analyzes the d=6 cube never imports
    ``numpy.ma``; ``np.unique``, plain or along an axis, would."""
    probe = """
import sys
from orthotopes import cli
from orthotopes.arrangement import orthants_of, recognize
from orthotopes.lattice import from_boxes
from orthotopes.spd import bouquet, canonical_key, parse_expr

for text in ("(1|~2)&3&(~4|5)", "1&(2|3&~4)&(5|6)", "(1&2|~3)&(4|5&6)|7", "((1|2)&3|4)&(5|~6&7)|8"):
    found = recognize(orthants_of(parse_expr(text)))
    canonical_key(found.shape)
    bouquet(found.shape)
cli._report(from_boxes(6, [((0,) * 6, (1,) * 6)]))
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert result.stdout.strip() == "[]"


def _third_party_imports() -> set:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "orthotopes"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in declared}
    assert names == _third_party_imports()
