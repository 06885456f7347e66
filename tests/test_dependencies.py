"""The library's runtime dependencies: what the package and the CLI load on
start-up and per command, the lazily resolved package exports, what
``pyproject.toml`` declares against what the source imports, and which
code builds the dense slab occupancy."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthotopes"


def _fresh(probe: str) -> str:
    """Standard output of ``probe`` run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
        cwd=ROOT,
    )
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, orthotopes.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _fresh(probe) == "[]"


_GLOBAL_LAYER = ("numpy", "orthotopes.lattice", "orthotopes.genericize")


@pytest.mark.parametrize("statement", ["import orthotopes", "import orthotopes.cli"])
def test_importing_loads_no_global_layer(statement):
    probe = f"import sys; {statement}; print(sorted(m for m in {_GLOBAL_LAYER!r} if m in sys.modules))"
    assert _fresh(probe) == "[]"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["enum-spd", "4"], 0),
        (["facet", "--expr", "(1|2)&3", "--axis", "1"], 0),
        (["facet", "--expr", "1&&2", "--axis", "1"], 2),
        (["--help"], 0),
        (["volume", "--method", "bogus", "fixtures/torus.json"], 2),
        (["enum-spd", "0"], 2),
        (["enum-spd", "13"], 2),
    ],
)
def test_local_commands_and_argument_errors_load_no_numpy(argv, code):
    probe = f"""
import contextlib, io, sys
from orthotopes import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(code, sorted(m for m in ("numpy", "orthotopes.lattice") if m in sys.modules))
"""
    assert _fresh(probe) == f"{code} []"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze"], 0),
        (["check"], 0),
        (["census"], 0),
        (["volume"], 0),
        (["euler"], 0),
        (["slice", "--axis", "1", "--value", "1"], 0),
        (["render2d"], 2),
    ],
)
def test_scan_commands_load_lattice_but_not_genericize(argv, code):
    argv = [argv[0], "fixtures/torus.json", *argv[1:]]
    probe = f"""
import contextlib, io, sys
from orthotopes import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main({argv!r})
print(code, sorted(m for m in ("orthotopes.lattice", "orthotopes.genericize") if m in sys.modules))
"""
    assert _fresh(probe) == f"{code} ['orthotopes.lattice']"


def test_package_exports_are_the_submodules_objects():
    import orthotopes
    from orthotopes import arrangement, genericize, lattice, spd

    layers = (arrangement, genericize, lattice, spd)
    for name in orthotopes.__all__:
        owners = [vars(m)[name] for m in layers if name in vars(m)]
        assert owners, name
        assert all(getattr(orthotopes, name) is owner for owner in owners), name
    assert set(orthotopes.__all__) <= set(dir(orthotopes))
    namespace = {}
    exec("from orthotopes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(orthotopes.__all__)
    with pytest.raises(AttributeError):
        orthotopes.no_such_name


def test_submodules_resolve_as_package_attributes():
    probe = """
import orthotopes
print(all(getattr(orthotopes, name).__name__ == "orthotopes." + name
          for name in ("arrangement", "genericize", "lattice", "spd", "cli")))
"""
    assert _fresh(probe) == "True"


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
    assert _fresh(probe) == "[]"


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
    assert _fresh(probe) == "[]"


# Modules whose import loads no third-party package, so that the package,
# the CLI's start-up and the local layer stay free of numpy.
_STDLIB_ONLY = ("__init__.py", "arrangement.py", "cli.py", "spd.py")


def _module_level_imports(path: Path) -> set:
    """Top-level names of the absolute imports a module runs when it is
    imported: its body and class bodies, not function bodies."""
    names = set()
    pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return names


def test_only_the_global_layer_imports_numpy_at_module_level():
    imports = {path.name: _module_level_imports(path) for path in PACKAGE.glob("*.py")}
    assert sorted(name for name, found in imports.items() if "numpy" in found) == [
        "genericize.py",
        "lattice.py",
    ]
    for name in _STDLIB_ONLY:
        third_party = {n for n in imports[name] if n not in sys.stdlib_module_names}
        assert not third_party, name


def _callers(tree: ast.AST, name: str) -> set:
    """Qualified names of the functions in ``tree`` that call ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                found.add(scope)
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_the_scan_and_the_cubical_oracle_build_an_occupancy():
    # one dense slab occupancy per model: the scan's, read off as its runs
    # along the last axis and dropped once they are, and the cubical Euler
    # oracle's own; no scan keeps one
    callers, kept = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {f"{path.stem}.{scope}" for scope in _callers(tree, "_occupancy")}
        kept += [
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "occ"
        ]
    assert callers == {"lattice._occupancy_runs", "lattice.euler"}
    assert kept == []


def test_the_scan_table_is_the_only_source_of_orthant_counts():
    # mu_d and tau_d are carried through the scan's table (``_pair_codes``);
    # the global layer neither imports nor calls ``orthant_counts``
    tree = ast.parse((PACKAGE / "lattice.py").read_text(encoding="utf-8"))
    named = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "orthant_counts")
        or (isinstance(node, ast.Attribute) and node.attr == "orthant_counts")
        or (isinstance(node, ast.alias) and "orthant_counts" in (node.name, node.asname))
    ]
    assert named == []


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
