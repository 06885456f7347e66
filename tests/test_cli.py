"""Command-line plumbing: model files, reports, exit codes, rendering."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import child_env
from orthotopes import cli, genericize, lattice
from orthotopes.arrangement import facet
from orthotopes.cli import (
    EXIT_INCONSISTENT,
    EXIT_MALFORMED,
    EXIT_NOT_GENERIC,
    EXIT_TOO_LARGE,
    ModelFormatError,
    load_faces,
    load_model,
    main,
    render2d,
    save_model,
)
from orthotopes.genericize import random_generic
from orthotopes.lattice import euler, from_boxes, from_cells, volume
from orthotopes.spd import format_expr, parse_expr

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "torus.json"

Q_MODEL = {
    "dim": 3,
    "scale": 1,
    "boxes": [
        [[0, 0, 0], [2, 2, 1]],
        [[0, 0, 1], [1, 1, 2]],
        [[1, 1, 1], [2, 2, 2]],
    ],
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _model_path(tmp_path, P, name="model.json"):
    return _write(tmp_path, name, save_model(P))


# ---------------------------------------------------------------------------
# model files


def test_fixture_loads_to_28_cells():
    P = load_model(str(FIXTURE))
    assert P.dim == 3 and P.scale == 1
    assert len(P.cells) == 28


def test_save_then_load_round_trips(tmp_path):
    P = load_model(str(FIXTURE))
    path = _model_path(tmp_path, P)
    assert load_model(path) == P
    boxed = from_boxes(2, [((0, 0), (2, 1)), ((0, 1), (1, 2))], scale=2)
    path = _model_path(tmp_path, boxed, "boxed.json")
    assert load_model(path) == boxed


def test_cells_and_boxes_forms_agree(tmp_path):
    cells = {"dim": 2, "scale": 1, "cells": [[0, 0], [1, 0], [0, 1]]}
    boxes = {
        "dim": 2,
        "scale": 1,
        "boxes": [[[0, 0], [2, 1]], [[0, 1], [1, 2]]],
    }
    a = load_model(_write(tmp_path, "c.json", cells))
    b = load_model(_write(tmp_path, "b.json", boxes))
    assert a == b


@pytest.mark.parametrize(
    "mangle",
    [
        lambda m: m.pop("dim"),
        lambda m: m.update(dim="3"),
        lambda m: m.update(scale=0),
        lambda m: m.update(cells=[[0, 0, 0]]),
        lambda m: m.pop("boxes"),
        lambda m: m.update(extra=1),
        lambda m: m.update(boxes=[[[0, 0, 0], [1, 1]]]),
        lambda m: m.update(boxes=[[[0, 0, 0], [0, 1, 1]]]),
        lambda m: m.update(boxes=[[[0, 0, 0.5], [1, 1, 1]]]),
    ],
)
def test_load_model_rejects_schema_violations(tmp_path, mangle):
    model = {k: (list(v) if isinstance(v, list) else v) for k, v in Q_MODEL.items()}
    mangle(model)
    with pytest.raises(ModelFormatError):
        load_model(_write(tmp_path, "bad.json", model))


def test_load_model_names_the_offending_field(tmp_path):
    model = {"dim": 2, "scale": 1, "cells": [[0, "x"]]}
    with pytest.raises(ModelFormatError, match=r"cells\[0\]\[1\]"):
        load_model(_write(tmp_path, "bad.json", model))


def test_load_faces_schema(tmp_path):
    path = _write(
        tmp_path, "faces.json", {"dim": 2, "faces": [[[0, 0], [None, 1]]]}
    )
    dim, faces = load_faces(path)
    assert dim == 2 and faces == [((0, 0), (None, 1))]
    bad = _write(tmp_path, "bad.json", {"dim": 2, "faces": [[[0, 0], [2, 1]]]})
    with pytest.raises(ModelFormatError, match=r"faces\[0\]\[1\]\[0\]"):
        load_faces(bad)


@pytest.mark.parametrize("entry", [True, False, 1.0])
def test_genericize_refuses_spec_entries_that_only_compare_as_0_or_1(tmp_path, capsys, entry):
    # True == 1 and 1.0 == 1, but only the integers 0 and 1 pin a side
    faces = {"dim": 2, "faces": [[[0, 0], [entry, None]]]}
    path = _write(tmp_path, "faces.json", faces)
    with pytest.raises(ModelFormatError, match=r"faces\[0\]\[1\]\[0\]"):
        load_faces(path)
    assert main(["genericize", path, "--bound", "1/2"]) == EXIT_MALFORMED
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# commands and exit codes


def test_analyze_fixture_report(capsys):
    assert main(["analyze", str(FIXTURE)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generic"] is True
    assert report["witness"] is None
    assert report["volume"] == "28"
    assert report["euler"] == 0
    assert report["census_by_mu"] == {"1": 15, "3": 11, "5": 5, "7": 1}
    assert report["census_by_class"] == {
        "1&2&3": 15,
        "(1|2)&3": 11,
        "(1&2)|3": 5,
        "1|2|3": 1,
    }
    assert report["skeleton"] == {"nodes": 32, "arcs": 48, "bipartite": True}


def test_analyze_is_byte_stable(capsys):
    main(["analyze", str(FIXTURE)])
    first = capsys.readouterr().out
    main(["analyze", str(FIXTURE)])
    assert capsys.readouterr().out == first
    assert first.endswith("\n")


def test_analyze_degenerate_exits_3_with_witness(tmp_path, capsys):
    path = _write(tmp_path, "q.json", Q_MODEL)
    assert main(["analyze", path]) == EXIT_NOT_GENERIC
    report = json.loads(capsys.readouterr().out)
    assert report["generic"] is False
    assert report["witness"] == [1, 1, 1]
    assert report["volume"] is None
    assert report["skeleton"] is None


def test_check_reports_without_failing(tmp_path, capsys):
    path = _write(tmp_path, "q.json", Q_MODEL)
    assert main(["check", path]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [1, 1, 1]
    assert main(["check", str(FIXTURE)]) == 0
    assert json.loads(capsys.readouterr().out) == {"generic": True, "witness": None}


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_MALFORMED
    assert "broken.json:1" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "missing.json")]) == EXIT_MALFORMED
    capsys.readouterr()


def test_coordinates_the_scan_cannot_hold_exit_2(tmp_path, capsys):
    for model in (
        {"dim": 1, "boxes": [[[0], [2**63]]]},
        {"dim": 1, "boxes": [[[-(2**63)], [0]]]},
        {"dim": 1, "cells": [[2**63 - 2]]},
    ):
        assert main(["analyze", _write(tmp_path, "far.json", model)]) == EXIT_MALFORMED
        assert "has a coordinate outside" in capsys.readouterr().err


def test_scan_over_budget_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(lattice, "_SCAN_BYTE_LIMIT", 1000)
    for argv in (
        ["analyze", str(FIXTURE)],
        ["volume", str(FIXTURE), "--method", "voxelcount"],
    ):
        assert main(argv) == EXIT_TOO_LARGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("too large: scan of ")

    # commands that rewrap ValueError as malformed input let it through
    def too_large(*_args):
        raise lattice.ScanTooLargeError(10**9, 10**10)

    # ``random`` looks ``random_generic`` up in ``genericize`` when it runs
    monkeypatch.setattr(genericize, "random_generic", too_large)
    flags = ["--dim", "2", "--count", "3", "--extent", "9", "--seed", "1"]
    assert main(["random", *flags]) == EXIT_TOO_LARGE
    assert "10000000000 bytes" in capsys.readouterr().err


def test_too_many_cells_exits_5(tmp_path, capsys):
    # 9 million cells is past the cell limit: a large output, not a bug
    path = _write(tmp_path, "square.json", {"dim": 2, "boxes": [[[0, 0], [3000, 3000]]]})
    assert main(["render2d", path]) == EXIT_TOO_LARGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("too large: refusing to materialize about 9000000 cells")


def test_consistency_failure_exits_4(monkeypatch, capsys):
    def broken(_P):
        raise lattice.ConsistencyError("skeleton arcs disagree")

    monkeypatch.setattr(lattice, "skeleton", broken)
    assert main(["analyze", str(FIXTURE)]) == EXIT_INCONSISTENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal consistency failure: skeleton arcs disagree\n"


def test_unmapped_errors_propagate_from_main(monkeypatch):
    def broken(_P):
        raise KeyError("not a library error")

    monkeypatch.setattr(lattice, "vertex_census", broken)
    with pytest.raises(KeyError, match="not a library error"):
        main(["census", str(FIXTURE)])


@pytest.mark.parametrize("command, enum", [("volume", lattice.VolumeMethod), ("euler", lattice.EulerMethod)])
def test_method_choices_are_the_enum_values(command, enum, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(FIXTURE), "--method", "bogus"])
    assert exit_info.value.code == EXIT_MALFORMED
    listed = ", ".join(repr(m.value) for m in enum)
    assert f"invalid choice: 'bogus' (choose from {listed})" in capsys.readouterr().err
    for m in enum:
        assert main([command, str(FIXTURE), "--method", m.value]) == 0


def test_volume_and_euler_commands(tmp_path, capsys):
    for method, expected in (
        ("musum", "28"),
        ("determinantal", "28"),
        ("voxelcount", "28"),
    ):
        assert main(["volume", str(FIXTURE), "--method", method]) == 0
        assert capsys.readouterr().out == expected + "\n"
    for method in ("sigmasum", "cubicalcomplex"):
        assert main(["euler", str(FIXTURE), "--method", method]) == 0
        assert capsys.readouterr().out == "0\n"
    q = _write(tmp_path, "q.json", Q_MODEL)
    assert main(["volume", q]) == EXIT_NOT_GENERIC
    capsys.readouterr()
    assert main(["volume", q, "--method", "voxelcount"]) == 0
    assert capsys.readouterr().out == "6\n"
    assert main(["euler", q]) == EXIT_NOT_GENERIC
    capsys.readouterr()
    assert main(["euler", q, "--method", "cubicalcomplex"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_census_command(capsys):
    assert main(["census", str(FIXTURE)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["total"] == 32
    assert body["by_mu"]["7"] == 1


def test_facet_command_matches_library(capsys):
    expr = "(((((1|2)&3)|4)&5)|6)&(7|8)"
    assert main(["facet", "--expr", expr, "--axis", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == format_expr(facet(parse_expr(expr), 4))
    assert main(["facet", "--expr", "1&2", "--axis", "9"]) == EXIT_MALFORMED
    capsys.readouterr()
    assert main(["facet", "--expr", "1&&2", "--axis", "1"]) == EXIT_MALFORMED
    capsys.readouterr()


def test_facet_of_single_edge_is_the_trivial_cone(capsys):
    assert main(["facet", "--expr", "1", "--axis", "1"]) == 0
    assert capsys.readouterr().out == "Trivial\n"


def test_slice_command(tmp_path, capsys):
    out = tmp_path / "slice.json"
    assert main(
        ["slice", str(FIXTURE), "--axis", "3", "--value", "1/2", "-o", str(out)]
    ) == 0
    section = load_model(str(out))
    assert section.dim == 2
    assert len(section.cells) == 14
    assert main(
        ["slice", str(FIXTURE), "--axis", "3", "--value", "5/2", "-o", str(out)]
    ) == 0
    assert load_model(str(out)).cells == {(1, 0), (2, 0), (3, 0), (4, 0)}
    assert main(["slice", str(FIXTURE), "--axis", "3", "--value", "1/3"]) == EXIT_MALFORMED
    capsys.readouterr()
    assert main(
        ["slice", str(FIXTURE), "--axis", "1", "--axis", "3", "--value", "1/2"]
    ) == EXIT_MALFORMED
    capsys.readouterr()
    with pytest.raises(SystemExit, match="2"):
        main(["slice", str(FIXTURE), "--axis", "3"])
    capsys.readouterr()


def test_enum_spd_command(capsys):
    assert main(["enum-spd", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert "1&2&3&4" in lines and "1|2|3|4" in lines
    assert main(["enum-spd", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_random_command_is_deterministic(tmp_path, capsys):
    flags = ["--dim", "2", "--count", "8", "--extent", "50", "--seed", "11"]
    assert main(["random", *flags]) == 0
    first = capsys.readouterr().out
    assert main(["random", *flags]) == 0
    assert capsys.readouterr().out == first
    model = json.loads(first)
    assert model["dim"] == 2 and len(model["boxes"]) == 8
    assert main(["random", "--dim", "2", "--count", "9", "--extent", "10",
                 "--seed", "1"]) == EXIT_MALFORMED
    capsys.readouterr()


def test_genericize_command(tmp_path, capsys):
    faces = {
        "dim": 3,
        "faces": [
            [[0, 0, 0], [None, None, None]],
            [[1, 1, 0], [None, None, None]],
        ],
    }
    path = _write(tmp_path, "faces.json", faces)
    out = tmp_path / "thick.json"
    assert main(["genericize", path, "--bound", "1/2", "-o", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert Fraction(summary["distance"]) < Fraction(1, 2)
    thick = load_model(str(out))
    assert main(["check", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["generic"] is True
    assert thick.dim == 3
    bad = _write(tmp_path, "bad.json", {"dim": 3, "faces": []})
    assert main(["genericize", bad, "--bound", "1/2"]) == EXIT_MALFORMED
    capsys.readouterr()
    assert main(["genericize", path, "--bound", "oops"]) == EXIT_MALFORMED
    capsys.readouterr()


# ---------------------------------------------------------------------------
# rendering


def test_render2d_unit_square_marks(tmp_path, capsys):
    square = from_cells(2, [(0, 0)])
    path = _model_path(tmp_path, square)
    assert main(["render2d", path]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count('fill="#1f5a8f"') == 4
    assert svg.count('stroke="#b0402a"') == 0


def test_render2d_l_shape_marks(tmp_path, capsys):
    ell = from_cells(2, [(0, 0), (1, 0), (0, 1)])
    path = _model_path(tmp_path, ell)
    assert main(["render2d", path]) == 0
    svg = capsys.readouterr().out
    assert svg.count('fill="#1f5a8f"') == 5
    assert svg.count('stroke="#b0402a"') == 1


def test_render2d_marks_obey_corner_law(tmp_path, capsys):
    P = random_generic(2, 10, 60, seed=33)
    path = _model_path(tmp_path, P)
    assert main(["render2d", path]) == 0
    svg = capsys.readouterr().out
    salient = svg.count('fill="#1f5a8f"')
    reentrant = svg.count('stroke="#b0402a"')
    assert salient - reentrant == 4 * euler(P)


def test_render2d_is_byte_stable(tmp_path):
    P = random_generic(2, 6, 40, seed=9)
    path = _model_path(tmp_path, P)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["render2d", path, "-o", str(out1)]) == 0
    assert main(["render2d", path, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_render2d_rejects_bad_inputs(tmp_path, capsys):
    assert main(["render2d", str(FIXTURE)]) == EXIT_MALFORMED
    capsys.readouterr()
    touching = from_boxes(2, [((0, 0), (1, 1)), ((1, 1), (2, 2))])
    path = _model_path(tmp_path, touching)
    assert main(["render2d", path]) == EXIT_NOT_GENERIC
    capsys.readouterr()
    with pytest.raises(ValueError):
        render2d(load_model(str(FIXTURE)))


def test_module_entry_point_round_trip(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "orthotopes.cli", "analyze", str(FIXTURE)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["volume"] == "28"


def test_fixture_file_is_canonical():
    raw = FIXTURE.read_text(encoding="utf-8")
    body = json.loads(raw)
    assert raw == json.dumps(body, indent=2, sort_keys=True) + "\n"
    assert body["cells"] == sorted(body["cells"])
