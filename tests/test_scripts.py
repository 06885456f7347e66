"""Smoke tests of the README's scripts: each runs to exit 0 in a child
interpreter."""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def test_torus_demo_runs():
    assert _run("torus_demo.py")


def test_random_survey_runs():
    assert "2/2 clean instances" in _run("random_survey.py", "--dim", "2", "--seeds", "2")


def test_render_gallery_writes_its_pictures(tmp_path):
    _run("render_gallery.py", "--out", str(tmp_path))
    pictures = sorted(tmp_path.glob("*.svg"))
    assert len(pictures) == 6
    assert all("</svg>" in p.read_text(encoding="utf-8") for p in pictures)
