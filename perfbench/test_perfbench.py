"""The benchmark's own tests: a smoke round of every workload, traced and
untraced, must print every metric named in BENCHMARK.json with its unit and
fail no operation.

From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_round_emits_every_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_inputs_depend_only_on_the_seed():
    wl = run.load_workloads()
    for workload in WORKLOADS:
        first = wl.build_round(workload, 11)
        assert [(op.label, op.data) for op in first] == [
            (op.label, op.data) for op in wl.build_round(workload, 11)
        ]
        labels = {tuple(op.label for op in wl.build_round(workload, s)) for s in range(6)}
        assert len(labels) > 1


def test_every_slot_variant_has_a_frozen_digest():
    wl = run.load_workloads()
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for workload, slots in wl.WORKLOADS.items():
        for slot in slots:
            frozen = digests[workload][slot.key]
            assert len(frozen) == slot.variants and all(frozen)


def test_refuses_to_run_without_the_library_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for rel in SPEC["paths"]:
        shutil.copytree(
            run.ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
