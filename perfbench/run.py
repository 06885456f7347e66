"""Run one benchmark workload and print its metrics as JSON.

From the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

The workload's round (see ``workloads.py``) is generated from the seed,
then run again and again, one operation at a time, until ``--seconds`` have
passed; the last round always completes.  Each operation runs in a forked
child (``cli`` operations in a fresh interpreter), so every model starts
from an empty mask-profile cache, as a fresh CLI process does, and each
child's peak RSS is known.  Only one child exists at a time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, records a span around every call into the
library, writes the spans to ``.perfbench_out/`` and prints the per-layer
metrics, each per round.  ``--smoke`` runs a reduced round for the
benchmark's own tests.

The last line of standard output is the result object; the line before it
is the full record, with the environment.  Exits with code 2, printing no
result, when the library source is not under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "cli_probe.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Set-up (a fresh interpreter importing the library, plus input
#: generation) is repeated this many times and its median reported.
SETUP_REPS = 7

#: What the ``orthotope`` console script runs.
CLI_MAIN = "import sys; from orthotopes.cli import main; sys.exit(main())"

#: Spans of these names come from the check phase, after the timed loop.
CHECK_SPANS = ("lattice.check_generic_warm", "lattice.classify_point")

#: Every span name the benchmark records; each yields ``<name>_s`` (busy
#: seconds per round) and ``<name>_n`` (calls per round).
SPAN_NAMES = (
    "lattice.from_boxes",
    "lattice.check_generic",
    "lattice.check_generic_warm",
    "lattice.vertex_census",
    "lattice.skeleton",
    "lattice.volume",
    "lattice.euler",
    "lattice.face_poset",
    "lattice.classify_point",
    "arrangement.OrthantSet",
    "arrangement.recognize.d5",
    "arrangement.recognize.d6",
    "arrangement.recognize.d7",
    "arrangement.recognize.d8",
    "spd.canonical_key",
    "spd.bouquet",
    "genericize.thicken",
    "genericize.distance_to_faces",
    "cli.floor",
    "cli.import",
    "cli.load_model",
    "cli.command",
)

COUNT_NAMES = ("positions", "vertices", "arcs", "witnesses")

PEAK_RSS_METHOD = "ru_maxrss from os.wait4 on each operation's child process"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced round for tests")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes


def _fork(fn):
    """Run ``fn()`` in a forked child; return (("ok", value) or ("error",
    text), rusage of the child)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child must never return into the parent's loop, whatever
        # happens, so every exception is caught and reported.
        status = 1
        try:
            os.close(read_end)
            payload = pickle.dumps(("ok", fn()))
            status = 0
        except BaseException:
            payload = pickle.dumps(("error", traceback.format_exc()))
        try:
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if not payload:
        return ("error", f"child ended with wait status {status}, no result"), usage
    return pickle.loads(payload), usage


def _spawn(argv, env):
    """Run a process to completion; return (exit code, stdout, stderr,
    rusage)."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env
    )
    # Outputs here are a few kilobytes, far below a pipe's buffer, so
    # reading one stream to its end before the other cannot deadlock.
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), usage


# ---------------------------------------------------------------------------
# the benchmark


class Bench:
    def __init__(self, args, wl):
        self.args = args
        self.wl = wl
        self.env = dict(os.environ)
        self.ops = []
        self.paths = {}
        self.spans = []

    # set-up ------------------------------------------------------------

    def setup(self) -> list:
        """Set up ``SETUP_REPS`` times; return each set-up's seconds."""
        times, keys = [], set()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            code, _out, err, _usage = _spawn([sys.executable, "-c", "import orthotopes.cli"], self.env)
            if code != 0:
                raise RuntimeError(f"importing the library failed:\n{err}")
            self.ops = self.wl.build_round(self.args.workload, self.args.seed, self.args.smoke)
            self.write_models()
            times.append(time.perf_counter() - t0)
            keys.add(self.wl.digest([[op.label, repr(op.data)] for op in self.ops]))
        if len(keys) != 1:
            raise RuntimeError("input generation is not deterministic")
        return times

    def write_models(self):
        folder = OUT / "models" / f"{self.args.workload}-seed{self.args.seed}"
        for op in self.ops:
            if op.slot.kind != "cli":
                continue
            if op.data["body"] is None:
                self.paths[op.label] = str(ROOT / op.data["model"])
                continue
            folder.mkdir(parents=True, exist_ok=True)
            path = folder / f"{op.slot.key}.json"
            path.write_text(json.dumps(op.data["body"]) + "\n", encoding="utf-8")
            self.paths[op.label] = str(path)

    # one operation -------------------------------------------------------

    def execute(self, op, op_id: str, traced: bool) -> dict:
        if op.slot.kind == "cli":
            return self._execute_cli(op, op_id, traced)
        run, render = self.wl.OPERATIONS[op.slot.kind]

        def child():
            spans = []
            call = _plain_call
            if traced:
                call = _span_call(spans, op_id)
            t0 = time.perf_counter()
            raw = run(op.data, call)
            t1 = time.perf_counter()
            return {"t0": t0, "t1": t1, "facts": self.wl.summarize(op, render(raw)), "spans": spans}

        (status, value), usage = _fork(child)
        if status != "ok":
            return {"error": value, "rss": usage.ru_maxrss}
        return {**value, "rss": usage.ru_maxrss}

    def _execute_cli(self, op, op_id: str, traced: bool) -> dict:
        args = op.data["argv"] + [self.paths[op.label]]
        t0 = time.perf_counter()
        if traced:
            argv = [sys.executable, str(PROBE), repr(t0)] + args
        else:
            argv = [sys.executable, "-c", CLI_MAIN] + args
        code, out, err, usage = _spawn(argv, self.env)
        t1 = time.perf_counter()
        result = {"t0": t0, "t1": t1, "rss": usage.ru_maxrss, "spans": []}
        if not traced:
            return {**result, "facts": self.wl.summarize(op, {"code": code, "stdout": out})}
        if code != 0:
            return {**result, "error": f"probe exited with {code}:\n{err}"}
        probe = json.loads(out)
        result["spans"] = [
            {"id": f"{op_id}.{i}", "parent": op_id, "name": name, "start": s, "end": e}
            for i, (name, s, e) in enumerate(probe["spans"])
        ]
        output = {"code": probe["code"], "stdout": probe["stdout"]}
        return {**result, "facts": self.wl.summarize(op, output)}

    def run_round(self, r: int, traced: bool):
        results = []
        w0 = time.perf_counter()
        for k, op in enumerate(self.ops):
            op_id = f"r{r}.{k}"
            res = self.execute(op, op_id, traced)
            res.update(op=op, id=op_id, traced=traced)
            results.append(res)
        return time.perf_counter() - w0, results

    # the loop ------------------------------------------------------------

    def loop(self):
        """Rounds until the time is up; with tracing, untraced and traced
        rounds alternate so both see the same machine state."""
        walls = {False: [], True: []}
        results = []
        start = time.perf_counter()
        r = 0
        while True:
            for traced in (False, True) if self.args.trace else (False,):
                wall, res = self.run_round(r, traced)
                walls[traced].append(wall)
                results.extend(res)
                r += 1
            if time.perf_counter() - start >= self.args.seconds:
                return walls, results

    # checks --------------------------------------------------------------

    def check(self, results) -> dict:
        """Problems per operation label.  Every execution is compared with
        the digest frozen for its input; the laws, the witness check and
        the warm re-check run once per distinct operation."""
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        frozen = digests.get(self.args.workload, {})
        problems = defaultdict(list)
        first = {}
        for res in results:
            op = res["op"]
            if "error" in res:
                problems[op.label].append(res["error"].strip().splitlines()[-1])
                continue
            expected = frozen.get(op.slot.key, [None] * op.slot.variants)[op.variant]
            if res["facts"]["digest"] != expected:
                problems[op.label].append("output differs from its frozen digest")
            first.setdefault(op.label, res)
        for label, res in first.items():
            op, facts = res["op"], res["facts"]
            start = time.perf_counter()
            problems[label].extend(facts["problems"])
            problems[label].extend(self.check_witnesses(label, facts["witnesses"]))
            if self.args.trace and op.slot.kind == "analyze":
                problems[label].extend(self._check_warm(op))
            self.spans.append(
                {"id": f"check:{label}", "parent": None, "name": "check",
                 "start": start, "end": time.perf_counter()}
            )
        return problems

    def check_witnesses(self, label: str, witnesses: list) -> list:
        """Every witness must classify as degenerate under classify_point."""
        lattice = self.wl.lattice
        call = _span_call(self.spans, f"check:{label}") if self.args.trace else _plain_call
        problems = []
        for boxes, witness in witnesses:
            P = call("lattice.from_boxes", lattice.from_boxes, len(witness), boxes)
            point = [Fraction(str(c)) for c in witness]
            pc = call("lattice.classify_point", lattice.classify_point, P, point)
            if pc.floral is not self.wl.arrangement.DEGENERATE:
                problems.append(f"witness {witness} classifies as {pc.floral!r}")
        return problems

    def _check_warm(self, op) -> list:
        """Call check_generic twice on the model in a fresh child; the
        second call is the warm one."""
        lattice = self.wl.lattice
        parent = f"check:{op.label}"

        def child():
            spans = []
            call = _span_call(spans, parent)
            P = call("lattice.from_boxes", lattice.from_boxes, op.data["dim"], op.data["boxes"])
            cold = call("lattice.check_generic", lattice.check_generic, P)
            warm = call("lattice.check_generic_warm", lattice.check_generic, P)
            return spans, cold == warm
        (status, value), _usage = _fork(child)
        if status != "ok":
            return [value.strip().splitlines()[-1]]
        spans, same = value
        self.spans.extend(spans)
        return [] if same else ["warm check_generic differs from the cold one"]

    # metrics -------------------------------------------------------------

    def end_to_end(self, setup_times, walls, results) -> dict:
        latencies = sorted(res["t1"] - res["t0"] for res in results if "t0" in res)
        tail, tail_pct = _tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.mean(walls[False]), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (max(res["rss"] for res in results) / 1024, "MB"),
        }
        extra = {
            "setup_times": setup_times,
            "op_samples": len(latencies),
            "op_tail_pct": tail_pct,
            "rounds": len(walls[False]),
            "round_walls": walls[False],
            "latencies": {
                op.label: [r["t1"] - r["t0"] for r in results if r["op"] is op and "t0" in r]
                for op in self.ops
            },
        }
        return metrics, extra

    def per_layer(self, walls, results) -> dict:
        traced = [res for res in results if res["traced"]]
        rounds = len(walls[True])
        busy, calls = defaultdict(float), Counter()
        op_time = call_time = 0.0
        for res in traced:
            if "t0" not in res:
                continue
            op_time += res["t1"] - res["t0"]
            for span in res["spans"]:
                busy[span["name"]] += span["end"] - span["start"]
                calls[span["name"]] += 1
                call_time += span["end"] - span["start"]
            self.spans.append(
                {"id": res["id"], "parent": None, "name": f"op.{res['op'].slot.kind}",
                 "start": res["t0"], "end": res["t1"], "label": res["op"].label}
            )
            self.spans.extend(res["spans"])
        metrics = {}
        for name in SPAN_NAMES:
            if name in CHECK_SPANS:
                checked = [s for s in self.spans if s["name"] == name]
                metrics[f"{name}_s"] = (sum(s["end"] - s["start"] for s in checked), "s")
                metrics[f"{name}_n"] = (len(checked), "count")
            else:
                metrics[f"{name}_s"] = (busy[name] / rounds, "s")
                metrics[f"{name}_n"] = (calls[name] / rounds, "count")
        totals = Counter()
        recognized = floral = 0
        first_round = results[: len(self.ops)]
        for res in first_round:
            if "facts" not in res:
                continue
            totals.update(res["facts"]["counts"])
            recognized += res["facts"]["recognized"]
            floral += res["facts"]["floral"]
        for name in COUNT_NAMES:
            metrics[f"lattice.{name}"] = (totals[name], "count")
        metrics["arrangement.recognize_floral_frac"] = (floral / recognized if recognized else 0.0, "ratio")
        metrics["trace.overhead_frac"] = (sum(walls[True]) / sum(walls[False]) - 1, "ratio")
        metrics["trace.accounted_frac"] = (call_time / op_time if op_time else 0.0, "ratio")
        return metrics

    def run(self) -> tuple[dict, dict]:
        setup_times = self.setup()
        walls, results = self.loop()
        problems = self.check(results)
        failed = sum(1 for res in results if problems.get(res["op"].label))
        if self.args.trace:
            metrics = self.per_layer(walls, results)
            extra = {"rounds": len(walls[True])}
            self._write_spans()
        else:
            metrics, extra = self.end_to_end(setup_times, walls, results)
        record = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "smoke": self.args.smoke,
            "attempted": len(results),
            "failed": failed,
            "failed_frac": failed / len(results),
            "problems": {k: v for k, v in sorted(problems.items()) if v},
            **extra,
            "metrics": {k: v for k, (v, _unit) in metrics.items()},
            "environment": environment(),
        }
        result = {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return record, result

    def _write_spans(self):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def _plain_call(_name, fn, *args):
    return fn(*args)


def _span_call(spans: list, parent: str):
    def call(name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spans.append(
                {"id": f"{parent}.{len(spans)}", "parent": parent, "name": name,
                 "start": start, "end": time.perf_counter()}
            )

    return call


def _tail(ordered: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile; the maximum when there are ten samples or fewer."""
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "peak_rss": PEAK_RSS_METHOD,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from ``.git`` directly; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "orthotopes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_workloads():
    """Import the workload definitions against the checkout's own library
    source; None, with the reason on stderr, when that source is missing."""
    if not (SRC / "orthotopes" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'orthotopes'}", file=sys.stderr)
        return None
    # One BLAS/OpenMP thread: the library's arrays are integer, one
    # operation runs at a time, and a process without threads forks safely.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    import orthotopes

    if Path(orthotopes.__file__).resolve().parent != (SRC / "orthotopes").resolve():
        print(f"error: imported orthotopes from {orthotopes.__file__}", file=sys.stderr)
        return None
    import workloads

    return workloads


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = load_workloads()
    if workloads is None:
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    record, result = Bench(args, workloads).run()
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    brief = {k: v for k, v in record.items() if k not in ("latencies", "round_walls")}
    print(json.dumps({"record": brief}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
