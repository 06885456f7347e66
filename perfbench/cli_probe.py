"""One traced CLI request, split into the layers a request passes through.

Run by ``run.py`` in place of the ``orthotope`` entry point when tracing:

    python3 perfbench/cli_probe.py <spawn time> <command> [args...] <model>

``<spawn time>`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so the gap to this script's first statement is the interpreter
floor.  Prints one JSON object: the spans, the exit code and the captured
standard output of ``main``.
"""

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawn = float(sys.argv[1])
    argv = sys.argv[2:]
    spans = [("cli.floor", spawn, _STARTED)]
    t0 = time.perf_counter()
    from orthotopes import cli

    t1 = time.perf_counter()
    spans.append(("cli.import", t0, t1))
    cli.load_model(argv[-1])
    t2 = time.perf_counter()
    spans.append(("cli.load_model", t1, t2))
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    spans.append(("cli.command", t2, time.perf_counter()))
    print(json.dumps({"spans": spans, "code": code, "stdout": captured.getvalue()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
