"""Write ``digests.json``: the output digest of every input variant of every
workload slot, computed with the library as it stands.

From the repository root:

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are known to be right; the benchmark
counts every later output that differs as a failed operation.  Prints each
variant whose output fails the benchmark's own checks and exits with 1 if
there is one.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    wl = run.load_workloads()
    if wl is None:
        return 2
    digests = {}
    bad = 0
    for name in wl.WORKLOADS:
        bench = run.Bench(argparse.Namespace(workload=name, seed=0, trace=0, smoke=False), wl)
        digests[name] = {}
        for slot in wl.WORKLOADS[name]:
            frozen = []
            for variant in range(slot.variants):
                op = wl.Op(slot, variant, wl.make_input(name, slot, variant))
                bench.ops = [op]
                bench.write_models()
                res = bench.execute(op, "freeze", traced=False)
                if "error" in res:
                    print(f"{name} {op.label}: {res['error']}", file=sys.stderr)
                    bad += 1
                    frozen.append(None)
                    continue
                facts = res["facts"]
                problems = facts["problems"] + bench.check_witnesses(op.label, facts["witnesses"])
                if problems:
                    print(f"{name} {op.label}: {problems}", file=sys.stderr)
                    bad += 1
                frozen.append(facts["digest"])
                print(f"{name} {op.label} {res['t1'] - res['t0']:.3f}s", flush=True)
            digests[name][slot.key] = frozen
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
