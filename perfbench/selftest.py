#!/usr/bin/env python3
"""Self-test of the benchmark: contract, self-comparison, attribution.

    python3 perfbench/selftest.py

1. Contract: every workload prints exactly the end-to-end (--trace 0) and
   per-layer (--trace 1) metric names and units BENCHMARK.json declares,
   and passes its correctness gate (small scale, short runs).
2. Self-comparison: a recorded result compared with itself reads 1.00x on
   every metric, and nothing is flagged.
3. Attribution: the serial workload with a planted slowdown confined to the
   Q9 Tectorwise cell (prepared with 1-tuple vectors), interleaved with the
   unmodified benchmark, is flagged at tw.Q9.* and at the Tectorwise
   operators, while typer.Q9.* stay flat. It runs small (SF 0.1), with the
   workload's own thread count.

Exits nonzero on the first failed check. Takes a few minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402

PAIRS = 5
SCALE = 0.1


def bench_run(out, workload, seed, trace, seconds, scale=0.0, plant=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--record", out]
    if scale:
        cmd += ["--scale", str(scale)]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("FAIL: %s seed %d trace %d exited %d" %
                         (workload, seed, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, message):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        raise SystemExit(1)


def main():
    bench = compare.load_bench()
    work = os.path.join(run.build_dir(), "selftest")
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))

    # 1. Contract.
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench_run(os.path.join(work, "contract.jsonl"),
                               w["name"], 1, trace, 1, scale=0.05)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s --trace %d prints the %s metrics" %
                  (w["name"], trace, key))
            check(result["correct"] and result["failed"] == 0,
                  "%s --trace %d passes the correctness gate" %
                  (w["name"], trace))

    # 2. Self-comparison.
    records = compare.load(os.path.join(work, "contract.jsonl"))
    report = compare.compare(records, records, bench)
    flagged = [(w, n) for w, e in report.items()
               for part in e.values() for n, s in part.items()
               if s["verdict"] not in ("within bound", "flat")
               or s["ratio"] not in (None, 1.0)]
    check(not flagged, "a result compared with itself reads 1.00x: %s" %
          (flagged or "none flagged"))

    # 3. Planted slowdown, interleaved with the unmodified benchmark.
    base = os.path.join(work, "base.jsonl")
    cand = os.path.join(work, "plant.jsonl")
    for seed in range(1, PAIRS + 1):
        sides = [(base, ""), (cand, "q9-tw")]
        if seed % 2 == 0:
            sides.reverse()
        for out, plant in sides:
            bench_run(out, "serial-sf1", seed, 1, 6, scale=SCALE, plant=plant)
    report = compare.compare(compare.load(base), compare.load(cand), bench)
    print(compare.render(report))
    layers = report["serial-sf1"]["per_layer"]
    moved = {n for n, s in layers.items() if s["verdict"] == "moved"}
    check({"tw.Q9.ms_p50", "tw.Q9.ns_per_tuple"} <= moved,
          "planted slowdown flagged at tw.Q9.*")
    check(any(n.startswith("tw.op.") for n in moved),
          "planted slowdown flagged at a Tectorwise operator: %s" %
          sorted(n for n in moved if n.startswith("tw.op.")))
    check(not moved & {"typer.Q9.ms_p50", "typer.Q9.ns_per_tuple"},
          "typer.Q9.* stay flat")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
