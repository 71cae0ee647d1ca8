#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload serial-sf1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py ... --record results.jsonl   # also append the result
    python3 perfbench/run.py --compare base.jsonl cand.jsonl

Run from the repository root. The harness (perfbench/harness, built with
perfbench/CMakeLists.txt against the repository's src/) is compiled into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; spill files go to
$CARGO_TARGET_DIR/spill. The last stdout line is the harness's JSON result. The
exit code is nonzero when the build fails, a result is wrong, or resources do
not return to their baseline.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures and builds the harness; returns its path or None."""
    bdir = os.path.join(out_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(bdir, "vcq_perfbench")
    return exe if os.path.exists(exe) else None


def run(args):
    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spill = os.path.join(out_dir, "spill")
    os.makedirs(spill, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale:
        cmd += ["--scale", str(args.scale)]
    if args.plant:
        cmd += ["--plant", args.plant]
    env = dict(os.environ, VCQ_SPILL_DIR=spill)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if args.record and lines:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "plant": args.plant or "",
                  "result": json.loads(lines[-1])}
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=0,
                        help="override the workload's scale factors (self-test)")
    parser.add_argument("--plant", default="", choices=("", "q9-tw"),
                        help="planted slowdown (self-test)")
    parser.add_argument("--record", help="append the result to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"),
                        help="compare two recorded result files")
    args = parser.parse_args(argv)
    if args.compare:
        sys.dont_write_bytecode = True
        sys.path.insert(0, HERE)
        import compare
        return compare.main(args.compare[0], args.compare[1])
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
