"""Compares two recorded result files of the benchmark (run.py --record).

Runs are paired by (workload, trace, seed); record the base and the
candidate interleaved, alternating which side runs first. For every
workload and end-to-end metric it prints both medians and quartiles, the
share of pairs the candidate wins (ties count for neither side) and a
verdict against the metric's bound in BENCHMARK.json. Per-layer metrics
follow as median ratios, with the ones that moved listed first, so a
regression is located at the layer that moved.
"""

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
# A per-layer metric "moved" when its median changed by more than this
# share and at least nine pairs in ten moved the same way.
LAYER_THRESHOLD = 0.10
WIN_SHARE = 0.9


def load_bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(base, cand, better):
    """Statistics of one metric over paired values (lists of equal size)."""
    bmed, cmed = statistics.median(base), statistics.median(cand)
    bq1, bq3 = quartiles(base)
    cq1, cq3 = quartiles(cand)
    up = sum(1 for b, c in zip(base, cand) if c > b) / len(base)
    down = sum(1 for b, c in zip(base, cand) if c < b) / len(base)
    wins = up if better == "higher" else down
    ratio = cmed / bmed if bmed else (1.0 if cmed == 0 else None)
    worse_by = 0.0
    if bmed:
        worse_by = (cmed - bmed) / bmed
        if better == "higher":
            worse_by = -worse_by
    return {"base": [bq1, bmed, bq3], "cand": [cq1, cmed, cq3],
            "ratio": ratio, "wins": wins, "up": up, "down": down,
            "worse_by": worse_by, "pairs": len(base)}


def pair_values(base_runs, cand_runs, name):
    base, cand = [], []
    for seed in sorted(set(base_runs) & set(cand_runs)):
        bm = base_runs[seed]["result"]["metrics"]
        cm = cand_runs[seed]["result"]["metrics"]
        if name in bm and name in cm:
            base.append(bm[name]["value"])
            cand.append(cm[name]["value"])
    return base, cand


def compare(base_records, cand_records, bench):
    """Returns {workload: {"end_to_end": {...}, "per_layer": {...}}}."""
    def index(records):
        out = {}
        for r in records:
            out.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
        return out

    bidx, cidx = index(base_records), index(cand_records)
    report = {}
    for workload in sorted({w for w, _ in bidx} & {w for w, _ in cidx}):
        entry = {"end_to_end": {}, "per_layer": {}}
        for trace, key, metrics in ((0, "end_to_end", bench["end_to_end"]),
                                    (1, "per_layer", bench["per_layer"])):
            b, c = bidx.get((workload, trace)), cidx.get((workload, trace))
            if not b or not c:
                continue
            for m in metrics:
                base, cand = pair_values(b, c, m["name"])
                if not base:
                    continue
                s = summarize(base, cand, m["better"])
                if trace == 0:
                    spread = s["base"][2] - s["base"][0]
                    if s["worse_by"] > m["bound"]:
                        s["verdict"] = "regression"
                    elif (s["wins"] >= WIN_SHARE and
                          abs(s["cand"][1] - s["base"][1]) > spread):
                        s["verdict"] = "gain"
                    else:
                        s["verdict"] = "within bound"
                else:
                    moved = (s["ratio"] is not None and
                             abs(s["ratio"] - 1) > LAYER_THRESHOLD and
                             max(s["up"], s["down"]) >= WIN_SHARE)
                    s["verdict"] = "moved" if moved else "flat"
                entry[key][m["name"]] = s
        report[workload] = entry
    return report


def fmt(x):
    return "n/a" if x is None else "%.4g" % x


def render(report):
    lines = []
    for workload, entry in report.items():
        lines.append("== %s" % workload)
        if entry["end_to_end"]:
            lines.append("  %-24s %-32s %-32s %7s %5s  %s" % (
                "end-to-end", "base q1/median/q3", "cand q1/median/q3",
                "ratio", "wins", "verdict"))
        for name, s in entry["end_to_end"].items():
            lines.append("  %-24s %-32s %-32s %7s %5.2f  %s (n=%d)" % (
                name, "/".join(fmt(v) for v in s["base"]),
                "/".join(fmt(v) for v in s["cand"]), fmt(s["ratio"]),
                s["wins"], s["verdict"], s["pairs"]))
        layers = sorted(entry["per_layer"].items(),
                        key=lambda kv: (kv[1]["verdict"] != "moved", kv[0]))
        if layers:
            lines.append("  %-36s %12s %12s %7s  %s" % (
                "per-layer", "base median", "cand median", "ratio", "verdict"))
        for name, s in layers:
            if s["base"][1] == 0 and s["cand"][1] == 0:
                continue  # not exercised by this workload
            lines.append("  %-36s %12s %12s %7s  %s" % (
                name, fmt(s["base"][1]), fmt(s["cand"][1]), fmt(s["ratio"]),
                s["verdict"]))
    return "\n".join(lines)


def main(base_path, cand_path):
    report = compare(load(base_path), load(cand_path), load_bench())
    print(render(report))
    regressions = [(w, n) for w, e in report.items()
                   for n, s in e["end_to_end"].items()
                   if s["verdict"] == "regression"]
    return 1 if regressions else 0
