#!/usr/bin/env python3
"""Run BENCHMARK.json's command N times per workload, each time with another
seed, and tabulate every end-to-end metric.

    python3 benchmark/aa.py [--runs 10] [--first-seed 1] [workload ...]
    python3 benchmark/aa.py --against ../parent [--runs 10] [workload ...]

Run it from the root of a checkout, with nothing else running.

Without --against it is the A/A check: per metric the median, the quartiles
and the spread (Q3 - Q1 as a share of the median, by
statistics.quantiles(n=4)) - the quantity BENCHMARK.json's bounds are set
from and the driver accepts the benchmark on. The raw clock readings every
run prints are tabulated too, so what the host did stays on record. Run it
twice; the two sets' medians must also agree within each bound.

With --against DIR it is the A/B comparison: DIR is another checkout (the
parent commit, say). The two take turns run by run - this checkout first on
even pairs, DIR first on odd ones - with the same seed within a pair, so
both see the same phases of the host. Per metric it prints both medians and
quartiles, how DIR's median differs, in how many pairs this checkout won,
and a verdict: "better"/"worse" when one side won at least nine tenths of
the pairs and the medians differ by more than DIR's own quartile distance,
"same" when the median is within the metric's bound, else "unresolved".
"""
import argparse
import json
import statistics
import subprocess
import sys

RAW = ["raw.setup_s", "raw.ops_per_s", "raw.p50_us", "raw.cpu_us_per_op",
       "host.ref_p50_us", "host.ref_cpu_us", "client.window_rel_iqr"]

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--against", metavar="DIR", default=None)
ap.add_argument("workloads", nargs="*")
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"]}
workloads = args.workloads or [w["name"] for w in spec["workloads"]]


def run(cwd, workload, seed):
    """One untraced run in checkout cwd: {metric: value}, raw readings too."""
    out = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{cwd} {workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{cwd} {workload} seed {seed}: incorrect run")
    row = {name: m["value"] for name, m in res["metrics"].items()}
    for line in lines[:-1]:  # the "name value unit" readings
        name, value = line.split()[:2]
        if name in RAW:
            row[name] = float(value)
    print(f"# {cwd} {workload} seed {seed}: " + " ".join(f"{n}={v:.5g}" for n, v in sorted(row.items())),
          file=sys.stderr, flush=True)
    return row


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def aa():
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        rows = [run(".", w, args.first_seed + i) for i in range(args.runs)]
        for name in list(metrics) + RAW:
            med, q1, q3 = summary([r[name] for r in rows])
            bound = metrics[name]["bound"] if name in metrics else "-"
            print(f"| {w} | {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | {(q3 - q1) / med:.4f} | {bound} |", flush=True)


def ab(other):
    print("| workload | metric | here: median (Q1 - Q3) | there: median (Q1 - Q3) | here vs there | pairs won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        here, there = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            if i % 2 == 0:
                here.append(run(".", w, seed))
                there.append(run(other, w, seed))
            else:
                there.append(run(other, w, seed))
                here.append(run(".", w, seed))
        for name, m in metrics.items():
            a, b = [r[name] for r in here], [r[name] for r in there]
            (am, aq1, aq3), (bm, bq1, bq3) = summary(a), summary(b)
            sign = 1 if m["better"] == "higher" else -1
            won = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
            lost = sum(1 for x, y in zip(a, b) if sign * (x - y) < 0)
            gain = sign * (am - bm) / bm  # > 0: this checkout is better
            clear = abs(am - bm) > bq3 - bq1
            if won >= 0.9 * len(a) and clear:
                verdict = "better"
            elif lost >= 0.9 * len(a) and clear:
                verdict = "worse"
            elif (aq3 - aq1) / am > m["bound"] or (bq3 - bq1) / bm > m["bound"]:
                verdict = "unresolved"
            elif gain >= -m["bound"]:
                verdict = "same"
            else:
                verdict = "unresolved"
            print(f"| {w} | {name} | {am:.5g} ({aq1:.5g} - {aq3:.5g}) | {bm:.5g} ({bq1:.5g} - {bq3:.5g}) "
                  f"| {gain:+.1%} | {won}/{len(a)} | {verdict} |", flush=True)


if args.against:
    ab(args.against)
else:
    aa()
