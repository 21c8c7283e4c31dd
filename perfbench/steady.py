#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two sets of runs of the same code, interleaved one by one (A1 B1 A2
B2 ...), with every workload taking its turn before the next round, so
that a slow drift of the host reaches both sets alike. Set A uses seeds
1..N, set B seeds 101..100+N. For every end-to-end metric of every
workload it prints each set's median and quartiles, the spread (quartile
distance over median) and the ratio of the medians, and checks them
against the metric's bound:

    python3 perfbench/steady.py [--runs N] [--workloads paper,fuzz] [--out FILE]

Run it from the repository root. It exits 1 if any run fails or any
figure is outside its bound (spread above the bound, or set B's median
worse than set A's by more than the bound; setup_s has no spread bound).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    runs = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(opts.runs):
        for w in workloads:
            for s, base in (("A", 1), ("B", 101)):
                m = run_once(bench["command"], w, base + i, bench["run_seconds"])
                runs[(w, s)].append(m)
                print(f"round {i + 1} {w} set {s} seed {base + i}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in m.items()),
                      flush=True)

    ok = True
    out = ["| workload | metric | bound | set A median [q1, q3] | spread A "
           "| set B median [q1, q3] | spread B | B/A | verdict |",
           "|---|---|---|---|---|---|---|---|---|"]
    for w in workloads:
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            a = summary([r[name] for r in runs[(w, "A")]])
            b = summary([r[name] for r in runs[(w, "B")]])
            ratio = b[1] / a[1] if a[1] else 1.0
            worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            spread_ok = name == "setup_s" or max(a[3], b[3]) <= bound
            good = spread_ok and worse <= bound
            ok &= good
            out.append(
                f"| {w} | {name} | {bound} | {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}] "
                f"| {a[3]:.3f} | {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] "
                f"| {b[3]:.3f} | {ratio:.3f} | {'ok' if good else 'OUT'} |")
    report = "\n".join(out)
    print(report)
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(report + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
