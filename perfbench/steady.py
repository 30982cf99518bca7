#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json in two sets of ten runs
per workload, each run with another seed. For every end-to-end metric
it reports, per set, the median, quartiles, min-max and the quartile
spread (Q3 - Q1) / median against the metric's bound, and how much the
second set's median is worse than the first's. It then makes one traced
run per workload and reports the per-layer metrics and the tracing
overhead (traced ops_per_s against the first set's untraced median).

Run from the repository root:

    python3 perfbench/steady.py --markdown perfbench/STEADINESS.md
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Runs per workload and set: the fewest the steadiness check asks for.
RUNS = 10
# First seed of each set; the sets use disjoint seeds.
SEED_BASES = (5000, 6000)


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    took = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    return result, meta, took


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, min(values), max(values), spread


def measure_set(command, workload, seconds, seed_base):
    """Ten untraced runs of one workload: metric values, correctness,
    run walls and host calibrations."""
    values, calib, took_all, correct = {}, [], [], True
    for seed in range(seed_base, seed_base + RUNS):
        result, meta, took = run_once(command, workload, seed, seconds, 0)
        correct &= result["correct"] and result["failed"] == 0
        calib.extend(meta.get("host.calib_us", []))
        took_all.append(took)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr, flush=True)
    return {"values": values, "correct": correct, "took": took_all, "calib": calib}


def set_table(workload, seed_base, s, bounds):
    out = [
        f"### {workload}, seeds {seed_base}-{seed_base + RUNS - 1}",
        "",
        f"All runs correct: {s['correct']}. Run wall {min(s['took']):.1f}-"
        f"{max(s['took']):.1f} s. host.calib_us "
        f"{min(s['calib']):.0f}-{max(s['calib']):.0f}.",
        "",
        "| metric | median | Q1 | Q3 | min | max | spread | bound | spread < bound/3 |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name, vals in s["values"].items():
        med, q1, q3, lo, hi, spread = summarize(vals)
        bound = bounds[name]["bound"]
        ok = "yes" if spread < bound / 3 else "NO"
        out.append(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {lo:.6g} | "
                   f"{hi:.6g} | {spread:.4f} | {bound} | {ok} |")
    out.append("")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", help="also write the tables to this file")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = [{w: measure_set(command, w, seconds, base) for w in workloads}
            for base in SEED_BASES]

    out = [
        f"Host: {platform.node() or 'unknown'}, {platform.machine()}, "
        f"{os.cpu_count()} CPUs; {len(SEED_BASES)} sets of {RUNS} runs per "
        f"workload, run_seconds {seconds}.",
        "",
        "## Medians of the two sets",
        "",
        "| workload | metric | median, set 1 | median, set 2 | set 2 worse by "
        "| bound | spread 1 | spread 2 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for w in workloads:
        for name in sets[0][w]["values"]:
            first, second = (summarize(s[w]["values"][name]) for s in sets)
            m1, m2 = first[0], second[0]
            worse = (m2 - m1) if bounds[name]["better"] == "lower" else (m1 - m2)
            worse = worse / m1 if m1 else 0.0
            out.append(f"| {w} | {name} | {m1:.6g} | {m2:.6g} | {worse:+.3f} | "
                       f"{bounds[name]['bound']} | {first[5]:.3f} | {second[5]:.3f} |")
    out.append("")
    for base, s in zip(SEED_BASES, sets):
        out.append(f"## Set with seeds {base}-{base + RUNS - 1}")
        out.append("")
        for w in workloads:
            out.extend(set_table(w, base, s[w], bounds))

    out.append("## Traced runs")
    out.append("")
    for w in workloads:
        traced, _, _ = run_once(command, w, SEED_BASES[0], seconds, 1)
        t_ops = traced["metrics"]["trace.ops_per_s"]["value"]
        u_ops = statistics.median(sets[0][w]["values"]["ops_per_s"])
        out.append(f"### {w}")
        out.append("")
        out.append(f"Traced run (seed {SEED_BASES[0]}): ops_per_s {t_ops:.6g} "
                   f"against the untraced median {u_ops:.6g}, overhead "
                   f"{(1 - t_ops / u_ops) * 100:.2f}%.")
        out.append("")
        out.append("| per-layer metric | value | unit |")
        out.append("|---|---|---|")
        for name, m in traced["metrics"].items():
            out.append(f"| {name} | {m['value']:.6g} | {m['unit']} |")
        out.append("")
    text = "\n".join(out)
    print(text)
    if opts.markdown:
        with open(opts.markdown, "w", encoding="utf-8") as f:
            f.write(text)


if __name__ == "__main__":
    main()
