#!/usr/bin/env python3
"""Collect benchmark results and compare two sets of them.

    python3 perfbench/compare.py collect DIR --workload W --seeds 1 2 3 [--trace 0|1]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py diff BEFORE AFTER

`collect` runs the command from BENCHMARK.json once per seed, from the
repository root, and keeps each run's result line as
DIR/<workload>.s<seed>.t<trace>.json (and its stderr as .log).

`spread` prints, per workload and metric, the median, the quartiles and the
quartile distance as a share of the median, next to the metric's bound.

`diff` compares two result sets: every time as median and quartiles per side
and the change of the medians as a share of BEFORE's median (flagged when it
is worse by more than the bound); and every exact counter of a traced run
against the same workload and seed on the other side, which must match.
Exits 1 if a counter differs or a run was incorrect.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Counters that must repeat exactly for the same workload and seed.
EXACT = {
    "model.comparisons", "model.rounds", "plan.replayed", "plan.cached",
    "plan.invalidated", "adversary.forced", "adversary.marked", "adversary.swaps",
    "service.rejected", "service.failed", "protocol.result_bytes",
}


def bench_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(args):
    config = bench_config()
    out = pathlib.Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or config["run_seconds"]
    for seed in args.seeds:
        stem = f"{args.workload}.s{seed}.t{args.trace}"
        cmd = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        (out / f"{stem}.log").write_text(run.stderr)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"{stem}: exit {run.returncode}", file=sys.stderr)
            continue
        (out / f"{stem}.json").write_text(lines[-1] + "\n")
        result = json.loads(lines[-1])
        print(f"{stem}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")


def load(directory):
    """{(workload, seed, trace): result} for every result file in a set."""
    results = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload, seed, trace = path.stem.rsplit(".", 2)
        results[(workload, int(seed[1:]), int(trace[1:]))] = json.loads(path.read_text())
    return results


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_metric(results):
    """{(workload, trace): {metric: [values]}}"""
    grouped = {}
    for (workload, _, trace), result in sorted(results.items()):
        metrics = grouped.setdefault((workload, trace), {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return grouped


def bounds():
    return {m["name"]: m for m in bench_config()["end_to_end"]}


def spread(args):
    results = load(args.dir)
    limits = bounds()
    for (workload, trace), metrics in by_metric(results).items():
        n = sum(1 for key in results if key[0] == workload and key[2] == trace)
        print(f"{workload} trace={trace} ({n} runs)")
        for name, values in metrics.items():
            q1, med, q3 = summary(values)
            share = (q3 - q1) / med if med else 0.0
            bound = limits.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:<40} median {med:>16.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}"
                  f"  spread {share:7.2%}" + (f"  bound {bound:.2f}{flag}" if bound else ""))


def diff(args):
    before, after = load(args.before), load(args.after)
    limits = bounds()
    status = 0
    for label, results in (("before", before), ("after", after)):
        for key, result in results.items():
            if not result["correct"]:
                print(f"{label}: {key} was incorrect")
                status = 1
    old, new = by_metric(before), by_metric(after)
    for group in sorted(set(old) & set(new)):
        print(f"{group[0]} trace={group[1]}")
        for name in old[group]:
            if name not in new[group] or name in EXACT:
                continue
            (a1, am, a3), (b1, bm, b3) = summary(old[group][name]), summary(new[group][name])
            change = (bm - am) / am if am else 0.0
            line = (f"  {name:<40} {am:>14.6g} [{a1:.6g}, {a3:.6g}] -> "
                    f"{bm:>14.6g} [{b1:.6g}, {b3:.6g}]  {change:+7.2%}")
            limit = limits.get(name)
            if limit:
                worse = -change if limit["better"] == "higher" else change
                if worse > limit["bound"]:
                    line += f"  WORSE than bound {limit['bound']:.2f}"
            print(line)
    for key in sorted(set(before) & set(after)):
        if key[2] != 1:
            continue
        a, b = before[key]["metrics"], after[key]["metrics"]
        for name in sorted(EXACT & set(a) & set(b)):
            if a[name]["value"] != b[name]["value"]:
                print(f"counter {name} differs for {key}: "
                      f"{a[name]['value']} vs {b[name]['value']}")
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", type=int, nargs="+", required=True)
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c.add_argument("--seconds", type=int)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("before")
    d.add_argument("after")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
    elif args.command == "spread":
        spread(args)
    else:
        sys.exit(diff(args))


if __name__ == "__main__":
    main()
