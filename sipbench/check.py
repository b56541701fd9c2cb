#!/usr/bin/env python3
"""Steadiness and comparison checks around sipbench, as the driver makes them.

  check.py spread [--seeds N] [--first-seed S] [--workload NAME] [--trace 0|1]
      Run BENCHMARK.json's command once per workload and seed, exactly as
      the driver does, and print for every metric its median over the seeds
      and the distance between its quartiles as a share of that median,
      beside the metric's bound. Exits 1 if an end-to-end spread (other than
      setup_s) exceeds its bound, or a run fails or is incorrect.

  check.py compare DIR_A DIR_B
      Compare two --out directories (A = parent, B = change) metric by
      metric and workload by workload against the bounds. Exits 1 if a
      metric of B is worse than A's by more than its bound.

Run from the repository root.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}


def run_once(workload, seed, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    took = time.monotonic() - start
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result["metrics"], took


def spread(args):
    names = [args.workload] if args.workload else [w["name"] for w in BENCH["workloads"]]
    breach = False
    for workload in names:
        runs, times = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics, took = run_once(workload, seed, args.trace)
            runs.append(metrics)
            times.append(took)
        print(f"{workload}: {len(runs)} seeds, {statistics.median(times):.1f} s per run")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = END_TO_END.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f}"
                if name != "setup_s" and share > bound:
                    verdict += "  BREACH"
                    breach = True
                elif name != "setup_s" and share > bound / 3:
                    verdict += "  (above a third of the bound)"
            print(f"  {name:26} median {med:16.6f} {runs[0][name]['unit']:8}"
                  f" spread {share:7.4f}  {verdict}")
    return 1 if breach else 0


def compare(args):
    worse = False
    for path_a in sorted(pathlib.Path(args.dir_a).glob("*.json")):
        path_b = pathlib.Path(args.dir_b) / path_a.name
        if path_a.name.startswith("trace_") or not path_b.exists():
            continue
        a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
        print(f"{a['workload']}{' (layers)' if a['traced'] else ''}: "
              f"failed {a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}")
        worse |= b["failed"] > a["failed"]
        for name, ma in a["metrics"].items():
            va, vb = ma["value"], b["metrics"][name]["value"]
            change = (vb - va) / va if va else 0.0
            verdict = ""
            if name in END_TO_END:
                m = END_TO_END[name]
                worsening = -change if m["better"] == "higher" else change
                verdict = f"bound {m['bound']:.2f}"
                if worsening > m["bound"]:
                    verdict += "  WORSE"
                    worse = True
            print(f"  {name:26} {va:16.6f} -> {vb:16.6f} {ma['unit']:8} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--workload")
    s.add_argument("--trace", type=int, choices=[0, 1], default=0)
    s.set_defaults(func=spread)
    c = sub.add_parser("compare")
    c.add_argument("dir_a")
    c.add_argument("dir_b")
    c.set_defaults(func=compare)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
