"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workload acc-pp-mm --seeds 1-10 [--trace 1] [--out FILE]

For every metric: the median over the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, the
distance between the quartiles as a share of the median.  ``--out`` appends
the summary and every run's result line, as one JSON document per line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(lines: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units = {}
    for line in lines:
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "n": len(vals)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    lines = []
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        line["seed"], line["elapsed_s"] = seed, elapsed
        lines.append(line)
        print(f"seed {seed:3d} {elapsed:6.1f}s correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in line["metrics"].items()),
              flush=True)

    summary = summarize(lines)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"  {name:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {spread} {s['unit']}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                                 "seconds": seconds, "summary": summary,
                                 "runs": lines}) + "\n")
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
