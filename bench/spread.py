"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload codec-roundtrip --seeds 1-10
    python3 bench/spread.py --workload all --seeds 1-10 --out summary.json

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.  Spreads at or above a
third of the bound are flagged.  Seeds run one after another, with the
benchmark's own ``run_seconds`` unless ``--seconds`` overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: benchmark exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    seeds = _seeds(args.seeds)

    summary = {}
    for name in names:
        runs = [_run(name, seed, seconds, args.trace) for seed in seeds]
        metrics = {}
        for metric, entry in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = entry["unit"]
            metrics[metric] = stats
            bound = bounds.get(metric)
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{name:16s} {metric:44s} median {stats['median']:12.6g} {entry['unit']:8s} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} spread {stats['spread']:.4f}"
                  f" bound {bound}{flag}", flush=True)
        summary[name] = {"seeds": seeds, "seconds": seconds, "trace": args.trace,
                         "correct": all(r["correct"] for r in runs), "metrics": metrics}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
