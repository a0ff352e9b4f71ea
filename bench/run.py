"""Benchmark for prdna: closed-loop workloads timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  channel-s500     simulate_schedules, one trial per op, 500 payload rounds
  channel-s4000    the same design at 4000 payload rounds
  design-sweep     one rate-curve grid point per op (quantizer + graph only)
  codec-roundtrip  encode_payload + decode_payload of a 16384-bit payload

Every worker process runs one workload with jobs=1 and BLAS/OpenMP
threads pinned to 1.  ``setup_s`` is the median over several fresh
processes, since importing prdna is part of it.

Times are reported at a nominal host speed (see worker.py): each wall time
is divided by the time of a fixed pure-Python reference loop measured
around it, because other tenants slow the host by up to 1.8x for minutes
at a time.  The wall-clock figures are printed beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the same seed runs untraced and then traced; the two
reports must agree exactly, the throughput difference is reported as the
tracing overhead, and the last line carries the per-layer metrics of the
traced run.  Those cover set-up plus the workload's fixed prefix of ops,
so counts repeat exactly for a seed and ``*.self_ms`` is milliseconds over
that same work.

Exit status: 0 when every output was correct, 1 on a wrong output or a
traced/untraced mismatch, 2 when the benchmark cannot run at all.
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
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2  # extra fresh processes that only set up; the measured run adds one more
BUDGET_S = 170.0  # per workload; one invocation must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# per-layer metrics whose span is not named by their own prefix
SPAN_NOTES = {
    "ecc.errors_corrected": ("ecc.decode", "note"),
    "ecc.decode_failures": ("ecc.decode", "error:EccError"),
}


class BenchFailure(RuntimeError):
    """A worker did not produce a report."""


def _worker(name: str, seed: int, seconds: float, trace: int, env: dict,
            deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchFailure(f"{name}: out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchFailure(f"{name}: worker still running after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchFailure(f"{name}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _tail(latencies: list[float], pct: int) -> tuple[float, int]:
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for x in latencies if x > value)


def _end_to_end(run: dict, setup_times: list[float], spec: dict) -> dict:
    lat = run["latencies_ms"]
    prefix = run["prefix"]
    values = {
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": _tail(lat, run["tail_pct"])[0],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": prefix["peak_rss_mb"],
        "success_rate": prefix.get("success_rate"),
        "rate_ratio": prefix.get("rate_ratio"),
        "rate_bound_mean": prefix.get("rate_bound_mean"),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"] if values.get(m["name"]) is not None}


def _per_layer(traced: dict, overhead_pct: float, spec: dict) -> dict:
    """Resolve each per-layer metric by name: a prefix count or a span field."""
    layers, prefix = traced["layers"], traced["prefix"]
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif name in prefix:
            value = prefix[name]
        else:
            span, field = SPAN_NOTES.get(name) or name.rsplit(".", 1)
            row = layers.get(span, {"calls": 0, "self_ms": 0.0, "note": 0, "errors": {}})
            if field.startswith("error:"):
                value = row["errors"].get(field[len("error:"):], 0)
            elif field in row:
                value = row[field]
            else:
                raise BenchFailure(f"per-layer metric {name} has no source")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def _same_report(a: dict, b: dict) -> bool:
    """Equal prefix counts and equal per-op outcomes over the ops both ran."""
    counts_a, counts_b = (
        {k: v for k, v in run["prefix"].items() if k != "peak_rss_mb"} for run in (a, b)
    )
    common = min(len(a["digests"]), len(b["digests"]))
    return counts_a == counts_b and a["digests"][:common] == b["digests"][:common]


def _print_metrics(name: str, metrics: dict):
    for metric, entry in metrics.items():
        print(f"{name:16s} {metric:44s} {entry['value']:>16.6g} {entry['unit']}")


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict, spec: dict) -> dict:
    deadline = time.monotonic() + BUDGET_S
    probes = [_worker(name, seed, seconds, 0, env, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    plain = _worker(name, seed, seconds, 0, env, deadline)
    setup_times = [run["setup_s"] for run in probes + [plain]]
    setup_walls = [run["setup_wall_s"] for run in probes + [plain]]
    attempted, failed = plain["attempted"], plain["failed"]
    problems = list(plain["failures"])
    e2e = _end_to_end(plain, setup_times, spec)

    env_info = plain["env"]
    print(f"{name}: seed={seed} seconds={seconds:g} nproc={env_info['nproc']} "
          f"python={env_info['python']} numpy={env_info['numpy']} scipy={env_info['scipy']}")
    _, beyond = _tail(plain["latencies_ms"], plain["tail_pct"])
    print(f"{name}: {attempted} ops, {failed} failed (failed_ops={failed / attempted:.6g}); "
          f"op_tail_ms is p{plain['tail_pct']} with {beyond} samples beyond it; "
          f"counts and ratios over set-up + the first {plain['prefix_ops']} ops; "
          f"setup_s median of {len(setup_times)} processes")
    wall = plain["wall_ms"]
    print(f"{name}: wall clock ops_per_s {len(wall) / (sum(wall) / 1e3):.6g}, "
          f"op_p50_ms {statistics.median(wall):.6g}, "
          f"op_tail_ms {_tail(wall, plain['tail_pct'])[0]:.6g}, "
          f"setup_s {statistics.median(setup_walls):.6g}")
    for absent in plain["absent"]:
        print(f"{name}: {absent} is absent; its metrics read 0")

    if not trace:
        _print_metrics(name, e2e)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": e2e, "problems": problems}

    traced = _worker(name, seed, seconds, 1, env, deadline)
    problems += traced["failures"]
    same = _same_report(plain, traced)
    if not same:
        problems.append("traced and untraced runs of one seed reported different results")
    rate_plain = e2e["ops_per_s"]["value"]
    rate_traced = len(traced["latencies_ms"]) / (sum(traced["latencies_ms"]) / 1e3)
    overhead = 100.0 * (1.0 - rate_traced / rate_plain)
    estimate = 100.0 * traced["spans_per_op"] * traced["span_cost_s"] * rate_traced
    print(f"{name}: tracing overhead {overhead:.3g}% (ops_per_s {rate_plain:.6g} untraced, "
          f"{rate_traced:.6g} traced; {traced['spans_per_op']:.3g} spans per op at "
          f"{traced['span_cost_s'] * 1e6:.3g} us each predict {estimate:.2g}%); "
          f"reports identical: {same}; spans in {traced['spans_file']}")
    _print_metrics(name, e2e)
    layers = _per_layer(traced, overhead, spec)
    _print_metrics(name, layers)
    return {"correct": failed == 0 and traced["failed"] == 0 and same,
            "attempted": attempted, "failed": failed, "metrics": layers, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prdna", "__init__.py")):
        print(f"bench: no prdna sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        print(f"bench: unknown workload {args.workload!r}; choose from {workloads}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]

    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, env, spec)
    except BenchFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for name, res in results.items():
        for problem in res.pop("problems"):
            print(f"{name}: FAILED {problem}", file=sys.stderr)
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
