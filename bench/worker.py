"""One prdna benchmark workload, run in a process of its own.

The worker sets the workload up, then runs its ops in a closed loop (a
single client; each op starts after the previous one completed) until the
requested seconds have passed and at least the workload's fixed prefix of
ops is done.  It prints one JSON object on its last stdout line.

run.py starts it with BLAS/OpenMP threads pinned to 1.  Nothing here
imports numpy or prdna before the set-up timer starts, so ``setup_s``
includes importing prdna and its numeric stack.

Other tenants of the host slow this machine by up to about 1.8x, for
seconds to minutes at a time.  So every time the worker reports is taken at
a nominal host speed: the wall time is scaled by ``NOMINAL_MS`` over the
time of a fixed pure-Python reference loop, measured right before and right
after the timed work.  Wall times are reported beside them.

Counts and ratios that must repeat exactly for a given seed are taken over
the prefix: set-up plus the first ``prefix`` ops, which every run
completes.  ``peak_rss_mb`` is read at the same point, so it does not grow
with throughput.  Checks of an op's output run outside its timed region.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARD_STOP_S = 150.0  # the whole invocation must end within 180 s
REFERENCE_LOOPS = 20000
NOMINAL_MS = 1.0  # the reference loop's time at nominal host speed


class BenchError(RuntimeError):
    """The workload cannot run as specified; the run reports no result."""


def reference_ms() -> float:
    """Median of three timings of the fixed reference loop, in ms."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i
        samples.append((time.perf_counter() - t0) * 1e3)
    return sorted(samples)[1]


def _scale(ref_before: float, ref_after: float) -> float:
    """Nominal-speed seconds per wall second between two reference timings."""
    return 2.0 * NOMINAL_MS / (ref_before + ref_after)


def _op_seed(seed: int, k: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# counts of the channel layers, which read 0 on workloads that bypass them
NO_CHANNEL = {
    "codec.parity_symbols": 0,
    "codec.parity_symbols_formula": 0,
    "codec.parity_over_formula": 0.0,
    "codec.redundancy_rounds_per_payload_round": 0.0,
    "ecc.radius": 0,
    "simulator.symbol_errors": 0,
    "simulator.rounds_with_deletion": 0,
    "simulator.rounds_fully_deleted": 0,
    "simulator.total_rounds": 0,
}


class Channel:
    """``simulate_schedules`` with one trial per op at the standard design.

    Binomial p=0.5, delta=0.02, N=5, M=10 (durations {2, 6}); every op is a
    fresh uniformly random payload schedule of ``payload_rounds`` rounds
    with RS parity attached, synthesized, quantized, corrected and scored.
    """

    cycle = 1

    def __init__(self, payload_rounds: int, prefix: int, tail_pct: int):
        self.payload_rounds = payload_rounds
        self.prefix = prefix
        self.tail_pct = tail_pct

    def setup(self, prdna, tracer: Tracer):
        self.prdna = prdna
        design = prdna.quantizer.design_binomial(0.5, 0.02, 5, 10)
        with tracer.span("simulator.setup"):
            self.pipeline = prdna.simulator.PipelineSetup.for_design(design, self.payload_rounds)

    def reference(self):
        design = self.pipeline.design
        errors = self.prdna.quantizer.exact_error_probabilities(design)
        if max(errors) > design.error_budget:
            raise BenchError(f"standard design misreads with probability {max(errors)}")
        time_per_bit = self.prdna.codec.synthesis_time_bound(
            1, self.pipeline.graph, design.error_budget, mode="expected"
        )
        self.rate_bound = 1.0 / time_per_bit

    def make_input(self, seed: int, k: int) -> int:
        return _op_seed(seed, k)

    def run(self, op_seed: int):
        return self.prdna.simulator.simulate_schedules(self.pipeline, 1, op_seed)

    def check(self, op_seed: int, report):
        silent = report.trials - report.successes - report.unrecoverable
        ok = report.trials == 1 and silent == 0 and report.payload_bits > 0
        tally = {
            "ops": 1,
            "successes": report.successes,
            "unrecoverable": report.unrecoverable,
            "payload_bits": report.payload_bits,
            "synthesis_time": report.synthesis_time,
            "symbol_errors": sum(report.per_index_errors),
            "rounds_with_deletion": report.rounds_with_deletion,
            "rounds_fully_deleted": report.rounds_fully_deleted,
            "total_rounds": report.total_rounds,
        }
        return ok, list(tally.values()), tally

    def prefix_metrics(self, tally: dict) -> dict:
        plan = self.pipeline.plan
        ecc = self.pipeline.ecc
        return {
            "success_rate": tally["successes"] / tally["ops"],
            "rate_ratio": tally["payload_bits"] / tally["synthesis_time"] / self.rate_bound,
            "rate_bound_mean": self.rate_bound,
            "codec.parity_symbols": plan.parity_symbols,
            "codec.parity_symbols_formula": plan.parity_symbols_formula,
            "codec.parity_over_formula": _ratio(plan.parity_symbols, plan.parity_symbols_formula),
            "codec.redundancy_rounds_per_payload_round": plan.redundancy_rounds / plan.payload_rounds,
            "ecc.radius": 0 if ecc is None else ecc.radius,
            "simulator.symbol_errors": tally["symbol_errors"],
            "simulator.rounds_with_deletion": tally["rounds_with_deletion"],
            "simulator.rounds_fully_deleted": tally["rounds_fully_deleted"],
            "simulator.total_rounds": tally["total_rounds"],
        }


class DesignSweep:
    """One op per rate-curve grid point: design, exact errors, rate bound.

    The grid is fixed; the seed only shuffles the order within each pass,
    and the loop always ends on a whole pass, so every run sees the same
    mix of fast binomial and slow Poisson points.
    """

    GRID = tuple(("binomial", round(0.1 * i, 1)) for i in range(1, 10)) + tuple(
        ("poisson", d) for d in (0.005, 0.01, 0.02, 0.05, 0.1)
    )
    cycle = len(GRID)
    prefix = len(GRID)

    def __init__(self, tail_pct: int):
        self.tail_pct = tail_pct
        self._order: dict[int, list[int]] = {}

    def setup(self, prdna, tracer: Tracer):
        self.prdna = prdna

    def reference(self):
        pass

    def make_input(self, seed: int, k: int):
        import numpy as np

        rnd, pos = divmod(k, self.cycle)
        if rnd not in self._order:
            self._order = {rnd: np.random.default_rng([seed, rnd]).permutation(self.cycle).tolist()}
        return self.GRID[self._order[rnd][pos]]

    def run(self, point):
        family, value = point
        quantizer, graph_mod = self.prdna.quantizer, self.prdna.graph
        try:
            if family == "binomial":
                delta = 0.02
                design = quantizer.design_binomial(value, delta, 5, 10)
            else:
                delta = value
                design = quantizer.design_poisson(delta, 5, ell_max=10)
        except quantizer.Infeasible:
            return None
        errors = quantizer.exact_error_probabilities(design)
        graph = graph_mod.uniform_graph(4, design.durations)
        cap = graph_mod.capacity(graph).capacity
        chain = graph_mod.max_entropic_chain(graph)
        time_per_bit = self.prdna.codec.time_bound_formula(
            1, cap, delta, graph.ell, graph.q, chain.rounds_per_time
        )
        return design, delta, errors, cap, 1.0 / time_per_bit

    def check(self, point, out):
        if out is None:
            return True, list(point) + ["infeasible"], {"ops": 1, "feasible": 0, "rate": 0.0, "share": 0.0}
        design, delta, errors, cap, rate = out
        ok = (
            len(errors) == design.ell >= 1
            and all(e <= delta for e in errors)
            and all(a <= b for a, b in zip(design.sum_thresholds, design.sum_thresholds[1:]))
            and all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
                    for a, b in zip(errors, _reference_errors(design)))
            and 0.0 < rate <= cap
        )
        digest = list(point) + [list(design.durations), list(design.sum_thresholds), rate]
        return ok, digest, {"ops": 1, "feasible": 1, "rate": rate, "share": rate / cap}

    def prefix_metrics(self, tally: dict) -> dict:
        feasible = tally["feasible"]
        return {
            "success_rate": feasible / tally["ops"],
            "rate_ratio": _ratio(tally["share"], feasible),
            "rate_bound_mean": _ratio(tally["rate"], feasible),
            **NO_CHANNEL,
        }


def _reference_errors(design) -> list[float]:
    """Per-index misread probability straight from scipy, as a cross-check."""
    from scipy import stats

    taus = design.sum_thresholds
    out = []
    for i in range(1, design.ell + 1):
        if design.family == "binomial":
            dist = stats.binom(design.copies * int(design.durations[i - 1]), design.p)
        else:
            dist = stats.poisson(design.copies * design.rates[i - 1])
        err = float(dist.cdf(taus[i - 1]))
        if i < design.ell:
            err += float(dist.sf(taus[i]))
        out.append(err)
    return out


class CodecRoundTrip:
    """The ``prdna encode`` / ``prdna decode`` path at its default delta=0.

    Menu {1, 2} over q=4; every op unranks a fresh random 16384-bit payload
    into a schedule of total time 8522 and ranks it back.
    """

    T = 8522
    BITS = 16384
    START = "A"
    cycle = 1

    def __init__(self, prefix: int, tail_pct: int):
        self.prefix = prefix
        self.tail_pct = tail_pct

    def setup(self, prdna, tracer: Tracer):
        self.prdna = prdna
        self.graph = prdna.graph.uniform_graph(4, [1.0, 2.0])
        # builds the fixed-T count table every op reads
        if prdna.codec.max_payload_bits(self.graph, self.START, self.T) < self.BITS:
            raise BenchError(f"T={self.T} holds fewer than {self.BITS} bits")

    def reference(self):
        self.rate_bound = 1.0 / self.prdna.codec.synthesis_time_bound(
            1, self.graph, 0.0, mode="expected"
        )

    def make_input(self, seed: int, k: int) -> str:
        import numpy as np

        raw = np.random.default_rng([seed, k]).bytes(self.BITS // 8)
        return format(int.from_bytes(raw, "big"), f"0{self.BITS}b")

    def run(self, bits: str):
        codec, graph = self.prdna.codec, self.graph
        payload = codec.encode_payload(bits, graph, self.START, self.T)
        plan = codec.plan_redundancy(payload.num_rounds, 0.0, graph.ell, graph.q)
        full = codec.attach_redundancy(graph, payload, plan, None)
        read = codec.make_schedule(graph, full.start, full.rounds[: plan.payload_rounds])
        return full, plan, codec.decode_payload(read, graph, self.T, n_bits=len(bits))

    def check(self, bits: str, out):
        full, plan, decoded = out
        ok = decoded == bits and full.total_time == self.T and plan.parity_symbols == 0
        tally = {"ops": 1, "ok": int(ok), "bits": len(bits), "time": full.total_time}
        return ok, [full.num_rounds, decoded == bits], tally

    def prefix_metrics(self, tally: dict) -> dict:
        return {
            "success_rate": tally["ok"] / tally["ops"],
            "rate_ratio": tally["bits"] / tally["time"] / self.rate_bound,
            "rate_bound_mean": self.rate_bound,
            **NO_CHANNEL,
        }


# prefix: ops every run completes; tail_pct: fixed so that a run at the
# seed commit's throughput leaves at least ten samples above it
WORKLOADS = {
    "channel-s500": lambda: Channel(500, prefix=100, tail_pct=98),
    "channel-s4000": lambda: Channel(4000, prefix=4, tail_pct=70),
    "design-sweep": lambda: DesignSweep(tail_pct=90),
    "codec-roundtrip": lambda: CodecRoundTrip(prefix=50, tail_pct=95),
}


def _count_table_info(prdna, absent: list[str]) -> dict:
    cached = getattr(prdna.graph, "_count_table", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        absent.append("graph.count_table")
        return {"graph.count_table.hits": 0, "graph.count_table.misses": 0}
    stats = info()
    return {"graph.count_table.hits": stats.hits, "graph.count_table.misses": stats.misses}


def _environment(prdna) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "prdna": getattr(prdna, "__version__", None),
    }


def _import_prdna():
    sys.path.insert(0, SRC)
    import prdna
    import prdna.codec
    import prdna.graph
    import prdna.quantizer
    import prdna.simulator

    if os.path.dirname(os.path.dirname(os.path.abspath(prdna.__file__))) != SRC:
        raise BenchError(f"imported prdna from {prdna.__file__}, not from {SRC}")
    return prdna


def run(workload_name: str, seed: int, seconds: float, traced: bool, setup_only: bool) -> dict:
    ref = reference_ms()
    t_start = time.perf_counter()
    prdna = _import_prdna()
    tracer = Tracer(enabled=traced)
    if traced:
        tracer.install()
    workload = WORKLOADS[workload_name]()
    workload.setup(prdna, tracer)
    setup_wall = time.perf_counter() - t_start
    refs = [reference_ms()]  # refs[k] is taken right before op k
    scales = {0: _scale(ref, refs[0])}  # op id -> nominal seconds per wall second
    result = {"workload": workload_name, "seed": seed, "traced": traced,
              "setup_s": setup_wall * scales[0], "setup_wall_s": setup_wall}
    if setup_only:
        return result
    with tracer.paused():
        workload.reference()

    wall_ms: list[float] = []
    digests: list = []
    failures: list[str] = []
    tally: dict = {}
    prefix = None
    deadline = time.perf_counter() + seconds
    hard_stop = t_start + HARD_STOP_S
    k = 0
    while k < workload.prefix or k % workload.cycle or time.perf_counter() < deadline:
        if time.perf_counter() > hard_stop:
            break
        op_input = workload.make_input(seed, k)
        tracer.op = k + 1
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                out = workload.run(op_input)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            wall_ms.append((time.perf_counter() - t0) * 1e3)
            digest, op_tally = ["raised", type(exc).__name__], {"ops": 1}
            failures.append(f"op {k}: {type(exc).__name__}: {exc}")
        else:
            wall_ms.append((time.perf_counter() - t0) * 1e3)
            ok, digest, op_tally = workload.check(op_input, out)
            if not ok:
                failures.append(f"op {k}: wrong result {digest!r:.200}")
        digests.append(digest)
        refs.append(reference_ms())
        scales[k + 1] = _scale(refs[k], refs[k + 1])
        k += 1
        if prefix is None:
            for key, value in op_tally.items():
                tally[key] = tally.get(key, 0) + value
            if k == workload.prefix:
                prefix = {
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    **(workload.prefix_metrics(tally) if not failures else {}),
                    **_count_table_info(prdna, tracer.absent),
                }
    if prefix is None:
        raise BenchError(f"only {k} of the {workload.prefix} prefix ops finished in {HARD_STOP_S:.0f} s")

    result.update(
        attempted=len(wall_ms),
        failed=len(failures),
        failures=failures[:5],
        latencies_ms=[ms * scales[i + 1] for i, ms in enumerate(wall_ms)],
        wall_ms=wall_ms,
        prefix=prefix,
        digests=digests,
        tail_pct=workload.tail_pct,
        prefix_ops=workload.prefix,
        env=_environment(prdna),
        absent=tracer.absent,
    )
    if traced:
        result["layers"] = tracer.summary(workload.prefix, scales)
        result["span_cost_s"] = tracer.span_cost_s()
        result["spans_per_op"] = len(tracer.spans) / len(wall_ms)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.json")
        tracer.dump(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    except BenchError as exc:
        print(f"bench worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
