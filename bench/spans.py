"""Spans around calls into prdna's layers, recorded from the benchmark's side.

Tracing swaps the public functions listed in ``TRACED`` for wrappers that
record one span per call: ``[name, start, end, parent, op, note, error]``.
Every already-imported ``prdna`` module that holds the original function
under the same name gets the wrapper, so calls made from inside the
pipeline (``simulator`` calling ``codec``, ``codec`` calling ``graph``) are
seen too.  The library's source is not touched.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, defining module, attribute); "Class.method" patches a method
TRACED = (
    ("graph.count_schedules", "prdna.graph", "count_schedules"),
    ("graph.capacity", "prdna.graph", "capacity"),
    ("graph.max_entropic_chain", "prdna.graph", "max_entropic_chain"),
    ("quantizer.design_binomial", "prdna.quantizer", "design_binomial"),
    ("quantizer.design_poisson", "prdna.quantizer", "design_poisson"),
    ("quantizer.exact_error_probabilities", "prdna.quantizer", "exact_error_probabilities"),
    ("codec.unrank_schedule", "prdna.codec", "unrank_schedule"),
    ("codec.rank_schedule", "prdna.codec", "rank_schedule"),
    ("codec.attach_redundancy", "prdna.codec", "attach_redundancy"),
    ("codec.strip_and_correct", "prdna.codec", "strip_and_correct"),
    ("ecc.encode", "prdna.ecc", "ReedSolomonCode.encode"),
    ("ecc.decode", "prdna.ecc", "ReedSolomonCode.decode"),
    ("simulator.random_schedule", "prdna.simulator", "random_schedule"),
    ("simulator.synthesize", "prdna.simulator", "synthesize"),
    ("simulator.quantize_trace", "prdna.simulator", "quantize_trace"),
    ("simulator.read_and_decode", "prdna.simulator", "read_and_decode"),
    ("simulator.run_schedule_trial", "prdna.simulator", "run_schedule_trial"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "note", "error")


def _positions_changed(args, result) -> int:
    # ReedSolomonCode.decode(self, payload, parity) -> corrected payload
    return sum(a != b for a, b in zip(args[1], result))


NOTES = {"ecc.decode": _positions_changed}


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = 0  # 0 is set-up; ops count from 1
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        """Run benchmark bookkeeping that must not show up in any layer."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, fn, name: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def install(self):
        """Swap every traced function for its wrapper in all loaded prdna modules."""
        modules = [m for key, m in sys.modules.items() if key == "prdna" or key.startswith("prdna.")]
        for name, module_name, attr in TRACED:
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    self.absent.append(name)
                    continue
                setattr(cls, meth, self.wrap(orig, name))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(orig, name)
            for module in modules:
                if getattr(module, attr, None) is orig:
                    setattr(module, attr, wrapped)

    def summary(self, last_op: int, scales: dict[int, float]) -> dict:
        """Per span name over ops 0..last_op: calls, self ms, notes, errors.

        Self time is a span's duration minus the durations of its direct
        children; children of one call never overlap, since the pipeline is
        single-threaded.  ``scales[op]`` turns the op's wall time into time
        at nominal host speed.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0 and rec[2]:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict] = {}
        for i, (name, start, end, _, op, note, error) in enumerate(self.spans):
            if op > last_op or not end:
                continue
            row = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "note": 0, "errors": {}})
            row["calls"] += 1
            row["self_ms"] += (end - start - child[i]) * 1e3 * scales[op]
            row["note"] += note
            if error:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return out

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """Seconds one span adds to a call, timed on a wrapped no-op."""
        probe = Tracer(enabled=True)
        bare = lambda: None  # noqa: E731
        traced = probe.wrap(bare, "probe")
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        t1 = perf_counter()
        for _ in range(calls):
            bare()
        t2 = perf_counter()
        return max(0.0, (t1 - t0) - (t2 - t1)) / calls

    def dump(self, path: str):
        with open(path, "w") as handle:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, handle)
