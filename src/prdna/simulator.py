"""Multi-copy synthesis channel: sampling, reading, and rate sweeps.

The channel keeps the round structure and run letters intact and distorts
only run lengths: every round of the schedule yields one independent
length per synthesized copy.  Rounds whose length comes out zero in a
copy are deletions; they are counted and surfaced, and a round deleted in
every copy quantizes to the first index with a low-confidence flag.
Alignment across copies is assumed, so letters stay readable unless
``PipelineSetup.strict_deletions`` asks the reader to give up on a
fully deleted letter-bearing round.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from prdna.codec import (
    RedundancyPlan,
    Schedule,
    _left_total,
    attach_redundancy,
    max_payload_bits,
    size_parity,
    strip_and_correct,
    time_bound_formula,
)
from prdna.ecc import EccError, ReedSolomonCode
from prdna.graph import SynthesisGraph, max_entropic_chain, uniform_graph
from prdna.quantizer import (
    BINOMIAL,
    POISSON,
    Infeasible,
    QuantizerDesign,
    decide,
    design_binomial,
    design_poisson,
    exact_error_probabilities,
)


# ---------------------------------------------------------------------------
# Channel sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """Sampled run lengths for every copy of a synthesized schedule.

    ``decisions``, computed once, holds every round's duration index as the
    design decides it on the copy sums.  The deletion sets are read off
    ``copies`` as ascending int64 round numbers: rounds zero in some copy,
    and rounds zero in every copy.
    """

    schedule: Schedule
    design: QuantizerDesign
    copies: np.ndarray  # shape (n_copies, n_rounds)

    @cached_property
    def decisions(self) -> np.ndarray:
        return decide(self.design, self.copies.sum(axis=0))[0]

    @property
    def rounds_with_deletion(self) -> np.ndarray:
        return np.flatnonzero(~self.copies.all(axis=0))

    @property
    def rounds_fully_deleted(self) -> np.ndarray:
        return np.flatnonzero(~self.copies.any(axis=0))


def _stream(seed: int, trial: int | None = None, payload: bool = False) -> np.random.Generator:
    """Philox stream keyed by (seed, trial): the channel noise, or the payload draw.

    The payload key (trial, 1) is a child key of its own, so a trial's
    payload and channel noise never read the same words.
    """
    spawn = () if trial is None else (trial, 1) if payload else (trial,)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn)))


def _invert_binomial(u: np.ndarray, t: int, p: float) -> np.ndarray | None:
    """Binomial(t, p) draws for p <= 1/2, one per uniform, as numpy makes them.

    This is numpy's small-mean sampler ``random_binomial_inversion``
    (Devroye 1986, ch. X) run over the whole array: in step k every
    uniform still above the pmf term px counts one, each uniform loses px,
    and px moves to the next term, in the same IEEE order as numpy's
    per-element loop.  The loop is monotone in u, so the largest uniform
    fixes the number of steps.  None when it steps past numpy's bound,
    where numpy would draw again.  ``u`` is overwritten.
    """
    q = 1.0 - p
    mean = t * p
    bound = int(min(t, mean + 10.0 * math.sqrt(mean * q + 1)))
    terms = []  # the pmf terms the largest uniform steps past
    top, px = float(u.max(initial=0.0)), math.exp(t * math.log(q))
    while top > px:
        if len(terms) == bound:
            return None
        terms.append(px)
        top -= px
        k = len(terms)
        px = ((t - k + 1) * p * px) / (k * q)
    x = np.zeros(u.shape, dtype=np.uint8)  # bound <= 30 + 10 * sqrt(31) wherever numpy inverts
    for px in terms:
        x += u > px
        u -= px
    return x


def _run_lengths(rng, design: QuantizerDesign, indices: np.ndarray, invert: bool) -> np.ndarray | None:
    """Run lengths for every (copy, round), as numpy's samplers draw them.

    One sampler call per duration index, ascending, on the index's
    (copies, rounds) block in C order.  Under ``invert`` a binomial block
    with t > 0 takes the same draws from ``rng.random`` by inversion, and
    the result is None when a uniform passes numpy's inversion bound,
    where numpy would draw again in mid-stream.  The blocks, side by side,
    hold the rounds grouped by index; one gather along the rounds puts
    them back in schedule order.
    """
    columns = [np.flatnonzero(indices == idx) for idx in range(1, design.ell + 1)]
    if sum(map(len, columns)) != len(indices):
        raise ValueError(f"schedule duration indices must lie in 1..{design.ell}")
    blocks = []
    for idx, cols in enumerate(columns):
        size = (design.copies, len(cols))
        if design.family != BINOMIAL:
            block = rng.poisson(design.rates[idx], size=size)
        elif invert and design.durations[idx] > 0:
            t = int(design.durations[idx])
            block = _invert_binomial(rng.random(size), t, min(design.p, 1.0 - design.p))
            if block is None:
                return None
            if design.p > 0.5:  # numpy draws from 1 - p and returns t - x
                block = np.subtract(t, block, dtype=np.int64)
        else:
            block = rng.binomial(int(design.durations[idx]), design.p, size=size)
        blocks.append(block)
    grouped = np.concatenate(blocks, axis=1, dtype=np.int64)
    place = np.empty(len(indices), dtype=np.int64)  # each round's column among the blocks
    place[np.concatenate(columns)] = np.arange(len(indices))
    return np.take(grouped, place, axis=1)


def synthesize(
    schedule: Schedule,
    design: QuantizerDesign,
    seed: int,
    trial: int | None = None,
) -> ChannelTrace:
    """Draw run lengths for every (copy, round) from the design's family.

    One copy's run at duration index i is Binomial(t_i, p) for binomial
    designs and Poisson(rate_i) for Poisson designs.  Streams are
    counter-based and keyed by (seed, trial), so repeated calls reproduce
    traces exactly and trials can run in parallel.  A binomial design
    whose every duration numpy inverts (t * min(p, 1 - p) <= 30, below
    BTPE) draws by vectorized inversion.  Any other design calls numpy's
    samplers, and so does a trial with a uniform past the inversion
    bound, on its re-keyed stream.  Either way the trace is numpy's.
    """
    invert = design.family == BINOMIAL and max(design.durations, default=0) * min(design.p, 1 - design.p) <= 30
    lengths = _run_lengths(_stream(seed, trial), design, schedule.indices, invert)
    if lengths is None:
        lengths = _run_lengths(_stream(seed, trial), design, schedule.indices, False)
    return ChannelTrace(schedule=schedule, design=design, copies=lengths)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

@dataclass
class SimulationReport:
    """Aggregated trial statistics; counts merge by exact addition."""

    ell: int
    trials: int = 0
    successes: int = 0
    unrecoverable: int = 0
    per_index_errors: list[int] = field(default_factory=list)
    per_index_rounds: list[int] = field(default_factory=list)
    rounds_with_deletion: int = 0
    rounds_fully_deleted: int = 0
    total_rounds: int = 0
    payload_bits: int = 0
    synthesis_time: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not self.per_index_errors:
            self.per_index_errors = [0] * self.ell
        if not self.per_index_rounds:
            self.per_index_rounds = [0] * self.ell

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else math.nan

    @property
    def bits_per_time(self) -> float:
        """Payload bits per synthesis time unit.

        NaN when no payload bits were counted: schedules on graphs with
        non-integer durations carry no bit count.
        """
        if not (self.payload_bits and self.synthesis_time):
            return math.nan
        return self.payload_bits / self.synthesis_time

    def error_rate(self, index: int) -> float:
        n = self.per_index_rounds[index - 1]
        return self.per_index_errors[index - 1] / n if n else math.nan

    def confidence_radius(self, index: int) -> float:
        n = self.per_index_rounds[index - 1]
        if not n:
            return math.nan
        rate = self.error_rate(index)
        return 3.0 * math.sqrt(rate * (1.0 - rate) / n)

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        if other.ell != self.ell:
            raise ValueError("cannot merge reports with different index counts")
        self.trials += other.trials
        self.successes += other.successes
        self.unrecoverable += other.unrecoverable
        for i in range(self.ell):
            self.per_index_errors[i] += other.per_index_errors[i]
            self.per_index_rounds[i] += other.per_index_rounds[i]
        self.rounds_with_deletion += other.rounds_with_deletion
        self.rounds_fully_deleted += other.rounds_fully_deleted
        self.total_rounds += other.total_rounds
        self.payload_bits += other.payload_bits
        self.synthesis_time += other.synthesis_time
        return self

    def to_json(self) -> str:
        payload = {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate if self.trials else None,
            "unrecoverable": self.unrecoverable,
            "per_index_error_rates": [
                self.error_rate(i) if self.per_index_rounds[i - 1] else None
                for i in range(1, self.ell + 1)
            ],
            "per_index_confidence_radii": [
                self.confidence_radius(i) if self.per_index_rounds[i - 1] else None
                for i in range(1, self.ell + 1)
            ],
            "rounds_with_deletion": self.rounds_with_deletion,
            "rounds_fully_deleted": self.rounds_fully_deleted,
            "total_rounds": self.total_rounds,
            "bits_per_time": None if math.isnan(self.bits_per_time) else self.bits_per_time,
            "seed": self.seed,
        }
        return json.dumps(payload, indent=2)


def read_and_decode(trace: ChannelTrace, setup: PipelineSetup) -> Schedule:
    """Strip parity from a trace's decisions and correct its payload rounds.

    Returns the payload schedule with corrected duration indices.  Raises
    :class:`EccError` when the code gives up or, under the setup's
    ``strict_deletions``, when a letter-bearing appended round was deleted
    in every copy.
    """
    if setup.strict_deletions and (trace.rounds_fully_deleted >= setup.plan.payload_rounds).any():
        raise EccError("an appended letter round was deleted in every copy")
    received = replace(trace.schedule, indices=trace.decisions)
    return strip_and_correct(setup.graph, received, setup.plan, setup.ecc)


# ---------------------------------------------------------------------------
# Trial drivers
# ---------------------------------------------------------------------------

def random_schedule(graph: SynthesisGraph, start: str, n_rounds: int, rng) -> Schedule:
    """Uniformly random rounds: any other letter, any duration index.

    All steps are drawn first, then all indices; letters are running sums
    of the steps in Z_q.
    """
    steps = rng.integers(1, graph.q, size=n_rounds)
    indices = rng.integers(1, graph.ell + 1, size=n_rounds)
    positions = np.cumsum(np.append(graph.alphabet.index(start), steps)) % graph.q
    # rounds are drawn on the graph's edges, so they need no validation
    return Schedule(graph, start, positions[1:], indices)


@dataclass(frozen=True)
class PipelineSetup:
    """Everything one trial needs: graph, design, sizing, code, and reader.

    ``payload`` fixes the payload schedule of every trial, carrying
    ``payload_bits`` user bits; without it each trial draws a uniformly
    random schedule of the planned length after the letter ``A``.
    ``strict_deletions`` makes the reader give up on a letter-bearing
    appended round deleted in every copy.
    """

    graph: SynthesisGraph
    design: QuantizerDesign
    plan: RedundancyPlan
    ecc: ReedSolomonCode | None
    payload: Schedule | None = None
    payload_bits: int | None = None
    strict_deletions: bool = False

    @classmethod
    def for_design(cls, design: QuantizerDesign, payload_rounds: int, q: int = 4) -> "PipelineSetup":
        """Uniform graph on the design's durations; parity sized for its exact worst misread."""
        graph = uniform_graph(q, design.durations)
        misread = max(exact_error_probabilities(design))
        plan, ecc = size_parity(payload_rounds, misread, design.ell, q)
        return cls(graph=graph, design=design, plan=plan, ecc=ecc)


def run_schedule_trial(setup: PipelineSetup, seed: int, trial: int) -> SimulationReport:
    """One trial: attach parity, synthesize, read, and score the payload.

    The payload is the setup's fixed schedule, else a uniformly random
    schedule of the planned length drawn from the trial's payload stream;
    the channel noise comes from its channel stream.
    """
    design, plan, graph = setup.design, setup.plan, setup.graph
    payload = setup.payload
    if payload is None:
        payload = random_schedule(graph, "A", plan.payload_rounds, _stream(seed, trial, payload=True))
    full = attach_redundancy(graph, payload, plan, setup.ecc)
    trace = synthesize(full, design, seed, trial)
    deleted = trace.rounds_fully_deleted
    elapsed = full.elapsed  # the payload rounds lead: its running sums are the payload's
    report = SimulationReport(
        ell=design.ell,
        trials=1,
        total_rounds=full.num_rounds,
        rounds_with_deletion=len(trace.rounds_with_deletion),
        rounds_fully_deleted=len(deleted),
        synthesis_time=float(_left_total(elapsed)),
    )
    if setup.payload_bits is not None:
        report.payload_bits = setup.payload_bits
    elif graph.is_integer():
        payload_time = int(_left_total(elapsed[: payload.num_rounds]))
        report.payload_bits = max_payload_bits(graph, payload.start, payload_time)
    # A fully deleted round is an error even when index 1 is right, as in
    # the Pr(sum <= tau_0) term of exact_error_probabilities.
    s = plan.payload_rounds
    truth = payload.indices
    wrong = trace.decisions[:s] != truth
    wrong[deleted[deleted < s]] = True
    report.per_index_rounds = np.bincount(truth - 1, minlength=design.ell).tolist()
    report.per_index_errors = np.bincount(truth[wrong] - 1, minlength=design.ell).tolist()
    try:
        corrected = read_and_decode(trace, setup)
        report.successes = int(np.array_equal(corrected.indices, truth))
    except EccError:
        report.unrecoverable = 1
    return report


def _schedule_chunk(args) -> SimulationReport:
    setup, seed, trials = args
    report = SimulationReport(ell=setup.design.ell)
    for trial in trials:
        report.merge(run_schedule_trial(setup, seed, trial))
    return report


def simulate_schedules(setup: PipelineSetup, trials: int, seed: int, jobs: int = 1) -> SimulationReport:
    """Run independent random-schedule trials; result is jobs-invariant."""
    indices = list(range(trials))
    workers = min(jobs, trials)  # more workers than trials or cores only add forks
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        report = _schedule_chunk((setup, seed, indices))
    else:
        chunks = [(setup, seed, indices[w::workers]) for w in range(workers)]
        report = SimulationReport(ell=setup.design.ell)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_schedule_chunk, chunks):
                report.merge(part)
    report.seed = seed
    return report


# ---------------------------------------------------------------------------
# Rate curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePoint:
    """One grid point of an achievable-rate sweep."""

    param: float
    copies: int
    delta: float
    max_duration: float | None
    ell: int | None = None
    capacity_bits_per_time: float | None = None
    rounds_per_time: float | None = None
    rate_bound: float | None = None
    lambda1: float | None = None
    status: str = "ok"


def rate_curve(
    family: str,
    sweep: str,
    values: Sequence[float],
    p: float | None = None,
    delta: float | None = None,
    copies: int | None = None,
    max_duration: float | None = None,
    ell_max: int = 10,
    q: int = 4,
) -> list[RatePoint]:
    """Design, then rate-analyze, one quantizer per swept parameter value.

    ``sweep`` names the swept parameter, whose fixed argument stays unset:
    ``p`` (binomial only), ``delta`` or ``N`` (``copies``).  ``max_duration``
    caps every design's durations; binomial designs need a whole-number cap
    and default to 10.  Infeasible designs yield a status row instead of
    aborting.  Rows follow the input order of ``values``.
    """
    if family not in (BINOMIAL, POISSON):
        raise ValueError(f"unknown family {family!r}")
    if sweep not in ("p", "delta", "N"):
        raise ValueError("sweep is one of 'p', 'delta', 'N'")
    if family == POISSON and sweep == "p":
        raise ValueError("Poisson designs have no success probability to sweep")
    if {"p": p, "delta": delta, "N": copies}[sweep] is not None:
        raise ValueError(f"the sweep sets {sweep}; a fixed {sweep} would be ignored")
    if family == BINOMIAL and max_duration is None:
        max_duration = 10

    points = []
    for value in values:
        if sweep == "N" and not float(value).is_integer():  # also refuses inf and nan
            raise ValueError(f"copy count {value} is not a whole number")
        cur_p = float(value) if sweep == "p" else p
        cur_delta = float(value) if sweep == "delta" else delta
        cur_copies = int(value) if sweep == "N" else copies
        if cur_delta is None or cur_copies is None or (family == BINOMIAL and cur_p is None):
            raise ValueError("sweep leaves a required parameter unset")
        try:
            if family == BINOMIAL:
                design = design_binomial(cur_p, cur_delta, cur_copies, max_duration)
            else:
                design = design_poisson(cur_delta, cur_copies, ell_max=ell_max, max_duration=max_duration)
        except Infeasible:
            points.append(
                RatePoint(
                    param=float(value), copies=cur_copies, delta=cur_delta,
                    max_duration=max_duration, status="infeasible",
                )
            )
            continue
        graph = uniform_graph(q, design.durations)
        chain = max_entropic_chain(graph)
        cap, alpha = chain.capacity.capacity, chain.rounds_per_time
        # time per bit from the expected-time bound; its reciprocal is the rate
        rate = 1.0 / time_bound_formula(1, cap, cur_delta, graph.ell, graph.q, alpha)
        points.append(
            RatePoint(
                param=float(value), copies=cur_copies, delta=cur_delta,
                max_duration=max_duration, ell=design.ell,
                capacity_bits_per_time=cap, rounds_per_time=alpha, rate_bound=rate,
                lambda1=None if design.rates is None else design.rates[0],
            )
        )
    return points


RATE_CURVE_HEADER = "param,N,delta,M,ell,capacity_bits_per_time,alpha,rate_thm2,lambda1,status"


def rate_curve_csv(points: Sequence[RatePoint]) -> str:
    """Render sweep rows with 9-significant-digit numeric fields."""

    def num(x) -> str:
        return "" if x is None else f"{x:.9g}"

    lines = [RATE_CURVE_HEADER]
    for pt in points:
        lines.append(
            ",".join(
                [
                    num(pt.param), str(pt.copies), num(pt.delta), num(pt.max_duration),
                    "" if pt.ell is None else str(pt.ell),
                    num(pt.capacity_bits_per_time), num(pt.rounds_per_time),
                    num(pt.rate_bound), num(pt.lambda1), pt.status,
                ]
            )
        )
    return "\n".join(lines) + "\n"
