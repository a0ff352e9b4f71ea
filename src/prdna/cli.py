"""Batch command-line front end with JSON/CSV input and output.

Subcommands: ``capacity``, ``design``, ``rate-curve``, ``encode``,
``decode``, ``simulate``.  Exit status 0 on success, 2 on a validation
problem, 3 when the code cannot correct a read.  Numeric output is
fixed at nine significant digits so artifacts diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import secrets
import sys
from dataclasses import replace

from prdna.codec import (
    Schedule,
    attach_redundancy,
    decode_payload,
    encode_payload,
    make_schedule,
    max_payload_bits,
    size_parity,
    strip_and_correct,
)
from prdna.ecc import EccError
from prdna.graph import (
    _COUNT_BITS,
    SynthesisGraph,
    capacity,
    graph_from_json,
    uniform_graph,
)
from prdna.quantizer import (
    QuantizerDesign,
    design_binomial,
    design_from_json,
    design_poisson,
    design_table,
    design_to_json,
)
from prdna.simulator import (
    PipelineSetup,
    rate_curve,
    rate_curve_csv,
    simulate_schedules,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNRECOVERABLE = 3

# the meta-line token of files ranked on w-bit rounded counts
_COUNTS = f"w{_COUNT_BITS}"


def _nine(value):
    """Clamp floats (recursively) to nine significant digits."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _nine(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nine(v) for v in value]
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"{value} outside the valid range (0, 1)")
    return value


def _nonneg_probability(text: str) -> float:
    value = float(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"{value} outside the valid range [0, 1)")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError(f"{value} outside the valid range (0, inf)")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} outside the valid range [1, inf)")
    return value


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_graph(args) -> SynthesisGraph:
    if args.graph:
        with open(args.graph) as handle:
            return graph_from_json(handle.read())
    if not args.menu:
        raise ValueError("need --graph or --menu")
    menu = [float(x) for x in args.menu.split(",")]
    return uniform_graph(args.q, menu, args.M)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbelow(2**31)
    print(f"seed={seed}")
    return seed


def _add_graph_flags(parser):
    parser.add_argument("--graph", help="graph profile JSON path")
    parser.add_argument("--q", type=_positive_int, default=4, help="alphabet size (uniform menu mode)")
    parser.add_argument("--menu", help="comma-separated durations shared by every pair")
    parser.add_argument("--M", type=_positive_float, default=None, help="maximal round duration")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_capacity(args) -> int:
    graph = _load_graph(args)
    result = capacity(graph)
    payload = _nine(
        {
            "capacity": result.capacity,
            "perron_root": result.perron_root,
            "letters": list(graph.alphabet.letters),
            "right_vector": list(result.right_vector),
            "left_vector": list(result.left_vector),
        }
    )
    print(f"{result.capacity:.9g}")
    if args.out:
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


# the flags that build a design: their parser defaults are None, so a check sees any given
_DESIGN_FLAGS = ("family", "p", "delta", "N", "M", "ell_max")
# the design flags that each family has no use for
_UNREAD_FLAGS = {"binomial": ("ell_max",), "poisson": ("p",)}


def _refuse_given(args, names, message: str):
    """Refuse the flags among ``names`` that were given, naming them in ``message``."""
    given = [name for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(message.format(", ".join("--" + name.replace("_", "-") for name in given)))


def _build_design(args) -> QuantizerDesign:
    family = args.family or "binomial"
    _refuse_given(args, _UNREAD_FLAGS[family], family + " designs do not read {}")
    if args.delta is None:
        raise ValueError("need --delta or --design")
    copies = 1 if args.N is None else args.N
    if family == "binomial":
        if args.p is None:
            raise ValueError("binomial designs need --p")
        return design_binomial(args.p, args.delta, copies, 10 if args.M is None else args.M)
    ell_max = 10 if args.ell_max is None else args.ell_max
    return design_poisson(args.delta, copies, ell_max=ell_max, max_duration=args.M)


def _cmd_design(args) -> int:
    design = _build_design(args)
    print(design_table(design))
    text = json.dumps(_nine(json.loads(design_to_json(design))), indent=2) + "\n"
    if args.out:
        _write_out(text, args.out)
    return EXIT_OK


def _cmd_rate_curve(args) -> int:
    _refuse_given(args, _UNREAD_FLAGS[args.family], args.family + " designs do not read {}")
    values = [float(x) for x in args.values.split(",")]
    points = rate_curve(
        args.family, args.sweep, values, p=args.p, delta=args.delta, copies=args.N,
        max_duration=args.M, ell_max=10 if args.ell_max is None else args.ell_max, q=args.q,
    )
    _write_out(rate_curve_csv(points), args.out)
    return EXIT_OK


def _hex_to_bits(hex_payload: str, n_bits: int | None) -> str:
    if not re.fullmatch("[0-9a-fA-F]+", hex_payload):  # int() would take 0x, _ and blanks
        raise ValueError(f"--payload-hex {hex_payload!r} is not a string of hex digits")
    value = int(hex_payload, 16)
    width = n_bits if n_bits is not None else 4 * len(hex_payload)
    if value >= 2**width:
        raise ValueError(f"payload does not fit in {width} bits")
    return format(value, f"0{width}b")


def _bits_to_hex(bits: str) -> str:
    width = max(1, math.ceil(len(bits) / 4))
    return format(int(bits, 2) if bits else 0, f"0{width}x")


def _schedule_lines(schedule: Schedule, graph, payload_time, payload_rounds, plan, n_bits) -> str:
    # repr round-trips the delta that sized the code; a zero delta stays "0"
    delta = repr(plan.delta).removesuffix(".0")
    header = (
        f"{graph.q} {graph.ell} {int(payload_time)} "
        f"{payload_rounds} {plan.redundancy_rounds} {delta}"
    )
    meta = f"# start={schedule.start} bits={n_bits} counts={_COUNTS}"
    rows = [f"{a} {i}" for a, i in schedule.rounds]
    return "\n".join([header, meta, *rows]) + "\n"


def _parse_schedule_file(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("schedule file is empty")
    q, ell, total, payload_rounds, redundancy_rounds, delta = lines[0].split()
    meta = {}
    body = lines[1:]
    if body and body[0].startswith("#"):
        for token in body[0][1:].split():
            key, _, value = token.partition("=")
            meta[key] = value
        body = body[1:]
    rounds = []
    for line in body:
        letter, index = line.split()
        rounds.append((letter, int(index)))
    payload_rounds, redundancy_rounds = int(payload_rounds), int(redundancy_rounds)
    if payload_rounds < 1:
        raise ValueError(f"header counts {payload_rounds} payload rounds; need at least 1")
    if payload_rounds + redundancy_rounds != len(rounds):
        raise ValueError(
            f"header counts {payload_rounds} + {redundancy_rounds} rounds; the file lists {len(rounds)}"
        )
    return {
        "q": int(q),
        "ell": int(ell),
        "total": int(total),
        "payload_rounds": payload_rounds,
        "redundancy_rounds": redundancy_rounds,
        "delta": float(delta),
        "meta": meta,
        "rounds": rounds,
    }


def _cmd_encode(args) -> int:
    graph = _load_graph(args)
    bits = _hex_to_bits(args.payload_hex, args.bits)
    if args.start is None and "A" not in graph.alphabet.letters:
        raise ValueError("unknown letter 'A', the default --start: name a letter of the graph with --start")
    payload = encode_payload(bits, graph, "A" if args.start is None else args.start, args.T)
    plan, ecc = size_parity(payload.num_rounds, args.delta, graph.ell, graph.q)
    full = attach_redundancy(graph, payload, plan, ecc)
    text = _schedule_lines(full, graph, payload.total_time, payload.num_rounds, plan, len(bits))
    _write_out(text, args.out)
    return EXIT_OK


def _cmd_decode(args) -> int:
    graph = _load_graph(args)
    with open(args.infile) as handle:
        parsed = _parse_schedule_file(handle.read())
    if parsed["q"] != graph.q or parsed["ell"] != graph.ell:
        raise ValueError("schedule header does not match the graph")
    n_bits = args.bits
    if n_bits is None and "bits" in parsed["meta"]:
        n_bits = int(parsed["meta"]["bits"])
    received = make_schedule(graph, parsed["meta"].get("start", "A"), parsed["rounds"])
    # the encoder's own sizing: the header's s and delta fix the code
    s, delta, appended = parsed["payload_rounds"], parsed["delta"], parsed["redundancy_rounds"]
    plan, ecc = size_parity(s, delta, graph.ell, graph.q)
    if plan.redundancy_rounds != appended:
        raise ValueError(
            f"header counts {appended} appended rounds; "
            f"s = {s} at delta {delta!r} needs {plan.redundancy_rounds}"
        )
    payload = strip_and_correct(graph, received, plan, ecc)
    bits = decode_payload(payload, graph, parsed["total"], n_bits=n_bits)
    # exact and rounded counts rank alike only on budgets below 2**w schedules
    counts = parsed["meta"].get("counts")
    if counts != _COUNTS and max_payload_bits(graph, payload.start, parsed["total"]) >= _COUNT_BITS:
        written = "exact counts" if counts is None else f"counts={counts}"
        raise ValueError(
            f"schedule file was written with {written}; a budget of 2**{_COUNT_BITS} schedules "
            f"or more decodes only from files with counts={_COUNTS} on the meta line"
        )
    print(_bits_to_hex(bits))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.payload_hex is None and (args.T is not None or args.bits is not None):
        raise ValueError("--T and --bits size a --payload-hex payload")
    if args.design:
        _refuse_given(args, _DESIGN_FLAGS, "--design fixes the design; {} would be ignored")
        with open(args.design) as handle:
            design = design_from_json(handle.read())
    else:
        design = _build_design(args)
    seed = _resolve_seed(args)
    if args.payload_rounds:
        setup = PipelineSetup.for_design(design, args.payload_rounds, args.q)
    elif args.payload_hex is not None:
        if args.T is None:
            raise ValueError("--payload-hex needs --T")
        bits = _hex_to_bits(args.payload_hex, args.bits)
        payload = encode_payload(bits, uniform_graph(args.q, design.durations), "A", args.T)
        setup = replace(
            PipelineSetup.for_design(design, payload.num_rounds, args.q),
            payload=payload, payload_bits=len(bits),
        )
    else:
        raise ValueError("need --payload-rounds or --payload-hex")
    setup = replace(setup, strict_deletions=args.strict_deletions)
    report = simulate_schedules(setup, trials=args.trials, seed=seed, jobs=args.jobs)
    text = json.dumps(_nine(json.loads(report.to_json())), indent=2) + "\n"
    _write_out(text, args.out)
    return EXIT_UNRECOVERABLE if report.unrecoverable else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prdna",
        description="Run-length coded DNA synthesis schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="capacity of a schedule graph")
    _add_graph_flags(p_cap)
    p_cap.add_argument("--out", help="write the full result as JSON")
    p_cap.set_defaults(func=_cmd_capacity)

    p_design = sub.add_parser("design", help="design a run-length quantizer")
    p_design.add_argument("family", choices=["binomial", "poisson"])
    p_design.add_argument("--p", type=_probability, help="per-unit success probability")
    p_design.add_argument("--delta", type=_probability, required=True, help="per-round error budget")
    p_design.add_argument("--N", type=_positive_int, help="synthesized copies (default 1)")
    p_design.add_argument("--M", type=_positive_float, help="maximal round duration")
    p_design.add_argument("--ell-max", type=_positive_int, help="index limit (poisson, default 10)")
    p_design.add_argument("--out", help="write the design as JSON")
    p_design.set_defaults(func=_cmd_design)

    p_rate = sub.add_parser("rate-curve", help="achievable-rate sweep as CSV")
    p_rate.add_argument("--family", choices=["binomial", "poisson"], required=True)
    p_rate.add_argument("--sweep", choices=["p", "delta", "N"], required=True)
    p_rate.add_argument("--values", required=True, help="comma-separated sweep values")
    p_rate.add_argument("--p", type=_probability)
    p_rate.add_argument("--delta", type=_probability)
    p_rate.add_argument("--N", type=_positive_int)
    p_rate.add_argument(
        "--M", type=_positive_float, help="maximal round duration (binomial: whole, default 10)"
    )
    p_rate.add_argument("--ell-max", type=_positive_int)
    p_rate.add_argument("--q", type=_positive_int, default=4)
    p_rate.add_argument("--out", help="CSV output path (default stdout)")
    p_rate.set_defaults(func=_cmd_rate_curve)

    p_enc = sub.add_parser("encode", help="bits to schedule file")
    _add_graph_flags(p_enc)
    p_enc.add_argument("--start", help="letter preceding the first round (default A)")
    p_enc.add_argument("--T", type=_positive_int, required=True, help="payload synthesis time")
    p_enc.add_argument("--payload-hex", required=True, help="payload as a hex string")
    p_enc.add_argument("--bits", type=_positive_int, help="payload width in bits")
    p_enc.add_argument("--delta", type=_nonneg_probability, default=0.0, help="per-round misread bound")
    p_enc.add_argument("--out", help="schedule file path (default stdout)")
    p_enc.set_defaults(func=_cmd_encode)

    p_dec = sub.add_parser("decode", help="schedule file to bits")
    _add_graph_flags(p_dec)
    p_dec.add_argument("--in", dest="infile", required=True, help="schedule file path")
    p_dec.add_argument("--bits", type=_positive_int, help="payload width in bits")
    p_dec.set_defaults(func=_cmd_decode)

    p_sim = sub.add_parser("simulate", help="run the channel pipeline")
    p_sim.add_argument("--design", help="design JSON path")
    p_sim.add_argument("--family", choices=["binomial", "poisson"], help="default binomial")
    p_sim.add_argument("--p", type=_probability)
    p_sim.add_argument("--delta", type=_probability)
    p_sim.add_argument("--N", type=_positive_int, help="default 1")
    p_sim.add_argument("--M", type=_positive_float)
    p_sim.add_argument("--ell-max", type=_positive_int, help="default 10")
    p_sim.add_argument("--q", type=_positive_int, default=4)
    payload = p_sim.add_mutually_exclusive_group()
    payload.add_argument("--payload-rounds", type=_positive_int, help="random payload length per trial")
    payload.add_argument("--payload-hex", help="fixed payload as a hex string")
    p_sim.add_argument("--bits", type=_positive_int, help="payload width in bits")
    p_sim.add_argument("--T", type=_positive_int, help="payload synthesis time")
    p_sim.add_argument("--trials", type=_positive_int, default=100)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--jobs", type=_positive_int, default=1)
    p_sim.add_argument("--strict-deletions", action="store_true",
                       help="abort on fully deleted letter-bearing rounds")
    p_sim.add_argument("--out", help="report JSON path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EccError as exc:
        print(f"unrecoverable: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
