"""Run-length coded DNA synthesis schedules.

Capacity analysis of synthesis-schedule constraints, run-length quantizer
design with per-index error guarantees, an enumerative schedule codec with
an error-correcting redundancy pipeline, and a multi-copy channel
simulator.
"""

from prdna.codec import (
    BudgetTooSmall,
    InvalidSchedule,
    Schedule,
    ZeroDifference,
    attach_redundancy,
    code_rate,
    decode_payload,
    encode_payload,
    make_schedule,
    max_payload_bits,
    plan_redundancy,
    rank_schedule,
    size_parity,
    strip_and_correct,
    synthesis_time_bound,
    unrank_schedule,
)
from prdna.ecc import EccError, ReedSolomonCode
from prdna.graph import (
    Alphabet,
    CapacityResult,
    MarkovAnalysis,
    SynthesisGraph,
    capacity,
    count_schedules,
    graph_from_json,
    iter_schedules,
    max_entropic_chain,
    ordinary_expand,
    rounds_to_word,
    uniform_graph,
)
from prdna.quantizer import (
    Infeasible,
    QuantizerDesign,
    design_binomial,
    design_from_json,
    design_poisson,
    design_table,
    design_to_json,
    exact_error_probabilities,
)
from prdna.simulator import (
    ChannelTrace,
    PipelineSetup,
    RatePoint,
    SimulationReport,
    random_schedule,
    rate_curve,
    rate_curve_csv,
    read_and_decode,
    simulate_schedules,
    synthesize,
)

__all__ = [
    # graph
    "Alphabet", "CapacityResult", "MarkovAnalysis", "SynthesisGraph",
    "capacity", "count_schedules", "graph_from_json", "iter_schedules",
    "max_entropic_chain", "ordinary_expand", "rounds_to_word", "uniform_graph",
    # quantizer
    "Infeasible", "QuantizerDesign", "design_binomial", "design_from_json",
    "design_poisson", "design_table", "design_to_json",
    "exact_error_probabilities",
    # codec
    "BudgetTooSmall", "InvalidSchedule", "Schedule", "ZeroDifference",
    "attach_redundancy", "code_rate", "decode_payload", "encode_payload",
    "make_schedule", "max_payload_bits", "plan_redundancy", "rank_schedule",
    "size_parity", "strip_and_correct", "synthesis_time_bound",
    "unrank_schedule",
    # ecc
    "EccError", "ReedSolomonCode",
    # simulator
    "ChannelTrace", "PipelineSetup", "RatePoint", "SimulationReport",
    "random_schedule", "rate_curve", "rate_curve_csv", "read_and_decode",
    "simulate_schedules", "synthesize",
]

__version__ = "0.1.0"
