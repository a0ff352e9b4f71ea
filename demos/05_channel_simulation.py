"""Simulating the multi-copy channel end to end.

Every round of a schedule is synthesized into N independent copies; run
lengths come out random, the reader quantizes the copy sums, the parity
rounds repair wrong decisions, and the payload comes back.  Deletions
(zero-length runs) are counted and surfaced.
"""

from prdna import (
    PipelineSetup,
    design_binomial,
    exact_error_probabilities,
    simulate_schedules,
)

design = design_binomial(p=0.5, delta=0.02, copies=5, max_duration=10)
print("designed durations:", design.durations, "thresholds:", design.sum_thresholds)

setup = PipelineSetup.for_design(design, payload_rounds=500)
print(f"plan: {setup.plan.parity_symbols} parity symbols, "
      f"{setup.plan.redundancy_rounds} appended rounds, "
      f"repair radius {setup.plan.radius_target}")

report = simulate_schedules(setup, trials=100, seed=7)
print(f"trials: {report.trials}  success rate: {report.success_rate:.3f}  "
      f"unrecoverable: {report.unrecoverable}")

exact = exact_error_probabilities(design)
for i in range(1, design.ell + 1):
    print(f"index {i}: measured error {report.error_rate(i):.5f} "
          f"± {report.confidence_radius(i):.5f}   exact {exact[i - 1]:.5f}")

print(f"rounds with a deleted copy: {report.rounds_with_deletion} "
      f"/ {report.total_rounds}; deleted in all copies: {report.rounds_fully_deleted}")
print(f"achieved {report.bits_per_time:.3f} payload bits per synthesis time unit")
