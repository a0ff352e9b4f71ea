"""Designing run-length quantizers for binomial synthesis statistics.

Each synthesized copy of a round of duration t carries a run whose length
is Binomial(t, p).  Watching N copies, the reader sums the lengths and
compares against designed thresholds.  The design picks durations far
enough apart that every decision is right except with probability at
most the chosen budget.
"""

from prdna import design_binomial, design_table, exact_error_probabilities
from prdna.quantizer import decide

# A single noisy copy: only one usable duration fits under a 10-unit cap.
single = design_binomial(p=0.5, delta=0.1, copies=1, max_duration=10)
print(design_table(single))
print()

# Five copies of a cleaner channel: six durations fit, i.e. each round
# can carry log2(6) extra bits through its length alone.
design = design_binomial(p=0.9, delta=0.02, copies=5, max_duration=10)
print(design_table(design))
print()

# The guarantee is exact, not asymptotic: per true index, the probability
# of landing outside the decision interval is at most delta.
print("exact error per index:", [f"{e:.4f}" for e in exact_error_probabilities(design)])

# Decisions: sum the copy run lengths and find the threshold interval.
# The answer is (duration index, low-confidence flag).
observed = [2, 1, 3, 2, 2]   # sum 10 -> second designed duration
index, low_confidence = decide(design, sum(observed))
print("observed", observed, "->", (int(index), bool(low_confidence)))

# A run deleted in every copy still produces an answer, flagged so the
# downstream code treats it as suspect.
index, low_confidence = decide(design, 0)
print("all-zero observation ->", (int(index), bool(low_confidence)))
