"""Schedule graphs and their writing capacity.

A synthesis schedule is a walk on a small graph: vertices are letters,
and an edge b -> a with duration t means "run a reaction round of t time
units appending a's after a run of b's".  Information per *time unit* is
what matters, so capacity is log2 of the root of a duration-weighted
characteristic equation.
"""

import math

import numpy as np

from prdna import (
    capacity,
    count_schedules,
    iter_schedules,
    max_entropic_chain,
    ordinary_expand,
    rounds_to_word,
    uniform_graph,
)

# One allowed duration per transition: every round carries log2(3) bits
# (choice of the next letter) per single time unit.
unit = uniform_graph(4, [1])
print("menu {1}:   capacity =", capacity(unit).capacity, "(log2 3 =", math.log2(3), ")")

# Offering a second, longer duration raises the per-time rate: rounds can
# now also say something through how long they run.
two = uniform_graph(4, [1, 2])
res = capacity(two)
print("menu {1,2}: capacity =", res.capacity, " root =", res.perron_root)
print("            closed form root (3+sqrt(21))/2 =", (3 + math.sqrt(21)) / 2)

# The same number falls out of the unit-duration expansion: replace each
# duration-2 edge by a 2-step path and take the largest eigenvalue.
expanded = ordinary_expand(two)
radius = max(abs(np.linalg.eigvals(expanded.astype(float))))
print("expansion:", len(expanded), "vertices,",
      len(expanded) - two.q, "auxiliary; log2(radius) =", math.log2(radius))

# Exact schedule counts grow like root**T; the normalized log approaches
# the capacity.
for total in (10, 30, 60):
    n = count_schedules(two, "A", total)
    print(f"T={total:3d}: {n} schedules, {math.log2(n) / total:.5f} bits/time")

# Distinct schedules write distinct DNA words (the graph is lossless), so
# a read of the word recovers the schedule.
words = [rounds_to_word(two, "A", rounds) for rounds in iter_schedules(two, "A", 4)]
print("T=4 from A:", len(words), "schedules,", len(set(words)), "distinct words")

# The entropy-maximizing round process tells how often rounds start: its
# mean round duration is the reciprocal of the expected rounds per time.
chain = max_entropic_chain(two)
print("mean round duration:", chain.mean_round_duration,
      "-> rounds per time unit:", chain.rounds_per_time)
