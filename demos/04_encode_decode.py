"""Bits to schedules and back, with parity riding on extra letters.

Payload bits pick one schedule out of all schedules of an exact total
duration (enumerative coding).  The duration indices of those rounds are
then protected by a Reed-Solomon code over GF(p).  Its parity field
elements, as base-p digits, spell one big integer; the integer is
spelled in nonzero letter increments, and the increments become short
appended rounds.  Reading runs the same steps back: ``strip_and_correct``
takes the schedule as read and returns the corrected payload schedule,
which ranks straight back to the bits.
"""

import random
from dataclasses import replace

from prdna import (
    attach_redundancy,
    decode_payload,
    encode_payload,
    max_payload_bits,
    size_parity,
    strip_and_correct,
    uniform_graph,
)

graph = uniform_graph(4, [1, 2])
budget = 40
width = max_payload_bits(graph, "A", budget)
print(f"duration budget {budget} from 'A' carries {width} bits")

rng = random.Random(0)
bits = "".join(rng.choice("01") for _ in range(width))
payload = encode_payload(bits, graph, "A", budget)
print("payload rounds:", payload.num_rounds, "| first five:", payload.rounds[:5])

# Size the parity for rounds misread with probability at most 2%: the code
# repairs every error count but a one-in-a-million binomial tail, and it
# comes with the plan.
s = payload.num_rounds
plan, ecc = size_parity(s, delta=0.02, ell=graph.ell, q=graph.q)
full = attach_redundancy(graph, payload, plan, ecc)
print(f"parity: {plan.parity_symbols} symbols -> {plan.redundancy_rounds} appended rounds "
      f"(repairs up to {plan.radius_target} bad indices)")

# Corrupt a handful of duration indices, as a noisy read would.
misread = full.indices.copy()
for pos in rng.sample(range(s), plan.radius_target // 2):
    misread[pos] = (misread[pos] % graph.ell) + 1
restored = strip_and_correct(graph, replace(full, indices=misread), plan, ecc)
print("errors injected:", plan.radius_target // 2,
      "| corrected matches truth:", restored.indices.tolist() == payload.indices.tolist())

# The corrected payload schedule ranks straight back to the bits.
print("bits recovered exactly:", decode_payload(restored, graph, budget, n_bits=width) == bits)
