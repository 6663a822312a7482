"""
Which connectivity triples always suffice?
==========================================

For three unit-rate sessions with per-session max-flows capped at 3, list
every triple and whether the connectivity vector alone guarantees a coding
solution on all graphs attaining it.  Infeasible triples come with a named
counter-example; two of those are settled by a plain cut-set bound, one
needs an exhaustive code search.
"""

from itertools import product

from netcode_unicast import (
    brute_force_scalar,
    classify_triple,
    cutset_infeasible,
    gen_113,
    gen_222,
    gen_232,
)

for triple in product((1, 2, 3), repeat=3):
    verdict = classify_triple(triple)
    if verdict.feasible:
        print(f"{list(triple)}: feasible via {verdict.strategy}")
    else:
        print(f"{list(triple)}: infeasible, witness {verdict.witness}")

# The [2,2,2] and [1,1,3] witnesses die on a counting argument: some node
# cut is thinner than the demand that must cross it.
for name, make in (("gen_222", gen_222), ("gen_113", gen_113)):
    w = cutset_infeasible(make())
    print(f"{name}: cut capacity {w.capacity} < required rate {w.required_rate}")

# No cut rules out the [2,2,3] witness; only exhausting every GF(2) code
# does.  (GF(3) exhausts too, see the test suite.)  The search skips every
# state whose node spans match one already failed, and every state in which
# a terminal can no longer receive its symbols, so it tries far fewer
# coefficient blocks than there are codes.
report = brute_force_scalar(gen_232(), 2)
print(f"gen_232: tried {report.enumerated} coefficient blocks,",
      "no code exists" if report.exhausted and report.code is None else "?")
