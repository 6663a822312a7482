"""
Pipeline: sample, strip, structure, code, lift
==============================================

Constructions want tidy inputs: no redundant edges and no internal node
touching more than three edges.  Both normal forms are reversible, so a
code built on the cleaned-up instance pulls back to the original graph.
This walks one random two-session instance through the whole chain.
"""

import random

from netcode_unicast import (
    assign_1m,
    build_instance,
    connectivity_level,
    internal_degree_ok,
    lift_code,
    minimize,
    sample_1m,
    structure,
    verify_code,
)

# A sampled [1,3] instance, then some junk: parallel copies of random edges
# that change nothing about the max-flows.
base = sample_1m(seed=42, m=2)
rng = random.Random(7)
edges = [(base.names[u], base.names[v]) for u, v in base.edges]
edges += [edges[rng.randrange(len(edges))] for _ in range(4)]
sessions = [(base.names[s.source], base.names[s.terminal], s.rate)
            for s in base.sessions]
messy = build_instance(edges, sessions)
print("messy:     ", messy.n_edges, "edges, connectivity",
      connectivity_level(messy))

# Strip every edge whose removal keeps the connectivity vector intact.
# Like keep_edges, minimize also returns the input id of each kept edge.
slim, kept = minimize(messy)
print("minimized: ", slim.n_edges, "edges,",
      messy.n_edges - len(kept), "removed")

# Replace wide internal nodes by merge/fork crossbars.  Edges keep their
# ids; the crossbar edges are numbered after them.
shaped = structure(slim)
print("structured:", shaped.n_edges, "edges, degree<=3:",
      internal_degree_ok(shaped))
assert connectivity_level(shaped) == connectivity_level(messy)

# The two-session constructor wants exactly this normal form.
code = assign_1m(shaped)
print("code on structured instance decodes:",
      verify_code(shaped, code).all_pass)

# Gadget edges forward verbatim, so the code pulls back edge by edge;
# the extra step through minimize is a plain re-indexing.
lifted = lift_code(shaped, slim, code)
print("lifted code decodes on minimized instance:",
      verify_code(slim, lifted).all_pass)
