"""
When a network needs coding: the doubled butterfly
==================================================

A two-session network where every pair of routing paths collides on some
edge, so no scalar routing exists.  A single XOR-style linear code serves
both terminals, and spreading traffic over two time slots restores a pure
routing solution.
"""

from netcode_unicast import (
    brute_force_routing,
    brute_force_scalar,
    connectivity_level,
    gen_fig1,
    is_routing,
    propagate,
    route_uniform,
    verify_code,
)

inst = gen_fig1()
print("connectivity:", connectivity_level(inst))

# Exhaustive search over scalar routing assignments: every edge forwards
# one symbol or stays idle.  The search closes the whole space.
routing = brute_force_routing(inst, 1)
print(f"scalar routing: tried {routing.enumerated} coefficient blocks,",
      "none works" if routing.code is None else "found one")

# Allow GF(2) combinations on each edge and a code appears immediately.
scalar = brute_force_scalar(inst, 2, 1)
assert scalar.code is not None
print(f"scalar coding over GF(2): code found after {scalar.enumerated} blocks")
print("  decodes at both terminals:", verify_code(inst, scalar.code).all_pass)
print("  pure routing?", is_routing(propagate(inst, scalar.code)))

# Two time slots: session 1 owns slot 0, session 2 owns slot 1, and each
# pushes both of its per-slot symbols along its two disjoint paths.
vector = route_uniform(inst)
print(f"vector solution with T={vector.T}:")
print("  decodes at both terminals:", verify_code(inst, vector).all_pass)
print("  pure routing?", is_routing(propagate(inst, vector)))
