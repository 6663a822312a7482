"""Symbol-level simulation of a code, for cross-checking ``netcode.propagate``.

Pushes concrete source values through the local rules edge by edge, with
scalar field arithmetic and no global vectors, so a fault in propagation
or in the rule layout shows as a disagreement on some edge.
"""

from __future__ import annotations

from netcode_unicast.gf import Vector
from netcode_unicast.graph import UnicastInstance
from netcode_unicast.netcode import CodeError, NetworkCode


def simulate(
    instance: UnicastInstance, code: NetworkCode, source_values: Vector
) -> tuple[int, ...]:
    """The value each expanded edge carries when the source symbols take
    ``source_values``."""
    expanded = code.validate(instance)
    q = code.q
    if len(source_values) != expanded.n_symbols:
        raise CodeError("source value vector has the wrong length")
    values = [0] * expanded.n_edges
    for eid in expanded.edges_in_topo_order():
        rule = code.rules[eid]
        acc = 0
        for j, coeff in rule.in_coeffs:
            acc = (acc + coeff * values[j]) % q
        for k, coeff in rule.src_coeffs:
            acc = (acc + coeff * source_values[k]) % q
        values[eid] = acc
    return tuple(values)
