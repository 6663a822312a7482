"""Exhaustive cut-set oracle for cross-checking ``flows.cutset_infeasible``.

Plain double enumeration: session subsets in binary-counter order (session 0
= low bit), and per subset every node set S over the free nodes, in
binary-counter order with free nodes by ascending id (sources forced in,
terminals out).  The first S whose out-cut is below the subset's total rate
is the witness.  The node-set scan is exponential, so it refuses subsets
with more than ``MAX_FREE_NODES`` free nodes.
"""

from __future__ import annotations

from netcode_unicast.flows import CutWitness
from netcode_unicast.graph import InstanceError, UnicastInstance

MAX_FREE_NODES = 24


def _scan_node_subsets(instance, session_subset, sources, terminals, required_rate):
    excluded = sources | terminals
    free = [v for v in range(instance.n_nodes) if v not in excluded]
    if len(free) > MAX_FREE_NODES:
        raise InstanceError(
            f"cut enumeration over {len(free)} free nodes exceeds the "
            f"{MAX_FREE_NODES}-node guard"
        )
    for mask in range(1 << len(free)):
        inside = set(sources) | {v for j, v in enumerate(free) if mask >> j & 1}
        crossing = tuple(
            e for e, (u, v) in enumerate(instance.edges) if u in inside and v not in inside
        )
        if len(crossing) < required_rate:
            return CutWitness(
                sessions=session_subset,
                nodes=tuple(sorted(inside)),
                cut_edges=crossing,
                capacity=len(crossing),
                required_rate=required_rate,
            )
    return None


def cutset_infeasible_exhaustive(instance: UnicastInstance) -> CutWitness | None:
    """First violating (session subset, node set) pair in enumeration order."""
    n = len(instance.sessions)
    for mask in range(1, 1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        sources = {instance.sessions[i].source for i in subset}
        terminals = {instance.sessions[i].terminal for i in subset}
        if sources & terminals:
            continue
        required = sum(instance.sessions[i].rate for i in subset)
        witness = _scan_node_subsets(instance, subset, sources, terminals, required)
        if witness is not None:
            return witness
    return None
