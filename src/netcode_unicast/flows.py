"""Unit-capacity max-flow, disjoint path extraction, and cut-set bounds.

Connectivity levels are per-session max-flow values.  Cut-set infeasibility
witnesses are node sets S whose out-cut is too small for the total rate of
the sessions it separates; enumeration order is fixed so the first witness
is reproducible.  Where that enumeration would be too large, the source side
of a minimum cut is the witness: by max-flow/min-cut it violates the bound
whenever any node set does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Sequence

from .graph import InstanceError, Path, UnicastInstance

ConnectivityVector = tuple[int, ...]

# Exhaustive cut enumeration is exponential in the number of nodes that are
# not endpoints of the session subset; the scan refuses anything bigger than
# this, and past it cutset_infeasible takes its witness from the min cut.
MAX_FREE_NODES = 24


@dataclass(frozen=True, slots=True)
class CutWitness:
    """A cut-set bound violation.

    ``sessions`` are the separated session indices (0-based, ascending);
    every one has its source inside ``nodes`` and its terminal outside.
    ``cut_edges`` are the edges leaving ``nodes``; their count ``capacity``
    is smaller than ``required_rate``, the summed rate of the separated
    sessions, so no coding scheme of any kind can serve them all.
    """

    sessions: tuple[int, ...]
    nodes: tuple[int, ...]
    cut_edges: tuple[int, ...]
    capacity: int
    required_rate: int

    def validate(self, instance: UnicastInstance) -> None:
        inside = set(self.nodes)
        for i in self.sessions:
            s = instance.sessions[i]
            if s.source not in inside or s.terminal in inside:
                raise InstanceError("witness does not separate its sessions")
        crossing = tuple(
            e
            for e, (u, v) in enumerate(instance.edges)
            if u in inside and v not in inside
        )
        if crossing != self.cut_edges or len(crossing) != self.capacity:
            raise InstanceError("witness cut edges do not match the node set")
        if self.required_rate != sum(instance.sessions[i].rate for i in self.sessions):
            raise InstanceError("witness rate does not match its sessions")
        if self.capacity >= self.required_rate:
            raise InstanceError("witness does not violate the cut-set bound")


def _augment(
    arcs: Sequence[tuple[int, int]],
    out_arcs: Sequence[Sequence[int]],
    in_arcs: Sequence[Sequence[int]],
    caps: Sequence[int],
    flow: list[int],
    source: int,
    sink: int,
) -> tuple[int, AbstractSet[int]]:
    """One BFS augmentation of ``flow`` in place.

    Returns the amount pushed and the nodes the search reached; the amount
    is 0 exactly when ``flow`` is already maximum, and then those nodes are
    the residual-reachable source side of a minimum cut.  An arc with capacity
    0 is absent from the residual graph unless it still carries flow.
    """
    parent: dict[int, tuple[int, int, int] | None] = {source: None}
    queue = [source]
    qi = 0
    while qi < len(queue) and sink not in parent:
        u = queue[qi]
        qi += 1
        for a in out_arcs[u]:
            v = arcs[a][1]
            if flow[a] < caps[a] and v not in parent:
                parent[v] = (u, a, 1)
                queue.append(v)
        for a in in_arcs[u]:
            v = arcs[a][0]
            if flow[a] > 0 and v not in parent:
                parent[v] = (u, a, -1)
                queue.append(v)
    if sink not in parent:
        return 0, parent.keys()
    # walk back to find the bottleneck, then augment
    bottleneck = None
    node = sink
    while parent[node] is not None:
        u, a, direction = parent[node]
        residual = caps[a] - flow[a] if direction > 0 else flow[a]
        bottleneck = residual if bottleneck is None else min(bottleneck, residual)
        node = u
    assert bottleneck is not None and bottleneck > 0
    node = sink
    while parent[node] is not None:
        u, a, direction = parent[node]
        flow[a] += direction * bottleneck
        node = u
    return bottleneck, parent.keys()


def _bfs_max_flow(
    n_nodes: int,
    arcs: Sequence[tuple[int, int]],
    caps: Sequence[int],
    source: int,
    sink: int,
) -> tuple[int, list[int], set[int]]:
    """Augmenting-path max-flow; returns (value, per-arc flow, residual
    reachable set from the final failed search)."""
    out_arcs: list[list[int]] = [[] for _ in range(n_nodes)]
    in_arcs: list[list[int]] = [[] for _ in range(n_nodes)]
    for a, (u, v) in enumerate(arcs):
        out_arcs[u].append(a)
        in_arcs[v].append(a)
    flow = [0] * len(arcs)
    value = 0
    while True:
        pushed, reachable = _augment(arcs, out_arcs, in_arcs, caps, flow, source, sink)
        if not pushed:
            return value, flow, set(reachable)
        value += pushed


def max_flow(instance: UnicastInstance, session: int) -> int:
    """Maximum s_i -> t_i flow with every edge at capacity one."""
    s = instance.sessions[session]
    value, _, _ = _bfs_max_flow(
        instance.n_nodes, instance.edges, [1] * instance.n_edges, s.source, s.terminal
    )
    return value


def connectivity_level(instance: UnicastInstance) -> ConnectivityVector:
    return tuple(max_flow(instance, i) for i in range(len(instance.sessions)))


def edge_disjoint_paths(
    instance: UnicastInstance, session: int, k: int | None = None
) -> list[Path]:
    """``k`` pairwise edge-disjoint session paths decomposed from a max flow.

    ``k`` defaults to the max-flow value and may not exceed it.  The
    decomposition repeatedly walks from the source along the smallest-id
    unused flow edge, so the result is deterministic.
    """
    s = instance.sessions[session]
    value, flow, _ = _bfs_max_flow(
        instance.n_nodes, instance.edges, [1] * instance.n_edges, s.source, s.terminal
    )
    if k is None:
        k = value
    if k > value:
        raise InstanceError(f"requested {k} paths but max-flow is {value}")
    paths: list[Path] = []
    for _ in range(k):
        node = s.source
        trail: list[int] = []
        while node != s.terminal:
            eid = next(e for e in instance.out_edges[node] if flow[e] > 0)
            flow[eid] -= 1
            trail.append(eid)
            node = instance.head(eid)
        paths.append(Path(tuple(trail)))
    return paths


def _min_cut(
    instance: UnicastInstance, sources: set[int], terminals: set[int]
) -> tuple[int, set[int]]:
    """Smallest out-cut capacity over node sets containing ``sources`` and
    excluding ``terminals`` (super-source/super-sink max-flow), with the
    residual-reachable node set that attains it."""
    n = instance.n_nodes
    super_s, super_t = n, n + 1
    arcs = list(instance.edges)
    caps = [1] * len(arcs)
    big = instance.n_edges + 1
    for v in sorted(sources):
        arcs.append((super_s, v))
        caps.append(big)
    for v in sorted(terminals):
        arcs.append((v, super_t))
        caps.append(big)
    value, _, reachable = _bfs_max_flow(n + 2, arcs, caps, super_s, super_t)
    return value, reachable - {super_s, super_t}


def _free_nodes(instance: UnicastInstance, excluded: set[int]) -> list[int]:
    return [v for v in range(instance.n_nodes) if v not in excluded]


def _witness(
    instance: UnicastInstance,
    session_subset: tuple[int, ...],
    inside: set[int],
    required_rate: int,
) -> CutWitness:
    crossing = tuple(
        e for e, (u, v) in enumerate(instance.edges) if u in inside and v not in inside
    )
    return CutWitness(
        sessions=session_subset,
        nodes=tuple(sorted(inside)),
        cut_edges=crossing,
        capacity=len(crossing),
        required_rate=required_rate,
    )


def _scan_node_subsets(
    instance: UnicastInstance,
    session_subset: tuple[int, ...],
    sources: set[int],
    terminals: set[int],
    required_rate: int,
) -> CutWitness | None:
    """First violating S (binary-counter order over free nodes, ascending id)."""
    free = _free_nodes(instance, sources | terminals)
    if len(free) > MAX_FREE_NODES:
        raise InstanceError(
            f"cut enumeration over {len(free)} free nodes exceeds the "
            f"{MAX_FREE_NODES}-node guard"
        )
    for mask in range(1 << len(free)):
        inside = set(sources)
        for j, v in enumerate(free):
            if mask >> j & 1:
                inside.add(v)
        crossing = [
            e for e, (u, v) in enumerate(instance.edges) if u in inside and v not in inside
        ]
        if len(crossing) < required_rate:
            return _witness(instance, session_subset, inside, required_rate)
    return None


def _session_subsets(n: int):
    for mask in range(1, 1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def cutset_infeasible(
    instance: UnicastInstance, use_min_cut: bool = True
) -> CutWitness | None:
    """First cut-set bound violation in deterministic enumeration order.

    Enumerates session subsets in binary-counter order (session 0 = low bit)
    and, per subset, node sets S over the remaining nodes, sources forced in
    and terminals out.  With ``use_min_cut`` a super-source/super-sink
    max-flow skips subsets that cannot violate the bound, and a violated
    subset with more than ``MAX_FREE_NODES`` free nodes is answered by the
    minimum cut's residual-reachable set instead of the exponential scan;
    within the guard the node-set scan that produces the returned witness
    is identical either way.  Without ``use_min_cut`` the scan runs for
    every subset and raises ``InstanceError`` past the guard.
    """
    for subset in _session_subsets(len(instance.sessions)):
        sources = {instance.sessions[i].source for i in subset}
        terminals = {instance.sessions[i].terminal for i in subset}
        if sources & terminals:
            continue
        required = sum(instance.sessions[i].rate for i in subset)
        if use_min_cut:
            value, inside = _min_cut(instance, sources, terminals)
            if value >= required:
                continue
            if len(_free_nodes(instance, sources | terminals)) > MAX_FREE_NODES:
                return _witness(instance, subset, inside, required)
        witness = _scan_node_subsets(instance, subset, sources, terminals, required)
        if witness is not None:
            return witness
    return None


def cutset_infeasible_exhaustive(instance: UnicastInstance) -> CutWitness | None:
    """Plain double enumeration without the min-cut skip; agreement oracle."""
    return cutset_infeasible(instance, use_min_cut=False)
