"""Unit-capacity max-flow, disjoint path extraction, and cut-set bounds.

Connectivity levels are per-session max-flow values.  Cut-set infeasibility
witnesses are node sets S whose out-cut is too small for the total rate of
the sessions it separates.  The reported witness is the first such set in a
fixed enumeration order, so it is reproducible, yet it is found without
enumerating: by max-flow/min-cut, one max-flow with some nodes forced in
and others forced out tells whether any violating set respects that choice,
and fixing the nodes one at a time picks out the first violating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import InstanceError, Path, UnicastInstance

ConnectivityVector = tuple[int, ...]


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
) -> int:
    """One BFS augmentation of ``flow`` in place.

    Returns the amount pushed, which is 0 exactly when ``flow`` is already
    maximum.  An arc with capacity 0 is absent from the residual graph
    unless it still carries flow.
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
        return 0
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
    return bottleneck


def _bfs_max_flow(
    n_nodes: int,
    arcs: Sequence[tuple[int, int]],
    caps: Sequence[int],
    source: int,
    sink: int,
) -> tuple[int, list[int]]:
    """Augmenting-path max-flow; returns (value, per-arc flow)."""
    out_arcs: list[list[int]] = [[] for _ in range(n_nodes)]
    in_arcs: list[list[int]] = [[] for _ in range(n_nodes)]
    for a, (u, v) in enumerate(arcs):
        out_arcs[u].append(a)
        in_arcs[v].append(a)
    flow = [0] * len(arcs)
    value = 0
    while True:
        pushed = _augment(arcs, out_arcs, in_arcs, caps, flow, source, sink)
        if not pushed:
            return value, flow
        value += pushed


def max_flow(instance: UnicastInstance, session: int) -> int:
    """Maximum s_i -> t_i flow with every edge at capacity one."""
    s = instance.sessions[session]
    value, _ = _bfs_max_flow(
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
    value, flow = _bfs_max_flow(
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
) -> int:
    """Smallest out-cut capacity over node sets containing ``sources`` and
    excluding ``terminals`` (super-source/super-sink max-flow)."""
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
    return _bfs_max_flow(n + 2, arcs, caps, super_s, super_t)[0]


def _session_subsets(n: int):
    for mask in range(1, 1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def cutset_infeasible(instance: UnicastInstance) -> CutWitness | None:
    """First cut-set bound violation in deterministic enumeration order.

    Session subsets are taken in binary-counter order (session 0 = low bit);
    the first whose sources and terminals admit a node set S with out-cut
    below the subset's total rate is reported.  Its witness is the first
    violating S in binary-counter order over the free nodes (ascending id,
    sources forced in, terminals out): the highest free node is the most
    significant bit, so from the highest down each node goes outside S
    whenever some violating set with it outside remains.  One max-flow
    answers each such question, so the witness costs at most one max-flow
    per free node on top of one per session subset.
    """
    for subset in _session_subsets(len(instance.sessions)):
        inside = {instance.sessions[i].source for i in subset}
        outside = {instance.sessions[i].terminal for i in subset}
        if inside & outside:
            continue
        required = sum(instance.sessions[i].rate for i in subset)
        if _min_cut(instance, inside, outside) >= required:
            continue
        for node in reversed(range(instance.n_nodes)):
            if node in inside or node in outside:
                continue
            if _min_cut(instance, inside, outside | {node}) < required:
                outside.add(node)
            else:
                inside.add(node)
        crossing = tuple(
            e for e, (u, v) in enumerate(instance.edges) if u in inside and v not in inside
        )
        return CutWitness(
            sessions=subset,
            nodes=tuple(sorted(inside)),
            cut_edges=crossing,
            capacity=len(crossing),
            required_rate=required,
        )
    return None
