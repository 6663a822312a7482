"""Reference single-pass prunings, the earlier forms of ``transform.minimize``.

``prune_reference`` first runs a separate max-flow per session for the
target, keeps one unit flow per session of exactly that value, and for each
edge some flow uses cancels the source-to-terminal flow path through the
edge and searches for one augmenting path from the source that avoids the
edge and every edge already removed.

``prune_detour_reference`` moves the unit along a tail-to-head detour
instead, and asks that question of every edge a flow uses when the scan
reaches it.  ``transform`` now first marks, one residual component pass per
flow, the edges that no detour can spare and scans past them.  All three
must give equal results: the instance and the kept ids ``keep_edges``
returns.
"""

from __future__ import annotations

from flow_oracle import _augment

from netcode_unicast import flows as unit_flows
from netcode_unicast.flows import connectivity_level
from netcode_unicast.graph import Session, UnicastInstance


def _reroute(
    instance: UnicastInstance, caps: list[int], flow: list[int], eid: int, session: Session
) -> bool:
    """Cancel the flow path through ``eid`` and try one augmentation over the
    edges whose capacity is still 1; the caller has zeroed ``eid``'s."""
    edges, in_edges, out_edges = instance.edges, instance.in_edges, instance.out_edges
    flow[eid] = 0
    node = edges[eid][0]
    while node != session.source:
        a = next(a for a in in_edges[node] if flow[a])
        flow[a] = 0
        node = edges[a][0]
    node = edges[eid][1]
    while node != session.terminal:
        a = next(a for a in out_edges[node] if flow[a])
        flow[a] = 0
        node = edges[a][1]
    return _augment(
        edges, out_edges, in_edges, caps, flow, session.source, session.terminal
    ) > 0


def prune_reference(
    instance: UnicastInstance, target: tuple[int, ...]
) -> tuple[UnicastInstance, tuple[int, ...]]:
    """Drop edges in ascending id order while every session keeps max-flow
    >= its target, which must not exceed the input's connectivity."""
    edges, out_edges, in_edges = instance.edges, instance.out_edges, instance.in_edges
    sessions = instance.sessions
    caps = [1] * instance.n_edges  # 0 marks a removed edge
    flows: list[list[int]] = []
    for s, want in zip(sessions, target):
        flow = [0] * instance.n_edges
        for _ in range(want):
            _augment(edges, out_edges, in_edges, caps, flow, s.source, s.terminal)
        flows.append(flow)
    for eid in range(instance.n_edges):
        users = [i for i, flow in enumerate(flows) if flow[eid]]
        saved = [flows[i][:] for i in users]
        caps[eid] = 0
        if not all(_reroute(instance, caps, flows[i], eid, sessions[i]) for i in users):
            caps[eid] = 1
            for i, flow in zip(users, saved):
                flows[i] = flow
    return instance.keep_edges(e for e in range(instance.n_edges) if caps[e])


def minimize_reference(
    instance: UnicastInstance,
) -> tuple[UnicastInstance, tuple[int, ...]]:
    """``prune_reference`` at the input's connectivity vector."""
    return prune_reference(instance, connectivity_level(instance))


def prune_detour_reference(
    instance: UnicastInstance,
) -> tuple[UnicastInstance, tuple[int, ...]]:
    """Detour pruning with a search for every flow edge the scan reaches;
    each session keeps its max-flow."""
    caps = [1] * instance.n_edges  # 0 marks a removed edge
    flows = [
        unit_flows._unit_flow(instance, (s.source,), (s.terminal,))[1]
        for s in instance.sessions
    ]
    for eid, (u, v) in enumerate(instance.edges):
        caps[eid] = 0
        for flow in flows:
            if not flow[eid]:
                continue
            flow[eid] = 0
            if not unit_flows._augment(instance, flow, caps, (u,), (v,)):
                flow[eid] = caps[eid] = 1
                break
    return instance.keep_edges(e for e in range(instance.n_edges) if caps[e])
