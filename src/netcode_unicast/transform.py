"""Instance surgery: minimization, degree-3 structuring, code lifting.

Minimization removes every edge whose deletion keeps the connectivity
vector intact, leaving an instance where each remaining edge is critical.
It scans the edges once, in ascending id order, and keeps one unit flow per
session sized to that session's target.  An edge no flow uses goes for
free; an edge some flows use goes only if each of them, its unit through
the edge cancelled, finds one augmenting path that avoids the edge and
every edge already removed.  One pass suffices: max-flow only falls as
edges go, so an edge that was critical when scanned stays critical.

Structuring replaces high-degree internal nodes by crossbar gadgets of
merge/fork cells so that every internal node has total degree at most 3
while per-session max-flows are preserved; codes found on the structured
instance lift back to the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flows import _augment, connectivity_level
from .graph import Path, Session, UnicastInstance, _fresh_name
from .netcode import CodeError, NetworkCode, code_from_plan, verify_code


@dataclass(frozen=True, slots=True)
class MinimizeResult:
    instance: UnicastInstance
    removed: tuple[int, ...]          # original edge ids, ascending
    edge_map: tuple[int, ...]         # new edge id -> original edge id


def _reroute(
    instance: UnicastInstance, caps: list[int], flow: list[int], eid: int, session: Session
) -> bool:
    """Move the unit of ``flow`` on ``eid`` elsewhere, if the graph allows.

    Cancels the flow path through ``eid`` (source -> tail along flow edges,
    then head -> terminal) and tries one augmentation over the edges whose
    capacity is still 1; the caller has already zeroed ``eid``'s.  The flow
    is then either as large as before and avoids ``eid`` (True), or one unit
    short, which proves max-flow without ``eid`` below the old value (False).
    """
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


def _prune(instance: UnicastInstance, target: tuple[int, ...]) -> MinimizeResult:
    """Drop edges in ascending id order while every session keeps max-flow
    >= its target, which must not exceed the input's connectivity.

    Each session holds a unit flow of exactly its target value, so an edge
    no flow uses is removed without a search.
    """
    edges, out_edges, in_edges = instance.edges, instance.out_edges, instance.in_edges
    sessions = instance.sessions
    caps = [1] * instance.n_edges  # 0 marks a removed edge
    flows: list[list[int]] = []
    for s, want in zip(sessions, target):
        flow = [0] * instance.n_edges
        for _ in range(want):
            _augment(edges, out_edges, in_edges, caps, flow, s.source, s.terminal)
        flows.append(flow)
    removed: list[int] = []
    for eid in range(instance.n_edges):
        users = [i for i, flow in enumerate(flows) if flow[eid]]
        saved = [flows[i][:] for i in users]
        caps[eid] = 0
        if all(_reroute(instance, caps, flows[i], eid, sessions[i]) for i in users):
            removed.append(eid)
        else:
            caps[eid] = 1
            for i, flow in zip(users, saved):
                flows[i] = flow
    kept = [e for e in range(instance.n_edges) if caps[e]]
    final, _ = instance.keep_edges(kept)
    return MinimizeResult(final, tuple(removed), tuple(kept))


def minimize(instance: UnicastInstance) -> MinimizeResult:
    """Remove edges until every remaining one is critical for some session.

    The connectivity vector of the result equals the input's exactly: edge
    removal can only lower a max-flow, so holding every component >= the
    original level holds it equal.

    One ascending pass decides each edge with the question "does max-flow
    stay >= target without the edges removed so far and this one?", asked
    incrementally of one flow per session.  A second pass would remove
    nothing: the removed set only grows, so an edge critical when it was
    scanned stays critical.
    """
    return _prune(instance, connectivity_level(instance))


# -- degree-3 structuring ----------------------------------------------------

GADGET = -1  # origin marker for gadget-internal edges


@dataclass(frozen=True)
class StructuredInstance:
    """Result of degree reduction.

    Original edges keep their ids.  ``origin`` maps each new edge back to
    its original id, or ``GADGET`` for crossbar-internal edges.
    ``gadget_nodes`` lists the replaced node ids of the original instance.
    """

    instance: UnicastInstance
    origin: tuple[int, ...]
    gadget_nodes: tuple[int, ...]


def structure(instance: UnicastInstance) -> StructuredInstance:
    """Rebuild so every internal node has in-degree + out-degree <= 3.

    Each offending node becomes a p x r crossbar: cell (a, b) is a merge
    node (two inputs) feeding a fork node (two outputs), rows carry the a-th
    in-edge rightwards, columns collect into the b-th out-edge.  Any k
    in-edges can reach any k out-edges along vertex-disjoint routes (pair
    rows with columns anti-monotonically), so per-session max-flows are
    unchanged.  Session endpoints are never replaced.
    """
    endpoints = {s.source for s in instance.sessions} | {
        s.terminal for s in instance.sessions
    }
    names = list(instance.names)
    taken = set(names)
    edges: list[tuple[int, int]] = list(instance.edges)
    origin: list[int] = list(range(instance.n_edges))
    gadget_nodes: list[int] = []

    for v in range(instance.n_nodes):
        if v in endpoints:
            continue
        ins = instance.in_edges[v]
        outs = instance.out_edges[v]
        p, r = len(ins), len(outs)
        if p + r <= 3:
            continue
        gadget_nodes.append(v)
        base = instance.names[v]
        # degenerate grids (no in- or no out-edges) keep one dead row/column
        # so the boundary attachments stay well defined; no information can
        # flow through such a node, before or after
        rows, cols = max(p, 1), max(r, 1)
        merge = [[0] * cols for _ in range(rows)]
        fork = [[0] * cols for _ in range(rows)]
        for a in range(rows):
            for b in range(cols):
                names.append(_fresh_name(f"{base}~m{a}x{b}", taken))
                merge[a][b] = len(names) - 1
                names.append(_fresh_name(f"{base}~f{a}x{b}", taken))
                fork[a][b] = len(names) - 1
        # redirect the original edges onto the grid boundary
        for a, eid in enumerate(ins):
            edges[eid] = (edges[eid][0], merge[a][0])
        for b, eid in enumerate(outs):
            edges[eid] = (fork[rows - 1][b], edges[eid][1])
        # internal wiring: merge -> fork within a cell, fork -> row-right and
        # column-down merges
        for a in range(rows):
            for b in range(cols):
                edges.append((merge[a][b], fork[a][b]))
                origin.append(GADGET)
                if b + 1 < cols:
                    edges.append((fork[a][b], merge[a][b + 1]))
                    origin.append(GADGET)
                if a + 1 < rows:
                    edges.append((fork[a][b], merge[a + 1][b]))
                    origin.append(GADGET)

    structured = UnicastInstance(tuple(names), tuple(edges), instance.sessions)
    return StructuredInstance(structured, tuple(origin), tuple(gadget_nodes))


def internal_degree_ok(instance: UnicastInstance) -> bool:
    """True when every node other than a session endpoint has degree <= 3."""
    endpoints = {s.source for s in instance.sessions} | {
        s.terminal for s in instance.sessions
    }
    return all(
        len(instance.in_edges[v]) + len(instance.out_edges[v]) <= 3
        for v in range(instance.n_nodes)
        if v not in endpoints
    )


def lift_code(
    structured: StructuredInstance,
    original: UnicastInstance,
    code: NetworkCode,
) -> NetworkCode:
    """Pull a verifying code on the structured instance back to the original.

    Original edges keep their ids in the structured instance (gadget edges
    are appended after them), and time expansion numbers copies the same way
    on both sides, so each original expanded edge reuses the global vector
    of its structured twin.  Every crossbar output is a combination of the
    crossbar's inputs, which are exactly the original node's in-edges, so
    the copied vectors are realizable locally.

    No constructor calls this: :func:`~netcode_unicast.constructors.assign_133`
    relies on the same argument but maps its plan through the edge ids.  Its
    callers hold a code built on a structured instance, such as
    ``demos/construct_and_lift.py``, the acceptance tests and the reference
    [1,3,3] construction in ``tests/construct_oracle.py``.
    """
    result = verify_code(structured.instance, code)
    if not result.all_pass:
        raise CodeError("refusing to lift a code that does not verify")
    vectors = result.vectors
    T = code.T
    plan = {
        e * T + tau: vectors[e * T + tau]
        for e in range(original.n_edges)
        for tau in range(T)
    }
    lifted = code_from_plan(original, code.q, T, plan)
    if not verify_code(original, lifted).all_pass:
        raise CodeError("lifted code failed verification on the original instance")
    return lifted


# -- overlap segments --------------------------------------------------------


def overlap_segments(p: Path, q: Path) -> list[tuple[int, ...]]:
    """Maximal runs of edges shared by two paths, each in path order.

    On directed paths of a DAG, edges adjacent in one path and shared by the
    other are adjacent in the other as well, so maximal runs are identical
    viewed from either path.
    """
    shared = set(p.edge_ids) & set(q.edge_ids)
    segments: list[tuple[int, ...]] = []
    run: list[int] = []
    for eid in p.edge_ids:
        if eid in shared:
            run.append(eid)
        elif run:
            segments.append(tuple(run))
            run = []
    if run:
        segments.append(tuple(run))
    return segments
