"""Instance surgery: minimization, degree-3 structuring, code lifting.

Minimization removes every edge whose deletion keeps the connectivity
vector intact, leaving an instance where each remaining edge is critical,
in one pass of flow detours (see :func:`minimize`).

Structuring replaces high-degree internal nodes by crossbar gadgets of
merge/fork cells so that every internal node has total degree at most 3
while per-session max-flows are preserved; codes found on the structured
instance lift back to the original graph.
"""

from __future__ import annotations

from .flows import _augment, _residual_components, _unit_flow
from .graph import MAX_EXPANDED_EDGES, InstanceError, UnicastInstance, _fresh_name
from .netcode import CodeError, NetworkCode, code_from_plan, verify_code


def _critical_edges(instance: UnicastInstance, flows: list[list[int]]) -> list[int]:
    """1 on every edge some flow uses with no tail-to-head detour in its
    residual graph over all edges: its endpoints lie in different residual
    components.  No flow of the same value avoids such an edge."""
    critical = [0] * instance.n_edges
    for flow in flows:
        comp = _residual_components(instance, flow)
        for eid, (u, v) in enumerate(instance.edges):
            if flow[eid] and comp[u] != comp[v]:
                critical[eid] = 1
    return critical


def minimize(instance: UnicastInstance) -> tuple[UnicastInstance, tuple[int, ...]]:
    """Remove edges until every remaining one is critical for some session.

    Returns what :meth:`~netcode_unicast.graph.UnicastInstance.keep_edges`
    returns: the minimal instance and the input id of each of its edge ids.

    The connectivity vector of the result equals the input's exactly: edge
    removal can only lower a max-flow, so holding every component >= the
    original level holds it equal.  No separate max-flow runs: each session
    holds a unit flow augmented to its maximum first.

    One pass in ascending id order decides each edge with the question "does
    every max-flow stay without the edges removed so far and this one?".  An
    edge no flow uses goes without a search.  A flow f using edge e = (u, v)
    has a same-value replacement avoiding e exactly when the residual graph
    of f less e's unit, without e and the removed edges, has a u -> v path,
    because the difference of the two flows is one unit from u to v plus
    circulations.  So each flow using e drops its unit there and flips the
    arcs of such a path; a failed search changes nothing, so that flow only
    gets its unit back.  Flows already moved stay moved: they keep their
    value, and the answer depends on the graph alone, not on the flow held.

    A second pass would remove nothing: the removed set only grows, so an
    edge critical when it was scanned stays critical.  By the same argument
    an edge critical in the input, its endpoints in different components of
    some flow's residual graph (:func:`_critical_edges`), is kept without a
    search.
    """
    caps = [1] * instance.n_edges  # 0 marks a removed edge
    flows = [_unit_flow(instance, (s.source,), (s.terminal,))[1] for s in instance.sessions]
    critical = _critical_edges(instance, flows)
    for eid, (u, v) in enumerate(instance.edges):
        if critical[eid]:
            continue
        caps[eid] = 0
        for flow in flows:
            if not flow[eid]:
                continue
            flow[eid] = 0
            if not _augment(instance, flow, caps, (u,), (v,)):
                flow[eid] = caps[eid] = 1
                break
    return instance.keep_edges(e for e in range(instance.n_edges) if caps[e])


# -- degree-3 structuring ----------------------------------------------------

def structure(instance: UnicastInstance) -> UnicastInstance:
    """Rebuild so every internal node has in-degree + out-degree <= 3.

    Each offending node becomes a p x r crossbar: cell (a, b) is a merge
    node (two inputs) feeding a fork node (two outputs), rows carry the a-th
    in-edge rightwards, columns collect into the b-th out-edge.  Any k
    in-edges can reach any k out-edges along vertex-disjoint routes (pair
    rows with columns anti-monotonically), so per-session max-flows are
    unchanged.  Session endpoints are never replaced; the replaced nodes are
    :func:`_wide_nodes` of the input, and each keeps its name and no edge.

    Original edges keep their ids; every id at or above the input's edge
    count is a crossbar edge.  More than ``graph.MAX_EXPANDED_EDGES``
    crossbar cells in all are refused before anything is built.
    """
    wide = _wide_nodes(instance)
    n_cells = sum(
        max(len(instance.in_edges[v]), 1) * max(len(instance.out_edges[v]), 1) for v in wide
    )
    if n_cells > MAX_EXPANDED_EDGES:
        raise InstanceError(
            f"structuring needs {n_cells} crossbar cells, above the bound of {MAX_EXPANDED_EDGES}"
        )
    names = list(instance.names)
    taken = set(names)
    edges: list[tuple[int, int]] = list(instance.edges)

    for v in wide:
        ins, outs = instance.in_edges[v], instance.out_edges[v]
        p, r = len(ins), len(outs)
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
                if b + 1 < cols:
                    edges.append((fork[a][b], merge[a][b + 1]))
                if a + 1 < rows:
                    edges.append((fork[a][b], merge[a + 1][b]))

    return UnicastInstance(tuple(names), tuple(edges), instance.sessions)


def _wide_nodes(instance: UnicastInstance) -> list[int]:
    """Nodes other than a session endpoint with degree above 3, ascending."""
    endpoints = {v for s in instance.sessions for v in (s.source, s.terminal)}
    return [
        v
        for v in range(instance.n_nodes)
        if v not in endpoints
        and len(instance.in_edges[v]) + len(instance.out_edges[v]) > 3
    ]


def internal_degree_ok(instance: UnicastInstance) -> bool:
    """True when every node other than a session endpoint has degree <= 3."""
    return not _wide_nodes(instance)


def lift_code(
    structured: UnicastInstance,
    original: UnicastInstance,
    code: NetworkCode,
) -> NetworkCode:
    """Pull a verifying code on the structured instance back to the original.

    Original edges keep their ids in the structured instance (gadget edges
    are appended after them), and time expansion numbers copies the same way
    on both sides, so the original's expanded edges are the first
    ``n_edges * T`` structured ones and each reuses its twin's global vector.
    Every crossbar output is a combination of the crossbar's inputs, which
    are exactly the original node's in-edges, so the copied vectors are
    realizable locally.

    No constructor calls this: :func:`~netcode_unicast.constructors.assign_133`
    relies on the same argument but maps its plan through the edge ids.  Its
    callers hold a code built on a structured instance, such as
    ``demos/construct_and_lift.py``, the acceptance tests and the reference
    [1,3,3] construction in ``tests/construct_oracle.py``.
    """
    result = verify_code(structured, code)
    if not result.all_pass:
        raise CodeError("refusing to lift a code that does not verify")
    plan = dict(enumerate(result.vectors[: original.n_edges * code.T]))
    lifted = code_from_plan(original, code.q, code.T, plan)
    if not verify_code(original, lifted).all_pass:
        raise CodeError("lifted code failed verification on the original instance")
    return lifted


# -- overlap segments --------------------------------------------------------


def overlap_segments(p: tuple[int, ...], q: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Maximal runs of edges shared by two paths of edge ids, each in path
    order.

    On directed paths of a DAG, edges adjacent in one path and shared by the
    other are adjacent in the other as well, so maximal runs are identical
    viewed from either path.
    """
    shared = set(p) & set(q)
    segments: list[tuple[int, ...]] = []
    run: list[int] = []
    for eid in p:
        if eid in shared:
            run.append(eid)
        elif run:
            segments.append(tuple(run))
            run = []
    if run:
        segments.append(tuple(run))
    return segments
