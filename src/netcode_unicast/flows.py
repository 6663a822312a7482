"""Unit-capacity max-flow, disjoint path extraction, and cut-set bounds.

Every flow is 0/1 on the instance's own edges, grown by BFS augmenting
paths from a set of sources to a set of sinks.  Connectivity levels are
per-session max-flow values.  Cut-set infeasibility witnesses are node sets
S whose out-cut is too small for the total rate of the sessions it
separates.  The reported witness is the first such set in a fixed
enumeration order, so it is reproducible, yet it is found without
enumerating: by max-flow/min-cut, one flow from the nodes forced in to those
forced out, stopped at the rate it tests, tells whether any violating set
respects that choice, and fixing the nodes one at a time picks out the
first violating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Container, Iterator, Sequence

from .graph import InstanceError, UnicastInstance

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
    instance: UnicastInstance,
    flow: list[int],
    present: Sequence[int],
    sources: Collection[int],
    sinks: Container[int],
) -> bool:
    """Push one unit of the 0/1 ``flow`` along a BFS path from ``sources``
    to the first node of the disjoint ``sinks`` labelled; False, with
    ``flow`` unchanged, when there is none.  An edge is a forward arc while
    ``present`` and empty, a backward arc while it carries flow; each node
    scans its out-edges, then its in-edges, by ascending id.
    """
    edges, out_edges, in_edges = instance.edges, instance.out_edges, instance.in_edges
    parent = dict.fromkeys(sources)  # node -> edge e, or ~e for a backward arc
    queue = list(parent)
    for u in queue:
        for e in out_edges[u]:
            v = edges[e][1]
            if present[e] and not flow[e] and v not in parent:
                parent[v] = e
                if v in sinks:
                    return _flip(edges, flow, parent, v)
                queue.append(v)
        for e in in_edges[u]:
            v = edges[e][0]
            if flow[e] and v not in parent:
                parent[v] = ~e
                if v in sinks:
                    return _flip(edges, flow, parent, v)
                queue.append(v)
    return False


def _flip(
    edges: Sequence[tuple[int, int]], flow: list[int], parent: dict, node: int
) -> bool:
    """Push one unit along the labelled path that ends at ``node``."""
    while (e := parent[node]) is not None:
        if e >= 0:
            flow[e] = 1
            node = edges[e][0]
        else:
            flow[~e] = 0
            node = edges[~e][1]
    return True


def _residual_components(instance: UnicastInstance, flow: Sequence[int]) -> list[int]:
    """Strongly-connected-component id, in the residual graph of the 0/1
    ``flow`` over all edges, of every node an iterative Tarjan reaches from
    the tails of the flow edges; the nodes it does not reach keep -1.

    The arcs are those :func:`_augment` follows: u -> v on an empty edge
    (u, v), v -> u on a flow edge.  A flow edge (u, v) thus has a u -> v
    detour, its own unit dropped, exactly when u and v share a component.
    Rooting the search at the flow tails keeps that exact: if u and v share
    a component, v is reached from u and both get its id.
    """
    n = instance.n_nodes
    succ: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []
    for e, (u, v) in enumerate(instance.edges):
        if flow[e]:
            succ[v].append(u)
            roots.append(u)
        else:
            succ[u].append(v)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # also -1 while a visited node is still on the stack
    stack: list[int] = []
    count = n_comps = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            u, arcs = work[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[u]:
                    low[u] = index[w]
            else:
                work.pop()
                if work and low[u] < low[work[-1][0]]:
                    low[work[-1][0]] = low[u]
                if low[u] == index[u]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == u:
                            break
                    n_comps += 1
    return comp


def _unit_flow(
    instance: UnicastInstance,
    sources: Collection[int],
    sinks: Container[int],
    limit: int | None = None,
) -> tuple[int, list[int]]:
    """A maximum unit flow from ``sources`` to ``sinks``, or one of value
    ``limit`` if that is smaller; returns (value, per-edge flow)."""
    flow = [0] * instance.n_edges
    present = [1] * instance.n_edges
    value = 0
    while value != limit and _augment(instance, flow, present, sources, sinks):
        value += 1
    return value, flow


def max_flow(instance: UnicastInstance, session: int) -> int:
    """Maximum s_i -> t_i flow with every edge at capacity one."""
    s = instance.sessions[session]
    return _unit_flow(instance, (s.source,), (s.terminal,))[0]


def connectivity_level(instance: UnicastInstance) -> ConnectivityVector:
    """Every session's max-flow, kept on the instance by the first call."""
    if instance._connectivity is None:
        levels = tuple(max_flow(instance, i) for i in range(len(instance.sessions)))
        object.__setattr__(instance, "_connectivity", levels)
    return instance._connectivity


def edge_disjoint_paths(
    instance: UnicastInstance, session: int, k: int | None = None
) -> list[tuple[int, ...]]:
    """``k`` pairwise edge-disjoint session paths decomposed from a max flow,
    each the tuple of its edge ids from source to terminal.

    ``k`` defaults to the max-flow value and must lie between 0 and it.  The
    decomposition repeatedly walks from the source along the smallest-id
    unused flow edge, so the result is deterministic.
    """
    s = instance.sessions[session]
    value, flow = _unit_flow(instance, (s.source,), (s.terminal,))
    if k is None:
        k = value
    if not 0 <= k <= value:
        raise InstanceError(f"requested {k} paths but max-flow is {value}")
    # each node's flow out-edges, ascending, listed when a walk first
    # reaches it; a walk leaves by the first one no walk has taken
    unused: dict[int, Iterator[int]] = {}
    paths: list[tuple[int, ...]] = []
    for _ in range(k):
        node = s.source
        trail: list[int] = []
        while node != s.terminal:
            if node not in unused:
                unused[node] = iter([e for e in instance.out_edges[node] if flow[e]])
            eid = next(unused[node])
            trail.append(eid)
            node = instance.head(eid)
        paths.append(tuple(trail))
    return paths


def _min_cut(
    instance: UnicastInstance, sources: set[int], terminals: set[int], limit: int
) -> int:
    """Smallest out-cut capacity over node sets containing ``sources`` and
    excluding ``terminals``, or ``limit`` if that is smaller.

    By max-flow/min-cut this is the value of a maximum unit flow from the
    source set to the terminal set.  Augmenting stops once the value reaches
    ``limit``: the caller asks only whether the cut lies below it.
    """
    return _unit_flow(instance, sources, terminals, limit)[0]


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
    whenever some violating set with it outside remains.  One flow, stopped
    at the subset's rate, answers each such question, so the witness costs
    at most one per free node on top of one per session subset, less the
    one-session subsets whose max-flow, read off the connectivity vector,
    meets their rate.  The witness passes :meth:`CutWitness.validate`
    before it is returned, so no unchecked cut is ever reported.
    """
    levels = connectivity_level(instance)
    for subset in _session_subsets(len(instance.sessions)):
        inside = {instance.sessions[i].source for i in subset}
        outside = {instance.sessions[i].terminal for i in subset}
        if inside & outside:
            continue
        required = sum(instance.sessions[i].rate for i in subset)
        if len(subset) == 1 and levels[subset[0]] >= required:
            continue
        if _min_cut(instance, inside, outside, required) >= required:
            continue
        for node in reversed(range(instance.n_nodes)):
            if node in inside or node in outside:
                continue
            if _min_cut(instance, inside, outside | {node}, required) < required:
                outside.add(node)
            else:
                inside.add(node)
        crossing = tuple(
            e for e, (u, v) in enumerate(instance.edges) if u in inside and v not in inside
        )
        witness = CutWitness(
            sessions=subset,
            nodes=tuple(sorted(inside)),
            cut_edges=crossing,
            capacity=len(crossing),
            required_rate=required,
        )
        witness.validate(instance)
        return witness
    return None
