"""Reference general-capacity max-flow for cross-checking ``flows``.

This is the earlier kernel of ``netcode_unicast.flows``: a BFS augmenting
path over an explicit arc list with per-arc capacities, rebuilt into
adjacency lists on every call, pushing the path's bottleneck.  Its min-cut
adds a super-source with an arc of capacity ``n_edges + 1`` to each source
and a super-sink with one from each terminal, and always runs to the full
max-flow.  ``flows`` now augments unit flows on the instance's own edges
from a source set to a sink set and may stop at a limit; per session the
two must give the same per-edge flow, and ``_min_cut`` must equal
``min(value, limit)`` here.
"""

from __future__ import annotations

from typing import Sequence

from netcode_unicast.graph import UnicastInstance


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
