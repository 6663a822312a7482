"""Constructive code assignment.

Three constructions cover the feasible range for small connectivity
vectors: uniform vector routing when every session has max-flow n (each
session owns one time layer and routes all n of its symbols there), a
scalar code for two sessions with rates {1, m} and connectivity [1, m+1]
built by peeling spare paths and cascading partial sums along shared path
segments, and a T=2 construction for three unit-rate sessions with sorted
connectivity at least [1, 3, 3] that plans the scalar construction once per
time layer on a capped subgraph and maps each planned vector back to the
original edges through the stage edge maps.

Each constructor alone decides its range: out-of-range input (session
count, rates, levels) raises :class:`NotApplicable`, and any other refusal
is a plain ``CodeError``.
"""

from __future__ import annotations

from .flows import connectivity_level, edge_disjoint_paths
from .gf import Vector, Vectors
from .graph import Session, UnicastInstance, attach_endpoints, expand_time
from .netcode import CodeError, NetworkCode, code_from_plan, is_routing, verify_code
from .transform import internal_degree_ok, minimize, overlap_segments, structure

__all__ = ["NotApplicable", "route_uniform", "assign_1m", "assign_133"]


class NotApplicable(CodeError):
    """The instance lies outside the construction's range."""


def route_uniform(instance: UnicastInstance, q: int = 2) -> NetworkCode:
    """Vector routing for uniform connectivity [n, ..., n].

    Session alpha owns time layer alpha and routes its n expanded symbols
    over n edge-disjoint paths inside that layer, so no edge ever mixes
    symbols.  Requires unit rates and at most n sessions, and refuses with
    :class:`~netcode_unicast.graph.InstanceError` an n-slot expansion above
    ``graph.MAX_EXPANDED_EDGES`` edges before planning.
    """
    levels = connectivity_level(instance)
    n = levels[0]
    if any(v != n for v in levels):
        raise NotApplicable(f"uniform connectivity required, found {list(levels)}")
    if any(s.rate != 1 for s in instance.sessions):
        raise NotApplicable("unit session rates required")
    if len(levels) > n:
        raise NotApplicable(f"{len(levels)} sessions cannot each own one of {n} time layers")
    expanded = expand_time(instance, n)
    V = Vectors(q, expanded.n_symbols)
    offsets = expanded.symbol_offsets()
    plan: dict[int, Vector] = {}
    for alpha in range(len(levels)):
        for j, path in enumerate(edge_disjoint_paths(instance, alpha, n)):
            for eid in path:
                # layer-alpha copy of a base edge carries symbol j untouched
                plan[eid * n + alpha] = V.unit(offsets[alpha] + j)
    code = code_from_plan(instance, q, n, plan)
    result = verify_code(instance, code)
    if not is_routing(result.vectors):
        raise CodeError("internal error: routing property violated")
    if not result.all_pass:
        raise CodeError("internal error: routing code does not verify")
    return code


def assign_1m(instance: UnicastInstance, q: int = 2) -> NetworkCode:
    """Scalar code for two sessions with rates {1, m}, connectivity [1, m+1].

    On a minimal structured instance the single path P1 of the rate-1
    session shares at most one segment with each of the m+1 disjoint paths
    of the rate-m session.  Paths disjoint from P1 are peeled off largest
    index first, each routing the highest unassigned symbol.  The remaining
    paths all cross P1: ordered by where they meet it, path i feeds its
    symbol into a running sum carried by P1, and the last one injects the
    sum of all fed symbols so the final shared segment cancels back to the
    rate-1 symbol alone.  Both terminals then decode by differences.

    Requires two sessions, rate 1 first, connectivity [1, m+1], internal
    degree at most 3 and no removable edge.
    """
    if len(instance.sessions) != 2:
        raise NotApplicable("exactly two sessions required")
    if instance.sessions[0].rate != 1:
        raise NotApplicable("the first session must have rate 1")
    m = instance.sessions[1].rate
    levels = connectivity_level(instance)
    if levels != (1, m + 1):
        raise NotApplicable(f"connectivity {list(levels)} does not match [1, {m + 1}]")
    if not internal_degree_ok(instance):
        raise CodeError("structured instance required (internal degree above 3)")
    if len(minimize(instance)[1]) < instance.n_edges:
        raise CodeError("minimal instance required (some edge is removable)")
    code = code_from_plan(instance, q, 1, _plan_1m(instance, q))
    if not verify_code(instance, code).all_pass:
        raise CodeError("internal error: constructed code does not verify")
    return code


def _plan_1m(instance: UnicastInstance, q: int) -> dict[int, Vector]:
    """The global vector :func:`assign_1m` puts on each edge (others carry
    zero).  The instance must meet :func:`assign_1m`'s preconditions; its
    callers establish them."""
    m = instance.sessions[1].rate
    V = Vectors(q, instance.n_symbols)
    off2 = instance.symbol_offsets()[1]
    x1 = V.unit(instance.symbol_offsets()[0])

    p1 = edge_disjoint_paths(instance, 0, 1)[0]
    p2 = edge_disjoint_paths(instance, 1, m + 1)
    segments = [overlap_segments(p1, path) for path in p2]
    if any(len(found) > 1 for found in segments):
        raise CodeError("a path pair has two overlap segments; input is not minimal")

    plan: dict[int, Vector] = {}

    def put(eid: int, vec: Vector) -> None:
        if plan.setdefault(eid, vec) != vec:
            raise CodeError("internal error: conflicting plan assignment")

    active = list(range(m + 1))
    pending = list(range(m))  # rate-m symbol slots, ascending
    while pending:
        spares = [i for i in active if not segments[i]]
        if not spares:
            break
        spare = max(spares)
        unit = V.unit(off2 + pending.pop())
        for eid in p2[spare]:
            put(eid, unit)
        active.remove(spare)

    if pending:
        # every remaining path crosses P1; |active| == |pending| + 1
        ordered = sorted(
            active, key=lambda i: p1.index(segments[i][0][0])
        )
        sums = [x1]
        for slot in pending:
            sums.append(V.add(sums[-1], V.unit(off2 + slot)))
        fed_total = V.combine((1, q - 1), (sums[-1], x1))
        last = len(ordered) - 1
        shared: set[int] = set()
        for rank, i in enumerate(ordered):
            seg = segments[i][0]
            shared.update(seg)
            inside = sums[rank + 1] if rank < last else x1
            feed = V.unit(off2 + pending[rank]) if rank < last else fed_total
            path = p2[i]
            start = path.index(seg[0])
            for eid in path[:start]:
                put(eid, feed)
            for eid in seg:
                put(eid, inside)
            for eid in path[start + len(seg):]:
                put(eid, inside)
        current = x1
        for eid in p1:
            if eid in shared:
                current = plan[eid]
            else:
                put(eid, current)
    else:
        for eid in p1:
            put(eid, x1)
    return plan


def assign_133(instance: UnicastInstance, q: int = 2) -> NetworkCode:
    """T=2 code for three unit-rate sessions, sorted connectivity >= [1,3,3].

    The session with the smallest max-flow splits its two expanded symbols
    across the time layers; each layer pairs it with one of the other two
    sessions and plans the :func:`assign_1m` vectors with m=2 on a capped,
    minimized, structured subgraph.  Each planned vector follows the stage
    edge maps back to its original edge (the argument of
    :func:`~netcode_unicast.transform.lift_code`: an original edge carries
    its structured twin's vector) and is embedded at its layer's edge copy;
    everything else carries zero.  The code is realized and verified once.
    """
    if len(instance.sessions) != 3:
        raise NotApplicable("exactly three sessions required")
    if any(s.rate != 1 for s in instance.sessions):
        raise NotApplicable("unit session rates required")
    levels = connectivity_level(instance)
    order = sorted(range(3), key=lambda i: (levels[i], i))
    ranked = tuple(levels[i] for i in order)
    if ranked[0] < 1 or ranked[1] < 3 or ranked[2] < 3:
        raise NotApplicable(f"sorted connectivity {list(ranked)} is below [1, 3, 3]")

    a, b, c = order
    capped = attach_endpoints(instance, {a: 1, b: 3, c: 3})
    union = sorted(
        {
            eid
            for i, k in ((a, 1), (b, 3), (c, 3))
            for path in edge_disjoint_paths(capped, i, k)
            for eid in path
        }
    )
    sub, sub_to_capped = capped.keep_edges(union)

    T = 2
    L = 2 * 3
    plan: dict[int, Vector] = {}
    for tau, partner in enumerate((b, c)):
        lead, mate = sub.sessions[a], sub.sessions[partner]
        layer = sub.with_sessions(
            (
                Session(lead.source, lead.terminal, 1),
                Session(mate.source, mate.terminal, 2),
            )
        )
        shrunk, shrunk_map = minimize(layer)
        shaped = structure(shrunk)
        trimmed, trimmed_map = minimize(shaped)
        # trimmed meets assign_1m's preconditions by construction: the cap
        # fixes the levels at (1, 3) and every stage keeps them, structuring
        # bounds internal degree by 3 and trimming only lowers it, and the
        # trim leaves no edge removable.  Compose trimmed -> shaped ->
        # shrunk -> sub -> capped; edges removed by either trim carry zero
        for eid, vec in _plan_1m(trimmed, q).items():
            shaped_eid = trimmed_map[eid]
            if shaped_eid >= shrunk.n_edges:
                continue  # crossbar edge; original edges keep their ids
            capped_eid = sub_to_capped[shrunk_map[shaped_eid]]
            if capped_eid >= instance.n_edges:
                continue  # attachment edge, exists only under the cap
            out = [0] * L
            out[2 * a + tau] = vec[0]
            out[2 * partner] = vec[1]
            out[2 * partner + 1] = vec[2]
            plan[capped_eid * T + tau] = tuple(out)

    code = code_from_plan(instance, q, T, plan)
    if not verify_code(instance, code).all_pass:
        raise CodeError("internal error: layered construction does not verify")
    return code
