"""The [1,3,3] construction as it was before its stages were composed.

Kept as a reference for ``constructors.assign_133``: each time layer builds
the scalar ``assign_1m`` code on the trimmed instance, realizes it on the
structured instance, lifts it through the crossbars with ``lift_code`` and
propagates it on the minimized layer, verifying at every stage.  Slow, but
each step is a public operation with its own checks, so the composed edge
maps must give the same code.
"""

from __future__ import annotations

from netcode_unicast.constructors import assign_1m
from netcode_unicast.flows import connectivity_level, edge_disjoint_paths
from netcode_unicast.gf import Vector
from netcode_unicast.graph import Session, UnicastInstance, attach_endpoints
from netcode_unicast.netcode import (
    CodeError,
    NetworkCode,
    code_from_plan,
    propagate,
    verify_code,
)
from netcode_unicast.transform import lift_code, minimize, structure


def assign_133(instance: UnicastInstance, q: int = 2) -> NetworkCode:
    if len(instance.sessions) != 3:
        raise CodeError("exactly three sessions required")
    if any(s.rate != 1 for s in instance.sessions):
        raise CodeError("unit session rates required")
    levels = connectivity_level(instance)
    order = sorted(range(3), key=lambda i: (levels[i], i))
    ranked = tuple(levels[i] for i in order)
    if ranked[0] < 1 or ranked[1] < 3 or ranked[2] < 3:
        raise CodeError(f"sorted connectivity {list(ranked)} is below [1, 3, 3]")

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
        scalar = assign_1m(trimmed, q)
        # undo the post-gadget trim (removed edges carry zero), the gadgets,
        # and the first trim, tracking edge ids through each stage
        grown = code_from_plan(
            shaped,
            q,
            1,
            {
                trimmed_map[eid]: vec
                for eid, vec in enumerate(propagate(trimmed, scalar))
            },
        )
        lifted = lift_code(shaped, shrunk, grown)
        for eid, vec in enumerate(propagate(shrunk, lifted)):
            if not any(vec):
                continue
            capped_eid = sub_to_capped[shrunk_map[eid]]
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
