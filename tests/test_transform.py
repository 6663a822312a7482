"""Minimization, structuring, overlap segments, lifting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcode_unicast import constructors
from netcode_unicast.constructors import assign_133
from netcode_unicast.flows import connectivity_level, edge_disjoint_paths, max_flow
from netcode_unicast.graph import (
    InstanceError,
    Path,
    Session,
    UnicastInstance,
    build_instance,
    normalize,
)
from netcode_unicast.netcode import (
    CodeError,
    NetworkCode,
    code_from_plan,
    propagate,
    verify_code,
    zero_code,
)
from netcode_unicast.sampling import sample_1m, sample_triple, sample_uniform
from netcode_unicast.transform import (
    GADGET,
    MinimizeResult,
    internal_degree_ok,
    isolate_sessions,
    lift_code,
    minimize,
    overlap_segments,
    prune_to_connectivity,
    structure,
)


def _prune_oracle(instance, target):
    """Repeated-pass pruning, the reference for ``minimize`` and
    ``prune_to_connectivity``: rebuild the instance without each candidate
    edge (ascending id), recompute every max-flow anew, and pass
    again until a pass removes nothing.  Returns the result and the edges
    each pass removed."""
    kept = list(range(instance.n_edges))
    passes: list[tuple[int, ...]] = []
    while not passes or passes[-1]:
        dropped = []
        for eid in list(kept):
            candidate = [e for e in kept if e != eid]
            sub, _ = instance.keep_edges(candidate)
            levels = connectivity_level(sub)
            if all(have >= want for have, want in zip(levels, target)):
                kept = candidate
                dropped.append(eid)
        passes.append(tuple(dropped))
    removed = tuple(e for dropped in passes for e in dropped)
    final, mapping = instance.keep_edges(kept)
    result = MinimizeResult(final, removed, tuple(mapping[i] for i in range(len(kept))))
    return result, passes


def assert_matches_oracle(instance, target=None):
    if target is None:
        assert minimize(instance) == _prune_oracle(instance, connectivity_level(instance))[0]
    else:
        assert prune_to_connectivity(instance, target) == _prune_oracle(instance, target)[0]


def test_minimize_fixpoint_on_disjoint_paths():
    inst = build_instance(
        [("s1", "a"), ("a", "t1"), ("s2", "t2")],
        [("s1", "t1"), ("s2", "t2")],
    )
    res = minimize(inst)
    assert res.removed == ()
    assert res.instance == inst
    assert res.edge_map == (0, 1, 2)


def test_minimize_drops_dangling_edge():
    inst = build_instance(
        [("s", "a"), ("a", "t"), ("a", "x")],
        [("s", "t")],
    )
    res = minimize(inst)
    assert res.removed == (2,)
    assert res.instance.n_edges == 2
    assert connectivity_level(res.instance) == (1,)


def test_minimize_keeps_connectivity_and_is_minimal():
    inst = build_instance(
        [
            ("s", "a"),
            ("s", "b"),
            ("a", "t"),
            ("b", "t"),
            ("a", "b"),
            ("s", "t"),
        ],
        [("s", "t", 1)],
    )
    res = minimize(inst)
    before = connectivity_level(inst)
    assert connectivity_level(res.instance) == before
    for eid in range(res.instance.n_edges):
        sub, _ = res.instance.keep_edges(
            [e for e in range(res.instance.n_edges) if e != eid]
        )
        levels = connectivity_level(sub)
        assert any(a < b for a, b in zip(levels, before))


def test_prune_to_connectivity():
    inst = build_instance(
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")], [("s", "t")]
    )
    assert connectivity_level(inst) == (2,)
    res = prune_to_connectivity(inst, (1,))
    assert connectivity_level(res.instance) == (1,)
    # ascending scan removed the s->a branch first
    assert res.removed == (0, 2)
    with pytest.raises(InstanceError, match="below target"):
        prune_to_connectivity(inst, (3,))


def test_structure_noop_below_degree_limit():
    inst = build_instance(
        [("s", "a"), ("a", "b"), ("b", "t")], [("s", "t")]
    )
    res = structure(inst)
    assert res.gadget_nodes == ()
    assert res.instance == inst
    assert res.forward == ((0,), (1,), (2,))
    assert all(o != GADGET for o in res.origin)


def high_degree_hub():
    # three sessions squeezed through one degree-6 hub
    return build_instance(
        [
            ("s1", "v"),
            ("s2", "v"),
            ("s3", "v"),
            ("v", "t1"),
            ("v", "t2"),
            ("v", "t3"),
        ],
        [("s1", "t1"), ("s2", "t2"), ("s3", "t3")],
    )


def test_structure_replaces_hub():
    inst = high_degree_hub()
    res = structure(inst)
    assert res.gadget_nodes == (inst.node_id("v"),)
    assert internal_degree_ok(res.instance)
    assert connectivity_level(res.instance) == connectivity_level(inst) == (1, 1, 1)
    # original edges keep their ids; the hub edges were re-attached
    assert res.forward == tuple((e,) for e in range(6))
    assert res.instance.edges[0][0] == inst.node_id("s1")
    assert res.instance.edges[3][1] == inst.node_id("t1")
    # 3x3 grid: 9 cells = 9 internal edges + 6 right + 6 down
    assert sum(1 for o in res.origin if o == GADGET) == 21


def test_structure_preserves_multiflow():
    inst = build_instance(
        [
            ("s", "v"),
            ("s", "v"),
            ("v", "t"),
            ("v", "t"),
            ("s", "x"),
            ("x", "v"),
        ],
        [("s", "t", 1)],
    )
    assert max_flow(inst, 0) == 2
    res = structure(inst)
    assert internal_degree_ok(res.instance)
    assert max_flow(res.instance, 0) == 2


def test_structured_paths_are_vertex_disjoint():
    inst = build_instance(
        [
            ("s", "a"),
            ("s", "a"),
            ("a", "b"),
            ("a", "b"),
            ("b", "t"),
            ("b", "t"),
        ],
        [("s", "t")],
    )
    res = structure(inst)
    assert internal_degree_ok(res.instance)
    k = max_flow(res.instance, 0)
    assert k == 2
    paths = edge_disjoint_paths(res.instance, 0, k)
    s = res.instance.sessions[0]
    interiors = []
    for p in paths:
        nodes = p.nodes(res.instance)
        assert nodes[0] == s.source and nodes[-1] == s.terminal
        interiors.append(set(nodes[1:-1]))
    assert not interiors[0] & interiors[1]


def test_structure_exempts_endpoints():
    inst = build_instance(
        [("s", "a"), ("s", "b"), ("s", "c"), ("s", "d"), ("a", "t"), ("b", "t"),
         ("c", "t"), ("d", "t")],
        [("s", "t")],
    )
    res = structure(inst)
    # source and terminal have degree 4 but are exempt
    assert res.gadget_nodes == ()
    assert res.instance == inst


def test_lift_identity_structuring():
    inst = build_instance(
        [("s1", "a"), ("s2", "a"), ("s1", "t2"), ("s2", "t1"), ("a", "b"),
         ("b", "t1"), ("b", "t2")],
        [("s1", "t1"), ("s2", "t2")],
    )
    plan = {0: (1, 0), 1: (0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1), 5: (1, 1),
            6: (1, 1)}
    code = code_from_plan(inst, 2, 1, plan)
    res = structure(inst)
    lifted = lift_code(res, inst, code)
    assert lifted == code


def test_lift_through_gadget():
    # session a enters grid row a and exits column 2-a; those pairings can
    # ride the crossbar on vertex-disjoint routes simultaneously
    inst = build_instance(
        [
            ("s1", "v"),
            ("s2", "v"),
            ("s3", "v"),
            ("v", "t3"),
            ("v", "t2"),
            ("v", "t1"),
        ],
        [("s1", "t1"), ("s2", "t2"), ("s3", "t3")],
    )
    res = structure(inst)
    paths = [edge_disjoint_paths(res.instance, i, 1)[0] for i in range(3)]
    plan = {}
    for i, p in enumerate(paths):
        for eid in p.edge_ids:
            vec = [0, 0, 0]
            vec[i] = 1
            assert eid not in plan
            plan[eid] = tuple(vec)
    code = code_from_plan(res.instance, 2, 1, plan)
    assert verify_code(res.instance, code).all_pass
    lifted = lift_code(res, inst, code)
    assert verify_code(inst, lifted).all_pass
    vectors = propagate(inst, lifted)
    # hub edges carry exactly their session's symbol
    assert vectors[0] == (1, 0, 0) and vectors[3] == (0, 0, 1)


def test_lift_refuses_broken_code():
    inst = high_degree_hub()
    res = structure(inst)
    with pytest.raises(CodeError, match="refusing"):
        lift_code(res, inst, zero_code(2, 1, res.instance))


def test_overlap_segments_basic():
    inst = build_instance(
        [("a", "b"), ("b", "c"), ("c", "d")], [("a", "d")]
    )
    p = Path((0, 1, 2))
    assert overlap_segments(p, p) == [type(overlap_segments(p, p)[0])((0, 1, 2))]
    q = Path((0,))
    assert overlap_segments(Path((1, 2)), q) == []


def test_overlap_segments_two_runs():
    # p: s -> a -> b -> c -> d -> t   q joins for a->b, detours, rejoins c->d
    inst = build_instance(
        [
            ("s", "a"),   # 0 p
            ("a", "b"),   # 1 shared
            ("b", "c"),   # 2 p only
            ("c", "d"),   # 3 shared
            ("d", "t"),   # 4 p
            ("q0", "a"),  # 5 q entry
            ("b", "x"),   # 6 q detour
            ("x", "c"),   # 7 q detour
            ("d", "q1"),  # 8 q exit
        ],
        [("s", "t"), ("q0", "q1")],
    )
    p = Path((0, 1, 2, 3, 4))
    q = Path((5, 1, 6, 7, 3, 8))
    segs = overlap_segments(p, q)
    assert [s.edges for s in segs] == [(1,), (3,)]
    # maximality: no shared edge enters the first segment's tail or leaves
    # the last segment's head
    for seg in segs:
        first_tail = inst.tail(seg.edges[0])
        last_head = inst.head(seg.edges[-1])
        shared = set(p.edge_ids) & set(q.edge_ids)
        assert not any(
            e in shared for e in inst.in_edges[first_tail] if e not in seg.edges
        )
        assert not any(
            e in shared for e in inst.out_edges[last_head] if e not in seg.edges
        )


def test_isolate_sessions_shared_endpoints():
    inst = build_instance(
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        [("s", "t"), ("s", "t")],
    )
    before = connectivity_level(inst)
    iso, mapping = isolate_sessions(inst)
    assert connectivity_level(iso) == before
    endpoints = [
        (s.source, s.terminal) for s in iso.sessions
    ]
    flat = [v for pair in endpoints for v in pair]
    assert len(set(flat)) == len(flat)
    for i, s in enumerate(iso.sessions):
        assert mapping[i] == s
        assert iso.in_edges[s.source] == ()
        assert iso.out_edges[s.terminal] == ()


def test_isolate_sessions_noop_when_private():
    inst = build_instance(
        [("s1", "t1"), ("s2", "t2")], [("s1", "t1"), ("s2", "t2")]
    )
    iso, _ = isolate_sessions(inst)
    assert iso == inst


@st.composite
def small_instance(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for u, v in pairs:
        count = draw(st.integers(min_value=0, max_value=2))
        edges.extend([(u, v)] * count)
    if not edges:
        edges = [(0, n - 1)]
    sessions = (Session(0, n - 1, 1),)
    if draw(st.booleans()) and n > 3:
        sessions += (Session(1, n - 2, 1),) if 1 != n - 2 else ()
    names = tuple(f"n{i}" for i in range(n))
    return UnicastInstance(names, tuple(edges), sessions)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(small_instance())
def test_minimize_random_postcondition(inst):
    before = connectivity_level(inst)
    res = minimize(inst)
    assert connectivity_level(res.instance) == before
    for eid in range(res.instance.n_edges):
        sub, _ = res.instance.keep_edges(
            [e for e in range(res.instance.n_edges) if e != eid]
        )
        assert any(a < b for a, b in zip(connectivity_level(sub), before))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(small_instance())
def test_structure_random_postconditions(raw):
    # the vertex-disjointness guarantee assumes a normalized input, where no
    # session endpoint can sit in the middle of another session's path
    inst, _ = normalize(raw)
    res = structure(inst)
    assert internal_degree_ok(res.instance)
    assert connectivity_level(res.instance) == connectivity_level(inst)
    # per-session edge-disjoint paths are internally vertex-disjoint
    for i in range(len(inst.sessions)):
        paths = edge_disjoint_paths(res.instance, i)
        interiors = [set(p.nodes(res.instance)[1:-1]) for p in paths]
        for a in range(len(interiors)):
            for b in range(a + 1, len(interiors)):
                assert not interiors[a] & interiors[b]


@st.composite
def instance_and_target(draw):
    inst = draw(small_instance())
    target = tuple(
        draw(st.integers(min_value=0, max_value=level))
        for level in connectivity_level(inst)
    )
    return inst, target


@settings(max_examples=80, derandomize=True, deadline=None)
@given(small_instance())
def test_minimize_matches_oracle(inst):
    assert_matches_oracle(inst)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(instance_and_target())
def test_prune_to_connectivity_matches_oracle(case):
    assert_matches_oracle(*case)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(instance_and_target())
def test_oracle_second_pass_removes_nothing(case):
    _, passes = _prune_oracle(*case)
    assert all(not dropped for dropped in passes[1:])


SAMPLED = (
    [sample_triple(seed, (1, 3, 3)) for seed in range(12)]
    + [sample_triple(seed, (2, 3, 2)) for seed in range(8)]
    + [sample_uniform(seed, 3) for seed in range(8)]
    + [sample_1m(seed, 2) for seed in range(8)]
)


@pytest.mark.parametrize("k", range(len(SAMPLED)))
def test_minimize_matches_oracle_on_sampled_suites(k):
    inst = SAMPLED[k]
    assert_matches_oracle(inst)
    # one below max-flow in every session
    target = tuple(level - 1 for level in connectivity_level(inst))
    assert_matches_oracle(inst, target)


@pytest.mark.parametrize(
    "seed, triple",
    [(0, (1, 3, 3)), (1, (1, 3, 3)), (2, (1, 3, 3)), (0, (2, 3, 4)), (1, (3, 3, 4))],
)
def test_minimize_matches_oracle_inside_assign_133(seed, triple, monkeypatch):
    layers = []

    def checked(instance):
        result = minimize(instance)
        layers.append(instance)
        assert result == _prune_oracle(instance, connectivity_level(instance))[0]
        return result

    monkeypatch.setattr(constructors, "minimize", checked)
    assign_133(sample_triple(seed, triple))
    # per layer: minimize before and after structuring, and assign_1m's check
    assert len(layers) == 6
