"""Minimization, structuring, overlap segments, lifting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from flow_oracle import _bfs_max_flow
from minimize_oracle import minimize_reference, prune_detour_reference
from test_flows import path_nodes, random_dag_instance

from netcode_unicast import constructors
from netcode_unicast.constructors import assign_133
from netcode_unicast.flows import (
    _augment,
    _unit_flow,
    connectivity_level,
    edge_disjoint_paths,
    max_flow,
)
from netcode_unicast.graph import (
    Session,
    UnicastInstance,
    attach_endpoints,
    build_instance,
)
from netcode_unicast.netcode import (
    EMPTY_RULE,
    CodeError,
    NetworkCode,
    code_from_plan,
    propagate,
    verify_code,
)
from netcode_unicast.sampling import sample_1m, sample_triple, sample_uniform
from netcode_unicast.transform import (
    _critical_edges,
    _wide_nodes,
    internal_degree_ok,
    lift_code,
    minimize,
    overlap_segments,
    structure,
)


def _prune_oracle(instance, target):
    """Repeated-pass pruning, the reference for ``minimize`` at ``target``
    equal to the connectivity vector: rebuild the instance without each
    candidate edge (ascending id) while every max-flow stays >= its target,
    recomputing them anew, and pass again until a pass removes nothing.
    Returns what ``minimize`` returns and the edges each pass removed."""
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
    return instance.keep_edges(kept), passes


def assert_matches_oracle(instance):
    """Equal results from the component-marked detour pruning, the per-edge
    detour and path-cancelling prunings it replaced, and repeated-pass
    pruning."""
    result = minimize(instance)
    assert result == prune_detour_reference(instance)
    assert result == minimize_reference(instance)
    assert result == _prune_oracle(instance, connectivity_level(instance))[0]


def test_minimize_fixpoint_on_disjoint_paths():
    inst = build_instance(
        [("s1", "a"), ("a", "t1"), ("s2", "t2")],
        [("s1", "t1"), ("s2", "t2")],
    )
    minimal, kept = minimize(inst)
    assert minimal == inst
    assert kept == (0, 1, 2)


def test_minimize_drops_dangling_edge():
    inst = build_instance(
        [("s", "a"), ("a", "t"), ("a", "x")],
        [("s", "t")],
    )
    minimal, kept = minimize(inst)
    assert kept == (0, 1)
    assert minimal.n_edges == 2
    assert connectivity_level(minimal) == (1,)


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
    minimal, _ = minimize(inst)
    before = connectivity_level(inst)
    assert connectivity_level(minimal) == before
    for eid in range(minimal.n_edges):
        sub, _ = minimal.keep_edges([e for e in range(minimal.n_edges) if e != eid])
        levels = connectivity_level(sub)
        assert any(a < b for a, b in zip(levels, before))


def test_structure_noop_below_degree_limit():
    inst = build_instance(
        [("s", "a"), ("a", "b"), ("b", "t")], [("s", "t")]
    )
    assert structure(inst) == inst


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
    shaped = structure(inst)
    hub = inst.names.index("v")
    assert internal_degree_ok(shaped)
    assert connectivity_level(shaped) == connectivity_level(inst) == (1, 1, 1)
    # the hub keeps no edge; every other input node keeps its edge ids
    assert not shaped.in_edges[hub] and not shaped.out_edges[hub]
    for v in range(inst.n_nodes):
        if v != hub:
            assert shaped.in_edges[v] == inst.in_edges[v]
            assert shaped.out_edges[v] == inst.out_edges[v]
    # original edges keep their ids; the hub edges were re-attached
    assert shaped.edges[0][0] == inst.names.index("s1")
    assert shaped.edges[3][1] == inst.names.index("t1")
    # 3x3 grid: 9 cells = 9 internal edges + 6 right + 6 down, after the 6
    assert shaped.n_edges == 6 + 21


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
    shaped = structure(inst)
    assert internal_degree_ok(shaped)
    assert max_flow(shaped, 0) == 2


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
    shaped = structure(inst)
    assert internal_degree_ok(shaped)
    k = max_flow(shaped, 0)
    assert k == 2
    paths = edge_disjoint_paths(shaped, 0, k)
    s = shaped.sessions[0]
    interiors = []
    for p in paths:
        nodes = path_nodes(shaped, p)
        assert nodes[0] == s.source and nodes[-1] == s.terminal
        interiors.append(set(nodes[1:-1]))
    assert not interiors[0] & interiors[1]


def test_structure_exempts_endpoints():
    inst = build_instance(
        [("s", "a"), ("s", "b"), ("s", "c"), ("s", "d"), ("a", "t"), ("b", "t"),
         ("c", "t"), ("d", "t")],
        [("s", "t")],
    )
    # source and terminal have degree 4 but are exempt
    assert structure(inst) == inst


def test_lift_identity_structuring():
    inst = build_instance(
        [("s1", "a"), ("s2", "a"), ("s1", "t2"), ("s2", "t1"), ("a", "b"),
         ("b", "t1"), ("b", "t2")],
        [("s1", "t1"), ("s2", "t2")],
    )
    plan = {0: (1, 0), 1: (0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1), 5: (1, 1),
            6: (1, 1)}
    code = code_from_plan(inst, 2, 1, plan)
    lifted = lift_code(structure(inst), inst, code)
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
    shaped = structure(inst)
    paths = [edge_disjoint_paths(shaped, i, 1)[0] for i in range(3)]
    plan = {}
    for i, p in enumerate(paths):
        for eid in p:
            vec = [0, 0, 0]
            vec[i] = 1
            assert eid not in plan
            plan[eid] = tuple(vec)
    code = code_from_plan(shaped, 2, 1, plan)
    assert verify_code(shaped, code).all_pass
    lifted = lift_code(shaped, inst, code)
    assert verify_code(inst, lifted).all_pass
    vectors = propagate(inst, lifted)
    # hub edges carry exactly their session's symbol
    assert vectors[0] == (1, 0, 0) and vectors[3] == (0, 0, 1)


def test_lift_refuses_broken_code():
    inst = high_degree_hub()
    shaped = structure(inst)
    with pytest.raises(CodeError, match="refusing"):
        lift_code(shaped, inst, NetworkCode(2, 1, (EMPTY_RULE,) * shaped.n_edges))


def test_overlap_segments_basic():
    inst = build_instance(
        [("a", "b"), ("b", "c"), ("c", "d")], [("a", "d")]
    )
    p = (0, 1, 2)
    assert overlap_segments(p, p) == [(0, 1, 2)]
    assert overlap_segments((1, 2), (0,)) == []


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
    p = (0, 1, 2, 3, 4)
    q = (5, 1, 6, 7, 3, 8)
    segs = overlap_segments(p, q)
    assert segs == [(1,), (3,)]
    # maximality: no shared edge enters the first segment's tail or leaves
    # the last segment's head
    for seg in segs:
        first_tail = inst.tail(seg[0])
        last_head = inst.head(seg[-1])
        shared = set(p) & set(q)
        assert not any(e in shared for e in inst.in_edges[first_tail] if e not in seg)
        assert not any(e in shared for e in inst.out_edges[last_head] if e not in seg)


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
    minimal, _ = minimize(inst)
    assert connectivity_level(minimal) == before
    for eid in range(minimal.n_edges):
        sub, _ = minimal.keep_edges([e for e in range(minimal.n_edges) if e != eid])
        assert any(a < b for a, b in zip(connectivity_level(sub), before))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(small_instance())
def test_structure_random_postconditions(raw):
    # the vertex-disjointness guarantee assumes fresh endpoints (no in-edges
    # at sources, no out-edges at terminals), so no session endpoint can sit
    # in the middle of another session's path
    inst = attach_endpoints(raw, connectivity_level(raw))
    shaped = structure(inst)
    assert internal_degree_ok(shaped)
    assert connectivity_level(shaped) == connectivity_level(inst)
    # per-session edge-disjoint paths are internally vertex-disjoint
    for i in range(len(inst.sessions)):
        paths = edge_disjoint_paths(shaped, i)
        interiors = [set(path_nodes(shaped, p)[1:-1]) for p in paths]
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


@st.composite
def dag_and_target(draw):
    """Parallel edges, shared endpoints and sessions at max-flow 0 from
    ``random_dag_instance``, with a target at or below each max-flow."""
    inst = draw(random_dag_instance(max_nodes=7, max_sessions=3))
    target = tuple(
        draw(st.integers(min_value=0, max_value=level))
        for level in connectivity_level(inst)
    )
    return inst, target


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dag_and_target())
def test_prune_matches_oracles_on_random_dags(case):
    inst, _ = case
    assert_matches_oracle(inst)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dag_and_target())
def test_component_marks_are_the_failed_detours(case):
    inst, target = case
    flows = [
        _unit_flow(inst, (s.source,), (s.terminal,), limit)[1]
        for s, limit in zip(inst.sessions, target)
    ]
    failed = [0] * inst.n_edges
    for flow in flows:
        for eid, (u, v) in enumerate(inst.edges):
            if not flow[eid]:
                continue
            rest = flow[:]
            rest[eid] = 0
            present = [int(e != eid) for e in range(inst.n_edges)]
            if not _augment(inst, rest, present, (u,), (v,)):
                failed[eid] = 1
    assert _critical_edges(inst, flows) == failed


@st.composite
def dag_with_isolated_nodes(draw):
    """``random_dag_instance`` with up to two edgeless nodes before its ids
    and up to two after them."""
    inst = draw(random_dag_instance(max_nodes=7, max_sessions=3))
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    names = (
        tuple(f"a{k}" for k in range(lead)) + inst.names + tuple(f"z{k}" for k in range(trail))
    )
    return UnicastInstance(
        names,
        tuple((u + lead, v + lead) for u, v in inst.edges),
        tuple(Session(s.source + lead, s.terminal + lead, s.rate) for s in inst.sessions),
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dag_with_isolated_nodes())
def test_critical_edges_are_the_ones_whose_removal_lowers_a_max_flow(inst):
    def levels(without=None):
        arcs = [edge for e, edge in enumerate(inst.edges) if e != without]
        return [
            _bfs_max_flow(inst.n_nodes, arcs, [1] * len(arcs), s.source, s.terminal)[0]
            for s in inst.sessions
        ]

    full = levels()
    lowers = [int(levels(eid) != full) for eid in range(inst.n_edges)]
    flows = [_unit_flow(inst, (s.source,), (s.terminal,))[1] for s in inst.sessions]
    assert _critical_edges(inst, flows) == lowers


def test_minimize_long_chain_does_not_recurse():
    # 20,000 nodes in one path, from the highest id down: every edge is
    # critical, and the component search, rooted at node 0 first, walks the
    # flow's backward arcs up the whole path, past the interpreter's
    # recursion limit were it recursive
    n = 20_000
    names = tuple(f"n{i}" for i in range(n))
    edges = tuple((i + 1, i) for i in range(n - 1))
    inst = UnicastInstance(names, edges, (Session(n - 1, 0, 1),))
    _, kept = minimize(inst)
    assert kept == tuple(range(n - 1))


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
    shaped = structure(inst)
    assert minimize(shaped) == minimize_reference(shaped)


@pytest.mark.parametrize(
    "seed, triple",
    [(0, (1, 3, 3)), (1, (1, 3, 3)), (2, (1, 3, 3)), (0, (2, 3, 4)), (1, (3, 3, 4))],
)
def test_minimize_matches_oracle_inside_assign_133(seed, triple, monkeypatch):
    layers = []

    def checked(instance):
        result = minimize(instance)
        layers.append(instance)
        assert result == minimize_reference(instance)
        assert result == _prune_oracle(instance, connectivity_level(instance))[0]
        return result

    monkeypatch.setattr(constructors, "minimize", checked)
    assign_133(sample_triple(seed, triple))
    # per layer: minimize before and after structuring; the trimmed layer is
    # already minimal, so nothing minimizes it again
    assert len(layers) == 4


@settings(max_examples=150, derandomize=True, deadline=None)
@given(random_dag_instance())
def test_structure_keeps_every_original_edge_id(inst):
    # the id rule the structure .map sidecar, assign_133 and lift_code share:
    # input edge e is edge e of the result, between its own endpoints or
    # crossbar nodes of a replaced one, and every later id is crossbar-internal
    shaped, replaced = structure(inst), set(_wide_nodes(inst))

    def crossbar_of(node):
        """The replaced input node a new node belongs to, by its name."""
        assert node >= inst.n_nodes
        return inst.names.index(shaped.names[node].split("~")[0])

    def stands_for(new, old):
        return crossbar_of(new) == old if old in replaced else new == old

    assert shaped.names[: inst.n_nodes] == inst.names
    assert all(crossbar_of(x) in replaced for x in range(inst.n_nodes, shaped.n_nodes))
    for (u, v), (new_u, new_v) in zip(inst.edges, shaped.edges):
        assert stands_for(new_u, u) and stands_for(new_v, v)
    for u, v in shaped.edges[inst.n_edges :]:
        assert crossbar_of(u) in replaced
        assert crossbar_of(v) == crossbar_of(u)
    # an input node with edges is left with none exactly when it is replaced
    for v in range(inst.n_nodes):
        if inst.in_edges[v] or inst.out_edges[v]:
            bare = not shaped.in_edges[v] and not shaped.out_edges[v]
            assert bare == (v in replaced)
