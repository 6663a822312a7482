"""Max-flow, path decomposition, and cut enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcode_unicast.flows import (
    CutWitness,
    connectivity_level,
    cutset_infeasible,
    cutset_infeasible_exhaustive,
    edge_disjoint_paths,
    max_flow,
)
from netcode_unicast.graph import InstanceError, Session, UnicastInstance, build_instance

BUTTERFLY = build_instance(
    [
        ("s1", "a"),
        ("s2", "a"),
        ("s1", "t2"),
        ("s2", "t1"),
        ("a", "b"),
        ("b", "t1"),
        ("b", "t2"),
    ],
    [("s1", "t1"), ("s2", "t2")],
)


def test_max_flow_basics():
    single = build_instance([("s", "t")], [("s", "t")])
    assert max_flow(single, 0) == 1
    # each terminal is reachable only through the coded middle path; the
    # side edges provide the *other* session's symbol
    assert connectivity_level(BUTTERFLY) == (1, 1)
    chain = build_instance([("s", "a"), ("a", "t")], [("s", "t")])
    assert max_flow(chain, 0) == 1


def test_max_flow_parallel_edges():
    inst = build_instance([("s", "t"), ("s", "t"), ("s", "t")], [("s", "t")])
    assert max_flow(inst, 0) == 3


def test_max_flow_needs_augmenting_reroute():
    # greedy shortest path s->a->t would block the second unit without the
    # residual reroute through b
    inst = build_instance(
        [("s", "a"), ("a", "t"), ("s", "b"), ("b", "a"), ("a", "c"), ("c", "t")],
        [("s", "t")],
    )
    assert max_flow(inst, 0) == 2


def test_disconnected_session():
    inst = build_instance([("s", "a"), ("b", "t")], [("s", "t")])
    assert max_flow(inst, 0) == 0
    assert edge_disjoint_paths(inst, 0) == []


def test_edge_disjoint_paths_deterministic():
    paths = edge_disjoint_paths(BUTTERFLY, 0)
    assert [p.edge_ids for p in paths] == [(0, 4, 5)]
    diamond = build_instance(
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")], [("s", "t")]
    )
    paths = edge_disjoint_paths(diamond, 0)
    # smallest-id walk first: s->a->t before s->b->t
    assert [p.edge_ids for p in paths] == [(0, 2), (1, 3)]
    again = edge_disjoint_paths(diamond, 0)
    assert [p.edge_ids for p in paths] == [p.edge_ids for p in again]


def test_edge_disjoint_paths_contract():
    for session in range(2):
        k = max_flow(BUTTERFLY, session)
        paths = edge_disjoint_paths(BUTTERFLY, session, k)
        assert len(paths) == k
        seen: set[int] = set()
        s = BUTTERFLY.sessions[session]
        for p in paths:
            p.validate(BUTTERFLY, s.source, s.terminal)
            assert not seen & set(p.edge_ids)
            seen |= set(p.edge_ids)
    assert edge_disjoint_paths(BUTTERFLY, 0, 0) == []
    with pytest.raises(InstanceError, match="max-flow"):
        edge_disjoint_paths(BUTTERFLY, 0, 3)


def shared_bottleneck():
    # three unit sessions squeezed through two middle edges
    return build_instance(
        [
            ("s1", "v1"),
            ("s2", "v1"),
            ("s3", "v1"),
            ("s1", "v2"),
            ("s2", "v2"),
            ("s3", "v2"),
            ("v1", "a"),
            ("v2", "b"),
            ("a", "t1"),
            ("a", "t2"),
            ("a", "t3"),
            ("b", "t1"),
            ("b", "t2"),
            ("b", "t3"),
        ],
        [("s1", "t1"), ("s2", "t2"), ("s3", "t3")],
    )


def test_cut_witness_found_and_valid():
    inst = shared_bottleneck()
    assert connectivity_level(inst) == (2, 2, 2)
    w = cutset_infeasible(inst)
    assert w is not None
    assert w.capacity == 2 and w.required_rate == 3
    assert w.sessions == (0, 1, 2)
    # the bottleneck pair v1->a, v2->b
    assert w.cut_edges == (6, 7)
    assert set(w.nodes) == {inst.node_id(n) for n in ("s1", "s2", "s3", "v1", "v2")}
    w.validate(inst)


def test_cut_witness_minimal_in_enumeration_order():
    inst = shared_bottleneck()
    assert cutset_infeasible_exhaustive(inst) == cutset_infeasible(inst)


def test_no_witness_on_feasible_instance():
    inst = build_instance([("s1", "t1"), ("s2", "t2")], [("s1", "t1"), ("s2", "t2")])
    assert cutset_infeasible(inst) is None
    assert cutset_infeasible_exhaustive(inst) is None


def test_witness_validate_rejects_garbage():
    inst = shared_bottleneck()
    bad = CutWitness(
        sessions=(0,), nodes=(inst.node_id("s1"),), cut_edges=(), capacity=0,
        required_rate=1,
    )
    with pytest.raises(InstanceError):
        bad.validate(inst)


def test_guard_on_free_node_count():
    edges = [("s", f"m{i}") for i in range(26)] + [(f"m{i}", "t") for i in range(26)]
    inst = build_instance(edges, [("s", "t")])
    with pytest.raises(InstanceError, match="guard"):
        cutset_infeasible_exhaustive(inst)


def test_min_cut_path_has_no_guard():
    # the same 26 free nodes: the min-cut skip settles the only subset
    edges = [("s", f"m{i}") for i in range(26)] + [(f"m{i}", "t") for i in range(26)]
    inst = build_instance(edges, [("s", "t")])
    assert cutset_infeasible(inst) is None


def test_witness_past_the_guard_comes_from_the_min_cut():
    # shared_bottleneck with v1 -> a split by 24 relays: 30 free nodes
    relays = [f"r{i}" for i in range(24)]
    hops = ["v1", *relays, "a"]
    base = shared_bottleneck()
    edges = [
        (base.names[u], base.names[v])
        for u, v in base.edges
        if (base.names[u], base.names[v]) != ("v1", "a")
    ]
    edges += list(zip(hops, hops[1:]))
    inst = build_instance(edges, [("s1", "t1"), ("s2", "t2"), ("s3", "t3")])
    w = cutset_infeasible(inst)
    assert w is not None
    w.validate(inst)
    assert (w.capacity, w.required_rate, w.sessions) == (2, 3, (0, 1, 2))


# -- randomized agreement with independent oracles --------------------------


@st.composite
def random_dag_instance(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for u, v in pairs:
        count = draw(st.integers(min_value=0, max_value=2))
        edges.extend([(u, v)] * count)
    if not edges:
        edges = [(0, n - 1)]
    n_sessions = draw(st.integers(min_value=1, max_value=2))
    sessions = []
    for _ in range(n_sessions):
        src = draw(st.integers(min_value=0, max_value=n - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=n - 1))
        sessions.append(Session(src, dst, draw(st.integers(min_value=1, max_value=2))))
    names = tuple(f"n{i}" for i in range(n))
    return UnicastInstance(names, tuple(edges), tuple(sessions))


def brute_min_cut(instance, source, terminal):
    """Independent max-flow oracle: min node-cut by full subset enumeration."""
    free = [v for v in range(instance.n_nodes) if v not in (source, terminal)]
    best = instance.n_edges
    for mask in range(1 << len(free)):
        inside = {source} | {v for j, v in enumerate(free) if mask >> j & 1}
        cap = sum(1 for u, v in instance.edges if u in inside and v not in inside)
        best = min(best, cap)
    return best


@settings(max_examples=120, derandomize=True, deadline=None)
@given(random_dag_instance())
def test_max_flow_matches_min_cut_oracle(inst):
    for i, s in enumerate(inst.sessions):
        assert max_flow(inst, i) == brute_min_cut(inst, s.source, s.terminal)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(random_dag_instance())
def test_menger_equivalence(inst):
    for i, s in enumerate(inst.sessions):
        k = max_flow(inst, i)
        paths = edge_disjoint_paths(inst, i, k)
        assert len(paths) == k
        seen: set[int] = set()
        for p in paths:
            p.validate(inst, s.source, s.terminal)
            assert not seen & set(p.edge_ids)
            seen |= set(p.edge_ids)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(random_dag_instance())
def test_cut_enumeration_agreement(inst):
    fast = cutset_infeasible(inst)
    slow = cutset_infeasible_exhaustive(inst)
    assert fast == slow
    if fast is not None:
        fast.validate(inst)
        # any valid S also cuts each separated session's own flow, so its
        # capacity is bounded below by every such session's max-flow
        assert fast.capacity >= max(max_flow(inst, i) for i in fast.sessions)
