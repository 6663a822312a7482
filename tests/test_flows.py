"""Max-flow, path decomposition, and cut enumeration."""

from unittest import mock

import pytest
import flow_oracle
from cut_oracle import cutset_infeasible_exhaustive
from hypothesis import given, settings
from hypothesis import strategies as st

from netcode_unicast import flows
from netcode_unicast.flows import (
    CutWitness,
    connectivity_level,
    cutset_infeasible,
    edge_disjoint_paths,
    max_flow,
)
from netcode_unicast.graph import InstanceError, Session, UnicastInstance, build_instance

def path_nodes(inst, path):
    """The nodes a non-empty path of edge ids visits, in order."""
    return (inst.tail(path[0]),) + tuple(inst.head(e) for e in path)


def check_path(inst, path, source, terminal):
    """``path`` is a non-empty walk of consecutive edges from ``source`` to
    ``terminal``."""
    assert path, "empty path"
    assert inst.tail(path[0]) == source, "path does not start at the source"
    assert inst.head(path[-1]) == terminal, "path does not end at the terminal"
    for a, b in zip(path, path[1:]):
        assert inst.head(a) == inst.tail(b), "path edges are not consecutive"


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
    assert paths == [(0, 4, 5)]
    diamond = build_instance(
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")], [("s", "t")]
    )
    paths = edge_disjoint_paths(diamond, 0)
    # smallest-id walk first: s->a->t before s->b->t
    assert paths == [(0, 2), (1, 3)]
    assert edge_disjoint_paths(diamond, 0) == paths


def test_edge_disjoint_paths_contract():
    for session in range(2):
        k = max_flow(BUTTERFLY, session)
        paths = edge_disjoint_paths(BUTTERFLY, session, k)
        assert len(paths) == k
        seen: set[int] = set()
        s = BUTTERFLY.sessions[session]
        for p in paths:
            check_path(BUTTERFLY, p, s.source, s.terminal)
            assert not seen & set(p)
            seen |= set(p)
    assert edge_disjoint_paths(BUTTERFLY, 0, 0) == []
    for k in (3, -1):
        with pytest.raises(InstanceError, match="max-flow"):
            edge_disjoint_paths(BUTTERFLY, 0, k)


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
    assert set(w.nodes) == {inst.names.index(n) for n in ("s1", "s2", "s3", "v1", "v2")}
    w.validate(inst)


def test_cut_witness_minimal_in_enumeration_order():
    inst = shared_bottleneck()
    assert cutset_infeasible_exhaustive(inst) == cutset_infeasible(inst)


def test_witness_is_first_among_incomparable_violating_sets():
    # {s, a} and {s, b} both cut a single edge against rate 2, while {s}
    # cuts two; the scan meets {s, a} first because b's bit is the higher
    inst = build_instance([("s", "a"), ("s", "b"), ("x", "t")], [("s", "t", 2)])
    w = cutset_infeasible(inst)
    assert w == CutWitness(
        sessions=(0,),
        nodes=(inst.names.index("s"), inst.names.index("a")),
        cut_edges=(1,),
        capacity=1,
        required_rate=2,
    )
    assert cutset_infeasible_exhaustive(inst) == w


def test_no_witness_on_feasible_instance():
    inst = build_instance([("s1", "t1"), ("s2", "t2")], [("s1", "t1"), ("s2", "t2")])
    assert cutset_infeasible(inst) is None
    assert cutset_infeasible_exhaustive(inst) is None


def test_witness_validate_rejects_garbage():
    inst = shared_bottleneck()
    bad = CutWitness(
        sessions=(0,), nodes=(inst.names.index("s1"),), cut_edges=(), capacity=0,
        required_rate=1,
    )
    with pytest.raises(InstanceError):
        bad.validate(inst)


def test_min_cut_path_has_no_guard():
    # 26 free nodes, past the exhaustive oracle's guard: one max-flow
    # settles the only subset
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
    want = ("s1", "s2", "s3", "v1", "v2")
    assert w.nodes == tuple(sorted(inst.names.index(n) for n in want))


def test_deep_first_witness_costs_one_max_flow_per_node(monkeypatch):
    # session 1 (rate 2) runs through a ladder of doubled edges s1 => x0 =>
    # ... => x20 that ends in one edge x20 -> t1; session 2 has its own edge.
    # A violating set must hold s1 and every x and must not hold s2, so the
    # first one in the scan's order (free nodes x0..x20, s2, t2, z by id) has
    # mask 2**21 - 1, with t2 and the idle z (in from t1 only) left outside
    ladder = ["s1", *(f"x{i}" for i in range(21))]
    edges = [(u, v) for u, v in zip(ladder, ladder[1:]) for _ in range(2)]
    edges += [("x20", "t1"), ("s2", "t2"), ("t1", "z")]
    inst = build_instance(edges, [("s1", "t1", 2), ("s2", "t2")])
    assert inst.n_nodes - 2 == 24  # session 1's free nodes: inside the oracle's guard
    calls = []
    real = flows._unit_flow

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(flows, "_unit_flow", counted)
    w = cutset_infeasible(inst)
    assert w == CutWitness(
        sessions=(0,),
        nodes=tuple(inst.names.index(n) for n in ladder),
        cut_edges=(42,),
        capacity=1,
        required_rate=2,
    )
    assert len(calls) <= (2 ** len(inst.sessions) - 1) + inst.n_nodes


def test_clean_subsets_stop_at_their_rate(monkeypatch):
    # no cut is violated, and the levels meet both rates (s1 has 3 paths for
    # rate 2, s2 has 2 for rate 1), so only the pair asks a question; it ends
    # after exactly its rate in augmentations, none failing, where a full
    # max-flow would run on and end in a failing one
    inst = build_instance(
        [("s1", "a"), ("s1", "a"), ("s1", "t1"), ("a", "t1"), ("a", "t1"),
         ("s2", "b"), ("s2", "t2"), ("b", "t2"), ("a", "b")],
        [("s1", "t1", 2), ("s2", "t2")],
    )
    assert connectivity_level(inst) == (3, 2)
    outcomes = []
    real = flows._augment

    def counted(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    monkeypatch.setattr(flows, "_augment", counted)
    assert cutset_infeasible(inst) is None
    # subset {1, 2} needs rate 3
    assert outcomes == [True] * 3


# -- randomized agreement with independent oracles --------------------------


@st.composite
def random_dag_instance(draw, max_nodes=7, max_sessions=2, max_rate=2):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for u, v in pairs:
        count = draw(st.integers(min_value=0, max_value=2))
        edges.extend([(u, v)] * count)
    if not edges:
        edges = [(0, n - 1)]
    n_sessions = draw(st.integers(min_value=1, max_value=max_sessions))
    sessions = []
    for _ in range(n_sessions):
        src = draw(st.integers(min_value=0, max_value=n - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=n - 1))
        rate = draw(st.integers(min_value=1, max_value=max_rate))
        sessions.append(Session(src, dst, rate))
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
            check_path(inst, p, s.source, s.terminal)
            assert not seen & set(p)
            seen |= set(p)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(random_dag_instance(max_nodes=9, max_sessions=3, max_rate=3))
def test_cut_enumeration_agreement(inst):
    fast = cutset_infeasible(inst)
    slow = cutset_infeasible_exhaustive(inst)
    assert fast == slow
    if fast is not None:
        fast.validate(inst)
        # any valid S also cuts each separated session's own flow, so its
        # capacity is bounded below by every such session's max-flow
        assert fast.capacity >= max(max_flow(inst, i) for i in fast.sessions)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(random_dag_instance(max_nodes=9, max_sessions=3, max_rate=3))
def test_known_levels_skip_only_the_met_single_sessions(inst):
    levels = connectivity_level(inst)
    with mock.patch.object(flows, "_min_cut", wraps=flows._min_cut) as cut:
        found = cutset_infeasible(inst)
    assert found == cutset_infeasible_exhaustive(inst)
    # the subsets reached in binary-counter order, up to the witness's
    n = len(inst.sessions)
    asked = 0
    for mask in range(1, 1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        sources = {inst.sessions[i].source for i in subset}
        terminals = {inst.sessions[i].terminal for i in subset}
        if sources & terminals:
            continue
        met = len(subset) == 1 and levels[subset[0]] >= inst.sessions[subset[0]].rate
        asked += not met
        if found is not None and subset == found.sessions:
            # then one question per free node picks the witness's node set
            asked += inst.n_nodes - len(sources | terminals)
            break
    assert cut.call_count == asked


@settings(max_examples=120, derandomize=True, deadline=None)
@given(random_dag_instance(), st.data())
def test_unit_kernel_matches_the_general_capacity_oracle(inst, data):
    for s in inst.sessions:
        want = flow_oracle._bfs_max_flow(
            inst.n_nodes, inst.edges, [1] * inst.n_edges, s.source, s.terminal
        )
        assert flows._unit_flow(inst, (s.source,), (s.terminal,)) == want
    # each node free, forced in or forced out of the cut
    roles = data.draw(st.lists(st.sampled_from("fio"), min_size=inst.n_nodes,
                               max_size=inst.n_nodes))
    sources = {v for v, r in enumerate(roles) if r == "i"}
    terminals = {v for v, r in enumerate(roles) if r == "o"}
    value = flow_oracle._min_cut(inst, sources, terminals)
    for limit in range(inst.n_edges + 2):
        assert flows._min_cut(inst, sources, terminals, limit) == min(value, limit)
