"""Instance model, file round-trips, endpoint attachment, time expansion."""

import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_flows import random_dag_instance

from netcode_unicast import graph
from netcode_unicast.flows import connectivity_level
from netcode_unicast.graph import (
    MAX_EXPANDED_EDGES,
    InstanceError,
    Session,
    UnicastInstance,
    _valid_name,
    attach_endpoints,
    build_instance,
    expand_time,
    parse_instance,
    serialize_instance,
)
from netcode_unicast.oracle import gen_fig1
from netcode_unicast.transform import structure

BUTTERFLY = """\
# classic butterfly, two unit sessions
session 1 s1 t1
session 2 s2 t2
edge s1 a
edge s2 a
edge s1 t2
edge s2 t1
edge a b
edge b t1
edge b t2
"""


def test_parse_butterfly():
    inst = parse_instance(BUTTERFLY)
    assert inst.names == ("s1", "a", "s2", "t2", "t1", "b")
    assert inst.n_edges == 7
    assert inst.sessions == (Session(0, 4), Session(2, 3))
    # node ids follow first appearance in edge lines
    assert inst.edges[0] == (0, 1)
    assert inst.edges[2] == (0, 3)


def test_roundtrip_is_canonical():
    inst = parse_instance(BUTTERFLY)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text
    # sessions precede edges, comments dropped, defaults omitted
    lines = text.splitlines()
    assert lines[0] == "session 1 s1 t1"
    assert lines[1] == "session 2 s2 t2"
    assert lines[2] == "edge s1 a"
    assert "rate=" not in text and "cap=" not in text


def test_cap_expands_to_parallel_edges():
    inst = parse_instance("session 1 s t rate=2\nedge s t cap=3\n")
    assert inst.n_edges == 3
    assert inst.edges == ((0, 1),) * 3
    assert inst.sessions[0].rate == 2
    assert "cap" not in serialize_instance(inst)
    assert serialize_instance(inst).count("edge s t") == 3


@pytest.mark.parametrize(
    "text,needle",
    [
        ("edge s t\n", "no sessions"),
        ("session 1 s t\n", "unknown node"),
        ("session 1 s t\nedge s t\nedge t s\n", "cycle"),
        ("session 2 s t\nedge s t\n", "contiguous"),
        ("session 1 s t\nsession 1 s t\nedge s t\n", "duplicate session"),
        ("session 1 s s\nedge s t\n", "differ"),
        # named by its line, not by an edge id after cap= expansion
        ("session 1 a b\nedge a b cap=5\nedge c c\n", "line 3: self-loop on node 'c'"),
        ("session 1 s t rate=0\nedge s t\n", ">= 1"),
        ("edge s t cap=0\nsession 1 s t\n", ">= 1"),
        ("edge s\nsession 1 s t\n", "expected"),
        ("vertex s t\n", "unknown directive"),
        ("edge s t weight=2\nsession 1 s t\n", "attribute"),
        ("session 1 s t\nedge s t cap=1000000000000\n", "line 2: capacity 10+ exceeds 65536"),
        ("session 1 s t rate=1000000000000\nedge s t\n", "line 1: rate 10+ exceeds 65536"),
        ("session x s t\nedge s t\n", "line 1: bad session index 'x'"),
        ("session 1 s\nedge s t\n", "line 1: expected 'session <i> <src> <dst> \\[rate=<r>\\]'"),
        ("session 1 s t speed=2\nedge s t\n", "line 1: bad session attribute 'speed=2'"),
        ("session 1 s t\nedge s t cap=x\n", "line 2: bad capacity 'cap=x'"),
        ("session 1 s t rate=y\nedge s t\n", "line 1: bad rate 'rate=y'"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(InstanceError, match=needle):
        parse_instance(text)


def test_parse_accepts_counts_at_the_bound():
    inst = parse_instance("session 1 s t rate=65536\nedge s t cap=65536\n")
    assert (inst.n_edges, inst.sessions[0].rate) == (2**16, 2**16)


def test_session_order_in_file_is_by_index():
    inst = parse_instance("session 2 a b\nsession 1 b c\nedge a b\nedge b c\n")
    assert inst.sessions[0] == Session(1, 2)  # index 1 = b -> c
    assert inst.sessions[1] == Session(0, 1)


def test_toposort_deterministic():
    inst = build_instance(
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")], [("s", "t")]
    )
    assert inst.topo_order == (0, 1, 2, 3)
    assert inst.edges_in_topo_order() == [0, 1, 2, 3]


@st.composite
def digraphs(draw):
    """Up to 7 nodes and 12 edges, parallel ones allowed.  Each edge points
    along a hidden node order unless drawn reversed, so acyclic graphs and
    cycles of every length both occur, as do nodes no edge touches."""
    n = draw(st.integers(1, 7))
    rank = draw(st.permutations(range(n)))
    edges = []
    for _ in range(draw(st.integers(0, 12 if n > 1 else 0))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        v += v >= u
        if (rank[u] < rank[v]) == draw(st.booleans()):
            u, v = v, u
        edges.append((u, v))
    return n, edges


def _has_cycle(n, edges):
    """Depth-first search: a cycle closes on a node still on the stack."""
    succ = [[v for u, v in edges if u == w] for w in range(n)]
    state = [0] * n  # 0 unseen, 1 on the stack, 2 done

    def visit(u):
        state[u] = 1
        for v in succ[u]:
            if state[v] == 1 or (state[v] == 0 and visit(v)):
                return True
        state[u] = 2
        return False

    return any(state[u] == 0 and visit(u) for u in range(n))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(digraphs())
@example((2, [(0, 1), (1, 0)]))  # a 2-cycle
@example((2, [(0, 1), (0, 1), (1, 0)]))  # a 2-cycle over a parallel pair
# a 3-cycle no source reaches, beside a path and an isolated node
@example((6, [(0, 1), (2, 3), (3, 4), (4, 2)]))
@example((6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]))  # a 6-cycle
@example((5, [(4, 1), (3, 1)]))  # isolated nodes in an acyclic graph
@example((7, []))
def test_constructor_refuses_exactly_the_cyclic_graphs(graph_spec):
    n, edges = graph_spec
    names = tuple(f"v{i}" for i in range(n))
    if _has_cycle(n, edges):
        with pytest.raises(InstanceError, match="graph contains a directed cycle"):
            UnicastInstance(names, tuple(edges), ())
        return
    inst = UnicastInstance(names, tuple(edges), ())
    # the first permutation in lexicographic order with every tail first
    smallest = next(
        order for order in itertools.permutations(range(n))
        if all(order.index(u) < order.index(v) for u, v in edges)
    )
    assert inst.topo_order == smallest


def test_observed_symbols_and_offsets():
    inst = build_instance(
        [("s", "t"), ("s", "u"), ("u", "t")],
        [("s", "t", 2), ("s", "t", 1)],
    )
    assert inst.symbol_offsets() == (0, 2)
    assert inst.n_symbols == 3
    assert inst.observed_symbols(0) == (0, 1, 2)
    assert inst.observed_symbols(1) == ()
    assert inst.session_symbols(0) == (0, 1)
    assert inst.session_symbols(1) == (2,)


def test_keep_edges_renumbers_densely():
    inst = build_instance(
        [("s", "a"), ("a", "t"), ("s", "t")], [("s", "t")]
    )
    sub, kept = inst.keep_edges([2, 0])
    assert sub.edges == ((0, 1), (0, 2))
    assert kept == (0, 2)
    assert sub.names == inst.names


@pytest.mark.parametrize("eid", [5, -1])
def test_keep_edges_refuses_an_unknown_edge_id(eid):
    inst = build_instance([("s", "a"), ("a", "t"), ("s", "t")], [("s", "t")])
    with pytest.raises(InstanceError, match=f"unknown edge id {eid}"):
        inst.keep_edges([0, eid])


def test_build_instance_refuses_a_session_on_an_unknown_node():
    with pytest.raises(InstanceError, match="unknown node 'x' in session"):
        build_instance([("s", "t")], [("s", "x")])


@pytest.mark.parametrize("spec", [("s",), ("s", "t", 2, "x"), ()])
def test_build_instance_refuses_a_malformed_session(spec):
    with pytest.raises(InstanceError, match=r"session must be \(source, terminal\[, rate\]\)"):
        build_instance([("s", "t")], [spec])


@st.composite
def named_edge_lists(draw):
    """Edges over five names, each from a name to a later one in a drawn
    order, so the graph is acyclic, with repeated pairs and capacities; and
    sessions between names that occur."""
    names = draw(st.permutations("abcde"))
    edges = []
    for _ in range(draw(st.integers(1, 10))):
        i = draw(st.integers(0, 3))
        edges.append((names[i], names[draw(st.integers(i + 1, 4))], draw(st.integers(1, 3))))
    used = sorted({name for u, v, _ in edges for name in (u, v)})
    pairs = [(s, t) for s in used for t in used if s != t]
    sessions = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 2)), min_size=1, max_size=3))
    return edges, [(s, t, r) for (s, t), r in sessions]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(named_edge_lists())
def test_parse_and_build_give_equal_instances(case):
    edges, sessions = case
    text = "".join(
        f"session {i} {s} {t}" + (f" rate={r}" if r != 1 else "") + "\n"
        for i, (s, t, r) in enumerate(sessions, start=1)
    )
    text += "".join(f"edge {u} {v}" + (f" cap={c}" if c != 1 else "") + "\n" for u, v, c in edges)
    unit_edges = [(u, v) for u, v, c in edges for _ in range(c)]
    specs = [(s, t) if r == 1 else (s, t, r) for s, t, r in sessions]
    assert parse_instance(text) == build_instance(unit_edges, specs)


def test_attach_endpoints_adds_width_many_edges():
    # source s2 sits mid-graph; terminal t1 has an out-edge
    inst = build_instance(
        [("s1", "s2"), ("s2", "t1"), ("t1", "x")],
        [("s1", "t1", 1), ("s2", "x", 2)],
    )
    capped = attach_endpoints(inst, (1, 2))
    assert capped.names == inst.names + ("~s1", "~t1", "~s2", "~t2")
    # original edges keep their ids; per session, width edges into the old
    # source, then width edges out of the old terminal
    s1, s2, t1, x = (inst.names.index(v) for v in ("s1", "s2", "t1", "x"))
    assert capped.edges[:3] == inst.edges
    assert capped.edges[3:] == ((4, s1), (t1, 5), (6, s2), (6, s2), (x, 7), (x, 7))
    assert capped.sessions == (Session(4, 5, 1), Session(6, 7, 2))
    # capped at min(width, max-flow): session 2 still has one path only
    assert connectivity_level(capped) == (1, 1)
    for s in capped.sessions:
        assert capped.in_edges[s.source] == ()
        assert capped.out_edges[s.terminal] == ()


def test_attach_endpoints_at_connectivity_isolates_sessions():
    inst = build_instance(
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        [("s", "t"), ("s", "t")],
    )
    before = connectivity_level(inst)
    iso = attach_endpoints(inst, before)
    assert connectivity_level(iso) == before
    flat = [v for s in iso.sessions for v in (s.source, s.terminal)]
    assert len(set(flat)) == len(flat)


def test_attach_endpoints_fresh_names_avoid_collisions():
    inst = build_instance(
        [("a", "~s1"), ("~s1", "b")], [("~s1", "b")]
    )
    capped = attach_endpoints(inst, (1,))
    assert len(set(capped.names)) == len(capped.names)
    assert capped.names[capped.sessions[0].source] == "~s1~"


def test_attach_endpoints_refuses_a_negative_or_missing_width():
    fig1 = gen_fig1()
    with pytest.raises(InstanceError, match="session 1: width must be >= 0, got -2"):
        attach_endpoints(fig1, [-2] * 2)
    with pytest.raises(InstanceError, match="no width given for session 2"):
        attach_endpoints(fig1, {0: 1})
    with pytest.raises(InstanceError, match="no width given for session 2"):
        attach_endpoints(fig1, [1])
    # width 0 is a cap at 0, not an error
    assert connectivity_level(attach_endpoints(fig1, {0: 0, 1: 1})) == (0, 1)
    assert connectivity_level(attach_endpoints(fig1, [2, 2])) == (2, 2)


def test_expand_time_ids_and_lineage():
    inst = build_instance([("s", "a"), ("a", "t")], [("s", "t", 2)])
    ex = expand_time(inst, 3)
    assert ex.n_edges == 6
    assert ex.sessions[0].rate == 6
    for e in range(inst.n_edges):
        for tau in range(3):
            assert ex.edges[e * 3 + tau] == inst.edges[e]
    assert expand_time(inst, 1).edges == inst.edges
    with pytest.raises(InstanceError):
        expand_time(inst, 0)


def test_expand_time_at_one_slot_is_the_instance():
    inst = build_instance([("s", "a"), ("a", "t")], [("s", "t", 2)])
    assert expand_time(inst, 1) is inst


def record_expansions(monkeypatch) -> list:
    """Patch every binding of ``expand_time`` to record what it returns.  A
    kept expansion returned again, or a one-slot instance returned as its
    own expansion, is not recorded, so the list holds the expansions built."""
    built: list = []
    real = graph.expand_time

    def recorded(instance, T):
        expanded = real(instance, T)
        if expanded is not instance and all(x is not expanded for x in built):
            built.append(expanded)
        return expanded

    for module in [m for k, m in sys.modules.items() if k.startswith("netcode_unicast.")]:
        if getattr(module, "expand_time", None) is real:
            monkeypatch.setattr(module, "expand_time", recorded)
    return built


def test_expand_time_keeps_its_expansion():
    inst = build_instance([("s", "a"), ("a", "t")], [("s", "t", 2)])
    ex = expand_time(inst, 2)
    assert expand_time(inst, 2) is ex
    # another T builds another expansion, which is then the one kept
    assert expand_time(inst, 3) is not ex
    assert expand_time(inst, 3) is expand_time(inst, 3)


def record_builds(monkeypatch) -> list:
    """Patch the constructor's checks to record every instance built, so a
    test can show that nothing was built past a bound."""
    built: list = []
    real = UnicastInstance.__post_init__

    def recorded(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(UnicastInstance, "__post_init__", recorded)
    return built


def test_expand_time_refuses_past_the_bound_before_building(monkeypatch):
    at_bound = build_instance([("s", "t")] * 200, [("s", "t")])
    assert expand_time(at_bound, 200).n_edges == MAX_EXPANDED_EDGES

    built = record_builds(monkeypatch)
    inst = build_instance([("s", "t")] * 201, [("s", "t")])
    with pytest.raises(InstanceError, match="the 200-slot expansion has 40200 edges, above"):
        expand_time(inst, 200)
    assert inst._expansion is None
    # one slot builds nothing, but its edges count against the bound too
    wide = build_instance([("s", "t")] * (MAX_EXPANDED_EDGES + 1), [("s", "t")])
    with pytest.raises(InstanceError, match="the 1-slot expansion has 40001 edges, above"):
        expand_time(wide, 1)
    # only the two inputs were built
    assert [id(x) for x in built] == [id(inst), id(wide)]


def test_instance_structural_validation():
    with pytest.raises(InstanceError, match="self-loop"):
        UnicastInstance(("a", "b"), ((0, 0),), (Session(0, 1),))
    with pytest.raises(InstanceError, match="duplicate node names"):
        UnicastInstance(("a", "a"), (), ())
    with pytest.raises(InstanceError, match="invalid node name"):
        UnicastInstance(("a b",), (), ())
    with pytest.raises(InstanceError, match="unknown node"):
        UnicastInstance(("a", "b"), ((0, 1),), (Session(0, 5),))


def test_valid_name_agrees_with_a_per_character_check():
    def per_character(name):
        return bool(name) and "#" not in name and not any(ch.isspace() for ch in name)

    names = ["a" + chr(c) + "b" for c in range(0x110000)]
    names += ["", " ", "a ", " a", "\ta", "a\n", "\u3000a", "a\x85", "#", "a#"]
    assert [_valid_name(n) for n in names] == [per_character(n) for n in names]
    assert not all(_valid_name(n) for n in names)


# -- derived instances: built and checked by the constructor -----------------


def _checked(inst):
    """``inst`` rebuilt from its names, edges and sessions alone."""
    return UnicastInstance(inst.names, inst.edges, inst.sessions)


def _assert_as_checked(derived):
    ref = _checked(derived)
    assert (derived.names, derived.edges, derived.sessions) == (ref.names, ref.edges, ref.sessions)
    assert derived.out_edges == ref.out_edges
    assert derived.in_edges == ref.in_edges
    assert derived.topo_order == ref.topo_order


@st.composite
def derivation_chains(draw):
    """A random DAG with node ids shuffled, so its smallest order is not the
    identity, and up to three derivations applied in turn."""
    base = draw(random_dag_instance(max_nodes=6, max_sessions=3))
    perm = draw(st.permutations(range(base.n_nodes)))
    names = [""] * base.n_nodes
    for old, new in enumerate(perm):
        names[new] = base.names[old]
    inst = UnicastInstance(
        tuple(names),
        tuple((perm[u], perm[v]) for u, v in base.edges),
        tuple(Session(perm[s.source], perm[s.terminal], s.rate) for s in base.sessions),
    )
    steps = draw(st.lists(st.sampled_from(["keep", "sessions", "time", "structure", "attach"]),
                          min_size=1, max_size=3))
    chain = [("checked", inst)]
    for step in steps:
        if step == "keep":
            keep = draw(st.sets(st.integers(0, max(inst.n_edges - 1, 0))))
            inst = inst.keep_edges(e for e in keep if e < inst.n_edges)[0]
        elif step == "sessions":
            inst = inst.with_sessions(inst.sessions[::-1])
        elif step == "time":
            inst = expand_time(inst, draw(st.integers(1, 3)))
        elif step == "structure":
            inst = structure(inst)
        else:
            widths = draw(st.lists(st.integers(0, 2), min_size=len(inst.sessions),
                                   max_size=len(inst.sessions)))
            inst = attach_endpoints(inst, widths)
        chain.append((step, inst))
    return chain


@settings(max_examples=150, derandomize=True, deadline=None)
@given(derivation_chains())
def test_derived_instances_equal_checked_ones(chain):
    # read the orders last, so each derivation started from a parent whose
    # smallest order was never computed
    for _, inst in chain[1:]:
        _assert_as_checked(inst)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(derivation_chains())
def test_edges_in_topo_order_is_the_sorted_order(chain):
    # the definition the out-edge walk replaced: by the tail's position in
    # topo_order, then by id
    for _, inst in chain:
        pos = {v: i for i, v in enumerate(inst.topo_order)}
        by_tail = sorted(range(inst.n_edges), key=lambda e: (pos[inst.edges[e][0]], e))
        assert inst.edges_in_topo_order() == by_tail


@pytest.mark.parametrize(
    "names,edges,sessions,needle",
    [
        (("a", "b"), ((0, 0),), (Session(0, 1),), "edge 0 is a self-loop"),
        (("a", "b"), ((0, 2),), (Session(0, 1),), "edge 0 references unknown node"),
        (("a", "b"), ((-1, 1),), (Session(0, 1),), "edge 0 references unknown node"),
        (("a", "a"), (), (), "duplicate node names"),
        (("a", "b c"), (), (), "invalid node name 'b c'"),
        (("a", ""), (), (), "invalid node name ''"),
        (("a#", "b"), (), (), "invalid node name 'a#'"),
        (("a", "b\u3000"), (), (), "invalid node name"),
        (("a", "b"), ((0, 1),), (Session(0, 5),), "session references unknown node"),
    ],
)
def test_derived_runs_every_check_of_the_constructor(names, edges, sessions, needle):
    # every derivation builds through the constructor, so these are its checks
    with pytest.raises(InstanceError, match=needle):
        UnicastInstance(names, edges, sessions)
