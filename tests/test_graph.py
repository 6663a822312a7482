"""Instance model, file round-trips, endpoint attachment, time expansion."""

import pytest

from netcode_unicast.flows import connectivity_level
from netcode_unicast.graph import (
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
