"""Constructive assignments: uniform routing, [1,m+1] chains, [1,3,3] layering."""

import sys
from itertools import permutations

import construct_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from minimize_oracle import minimize_reference
from test_graph import record_expansions

from netcode_unicast import constructors, flows, transform
from netcode_unicast.constructors import NotApplicable, assign_1m, assign_133, route_uniform
from netcode_unicast.flows import connectivity_level, cutset_infeasible, edge_disjoint_paths
from netcode_unicast.graph import Session, build_instance
from netcode_unicast.netcode import (
    CodeError,
    is_routing,
    propagate,
    serialize_code,
    verify_code,
)
from netcode_unicast.sampling import sample_1m, sample_triple, sample_uniform
from netcode_unicast.transform import (
    internal_degree_ok,
    minimize,
    overlap_segments,
)

# rate-1 session threads three merge/fork stages shared with a rate-2 session
CHAIN_M1 = build_instance(
    [
        ("s1", "a"),   # 0
        ("s2", "a"),   # 1
        ("a", "c"),    # 2  shared
        ("c", "t2"),   # 3
        ("c", "d"),    # 4
        ("s2", "b"),   # 5
        ("b", "d"),    # 6
        ("d", "e"),    # 7  shared
        ("e", "t2"),   # 8
        ("e", "t1"),   # 9
    ],
    [("s1", "t1"), ("s2", "t2")],
)

# both rate-1 paths fully disjoint: plain routing suffices
DISJOINT_12 = build_instance(
    [
        ("s1", "a"),   # 0
        ("a", "t1"),   # 1
        ("s2", "b"),   # 2
        ("b", "t2"),   # 3
        ("s2", "c"),   # 4
        ("c", "t2"),   # 5
    ],
    [("s1", "t1"), ("s2", "t2")],
)

# the rate-1 path crosses all three paths of a rate-2 session in order
CHAIN_M2 = build_instance(
    [
        ("s1", "m1"),  # 0
        ("s2", "m1"),  # 1
        ("m1", "f1"),  # 2  shared
        ("f1", "t2"),  # 3
        ("f1", "m2"),  # 4
        ("s2", "m2"),  # 5
        ("m2", "f2"),  # 6  shared
        ("f2", "t2"),  # 7
        ("f2", "m3"),  # 8
        ("s2", "m3"),  # 9
        ("m3", "f3"),  # 10 shared
        ("f3", "t2"),  # 11
        ("f3", "t1"),  # 12
    ],
    [("s1", "t1"), ("s2", "t2", 2)],
)

# CHAIN_M1 plus one disjoint chain, second session at rate 2
MIXED = build_instance(
    [
        ("s1", "a"),   # 0
        ("s2", "a"),   # 1
        ("a", "c"),    # 2  shared
        ("c", "t2"),   # 3
        ("c", "d"),    # 4
        ("s2", "b"),   # 5
        ("b", "d"),    # 6
        ("d", "e"),    # 7  shared
        ("e", "t2"),   # 8
        ("e", "t1"),   # 9
        ("s2", "z"),   # 10
        ("z", "t2"),   # 11
    ],
    [("s1", "t1"), ("s2", "t2", 2)],
)


def _vectors(instance, code):
    return propagate(instance, code)


# ---------------------------------------------------------------- assign_1m

def test_assign_1m_chain_m1_exact():
    # hand-derived table: the shared edges carry X1+X21 then X1
    code = assign_1m(CHAIN_M1)
    vecs = _vectors(CHAIN_M1, code)
    expected = {
        0: (1, 0),
        1: (0, 1),
        2: (1, 1),
        3: (1, 1),
        4: (1, 1),
        5: (0, 1),
        6: (0, 1),
        7: (1, 0),
        8: (1, 0),
        9: (1, 0),
    }
    assert {e: vecs[e] for e in expected} == expected
    assert verify_code(CHAIN_M1, code).all_pass


def test_assign_1m_chain_m1_gf3():
    # over GF(3) the cancellation coefficient is 2, same resulting vectors
    code = assign_1m(CHAIN_M1, q=3)
    assert code.q == 3
    vecs = _vectors(CHAIN_M1, code)
    assert vecs[2] == (1, 1)
    assert vecs[7] == (1, 0)
    assert vecs[9] == (1, 0)
    assert verify_code(CHAIN_M1, code).all_pass


def test_assign_1m_disjoint_routes():
    code = assign_1m(DISJOINT_12)
    vecs = _vectors(DISJOINT_12, code)
    # the largest-index spare path carries the symbol; the other idles
    assert vecs[0] == (1, 0) and vecs[1] == (1, 0)
    assert vecs[4] == (0, 1) and vecs[5] == (0, 1)
    assert vecs[2] == (0, 0) and vecs[3] == (0, 0)
    assert is_routing(vecs)
    assert verify_code(DISJOINT_12, code).all_pass


def test_assign_1m_chain_m2_exact():
    code = assign_1m(CHAIN_M2)
    vecs = _vectors(CHAIN_M2, code)
    expected = {
        0: (1, 0, 0),
        1: (0, 1, 0),
        2: (1, 1, 0),
        3: (1, 1, 0),
        4: (1, 1, 0),
        5: (0, 0, 1),
        6: (1, 1, 1),
        7: (1, 1, 1),
        8: (1, 1, 1),
        9: (0, 1, 1),
        10: (1, 0, 0),
        11: (1, 0, 0),
        12: (1, 0, 0),
    }
    assert {e: vecs[e] for e in expected} == expected
    assert verify_code(CHAIN_M2, code).all_pass


def test_assign_1m_mixed_spare_then_chain():
    code = assign_1m(MIXED)
    vecs = _vectors(MIXED, code)
    # disjoint spare takes the top symbol straight through
    assert vecs[10] == (0, 0, 1) and vecs[11] == (0, 0, 1)
    # remaining two paths run the cumulative chain
    assert vecs[2] == (1, 1, 0)
    assert vecs[7] == (1, 0, 0)
    assert vecs[9] == (1, 0, 0)
    assert verify_code(MIXED, code).all_pass


def test_assign_1m_rejects_three_sessions():
    bad = CHAIN_M1.with_sessions(
        (CHAIN_M1.sessions[0], CHAIN_M1.sessions[1], CHAIN_M1.sessions[0])
    )
    with pytest.raises(NotApplicable, match="two sessions"):
        assign_1m(bad)


def test_assign_1m_rejects_wrong_first_rate():
    bad = CHAIN_M2.with_sessions((CHAIN_M2.sessions[1], CHAIN_M2.sessions[0]))
    with pytest.raises(NotApplicable, match="rate 1"):
        assign_1m(bad)


def test_assign_1m_rejects_wrong_connectivity():
    # CHAIN_M1 supports (1, 2); asking for rate 2 demands (1, 3)
    s1, s2 = CHAIN_M1.sessions
    bad = CHAIN_M1.with_sessions((s1, Session(s2.source, s2.terminal, 2)))
    with pytest.raises(NotApplicable, match="does not match"):
        assign_1m(bad)


def test_assign_1m_rejects_wide_internal_node():
    hub = build_instance(
        [
            ("s1", "h"),
            ("h", "t1"),
            ("s2", "h"),
            ("h", "t2"),
            ("s2", "g"),
            ("g", "t2"),
        ],
        [("s1", "t1"), ("s2", "t2")],
    )
    # in range, but not structured: a construction failure, not a range miss
    with pytest.raises(CodeError, match="degree") as info:
        assign_1m(hub)
    assert not isinstance(info.value, NotApplicable)


def test_assign_1m_rejects_non_minimal():
    loose = build_instance(
        [
            ("s1", "a"),
            ("a", "t1"),
            ("s2", "b"),
            ("b", "t2"),
            ("s2", "c"),
            ("c", "t2"),
            ("a", "b"),   # removable
        ],
        [("s1", "t1"), ("s2", "t2")],
    )
    with pytest.raises(CodeError, match="minimal") as info:
        assign_1m(loose)
    assert not isinstance(info.value, NotApplicable)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(seed=st.integers(0, 10**9), m=st.integers(1, 3))
def test_assign_1m_random(seed: int, m: int):
    inst = sample_1m(seed, m)
    assert connectivity_level(inst) == (1, m + 1)
    code = assign_1m(inst)
    assert verify_code(inst, code).all_pass


@settings(deadline=None, max_examples=60, derandomize=True)
@given(seed=st.integers(0, 10**9), m=st.integers(1, 3))
def test_sampled_1m_minimal_structured_single_overlaps(seed: int, m: int):
    inst = sample_1m(seed, m)
    assert internal_degree_ok(inst)
    assert minimize(inst)[1] == tuple(range(inst.n_edges))
    p1 = edge_disjoint_paths(inst, 0, 1)[0]
    for path in edge_disjoint_paths(inst, 1, m + 1):
        assert len(overlap_segments(p1, path)) <= 1


# ------------------------------------------------------------ route_uniform

def test_route_uniform_single_path():
    inst = build_instance([("s", "a"), ("a", "t")], [("s", "t")])
    code = route_uniform(inst)
    assert code.T == 1
    vecs = _vectors(inst, code)
    assert vecs == ((1,), (1,))
    assert verify_code(inst, code).all_pass


def test_route_uniform_two_sessions_exact():
    inst = build_instance(
        [
            ("s1", "a"),   # 0
            ("a", "t1"),   # 1
            ("s1", "b"),   # 2
            ("b", "t1"),   # 3
            ("s2", "c"),   # 4
            ("c", "t2"),   # 5
            ("s2", "d"),   # 6
            ("d", "t2"),   # 7
        ],
        [("s1", "t1"), ("s2", "t2")],
    )
    code = route_uniform(inst)
    assert code.T == 2
    vecs = _vectors(inst, code)
    unit = {0: (1, 0, 0, 0), 1: (0, 1, 0, 0), 2: (0, 0, 1, 0), 3: (0, 0, 0, 1)}
    expected = {0: 0, 2: 0, 4: 1, 6: 1, 9: 2, 11: 2, 13: 3, 15: 3}
    for xid in range(inst.n_edges * 2):
        want = unit[expected[xid]] if xid in expected else (0, 0, 0, 0)
        assert vecs[xid] == want
    assert is_routing(vecs)
    assert verify_code(inst, code).all_pass


def test_route_uniform_sampled_333():
    inst = sample_uniform(0, 3)
    assert connectivity_level(inst) == (3, 3, 3)
    code = route_uniform(inst)
    assert code.T == 3
    assert is_routing(_vectors(inst, code))
    assert verify_code(inst, code).all_pass


def test_route_uniform_rejects_nonuniform():
    with pytest.raises(NotApplicable, match="uniform"):
        route_uniform(DISJOINT_12)


def test_route_uniform_rejects_nonunit_rate():
    inst = build_instance(
        [("s1", "a"), ("a", "t1"), ("s1", "b"), ("b", "t1")],
        [("s1", "t1", 2)],
    )
    with pytest.raises(NotApplicable, match="rate"):
        route_uniform(inst)


def test_route_uniform_rejects_too_many_sessions():
    inst = build_instance(
        [("s1", "a"), ("a", "t1"), ("s2", "b"), ("b", "t2")],
        [("s1", "t1"), ("s2", "t2")],
    )
    with pytest.raises(NotApplicable, match="sessions"):
        route_uniform(inst)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 10**9), n=st.integers(1, 3))
def test_route_uniform_random(seed: int, n: int):
    inst = sample_uniform(seed, n)
    assert connectivity_level(inst) == (n,) * n
    code = route_uniform(inst)
    vecs = _vectors(inst, code)
    assert is_routing(vecs)
    assert verify_code(inst, code).all_pass


# --------------------------------------------------------------- assign_133

def _three_disjoint():
    edges = [("s1", "a0"), ("a0", "t1")]
    for i in range(3):
        edges += [("s2", f"b{i}"), (f"b{i}", "t2")]
    for i in range(3):
        edges += [("s3", f"c{i}"), (f"c{i}", "t3")]
    return build_instance(
        edges, [("s1", "t1"), ("s2", "t2"), ("s3", "t3")]
    )


def _chain_m2_triple():
    edges = [(CHAIN_M2.names[u], CHAIN_M2.names[v]) for u, v in CHAIN_M2.edges]
    for i in range(3):
        edges += [("s3", f"c{i}"), (f"c{i}", "t3")]
    return build_instance(
        edges, [("s1", "t1"), ("s2", "t2"), ("s3", "t3")]
    )


def _layer_parity_ok(code) -> bool:
    # each rule may only cite in-edge copies from its own layer
    for xid, rule in enumerate(code.rules):
        for j, _ in rule.in_coeffs:
            if j % 2 != xid % 2:
                return False
    return True


def test_assign_133_disjoint():
    inst = _three_disjoint()
    assert connectivity_level(inst) == (1, 3, 3)
    code = assign_133(inst)
    assert code.T == 2
    assert verify_code(inst, code).all_pass
    assert _layer_parity_ok(code)


def test_assign_133_chain():
    inst = _chain_m2_triple()
    assert connectivity_level(inst) == (1, 3, 3)
    code = assign_133(inst)
    assert verify_code(inst, code).all_pass
    assert _layer_parity_ok(code)


def test_assign_133_gf3():
    inst = _chain_m2_triple()
    code = assign_133(inst, q=3)
    assert code.q == 3
    assert verify_code(inst, code).all_pass


def test_assign_133_exceeding_levels():
    # (2, 3, 3) still admits the construction on a capped subnetwork
    base = _three_disjoint()
    edges = [(base.names[u], base.names[v]) for u, v in base.edges]
    edges += [("s1", "a1"), ("a1", "t1")]
    inst = build_instance(edges, [("s1", "t1"), ("s2", "t2"), ("s3", "t3")])
    assert connectivity_level(inst) == (2, 3, 3)
    code = assign_133(inst)
    assert verify_code(inst, code).all_pass


def test_assign_133_permuted_sessions():
    base = _chain_m2_triple()
    s = base.sessions
    inst = base.with_sessions((s[1], s[0], s[2]))
    assert connectivity_level(inst) == (3, 1, 3)
    code = assign_133(inst)
    assert verify_code(inst, code).all_pass


def test_assign_133_uniform_333_input():
    inst = sample_uniform(5, 3)
    assert connectivity_level(inst) == (3, 3, 3)
    code = assign_133(inst)
    assert verify_code(inst, code).all_pass


def test_assign_133_rejects_low_levels():
    inst = sample_triple(1, (1, 2, 3))
    with pytest.raises(NotApplicable, match="below"):
        assign_133(inst)


def test_assign_133_rejects_two_sessions():
    with pytest.raises(NotApplicable, match="three"):
        assign_133(CHAIN_M1)


def test_assign_133_rejects_nonunit_rates():
    inst = _chain_m2_triple()
    s = inst.sessions
    bad = inst.with_sessions((s[0], Session(s[1].source, s[1].terminal, 2), s[2]))
    with pytest.raises(NotApplicable, match="rate"):
        assign_133(bad)


FEASIBLE_TRIPLES = [
    (1, 3, 3), (3, 1, 3), (3, 3, 1),
    (2, 3, 3), (3, 2, 3),
    (1, 3, 4), (4, 3, 3),
]


@settings(deadline=None, max_examples=50, derandomize=True)
@given(
    seed=st.integers(0, 10**9),
    triple=st.sampled_from(FEASIBLE_TRIPLES),
)
def test_assign_133_random(seed: int, triple):
    inst = sample_triple(seed, triple)
    assert connectivity_level(inst) == triple
    code = assign_133(inst)
    assert verify_code(inst, code).all_pass
    assert _layer_parity_ok(code)


# sorted triple -> edge count of the `construct` benchmark's sampled slots
BENCH_TRIPLE_EDGES = {
    (1, 3, 3): 50,
    (2, 3, 3): 67,
    (1, 3, 4): 62,
    (2, 3, 4): 82,
    (1, 4, 4): 76,
    (3, 3, 4): 101,
}


def _bench_instances():
    """The 18 sampled instances of the `construct` benchmark: each triple
    three times, in rotating session order, within two edges of its count."""
    for k in range(3):
        for t, (triple, target) in enumerate(BENCH_TRIPLE_EDGES.items()):
            slot = k * len(BENCH_TRIPLE_EDGES) + t
            orders = sorted(set(permutations(triple)))
            j = 1000 * slot
            while abs((inst := sample_triple(j, orders[slot % len(orders)])).n_edges - target) > 2:
                j += 1
            yield inst


SAMPLED_ORDERS = sorted({o for t in BENCH_TRIPLE_EDGES for o in permutations(t)})


@pytest.mark.parametrize("q", [2, 3])
def test_assign_133_matches_the_stage_by_stage_reference_on_the_benchmark(q):
    for inst in _bench_instances():
        assert serialize_code(assign_133(inst, q)) == serialize_code(
            construct_oracle.assign_133(inst, q)
        )


@pytest.mark.parametrize("order", SAMPLED_ORDERS)
def test_assign_133_matches_the_stage_by_stage_reference_on_samples(order):
    for seed, q in ((0, 2), (1, 3), (2, 2), (3, 3)):
        inst = sample_triple(seed, order)
        assert serialize_code(assign_133(inst, q)) == serialize_code(
            construct_oracle.assign_133(inst, q)
        )


def test_assign_133_plans_layers_that_meet_assign_1m_preconditions(monkeypatch):
    layers = []
    real = constructors._plan_1m

    def recorded(instance, q):
        layers.append(instance)
        return real(instance, q)

    monkeypatch.setattr(constructors, "_plan_1m", recorded)
    for inst in _bench_instances():
        assign_133(inst)
    assert len(layers) == 2 * 18
    # assign_1m's checks, which _plan_1m no longer repeats
    for layer in layers:
        assert len(layer.sessions) == 2 and layer.sessions[0].rate == 1
        m = layer.sessions[1].rate
        assert connectivity_level(layer) == (1, m + 1)
        assert internal_degree_ok(layer)
        assert minimize(layer)[1] == tuple(range(layer.n_edges))


def test_assign_133_minimizes_as_the_path_cancelling_reference(monkeypatch):
    layers = []

    def checked(instance):
        result = minimize(instance)
        assert result == minimize_reference(instance)
        layers.append(instance)
        return result

    monkeypatch.setattr(constructors, "minimize", checked)
    for inst in _bench_instances():
        assign_133(inst)
    assert len(layers) == 4 * 18


def test_assign_133_runs_one_separate_max_flow(monkeypatch):
    inst = sample_triple(3, (1, 3, 3))
    calls = []

    def counted(instance):
        calls.append(instance)
        return connectivity_level(instance)

    # every module's binding, so no call escapes the count
    for module in [m for k, m in sys.modules.items() if k.startswith("netcode_unicast.")]:
        if hasattr(module, "connectivity_level"):
            monkeypatch.setattr(module, "connectivity_level", counted)
    # minimize reads each max-flow off its own pruning flows
    minimize(inst)
    assert calls == []
    assign_133(inst)
    assert calls == [inst]


def test_assign_133_realizes_and_verifies_once(monkeypatch):
    inst = sample_triple(3, (1, 3, 3))
    calls = {"code_from_plan": 0, "verify_code": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    # transform's bindings count the calls a stage-by-stage lift would make
    for module, name in (
        (constructors, "code_from_plan"),
        (transform, "code_from_plan"),
        (constructors, "verify_code"),
        (transform, "verify_code"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    expansions = record_expansions(monkeypatch)
    code = assign_133(inst)
    assert calls == {"code_from_plan": 1, "verify_code": 1}
    # the verify reads the expansion the realization kept on the instance
    assert len(expansions) == 1
    assert verify_code(inst, code).all_pass


def test_constructors_and_the_cut_check_share_one_max_flow_per_session(monkeypatch):
    inst = sample_triple(3, (1, 3, 3))
    sessions = []
    real = flows.max_flow
    monkeypatch.setattr(flows, "max_flow", lambda x, k: sessions.append(k) or real(x, k))
    with pytest.raises(NotApplicable):
        route_uniform(inst)
    assign_133(inst)
    assert cutset_infeasible(inst) is None
    # the connectivity vector is kept on the instance from the first call
    assert sessions == [0, 1, 2]


# ------------------------------------------------------------------ samplers

def test_samplers_deterministic():
    assert sample_1m(7, 2) == sample_1m(7, 2)
    assert sample_uniform(7, 2) == sample_uniform(7, 2)
    assert sample_triple(7, (1, 3, 3)) == sample_triple(7, (1, 3, 3))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 10**9))
def test_sample_triple_connectivity(seed: int):
    inst = sample_triple(seed, (2, 3, 2))
    assert connectivity_level(inst) == (2, 3, 2)


def test_sampler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_1m(0, 0)
    with pytest.raises(ValueError):
        sample_uniform(0, 0)
    with pytest.raises(ValueError):
        sample_triple(0, (1, 2))
