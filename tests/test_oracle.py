"""Triple classification, canonical generators, exhaustive search engine."""

import gc
import inspect
from itertools import permutations, product

import pytest

from netcode_unicast.flows import (
    connectivity_level,
    cutset_infeasible,
    cutset_infeasible_exhaustive,
)
from netcode_unicast.gf import PrimeField
from netcode_unicast.graph import build_instance
from netcode_unicast.netcode import (
    LocalRule,
    NetworkCode,
    is_routing,
    propagate,
    verify_code,
)
from netcode_unicast.oracle import (
    SearchReport,
    Verdict,
    brute_force_routing,
    brute_force_scalar,
    classify_triple,
    gen_113,
    gen_222,
    gen_232,
    gen_23_rate21,
    gen_fig1,
)

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

ALL_TRIPLES = list(product((1, 2, 3), repeat=3))
FEASIBLE_SORTED = {(1, 3, 3), (2, 3, 3), (3, 3, 3)}


# ------------------------------------------------------------ classification

def test_classification_table():
    feasible = [k for k in ALL_TRIPLES if classify_triple(k).feasible]
    assert sorted(feasible) == sorted(
        k for k in ALL_TRIPLES if tuple(sorted(k)) in FEASIBLE_SORTED
    )
    assert len(feasible) == 7


def test_classification_strategies():
    assert classify_triple((3, 3, 3)).strategy == "routing"
    assert classify_triple((1, 3, 3)).strategy == "vector-T2"
    assert classify_triple((3, 2, 3)).strategy == "vector-T2"
    assert classify_triple((2, 2, 2)).strategy is None


def test_classification_witnesses():
    assert classify_triple((2, 2, 2)).witness == "gen_222"
    assert classify_triple((1, 1, 3)).witness == "gen_113"
    assert classify_triple((3, 1, 1)).witness == "gen_113"
    assert classify_triple((3, 2, 2)).witness == "gen_232"
    assert classify_triple((1, 2, 3)).witness == "characterization-only"
    assert classify_triple((1, 3, 3)).witness is None


def test_classification_permutation_field():
    v = classify_triple((3, 2, 2))
    assert v.triple == (2, 2, 3)
    assert v.permutation == (1, 2, 0)
    assert tuple((3, 2, 2)[i] for i in v.permutation) == v.triple


def test_classification_permutation_invariant():
    for k in ALL_TRIPLES:
        base = classify_triple(k)
        for p in permutations(range(3)):
            other = classify_triple(tuple(k[i] for i in p))
            assert other.feasible == base.feasible
            assert other.strategy == base.strategy
            assert other.witness == base.witness
            assert other.triple == base.triple


def test_classification_dominance_monotone():
    for k in ALL_TRIPLES:
        if not classify_triple(k).feasible:
            continue
        for k2 in ALL_TRIPLES:
            if all(a <= b for a, b in zip(k, k2)):
                assert classify_triple(k2).feasible


@pytest.mark.parametrize("bad", [(0, 1, 2), (1, 2, 4), (1, 2), (1, 2, 3, 1)])
def test_classification_rejects_bad_triples(bad):
    with pytest.raises(ValueError):
        classify_triple(bad)


# ---------------------------------------------------------------- generators

def test_generator_connectivity():
    assert connectivity_level(gen_222()) == (2, 2, 2)
    assert connectivity_level(gen_113()) == (1, 1, 3)
    assert connectivity_level(gen_23_rate21()) == (2, 3)
    assert connectivity_level(gen_232()) == (2, 3, 2)
    assert connectivity_level(gen_fig1()) == (2, 2)


def test_gen_222_cut_witness():
    inst = gen_222()
    w = cutset_infeasible(inst)
    assert w is not None
    assert w.capacity == 2 and w.required_rate == 3
    assert set(w.nodes) == {inst.node_id(n) for n in ("s1", "s2", "s3", "v1", "v2")}
    w.validate(inst)


def test_gen_113_cut_witness():
    inst = gen_113()
    w = cutset_infeasible(inst)
    assert w is not None
    assert w.capacity == 1 and w.required_rate == 2
    assert set(w.nodes) == {inst.node_id(n) for n in ("s1", "s2", "v1")}
    w.validate(inst)


def test_gen_23_rate21_no_cut_witness():
    # infeasible, yet every cut is satisfied: cut bounds alone cannot tell
    assert cutset_infeasible(gen_23_rate21()) is None
    assert cutset_infeasible_exhaustive(gen_23_rate21()) is None


def test_gen_232_collocated_split():
    base = gen_23_rate21()
    inst = gen_232()
    assert inst.edges == base.edges and inst.names == base.names
    assert [s.rate for s in inst.sessions] == [1, 1, 1]
    assert inst.sessions[0].source == inst.sessions[2].source
    assert inst.sessions[0].terminal == inst.sessions[2].terminal


def test_gen_fig1_rates():
    inst = gen_fig1()
    assert [s.rate for s in inst.sessions] == [1, 1]


# -------------------------------------------------------------- brute force

def _naive_first_scalar(instance, q):
    """Reference: plain nested-loop enumeration, no memo, no pruning."""
    F = PrimeField(q)
    order = instance.edges_in_topo_order()
    widths = []
    for eid in order:
        tail = instance.tail(eid)
        widths.append(
            (eid, instance.in_edges[tail], instance.observed_symbols(tail))
        )
    for assignment in product(
        *(product(range(q), repeat=len(ins) + len(srcs)) for _, ins, srcs in widths)
    ):
        rules = [None] * instance.n_edges
        for (eid, ins, srcs), block in zip(widths, assignment):
            rules[eid] = LocalRule(
                in_coeffs=tuple(
                    (e, c) for e, c in zip(ins, block) if c
                ),
                src_coeffs=tuple(
                    (s, c) for s, c in zip(srcs, block[len(ins):]) if c
                ),
            )
        code = NetworkCode(q=q, T=1, rules=tuple(rules))
        if verify_code(instance, code).all_pass:
            return code
    return None


def test_scalar_search_is_lexicographically_first():
    got = brute_force_scalar(BUTTERFLY, 2)
    want = _naive_first_scalar(BUTTERFLY, 2)
    assert got.code is not None and want is not None
    assert got.code == want


def test_scalar_search_single_edge():
    inst = build_instance([("s", "t")], [("s", "t")])
    rep = brute_force_scalar(inst, 2)
    assert rep.code is not None
    assert rep.enumerated == 2
    assert not rep.exhausted
    assert verify_code(inst, rep.code).all_pass


def test_scalar_search_exhausts_within_block_count():
    rep = brute_force_scalar(gen_113(), 2)
    assert rep.exhausted and rep.code is None
    # memoized exploration can never exceed the raw assignment count
    assert 1 <= rep.enumerated <= 2**9


def test_scalar_search_gf3_exhausts():
    rep = brute_force_scalar(gen_113(), 3)
    assert rep.exhausted and rep.code is None


def test_scalar_search_fig2a():
    rep = brute_force_scalar(gen_222(), 2)
    assert rep.exhausted and rep.code is None


def test_scalar_search_fig3_gf2():
    rep = brute_force_scalar(gen_23_rate21(), 2)
    assert rep.exhausted and rep.code is None


def test_routing_search_butterfly_has_none():
    rep = brute_force_routing(BUTTERFLY, 1)
    assert rep.exhausted and rep.code is None


def test_routing_search_disjoint_paths():
    inst = build_instance(
        [("s1", "a"), ("a", "t1"), ("s2", "b"), ("b", "t2")],
        [("s1", "t1"), ("s2", "t2")],
    )
    rep = brute_force_routing(inst, 1)
    assert rep.code is not None
    assert is_routing(propagate(inst, rep.code))
    assert verify_code(inst, rep.code).all_pass


def test_fig1_triple_property():
    inst = gen_fig1()
    assert brute_force_routing(inst, 1).code is None
    assert brute_force_routing(inst, 1).exhausted
    found = brute_force_scalar(inst, 2)
    assert found.code is not None and found.code.T == 1
    vec_route = brute_force_routing(inst, 2)
    assert vec_route.code is not None and vec_route.code.T == 2
    assert is_routing(propagate(inst, vec_route.code))


def test_search_budget_abort():
    rep = brute_force_scalar(BUTTERFLY, 2, budget=10)
    assert rep.code is None and not rep.exhausted
    assert rep.enumerated == 11


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        brute_force_scalar(BUTTERFLY, 4)
    with pytest.raises(ValueError):
        brute_force_scalar(BUTTERFLY, 2, budget=0)
    with pytest.raises(ValueError):
        brute_force_scalar(BUTTERFLY, 2, jobs=0)


def test_search_report_summary_format():
    rep = SearchReport(q=2, T=1, enumerated=42, exhausted=True, code=None)
    assert rep.summary() == "field=2 T=1 enumerated=42 exhausted=true code=none"
    found = brute_force_scalar(BUTTERFLY, 2)
    assert found.summary("bf.code").endswith("exhausted=false code=bf.code")


def test_search_consistent_with_constructors():
    # wherever the closed-form assignment works, search must find some code
    from netcode_unicast.constructors import assign_1m

    chain = build_instance(
        [
            ("s1", "a"),
            ("s2", "a"),
            ("a", "c"),
            ("c", "t2"),
            ("c", "d"),
            ("s2", "b"),
            ("b", "d"),
            ("d", "e"),
            ("e", "t2"),
            ("e", "t1"),
        ],
        [("s1", "t1"), ("s2", "t2")],
    )
    assert verify_code(chain, assign_1m(chain)).all_pass
    rep = brute_force_scalar(chain, 2)
    assert rep.code is not None
    assert verify_code(chain, rep.code).all_pass


def test_search_state_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = brute_force_scalar(gen_232(), 2)
        gc.collect()
        leftover = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert report.exhausted and report.code is None
    assert not [o for o in leftover if inspect.isfunction(o) and o.__name__ == "dfs"]
    assert not [o for o in leftover if isinstance(o, set)]
