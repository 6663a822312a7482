"""Triple classification, canonical generators, exhaustive search engine."""

import gc
import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from cut_oracle import cutset_infeasible_exhaustive
from search_oracle import _search as reference_search

from netcode_unicast.flows import connectivity_level, cutset_infeasible
from netcode_unicast.gf import Vectors
from netcode_unicast.graph import build_instance, parse_instance
from netcode_unicast.netcode import (
    LocalRule,
    NetworkCode,
    is_routing,
    propagate,
    verify_code,
)
from netcode_unicast import oracle
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
from netcode_unicast.sampling import sample_1m, sample_triple, sample_uniform

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


def test_each_witness_generator_has_its_triple():
    for triple, gen in oracle.WITNESSES.items():
        assert classify_triple(triple).witness == gen.__name__
        assert tuple(sorted(connectivity_level(gen()))) == triple


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


@pytest.mark.parametrize("bad", [(0, 1, 2), (1, 2, 4), (1, 2), (1, 2, 3, 1), (1.5, 3, 3)])
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
    assert set(w.nodes) == {inst.names.index(n) for n in ("s1", "s2", "s3", "v1", "v2")}
    w.validate(inst)


def test_gen_113_cut_witness():
    inst = gen_113()
    w = cutset_infeasible(inst)
    assert w is not None
    assert w.capacity == 1 and w.required_rate == 2
    assert set(w.nodes) == {inst.names.index(n) for n in ("s1", "s2", "v1")}
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
    with pytest.raises(ValueError, match="at most 65537, got 65539"):
        brute_force_scalar(BUTTERFLY, 65539)  # prime, one past the bound


def test_search_report_summary_format():
    rep = SearchReport(q=2, T=1, enumerated=42, exhausted=True, code=None)
    assert rep.summary() == "field=2 T=1 enumerated=42 exhausted=true code=none"
    found = brute_force_scalar(BUTTERFLY, 2)
    assert found.summary("bf.code").endswith("exhausted=false code=bf.code")
    assert found.summary().endswith("exhausted=false code=found")


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
    searches = [
        (lambda: brute_force_scalar(gen_232(), 2), True),
        (lambda: brute_force_scalar(gen_fig1(), 3), False),
        (lambda: brute_force_routing(gen_fig1(), 2), False),
    ]
    for search, proves in searches:
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report = search()
            gc.collect()
            leftover = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert report.exhausted is proves and (report.code is None) is proves
        # any reference cycle the search leaves behind is saved here
        assert leftover == []


# ------------------------------------------------ against the reference search

# a reference search this long is still cheap enough to rerun without the
# budget when only the fast search finished under it
AFFORDABLE = 1_000_000


def _finished(report):
    return report.exhausted or report.code is not None


def _same_as_reference(
    instance, q, T=1, budget=oracle.DEFAULT_BUDGET, routing=False, rerun=True
):
    got = oracle._search(instance, q, T, budget, routing)
    want = reference_search(instance, q, T, budget, routing)
    # in both modes the span key and the lookahead prune only subtrees that
    # fail: the same outcome in no more blocks, and a reference cut at
    # budget + 1 blocks bounds the search
    assert got.enumerated <= want.enumerated
    if rerun and _finished(got) and not _finished(want) and budget < AFFORDABLE:
        want = reference_search(instance, q, T, AFFORDABLE, routing)
    if _finished(want):
        assert (got.exhausted, got.code) == (want.exhausted, want.code)
    return got


def _found_past_the_reference(instance, q, T=1):
    # where the reference does not finish at AFFORDABLE either, its rerun is
    # skipped and the fast search's code is verified instead
    got = _same_as_reference(instance, q, T, budget=12_000, rerun=False)
    assert got.code is not None and verify_code(instance, got.code).all_pass


# the search-prove and search-find benchmark searches
BENCHMARK_SEARCHES = (
    [pytest.param(gen, q, 1, False, id=f"{gen.__name__}-q{q}") for gen in (gen_222, gen_113) for q in (2, 3)]
    + [
        pytest.param(gen_23_rate21, 2, 1, False, id="gen_23_rate21-q2"),
        pytest.param(gen_232, 2, 1, False, id="gen_232-q2"),
        pytest.param(gen_fig1, 2, 1, True, id="gen_fig1-routing"),
    ]
    + [pytest.param(gen_fig1, q, 1, False, id=f"gen_fig1-q{q}") for q in (2, 3, 5)]
    + [pytest.param(lambda: sample_1m(1, 1), 2, 2, True, id="sample_1m-m1-1-routing-T2")]
    + [
        pytest.param(lambda j=j, m=m: sample_1m(j, m), q, 1, False, id=f"sample_1m-m{m}-{j}-q{q}")
        for m, seeds in ((1, range(12)), (2, range(4)))
        for j in seeds
        for q in (2, 3)
    ]
)


@pytest.mark.parametrize("gen, q, T, routing", BENCHMARK_SEARCHES)
def test_benchmark_searches_match_the_reference(gen, q, T, routing):
    _same_as_reference(gen(), q, T, routing=routing)


# (j, m, q, T) where the reference does not finish at AFFORDABLE: each rerun
# stopped at 1,000,001 blocks, while the fast search found a code in 131,
# 187, 10,076, 99 and 149 blocks
SAMPLED_UNFINISHED = {(20, 2, 3, 2), (20, 2, 5, 2), (24, 2, 2, 2), (27, 2, 3, 2), (27, 2, 5, 2)}


@pytest.mark.parametrize("j", (20, 24, 27))
@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("q", (2, 3, 5))
@pytest.mark.parametrize("T", (1, 2))
def test_sampled_searches_match_the_reference(j, m, q, T):
    # the budget cuts the slowest of these off; the cut must fall identically
    if (j, m, q, T) in SAMPLED_UNFINISHED:
        _found_past_the_reference(sample_1m(j, m), q, T)
    else:
        _same_as_reference(sample_1m(j, m), q, T, budget=12_000)


@pytest.mark.parametrize("j", range(30, 40))
@pytest.mark.parametrize("m, q", [(1, 2), (1, 3), (1, 5), (2, 2)])
def test_more_sampled_searches_match_the_reference(j, m, q):
    _same_as_reference(sample_1m(j, m), q, budget=12_000)


@pytest.mark.parametrize("budget", (1, 2, 3, 10))
@pytest.mark.parametrize(
    "instance, q, routing",
    [(BUTTERFLY, 2, False), (gen_222(), 3, False), (gen_fig1(), 2, True), (gen_fig1(), 65537, False)],
    ids=["butterfly-q2", "fig2a-q3", "fig1-routing", "fig1-q65537"],
)
def test_small_budgets_match_the_reference(instance, q, routing, budget):
    report = _same_as_reference(instance, q, budget=budget, routing=routing)
    assert report.enumerated <= budget + 1


@pytest.mark.parametrize("T", (1, 2))
def test_routing_over_a_node_with_nothing_to_forward_matches_the_reference(T):
    # x has no in-edge and observes no symbol, so its edges have no generator
    inst = build_instance(
        [("s1", "t1"), ("x", "t1"), ("x", "y"), ("y", "t1"), ("s1", "y")],
        [("s1", "t1")],
    )
    _same_as_reference(inst, 2, T, routing=True)


def test_span_key_pins_the_rate_21_proof_at_q3():
    # 1,384,362 blocks under the exact key, 77,985 under the span key alone,
    # 15,687 with the lookahead over every code and 1,040 over normal codes;
    # a looser memo, a weaker lookahead or a looser normal form would show here
    report = brute_force_scalar(gen_23_rate21(), 3)
    assert (report.enumerated, report.exhausted, report.code) == (1_040, True, None)


# the exact counts on the other benchmark searches, over normal codes; fig2b
# at q=2 and fig1 at q=2 are pinned through the command line in test_cli.py.
# Over every code the lookahead took 1,953, 15, 2,028, 2,028, 76 and 140
# blocks on the six searches that normal forms shortened
@pytest.mark.parametrize(
    "gen, q, blocks",
    [
        (gen_222, 2, 454),
        (gen_222, 3, 1_030),
        (gen_113, 3, 9),
        (gen_23_rate21, 2, 415),
        (gen_232, 2, 415),
        (gen_fig1, 2, 53),
        (gen_fig1, 3, 56),
        (gen_fig1, 5, 62),
    ],
)
def test_lookahead_pins_the_benchmark_searches(gen, q, blocks):
    assert brute_force_scalar(gen(), q).enumerated == blocks


def test_memo_size_counts_the_failed_states_held_at_return():
    # the lookahead's cut keys are held with the failed ones
    for report, held in [
        (brute_force_scalar(gen_222(), 2), 207),
        (brute_force_scalar(gen_fig1(), 2), 33),
        (brute_force_scalar(gen_222(), 3, budget=100), 43),
        (brute_force_routing(gen_fig1(), 1), 95),
    ]:
        assert report.memo_size == held and report.memo_size >= report.pruned
    # no state is held when a terminal without in-edges settles the search
    corner = LOOKAHEAD_CORNERS["terminal-without-in-edges"]
    assert brute_force_scalar(corner, 2).memo_size == 0


def test_pruned_counts_the_states_the_lookahead_cuts():
    assert brute_force_scalar(gen_222(), 2).pruned > 0
    # routing runs the same lookahead
    report = brute_force_routing(gen_fig1(), 1)
    assert report.exhausted and report.pruned > 0


# routing's exact counts under the span key and the lookahead.  The exact
# vector key without a lookahead took 578, 61,752 and 1,868,832 blocks on
# fig1 at T=1, sample_1m(1, 1) at T=2 and fig1 at T=2, and did not finish
# the four proofs at T=2 within a million blocks
@pytest.mark.parametrize(
    "make, T, blocks, found",
    [
        (gen_fig1, 1, 129, False),
        (gen_222, 1, 214, False),
        (lambda: sample_1m(1, 1), 2, 104, True),
        (gen_fig1, 2, 2_019, True),
        (gen_222, 2, 39_704, False),
        (gen_113, 2, 54, False),
        (gen_23_rate21, 2, 28_682, False),
        (gen_232, 2, 28_682, False),
    ],
    ids=["fig1-T1", "fig2a-T1", "sample_1m-m1-1-T2", "fig1-T2", "fig2a-T2", "fig2b-T2", "fig3-T2",
         "cor232-T2"],
)
def test_routing_counts_are_pinned(make, T, blocks, found):
    report = brute_force_routing(make(), T)
    assert report.enumerated == blocks
    assert (report.exhausted, report.code is not None) == (not found, found)


@pytest.mark.parametrize(
    "make, T",
    [(lambda j=j: sample_1m(j, 1), T) for j in range(8) for T in (1, 2)]
    + [(lambda j=j: sample_uniform(j, 2), 2) for j in range(4)],
    ids=[f"sample_1m-m1-{j}-T{T}" for j in range(8) for T in (1, 2)]
    + [f"sample_uniform-n2-{j}-T2" for j in range(4)],
)
def test_sampled_routing_searches_match_the_reference(make, T):
    _same_as_reference(make(), 2, T, budget=12_000, routing=True)


BELOW_133 = [t for t in combinations_with_replacement((1, 2, 3), 3) if t[1] < 3 or t[2] < 3]


# (triple, j, q) where the reference does not finish at AFFORDABLE either:
# each rerun stopped at 1,000,001 blocks, while the fast search found a code
# in 364, 114 and 362 blocks
REFERENCE_UNFINISHED = {((2, 2, 2), 1, 3), ((2, 2, 3), 1, 3), ((2, 2, 3), 3, 3)}


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("j", range(4))
@pytest.mark.parametrize("triple", BELOW_133, ids=lambda t: "".join(map(str, t)))
def test_sampled_triples_match_the_reference(triple, j, q):
    instance = sample_triple(j, triple)
    if (triple, j, q) in REFERENCE_UNFINISHED:
        _found_past_the_reference(instance, q)
    else:
        _same_as_reference(instance, q, budget=12_000)


LOOKAHEAD_CORNERS = {
    # t1 forwards to t2 after its last in-edge
    "terminal-relays": build_instance(
        [("s1", "a"), ("s2", "a"), ("a", "t1"), ("s2", "t1"), ("s1", "t1"), ("t1", "t2"),
         ("s1", "t2"), ("a", "t2")],
        [("s1", "t1"), ("s2", "t2")],
    ),
    "terminal-without-in-edges": build_instance(
        [("s1", "t1"), ("s2", "a"), ("t2", "a")], [("s1", "t1"), ("s2", "t2")]
    ),
    # once s2 has fired its last out-edge, only x, which holds nothing,
    # still feeds the pending t1
    "terminal-fed-by-an-empty-node": build_instance(
        [("s2", "t1"), ("s1", "t2"), ("s2", "t2"), ("x", "t1")], [("s1", "t1"), ("s2", "t2")]
    ),
    # t1 decodes session 1 and is the source of session 2
    "source-is-a-terminal": build_instance(
        [("s1", "a"), ("a", "t1"), ("s1", "t1"), ("t1", "b"), ("a", "b"), ("b", "t2"),
         ("t1", "t2")],
        [("s1", "t1"), ("t1", "t2")],
    ),
    # a's two in-edges from s1 can carry the same unit, so a routing state
    # holds one unit at a on two in-edges
    "in-edges-with-the-same-unit": build_instance(
        [("s1", "a"), ("s1", "a"), ("s2", "a"), ("a", "t1"), ("a", "b"), ("s2", "b"),
         ("b", "t2"), ("b", "t1")],
        [("s1", "t1"), ("s2", "t2")],
    ),
    # x holds nothing, so a's in-edge from x carries zero
    "zero-in-edge": build_instance(
        [("x", "a"), ("s1", "a"), ("a", "t1"), ("a", "t2"), ("s2", "t2"), ("s2", "a"),
         ("x", "t1")],
        [("s1", "t1"), ("s2", "t2")],
    ),
}


@pytest.mark.parametrize(
    "q, T, routing", [(2, 1, False), (3, 1, False), (5, 1, False), (2, 1, True), (2, 2, True)]
)
@pytest.mark.parametrize("name", LOOKAHEAD_CORNERS)
def test_lookahead_corners_match_the_reference(name, q, T, routing):
    _same_as_reference(LOOKAHEAD_CORNERS[name], q, T, routing=routing)


def _random_dag(seed):
    """A DAG on v0..v{n-1}, n in {4, 5}, every edge running up the numbering,
    with two or three sessions of rate 1 or 2.  Past the first session, a
    quarter share its source and terminal, half only its source, and a
    quarter are drawn afresh.  Each session gets a path of its own and then
    one to four edges are added, so a source past v0 may have in-edges."""
    rng = random.Random(seed)
    n = rng.randint(4, 5)

    def pair(s=None):
        s = rng.randrange(n - 2) if s is None else s
        return s, rng.randrange(s + 1, n)

    s0, t0 = pair()
    sessions = [(s0, t0, rng.choice((1, 1, 2)))]
    for _ in range(rng.randint(1, 2)):
        kind = rng.random()
        s, t = (s0, t0) if kind < 0.25 else pair(s0) if kind < 0.75 else pair()
        sessions.append((s, t, rng.choice((1, 1, 2))))
    edges = []
    for s, t, _ in sessions:
        hops = [s, *sorted(rng.sample(range(s + 1, t), rng.randint(0, min(2, t - s - 1)))), t]
        edges += zip(hops, hops[1:])
    edges += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 4))]
    rng.shuffle(edges)
    return build_instance(
        [(f"v{a}", f"v{b}") for a, b in edges], [(f"v{s}", f"v{t}", r) for s, t, r in sessions]
    )


RANDOM_DAGS = range(100)


def test_random_dags_cover_every_source_group_case():
    seen = set()
    for seed in RANDOM_DAGS:
        inst = _random_dag(seed)
        for a, b in combinations(inst.sessions, 2):
            if a.source == b.source:
                seen.add("same terminal" if a.terminal == b.terminal else "other terminal")
        seen |= {"rate 2" for s in inst.sessions if s.rate == 2}
        seen |= {"source with in-edges" for s in inst.sessions if inst.in_edges[s.source]}
    assert seen == {"same terminal", "other terminal", "rate 2", "source with in-edges"}


@pytest.mark.parametrize("seed", RANDOM_DAGS)
def test_random_dags_match_the_reference(seed):
    # the source normal form groups sessions by (source, terminal): grouped
    # by source alone, the search fails 6 of these seeds, and with pivot
    # counts that never grow, 26
    instance = _random_dag(seed)
    for q, T in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
        _same_as_reference(instance, q, T, budget=1_500, rerun=False)


def test_routing_walks_are_built_once_per_generator_tuple(monkeypatch):
    calls = []
    build = oracle._routing_walk
    monkeypatch.setattr(
        oracle, "_routing_walk", lambda zero, gens: calls.append(tuple(gens)) or build(zero, gens)
    )
    # fig1 at T=64 fills MAX_SEARCH_EDGES; the budget stops the walk at once
    assert brute_force_routing(gen_fig1(), 64, budget=1).enumerated == 2
    assert len(calls) <= 2
    calls.clear()
    # 129 blocks over 10 distinct generator tuples
    brute_force_routing(gen_fig1(), 1)
    assert len(calls) == len(set(calls)) == 10


# v's out-edge combines nine in-edges: 2**9 and 3**9 linear blocks are past
# TABLE_VECTORS, so that walk is rebuilt lazily at each entry, while its ten
# routing blocks and every other walk here are built once and replayed
WIDE_NODE = parse_instance(
    "session 1 s1 t1\nsession 2 s2 t2\nedge s1 v cap=5\nedge s2 v cap=4\n"
    "edge v w\nedge w t1\nedge w t2\n"
)


@pytest.mark.parametrize(
    "q, routing, blocks", [(2, False, 544), (3, False, 9_874), (2, True, 42)],
    ids=["q2", "q3", "routing"],
)
def test_a_node_past_the_walk_bound_keeps_its_counts(q, routing, blocks):
    # the reference takes 263,176 blocks at q=2 and is not run at q=3
    if q == 2:
        report = _same_as_reference(WIDE_NODE, q, routing=routing)
    else:
        report = oracle._search(WIDE_NODE, q, 1, oracle.DEFAULT_BUDGET, routing)
    assert (report.enumerated, report.exhausted, report.code) == (blocks, True, None)


@pytest.mark.parametrize(
    "q, routing, budget",
    [
        (3, False, 5),  # the second of two normal blocks on an edge into v: cached
        (2, True, 15),  # the fifth of v -> w's ten routing blocks: cached
        (2, False, 100),  # the 90th of v -> w's 512 blocks: lazy
        (3, False, 300),  # the 290th of v -> w's 9,842 normal blocks: lazy
    ],
)
def test_a_budget_cut_mid_walk_keeps_the_count(q, routing, budget):
    report = _same_as_reference(WIDE_NODE, q, budget=budget, routing=routing)
    assert (report.enumerated, report.exhausted, report.code) == (budget + 1, False, None)


@pytest.mark.parametrize("T", (1, 2))
@pytest.mark.parametrize(
    "q, routing", [(2, False), (3, False), (5, False), (2, True)],
    ids=["q2", "q3", "q5", "routing"],
)
@pytest.mark.parametrize(
    "make", [lambda: sample_1m(0, 1), gen_113, gen_fig1], ids=["sample_1m-m1-0", "fig2b", "fig1"]
)
def test_replayed_walks_match_the_reference(make, q, T, routing):
    # the reference finishes every sample_1m(0, 1) search within the budget,
    # and fig2b and fig1 at T=1 and some at T=2; where it does not, only the
    # block count is compared
    _same_as_reference(make(), q, T, budget=12_000, routing=routing, rerun=False)


def test_normal_blocks_are_built_once_per_walk_key(monkeypatch):
    calls = []
    build = oracle._normal_blocks
    monkeypatch.setattr(
        oracle,
        "_normal_blocks",
        lambda arith, gens, spec: calls.append((tuple(gens), spec)) or build(arith, gens, spec),
    )
    # 21 distinct (generator tuple, spec) keys over 18 generator tuples
    brute_force_scalar(gen_232(), 2)
    assert len(calls) == len(set(calls)) == 21
    calls.clear()
    brute_force_scalar(WIDE_NODE, 3)
    cached = [key for key in calls if 3 ** len(key[0]) <= oracle.TABLE_VECTORS]
    assert cached and len(cached) == len(set(cached))


def _is_normal(block, spec):
    # the two rules as stated, checked on a whole block
    if any(block) and next(c for c in block if c) != 1:
        return False
    for coords, k in spec:
        r = len(coords)
        part = [block[c] for c in coords]
        pivot = [0] * r
        if k < r:
            pivot[r - k - 1] = 1
        if any(part[: r - k]) and part != pivot:
            return False
    return True


@pytest.mark.parametrize("q", (2, 3, 5))
@pytest.mark.parametrize(
    "n, spec",
    [
        (0, ()),
        (3, ()),
        (3, (((0, 1, 2), 0),)),
        (4, (((1, 2, 3), 1),)),  # an in-edge coordinate, then a group
        (4, (((0, 1), 2),)),  # every pivot seen: the first-nonzero rule alone
        (5, (((1, 3), 0), ((2, 4), 1))),  # two groups with interleaved coordinates
    ],
)
def test_normal_blocks_are_the_normal_ones_among_all_blocks(q, n, spec):
    V = Vectors(q, 3)
    gens = list(product(range(q), repeat=3))[1 : n + 1]  # nonzero vectors of GF(q)^3
    walk = list(oracle._normal_blocks(V, gens, spec))
    # in lexicographic order, exactly the normal blocks, each with its vector
    assert [block for block, _ in walk] == [
        block for block in product(range(q), repeat=n) if _is_normal(block, spec)
    ]
    assert all(v == V.combine(block, gens) for block, v in walk)


@pytest.mark.parametrize("n", (0, 1, 3))
def test_routing_blocks_pair_each_block_with_its_vector(n):
    gens = [f"g{j}" for j in range(n)]
    walk = oracle._routing_walk("zero", gens)
    blocks = [block for block, _ in walk]
    assert blocks == sorted(set(blocks)) and len(blocks) == n + 1
    for block, v in walk:
        chosen = [g for c, g in zip(block, gens, strict=True) if c]
        assert v == (chosen[0] if chosen else "zero") and len(chosen) <= 1


@pytest.mark.parametrize(
    "m, q, T, kind",
    [
        (1, 7, 1, oracle._Tables),  # 7**2 = 49 vectors
        (2, 7, 1, Vectors),  # 7**3 = 343
        (1, 13, 1, oracle._Tables),  # 13**2 = 169
        (1, 17, 1, Vectors),  # 17**2 = 289
        (1, 3, 2, oracle._Tables),  # 3**4 = 81
        (2, 3, 2, Vectors),  # 3**6 = 729
    ],
)
def test_table_and_tuple_arithmetic_match_the_reference(m, q, T, kind):
    instance = sample_1m(20, m)
    assert type(oracle._arithmetic(q, instance.n_symbols * T)) is kind
    if (20, m, q, T) in SAMPLED_UNFINISHED:
        _found_past_the_reference(instance, q, T)
    else:
        _same_as_reference(instance, q, T, budget=12_000)


def test_arithmetic_is_chosen_from_the_vector_count():
    assert type(oracle._arithmetic(2, 40)) is oracle._Xor
    assert type(oracle._arithmetic(3, 5)) is oracle._Tables  # 243 vectors
    assert type(oracle._arithmetic(3, 6)) is Vectors  # 729
    assert type(oracle._arithmetic(257, 1)) is Vectors
    assert type(oracle._arithmetic(65537, 10**6)) is Vectors


@pytest.mark.parametrize("q, n_symbols", [(3, 1), (3, 2), (5, 2), (3, 5)])
def test_tables_hold_field_sums_and_multiples(q, n_symbols):
    tables = oracle._Tables(q, n_symbols)
    V = Vectors(q, n_symbols)

    def digits(v):
        return tuple(v // q**k % q for k in range(n_symbols))

    size = q**n_symbols
    for a in range(size):
        for b in range(size):
            assert digits(tables.add[a][b]) == V.add(digits(a), digits(b))
        for c in range(q):
            assert digits(tables.mul[a][c]) == V.combine((c,), (digits(a),))


@pytest.mark.parametrize(
    "q, n_symbols, tuples",
    [(2, 1, False), (2, 2, False), (2, 3, False), (3, 1, False), (3, 2, False), (5, 2, False),
     (2, 3, True), (3, 2, True)],
)
def test_span_ids_are_equal_exactly_when_the_spans_are(q, n_symbols, tuples):
    V = Vectors(q, n_symbols)
    arith = V if tuples else oracle._arithmetic(q, n_symbols)
    rows, joins = oracle._span_rows(arith)

    def packed(v):
        # bit or base-q digit k holds coordinate k
        return v if tuples else sum(d * q**k for k, d in enumerate(v))

    vectors = list(product(range(q), repeat=n_symbols))
    ids_of = {}
    for n in range(n_symbols + 1):
        for gens in product(vectors, repeat=n):
            sid = 0
            for v in gens:
                sid = rows[sid][packed(v)]
            span = frozenset(
                V.combine(c, gens) for c in product(range(q), repeat=n)
            )
            ids_of.setdefault(span, set()).add(sid)
    # one id per span, and no two spans share one
    assert all(len(ids) == 1 for ids in ids_of.values())
    assert len(set().union(*ids_of.values())) == len(ids_of)
    # joins[a][b] is the id of the sum of the two spans
    id_of = {span: min(ids) for span, ids in ids_of.items()}
    for a, ia in id_of.items():
        for b, ib in id_of.items():
            assert joins[ia][ib] == id_of[frozenset(V.add(x, y) for x in a for y in b)]
