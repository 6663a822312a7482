"""Top-level acceptance checks, one test per criterion.

Each test prints a single ``criterion N: pass`` line (visible with -s; the
verbose test id serves the same purpose otherwise) and enforces the stated
runtime budget with wall-clock measurements.
"""

from __future__ import annotations

import random
import time
from itertools import product

import pytest
from cut_oracle import cutset_infeasible_exhaustive
from simulate_oracle import simulate

from netcode_unicast import (
    DEFAULT_BUDGET,
    assign_1m,
    assign_133,
    brute_force_routing,
    brute_force_scalar,
    classify_triple,
    connectivity_level,
    cutset_infeasible,
    edge_disjoint_paths,
    gen_111,
    gen_112,
    gen_113,
    gen_122,
    gen_222,
    gen_232,
    gen_23_rate21,
    gen_fig1,
    internal_degree_ok,
    is_routing,
    lift_code,
    max_flow,
    minimize,
    overlap_segments,
    propagate,
    route_uniform,
    sample_1m,
    sample_triple,
    sample_uniform,
    structure,
    verify_code,
)
from netcode_unicast.cli import main as cli_main


def test_criterion_1_figure_connectivity(tmp_path, capsys):
    """gen + analyze reproduces every canonical connectivity vector, <1s each."""
    expected = {
        "fig2a": "[2,2,2]",
        "fig2b": "[1,1,3]",
        "fig3": "[2,3]",
        "cor232": "[2,3,2]",
        "fig1": "[2,2]",
    }
    for gid, vec in expected.items():
        start = time.perf_counter()
        path = str(tmp_path / f"{gid}.txt")
        assert cli_main(["gen", gid, "-o", path]) == 0
        cli_main(["analyze", path])
        out = capsys.readouterr().out
        assert f"RESULT: connectivity {vec}" in out.splitlines()
        assert time.perf_counter() - start < 1.0
    print("criterion 1: pass (5 instances reproduced)")


def test_criterion_2_cut_set_bounds():
    """Cut witnesses carry the exact quoted numbers; the rate-[2,1] instance
    has no violating cut even under exhaustive enumeration; <10s each."""
    start = time.perf_counter()
    w = cutset_infeasible(gen_222())
    assert w is not None
    assert (w.capacity, w.required_rate) == (2, 3)
    w = cutset_infeasible(gen_113())
    assert w is not None
    assert (w.capacity, w.required_rate) == (1, 2)
    assert cutset_infeasible(gen_23_rate21()) is None
    assert cutset_infeasible_exhaustive(gen_23_rate21()) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0  # three checks, 10s budget apiece
    print(f"criterion 2: pass ({elapsed:.2f}s)")


def test_criterion_3_oracle_confirms_infeasibility():
    """Exhaustive scalar search over GF(2) and GF(3) finds no code on any of
    the four infeasible instances, within the default budget, <10min."""
    start = time.perf_counter()
    searched = 0
    for make in (gen_222, gen_113, gen_23_rate21, gen_232):
        for q in (2, 3):
            report = brute_force_scalar(make(), q)
            assert report.exhausted, (make.__name__, q)
            assert report.code is None
            assert report.enumerated <= DEFAULT_BUDGET
            searched += 1
    elapsed = time.perf_counter() - start
    assert searched == 8
    assert elapsed < 600.0
    print(f"criterion 3: pass (8 searches exhausted in {elapsed:.2f}s)")


@pytest.mark.parametrize(
    "make, triple, capacity, rate",
    [(gen_111, (1, 1, 1), 1, 2), (gen_112, (1, 1, 2), 1, 2), (gen_122, (1, 2, 2), 2, 3)],
    ids=["111", "112", "122"],
)
def test_criterion_3_edge_deleted_witnesses(make, triple, capacity, rate):
    """``gen_222`` with edges deleted is the classify witness for a lower
    triple: its connectivity is that triple, its first violated cut is the
    exhaustive oracle's, and scalar search over GF(2) and GF(3) exhausts
    with no code; <1min."""
    start = time.perf_counter()
    inst = make()
    assert classify_triple(triple).witness == make.__name__
    assert connectivity_level(inst) == triple
    w = cutset_infeasible(inst)
    assert w is not None and w == cutset_infeasible_exhaustive(inst)
    w.validate(inst)
    assert (w.capacity, w.required_rate) == (capacity, rate)
    for q in (2, 3):
        report = brute_force_scalar(inst, q)
        assert report.exhausted and report.code is None, q
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3: pass ({make.__name__} exhausted in {elapsed:.2f}s)")


def test_criterion_4_fig1_triple_property():
    """One instance, three verdicts: no scalar routing, a scalar linear code,
    and a two-layer vector routing built by the uniform constructor; <1min."""
    start = time.perf_counter()
    inst = gen_fig1()
    routing = brute_force_routing(inst, 1)
    assert routing.exhausted and routing.code is None
    scalar = brute_force_scalar(inst, 2, 1)
    assert scalar.code is not None
    assert verify_code(inst, scalar.code).all_pass
    assert not is_routing(propagate(inst, scalar.code))
    vector = route_uniform(inst)
    assert vector.T == 2
    assert verify_code(inst, vector).all_pass
    assert is_routing(propagate(inst, vector))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4: pass ({elapsed:.2f}s)")


def test_criterion_5_two_session_constructor():
    """assign_1m verifies on 200 sampled minimal structured [1,m+1] instances,
    and every path pair shares at most one overlap segment."""
    passes = 0
    for i in range(200):
        m = i % 3 + 1
        inst = sample_1m(seed=1000 + i, m=m)
        assert connectivity_level(inst) == (1, m + 1)
        code = assign_1m(inst)
        assert verify_code(inst, code).all_pass
        p1 = edge_disjoint_paths(inst, 0)[0]
        for path in edge_disjoint_paths(inst, 1):
            assert len(overlap_segments(p1, path)) <= 1
        passes += 1
    assert passes == 200
    print("criterion 5: pass (200/200 instances)")


def test_criterion_6_uniform_and_triple_constructors():
    """route_uniform on 100 sampled [3,3,3] instances and assign_133 on 100
    sampled feasible triples all verify, each instance <1s."""
    for i in range(100):
        start = time.perf_counter()
        inst = sample_uniform(seed=2000 + i, n=3)
        assert connectivity_level(inst) == (3, 3, 3)
        assert verify_code(inst, route_uniform(inst)).all_pass
        assert time.perf_counter() - start < 1.0
    feasible = [
        (1, 3, 3),
        (3, 1, 3),
        (3, 3, 1),
        (2, 3, 3),
        (3, 2, 3),
        (3, 3, 2),
        (3, 3, 3),
    ]
    for i in range(100):
        start = time.perf_counter()
        triple = feasible[i % len(feasible)]
        inst = sample_triple(seed=3000 + i, triple=triple)
        assert connectivity_level(inst) == triple
        code = assign_133(inst)
        assert code.T == 2
        assert verify_code(inst, code).all_pass
        assert time.perf_counter() - start < 1.0
    print("criterion 6: pass (100+100 instances)")


def test_criterion_7_classification_table():
    """Feasible exactly when the sorted triple dominates [1,3,3]: the
    permutations of [1,3,3], [2,3,3] and [3,3,3]; canonical witnesses on
    [2,2,2], [1,1,3] and the permutations of [2,2,3]."""
    start = time.perf_counter()
    feasible_count = 0
    for triple in product((1, 2, 3), repeat=3):
        verdict = classify_triple(triple)
        s = tuple(sorted(triple))
        assert verdict.feasible == (s[1] >= 3 and s[2] >= 3), triple
        if verdict.feasible:
            feasible_count += 1
            assert verdict.witness is None
        else:
            assert verdict.witness is not None
    assert feasible_count == 7
    assert classify_triple((2, 2, 2)).witness == "gen_222"
    assert classify_triple((1, 1, 3)).witness == "gen_113"
    for perm in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
        assert classify_triple(perm).witness == "gen_232"
    assert time.perf_counter() - start < 1.0
    print("criterion 7: pass (27 triples, 7 feasible)")


def test_criterion_8_invariant_suites():
    """Five property families over >= 500 seed-pinned random cases: local and
    global code views agree, flow values match disjoint path counts, minimize
    is a fixpoint, structuring preserves degree bound and connectivity, and
    lifted codes stay decodable; <5min total."""
    start = time.perf_counter()
    cases = 0

    # local simulation agrees with global vectors on every edge
    for i in range(120):
        inst = sample_1m(seed=5000 + i, m=i % 3 + 1)
        code = assign_1m(inst)
        expanded = code.validate(inst)
        rng = random.Random(9000 + i)
        source = tuple(rng.randrange(code.q) for _ in range(expanded.n_symbols))
        values = simulate(inst, code, source)
        vectors = propagate(inst, code)
        for eid in range(expanded.n_edges):
            dot = sum(c * x for c, x in zip(vectors[eid], source)) % code.q
            assert dot == values[eid]
        cases += 1

    # max-flow value equals the count of pairwise edge-disjoint paths
    for i in range(120):
        inst = sample_triple(seed=6000 + i, triple=(2, 3, 2))
        for sess in range(len(inst.sessions)):
            k = max_flow(inst, sess)
            paths = edge_disjoint_paths(inst, sess)
            assert len(paths) == k
            used = [e for p in paths for e in p]
            assert len(used) == len(set(used))
        cases += 1

    # minimize keeps connectivity and is idempotent
    for i in range(100):
        inst = sample_uniform(seed=7000 + i, n=2 + i % 2)
        minimal, _ = minimize(inst)
        assert connectivity_level(minimal) == connectivity_level(inst)
        assert minimize(minimal)[1] == tuple(range(minimal.n_edges))
        cases += 1

    # structuring bounds internal degree and preserves connectivity
    for i in range(100):
        inst = sample_triple(seed=8000 + i, triple=(1, 3, 3))
        shaped = structure(inst)
        assert internal_degree_ok(shaped)
        assert connectivity_level(shaped) == connectivity_level(inst)
        cases += 1

    # codes found on the structured instance lift back and still decode
    for i in range(80):
        inst = sample_uniform(seed=8500 + i, n=2 + i % 2)
        shaped = structure(inst)
        code = route_uniform(shaped)
        assert verify_code(shaped, code).all_pass
        lifted = lift_code(shaped, inst, code)
        assert verify_code(inst, lifted).all_pass
        cases += 1

    elapsed = time.perf_counter() - start
    assert cases >= 500
    assert elapsed < 300.0
    print(f"criterion 8: pass ({cases} cases in {elapsed:.2f}s)")
