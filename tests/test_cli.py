"""End-to-end command-line checks: exit codes, output lines, file artifacts."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random
import re
import sys
import time

import pytest
from cut_oracle import cutset_infeasible_exhaustive

from netcode_unicast import (
    CutWitness,
    InstanceError,
    assign_133,
    build_instance,
    connectivity_level,
    gen_113,
    gen_222,
    load_code,
    load_instance,
    sample_1m,
    sample_triple,
    sample_uniform,
    save_instance,
    propagate,
    serialize_code,
    verify_code,
)
from netcode_unicast import cli, constructors, flows, graph, netcode, oracle, transform
from netcode_unicast.cli import main
from netcode_unicast.netcode import TerminalReport
from test_graph import record_builds, record_expansions
from test_netcode import BUTTERFLY, BUTTERFLY_CODE, with_global_lines


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def fig1(tmp_path):
    path = str(tmp_path / "fig1.txt")
    assert run_cli("gen", "fig1", "-o", path)[0] == 0
    return path


@pytest.fixture
def fig2a(tmp_path):
    path = str(tmp_path / "fig2a.txt")
    assert run_cli("gen", "fig2a", "-o", path)[0] == 0
    return path


@pytest.fixture
def fig2b(tmp_path):
    path = str(tmp_path / "fig2b.txt")
    assert run_cli("gen", "fig2b", "-o", path)[0] == 0
    return path


@pytest.fixture
def fig3(tmp_path):
    path = str(tmp_path / "fig3.txt")
    assert run_cli("gen", "fig3", "-o", path)[0] == 0
    return path


# ---------------------------------------------------------------- gen


GEN_LEVELS = {
    "fig1": (2, 2),
    "fig2a": (2, 2, 2),
    "fig2b": (1, 1, 3),
    "fig3": (2, 3),
    "cor232": (2, 3, 2),
}


@pytest.mark.parametrize("gid", sorted(GEN_LEVELS))
def test_gen_writes_loadable_instance(gid, tmp_path):
    path = str(tmp_path / "g.txt")
    rc, out, _ = run_cli("gen", gid, "-o", path)
    assert rc == 0
    assert out == f"RESULT: written {path}\n"
    inst = load_instance(path)
    assert connectivity_level(inst) == GEN_LEVELS[gid]


def test_gen_stdout_mode_prints_instance_text():
    rc, out, _ = run_cli("gen", "fig2b")
    assert rc == 0
    assert out.startswith("session 1 s1 t1\n")
    assert "edge s1 v1" in out


def test_gen_unknown_id_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "nosuch")
    assert exc.value.code == 2


# ---------------------------------------------------------------- analyze


def test_analyze_fig2a_reports_cut_violation(fig2a):
    rc, out, _ = run_cli("analyze", fig2a)
    assert rc == 1
    lines = out.splitlines()
    assert "RESULT: connectivity [2,2,2]" in lines
    witness = [l for l in lines if l.startswith("WITNESS:")]
    assert len(witness) == 1
    assert "capacity 2 rate 3" in witness[0]


def test_analyze_prints_no_witness_that_fails_its_check(fig2a, monkeypatch):
    def refuse(self, instance):
        raise InstanceError("witness does not violate the cut-set bound")

    monkeypatch.setattr(CutWitness, "validate", refuse)
    rc, out, err = run_cli("analyze", fig2a)
    assert rc == 2
    assert "RESULT: connectivity [2,2,2]" in out.splitlines()
    assert not any(l.startswith("WITNESS:") for l in out.splitlines())
    assert "witness does not violate" in err


def test_analyze_fig2b_reports_cut_violation(fig2b):
    rc, out, _ = run_cli("analyze", fig2b)
    assert rc == 1
    assert "RESULT: connectivity [1,1,3]" in out
    assert "capacity 1 rate 2" in out


def test_analyze_fig3_clean(fig3):
    rc, out, _ = run_cli("analyze", fig3)
    assert rc == 0
    lines = out.splitlines()
    assert "RESULT: connectivity [2,3]" in lines
    assert not any(l.startswith("WITNESS:") for l in lines)
    assert "session 1: s1 -> t1 rate 2 flow 2" in lines
    assert "session 2: s2 -> t2 rate 1 flow 3" in lines
    assert "nodes 12" in lines
    assert "edges 17" in lines


def test_analyze_output_is_byte_stable(fig2a):
    first = run_cli("analyze", fig2a)
    second = run_cli("analyze", fig2a)
    assert first == second


PAST_GUARD_WITNESS_NODES = {
    gen_113: {"s1", "s2", "v1"},
    gen_222: {"s1", "s2", "s3", "v1", "v2"},
}


@pytest.mark.parametrize(
    "gen, relays, cut",
    [(gen_113, 22, "capacity 1 rate 2"), (gen_222, 24, "capacity 2 rate 3")],
)
def test_analyze_witness_past_the_cut_guard(gen, relays, cut, tmp_path):
    # v1 -> a split by enough relays that an exhaustive node-set scan would
    # refuse; the witness is still the first violating set in scan order
    base = gen()
    chain = ["v1", *(f"r{i}" for i in range(relays)), "a"]
    edges = [(base.names[u], base.names[v]) for u, v in base.edges]
    at = edges.index(("v1", "a"))
    edges[at : at + 1] = list(zip(chain, chain[1:]))
    sessions = [(base.names[s.source], base.names[s.terminal]) for s in base.sessions]
    inst = build_instance(edges, sessions)
    path = str(tmp_path / "split.txt")
    save_instance(inst, path)
    rc, out, _ = run_cli("analyze", path)
    assert rc == 1
    witness = [l.split() for l in out.splitlines() if l.startswith("WITNESS:")]
    assert len(witness) == 1
    assert " ".join(witness[0][1:5]) == cut
    fields = dict(zip(witness[0][1::2], witness[0][2::2]))
    assert set(fields["nodes"].split(",")) == PAST_GUARD_WITNESS_NODES[gen]
    CutWitness(
        sessions=tuple(int(i) - 1 for i in fields["sessions"].split(",")),
        nodes=tuple(sorted(inst.names.index(n) for n in fields["nodes"].split(","))),
        cut_edges=tuple(int(e) for e in fields["edges"].split(",")),
        capacity=int(fields["capacity"]),
        required_rate=int(fields["rate"]),
    ).validate(inst)


@pytest.mark.parametrize(
    "command, fixture, asked",
    # parent counts without the levels: 11, 3 and 11
    [("analyze", "fig2a", 8), ("analyze", "fig3", 1), ("code", "fig2a", 8)],
)
def test_cut_check_reuses_the_levels_it_printed(command, fixture, asked, request, monkeypatch):
    # a one-session subset whose max-flow meets its rate needs no min-cut:
    # fig2a's three sessions have flow 2 for rate 1, fig3's flow 2 and 3 for
    # rates 2 and 1; the witness stays the exhaustive oracle's
    path = request.getfixturevalue(fixture)
    calls = []
    real = flows._min_cut

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(flows, "_min_cut", counted)
    args = (command, path) + (("-o", path + ".code") if command == "code" else ())
    rc, out, _ = run_cli(*args)
    assert len(calls) == asked
    inst = load_instance(path)
    want = cutset_infeasible_exhaustive(inst)
    lines = [l for l in out.splitlines() if l.startswith("WITNESS:")]
    if want is None:
        assert rc == 0 and not lines
        return
    assert rc == 1
    sessions = ",".join(str(i + 1) for i in want.sessions)
    nodes = ",".join(inst.names[v] for v in want.nodes)
    edges = ",".join(str(e) for e in want.cut_edges)
    assert lines == [
        f"WITNESS: capacity {want.capacity} rate {want.required_rate}"
        f" sessions {sessions} nodes {nodes} edges {edges}"
    ]


def test_main_calls_share_no_parsed_state(fig2b):
    rc, out, _ = run_cli("search", fig2b, "--q", "3")
    assert rc == 1 and "field=3 " in out
    rc, out, _ = run_cli("search", fig2b)
    assert rc == 1 and "field=2 " in out


def test_analyze_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense here\n")
    rc, _, err = run_cli("analyze", str(bad))
    assert rc == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "text",
    [
        "session 1 s t\nedge s t cap=1000000000000\n",
        "edge s t\nsession 1 s t rate=1000000000000\n",
    ],
)
def test_analyze_huge_count_exits_2(tmp_path, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    start = time.process_time()
    rc, out, err = run_cli("analyze", str(path))
    assert time.process_time() - start < 0.5
    assert (rc, out) == (2, "")
    assert "line 2:" in err and "exceeds 65536" in err


def test_analyze_missing_file_exits_2(tmp_path):
    rc, _, err = run_cli("analyze", str(tmp_path / "void.txt"))
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------- transforms


def test_minimize_drops_redundant_edge_and_maps_back(tmp_path):
    inst = sample_1m(seed=11, m=2)
    # duplicate the last edge; the copy is never critical
    named = [(inst.names[u], inst.names[v]) for u, v in inst.edges]
    named.append(named[-1])
    pairs = [(inst.names[s.source], inst.names[s.terminal], s.rate) for s in inst.sessions]
    padded = _build(named, pairs)
    src = str(tmp_path / "padded.txt")
    out_path = str(tmp_path / "min.txt")
    save_instance(padded, src)
    rc, out, _ = run_cli("minimize", src, "-o", out_path)
    assert rc == 0
    removed = int(out.split()[-1])
    assert removed >= 1
    assert connectivity_level(load_instance(out_path)) == connectivity_level(padded)
    map_lines = (tmp_path / "min.txt.map").read_text().splitlines()
    assert sum(1 for l in map_lines if l.startswith("removed ")) == removed
    kept = [l.split() for l in map_lines if l.startswith("edge ")]
    assert len(kept) == padded.n_edges - removed
    # map entries are new-id ascending and reference real original ids
    assert [int(k[1]) for k in kept] == list(range(len(kept)))
    assert all(0 <= int(k[2]) < padded.n_edges for k in kept)
    # the padded copy is edge 21; its twin, edge 20, is scanned first and goes
    assert padded.n_edges == 22
    assert map_lines == (
        ["# edge map: new id -> original id"]
        + [f"edge {i} {i}" for i in range(20)]
        + ["edge 20 21", "removed 20"]
    )


def test_structure_reduces_wide_hub(tmp_path):
    edges = [
        ("s1", "h"),
        ("s2", "h"),
        ("s3", "h"),
        ("h", "t1"),
        ("h", "t2"),
        ("h", "t3"),
    ]
    inst = _build(edges, [("s1", "t1"), ("s2", "t2"), ("s3", "t3")])
    src = str(tmp_path / "hub.txt")
    out_path = str(tmp_path / "hub.str")
    save_instance(inst, src)
    rc, out, _ = run_cli("structure", src, "-o", out_path)
    assert rc == 0
    assert out == "RESULT: gadgets 1\n"
    shaped = load_instance(out_path)
    assert connectivity_level(shaped) == connectivity_level(inst)
    for v in range(shaped.n_nodes):
        if any(s.source == v or s.terminal == v for s in shaped.sessions):
            continue
        assert len(shaped.in_edges[v]) + len(shaped.out_edges[v]) <= 3
    # the hub's six edges keep their ids; its 3x3 crossbar adds 21 after them
    assert (tmp_path / "hub.str.map").read_text().splitlines() == (
        ["# edge map: new id -> original id, 'gadget' for crossbar", "node h gadget"]
        + [f"edge {i} {i}" for i in range(6)]
        + [f"edge {i} gadget" for i in range(6, 27)]
    )


def _hub(tmp_path, cap: int) -> str:
    """One unit session through a hub with ``cap`` in- and out-edges: its
    crossbar has cap * cap cells."""
    path = tmp_path / f"hub{cap}.txt"
    path.write_text(f"session 1 s t\nedge s h cap={cap}\nedge h t cap={cap}\n")
    return str(path)


def test_structure_at_the_cell_bound(tmp_path):
    out_path = tmp_path / "h.txt"
    rc, out, _ = run_cli("structure", _hub(tmp_path, 200), "-o", str(out_path))
    assert (rc, out) == (0, "RESULT: gadgets 1\n")
    text = out_path.read_text()
    # the 400 hub edges, then a merge -> fork edge per cell and the row and
    # column links between cells
    assert text.count("\nedge ") == 400 + 200 * 200 + 2 * 200 * 199
    # digests pinned from structure with no cell bound: at the bound it changes nothing
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in (out_path, tmp_path / "h.txt.map")]
    assert digests == ["fb8aab703b68c385", "73053e647880f784"]


def test_structure_past_the_cell_bound_exits_2_before_building(tmp_path, monkeypatch):
    src, out_path = _hub(tmp_path, 201), tmp_path / "h.txt"
    given = load_instance(src)
    monkeypatch.setattr(transform, "_fresh_name", _refuse("_fresh_name"))
    built = record_builds(monkeypatch)
    rc, out, err = run_cli("structure", src, "-o", str(out_path))
    assert (rc, out) == (2, "")
    assert "structuring needs 40401 crossbar cells, above the bound of 40000" in err
    assert not out_path.exists()
    # only the input was built
    assert built == [given]


def _build(edges, pairs):
    from netcode_unicast import build_instance

    return build_instance(edges, pairs)


# ---------------------------------------------------------------- code


def test_code_two_session_instance(tmp_path):
    src = str(tmp_path / "i.txt")
    out_path = str(tmp_path / "i.code")
    save_instance(sample_1m(seed=7, m=2), src)
    rc, out, _ = run_cli("code", src, "-o", out_path)
    assert rc == 0
    lines = out.splitlines()
    assert "terminal 1: pass" in lines
    assert "terminal 2: pass" in lines
    assert f"CODE: {out_path}" in lines
    assert lines[-1] == f"RESULT: code q=2 T=1 written {out_path}"
    code, _ = load_code(out_path)
    assert verify_code(load_instance(src), code).all_pass


def test_code_uniform_routes(tmp_path):
    src = str(tmp_path / "u.txt")
    out_path = str(tmp_path / "u.code")
    save_instance(sample_uniform(seed=3, n=3), src)
    rc, out, _ = run_cli("code", src, "-o", out_path)
    assert rc == 0
    assert "RESULT: code q=2 T=3" in out


def test_code_triple_splits_lowest_session(tmp_path):
    src = str(tmp_path / "t.txt")
    out_path = str(tmp_path / "t.code")
    save_instance(sample_triple(seed=5, triple=(1, 3, 3)), src)
    rc, out, _ = run_cli("code", src, "-o", out_path)
    assert rc == 0
    assert "RESULT: code q=2 T=2" in out
    code, _ = load_code(out_path)
    assert verify_code(load_instance(src), code).all_pass


def test_code_checks_each_fact_once(tmp_path, monkeypatch):
    src, out_path = str(tmp_path / "t.txt"), str(tmp_path / "t.code")
    save_instance(sample_triple(3, (1, 3, 3)), src)
    calls = dict.fromkeys(("minimize", "verify_code", "in_span"), 0)

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    # every module's binding, so no call escapes the count
    for module in [m for k, m in sys.modules.items() if k.startswith("netcode_unicast.")]:
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # the detour searches of minimize, apart from the augmentations of max-flow
    calls["detour"] = 0
    monkeypatch.setattr(transform, "_augment", counting("detour", transform._augment))
    expansions = record_expansions(monkeypatch)
    rc, out, _ = run_cli("code", src, "-o", out_path)
    assert rc == 0 and "RESULT: code q=2 T=2" in out
    # minimize twice per layer, the constructor's one verify, one span solve
    # per distinct row set of the planned edges' tails (17; 26 once per
    # distinct (rows, target), 63 once per planned edge) plus one per
    # terminal (3; 6 once per terminal symbol); every edge a flow uses here
    # is critical from the start, so no detour search runs (226 when each
    # was searched)
    assert calls == {"minimize": 4, "verify_code": 1, "in_span": 20, "detour": 0}
    # one expansion, which realizing and verifying share
    assert len(expansions) == 1


@pytest.mark.parametrize(
    "make",
    [lambda: sample_uniform(0, 3), lambda: sample_1m(0, 2), lambda: sample_triple(3, (1, 3, 3))],
    ids=["route_uniform", "assign_1m", "assign_133"],
)
def test_code_computes_the_connectivity_once(tmp_path, monkeypatch, make):
    src = str(tmp_path / "i.txt")
    inst = make()
    save_instance(inst, src)
    sessions = []
    real = flows.max_flow
    monkeypatch.setattr(flows, "max_flow", lambda x, k: sessions.append(k) or real(x, k))
    rc, out, _ = run_cli("code", src, "-o", str(tmp_path / "i.code"))
    assert rc == 0 and "RESULT: code q=2" in out
    # the constructor checks the levels the command picked it by
    assert sessions == list(range(len(inst.sessions)))


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: sample_uniform(0, 3), "routing code"),
        (lambda: sample_1m(0, 2), "constructed code"),
        (lambda: sample_triple(3, (1, 3, 3)), "layered construction"),
    ],
)
def test_code_reports_a_construction_that_does_not_verify(tmp_path, monkeypatch, make, name):
    src, out_path = str(tmp_path / "i.txt"), tmp_path / "i.code"
    save_instance(make(), src)
    real = constructors.verify_code

    def failing(instance, code):
        result = real(instance, code)
        return dataclasses.replace(result, reports=(TerminalReport(0, False, (), (None,)),))

    monkeypatch.setattr(constructors, "verify_code", failing)
    rc, out, _ = run_cli("code", src, "-o", str(out_path))
    assert rc == 1
    assert out == f"RESULT: construction failed: internal error: {name} does not verify\n"
    assert not out_path.exists()


def test_code_infeasible_triple_refused(fig2a, tmp_path):
    rc, out, _ = run_cli("code", fig2a, "-o", str(tmp_path / "no.code"))
    assert rc == 1
    assert out == (
        "RESULT: infeasible (violated cut)\n"
        "WITNESS: capacity 2 rate 3 sessions 1,2,3 nodes s1,v1,s2,s3,v2 edges 6,7\n"
    )
    assert not (tmp_path / "no.code").exists()


def test_code_does_not_call_a_cut_free_triple_infeasible(tmp_path):
    # three disjoint sessions of capacity 2: level [2,2,2], below [1,3,3],
    # yet each session has its own edges, so search finds a code
    src = str(tmp_path / "disjoint.txt")
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(
            "session 1 s1 t1\nsession 2 s2 t2\nsession 3 s3 t3\n"
            "edge s1 t1 cap=2\nedge s2 t2 cap=2\nedge s3 t3 cap=2\n"
        )
    rc, out, _ = run_cli("code", src, "-o", str(tmp_path / "no.code"))
    assert rc == 1
    assert out == "RESULT: no applicable construction for connectivity [2,2,2]\n"
    assert not (tmp_path / "no.code").exists()
    code_path = str(tmp_path / "found.code")
    rc, out, _ = run_cli("search", src, "--q", "2", "-o", code_path)
    assert rc == 0
    assert out.endswith(f"enumerated=9 exhausted=false code={code_path}\n")
    assert run_cli("verify", src, code_path)[0] == 0


@pytest.mark.parametrize(
    "levels, width", [("[0,3,3]", 3), ("[0,1,1]", 1)]
)
def test_code_names_the_cut_of_a_session_below_its_rate(tmp_path, levels, width):
    # s1 reaches only a dead end, so session 1 has max-flow 0 below rate 1
    src = str(tmp_path / "cut.txt")
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(
            "session 1 s1 t1\nsession 2 s2 t2\nsession 3 s3 t3\n"
            f"edge s1 a\nedge b t1\nedge s2 t2 cap={width}\nedge s3 t3 cap={width}\n"
        )
    rc, analyzed, _ = run_cli("analyze", src)
    assert rc == 1
    assert f"RESULT: connectivity {levels}\n" in analyzed
    witness = analyzed.splitlines(keepends=True)[-1]
    assert witness == "WITNESS: capacity 0 rate 1 sessions 1 nodes s1,a edges \n"
    rc, out, _ = run_cli("code", src, "-o", str(tmp_path / "no.code"))
    assert rc == 1
    assert out == "RESULT: infeasible (violated cut)\n" + witness
    assert not (tmp_path / "no.code").exists()


def test_code_names_a_violated_cut_outside_every_range(tmp_path):
    # gen_113 with a fourth s3 -> t3 edge: levels [1,1,4] lie outside every
    # construction's range, and sessions 1 and 2 still share one edge
    base = gen_113()
    inst = build_instance(
        [(base.names[u], base.names[v]) for u, v in base.edges] + [("s3", "t3")],
        [(base.names[s.source], base.names[s.terminal]) for s in base.sessions],
    )
    assert connectivity_level(inst) == (1, 1, 4)
    src = str(tmp_path / "i.txt")
    save_instance(inst, src)
    rc, out, _ = run_cli("code", src, "-o", str(tmp_path / "no.code"))
    assert rc == 1
    want = cutset_infeasible_exhaustive(inst)
    assert (want.capacity, want.required_rate, want.sessions) == (1, 2, (0, 1))
    assert [inst.names[v] for v in want.nodes] == ["s1", "v1", "s2"]
    assert want.cut_edges == (2,)
    assert out == (
        "RESULT: infeasible (violated cut)\n"
        "WITNESS: capacity 1 rate 2 sessions 1,2 nodes s1,v1,s2 edges 2\n"
    )
    assert not (tmp_path / "no.code").exists()


def test_code_no_construction_message(fig3, tmp_path):
    # two sessions with rates (2,1): outside every construction's scope
    rc, out, _ = run_cli("code", fig3, "-o", str(tmp_path / "no.code"))
    assert rc == 1
    assert out.startswith("RESULT: no applicable construction")


# ---------------------------------------------------------------- verify


def test_verify_roundtrip_and_decoders(tmp_path):
    src = str(tmp_path / "i.txt")
    code_path = str(tmp_path / "i.code")
    save_instance(sample_1m(seed=7, m=2), src)
    assert run_cli("code", src, "-o", code_path)[0] == 0
    rc, out, _ = run_cli("verify", src, code_path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "RESULT: verified"
    assert lines[0].startswith("terminal 1: pass x0 = ")
    assert all("*e" in l for l in lines[:-1])


def _scanned_decoder_terms(report_edges, vec):
    # the plain scan of every in-edge coefficient that cli._decoder_terms replaces
    terms = [f"{c}*e{e}" for e, c in zip(report_edges, vec) if c]
    return " + ".join(terms) if terms else "0"


def test_decoder_terms_match_the_plain_scan():
    # one edge of capacity 40: 40 decoders over 1,600 in-edge copies each
    inst = graph.parse_instance("session 1 s t\nedge s t cap=40\n")
    (report,) = verify_code(inst, constructors.route_uniform(inst)).reports
    assert len(report.decoders) == 40 and len(report.in_edges) == 1_600
    for vec in report.decoders:
        assert cli._decoder_terms(report.in_edges, vec) == _scanned_decoder_terms(report.in_edges, vec)
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 50):
        edges = tuple(rng.sample(range(10_000), n))
        for density in (0.0, 0.2, 1.0):
            vec = [rng.randrange(1, 7) if rng.random() < density else 0 for _ in range(n)]
            assert cli._decoder_terms(edges, vec) == _scanned_decoder_terms(edges, vec)


def test_verify_detects_broken_code(tmp_path):
    src = str(tmp_path / "i.txt")
    code_path = str(tmp_path / "i.code")
    save_instance(sample_1m(seed=7, m=1), src)
    assert run_cli("code", src, "-o", code_path)[0] == 0
    # zero out every rule: nothing reaches the terminals
    lines = open(code_path).read().splitlines()
    gutted = [l.split(":")[0] + ":" if l.startswith("code ") else l for l in lines]
    open(code_path, "w").write("\n".join(gutted) + "\n")
    rc, out, _ = run_cli("verify", src, code_path)
    assert rc == 1
    assert "terminal 1: fail" in out
    assert out.splitlines()[-1] == "RESULT: verification failed"


def test_verify_malformed_code_exits_2(fig2b, tmp_path):
    code_path = tmp_path / "junk.code"
    code_path.write_text("field q=2\nvector T=1\ncode zzz\n")
    rc, _, err = run_cli("verify", fig2b, str(code_path))
    assert rc == 2
    assert err.startswith("error:")


def test_verify_huge_code_edge_id_exits_2(fig1, tmp_path):
    # refused by its line count; sized by the id it would need 2**62 slots
    code_path = tmp_path / "huge.code"
    code_path.write_text(f"field q=2\nvector T=1\ncode {2**62} :\n")
    rc, out, err = run_cli("verify", fig1, str(code_path))
    assert (rc, out) == (2, "")
    assert err == "error: code lines must cover edge ids 0..N-1 exactly\n"


def _butterfly_files(tmp_path, vectors=None):
    src = tmp_path / "butterfly.txt"
    code_path = tmp_path / "butterfly.code"
    save_instance(BUTTERFLY, str(src))
    if vectors is None:
        code_path.write_text(serialize_code(BUTTERFLY_CODE))
    else:
        code_path.write_text(with_global_lines(BUTTERFLY_CODE, vectors))
    return str(src), code_path


def test_verify_accepts_matching_global_lines(tmp_path):
    src, plain = _butterfly_files(tmp_path)
    expected = run_cli("verify", src, str(plain))
    assert expected[0] == 0
    _, with_globals = _butterfly_files(tmp_path, propagate(BUTTERFLY, BUTTERFLY_CODE))
    assert "global 4 : 1,1" in with_globals.read_text()
    assert run_cli("verify", src, str(with_globals)) == expected


@pytest.mark.parametrize(
    "old, new, eid",
    [
        ("global 4 : 1,1", "global 4 : 1,0", 4),  # wrong vector
        ("global 6 : 1,1", "global 6 : 1,1\nglobal 7 : 0,0", 7),  # no edge 7
    ],
)
def test_verify_reports_mismatched_global_line(tmp_path, old, new, eid):
    src, code_path = _butterfly_files(tmp_path, propagate(BUTTERFLY, BUTTERFLY_CODE))
    code_path.write_text(code_path.read_text().replace(old, new))
    rc, out, _ = run_cli("verify", src, str(code_path))
    assert rc == 1
    # the code itself still decodes; only the global table is wrong
    assert out.splitlines()[-3:] == [
        "terminal 2: pass x1 = 1*e2 + 1*e6",
        f"global {eid}: mismatch",
        "RESULT: verification failed",
    ]


def test_verify_expands_the_instance_once(tmp_path, monkeypatch):
    # a T=2 code with a global line for every expanded edge
    inst = sample_triple(3, (1, 3, 3))
    code = assign_133(inst)
    src, code_path = str(tmp_path / "t.txt"), tmp_path / "t.code"
    save_instance(inst, src)
    code_path.write_text(with_global_lines(code, propagate(inst, code)))
    expansions = record_expansions(monkeypatch)
    rc, out, _ = run_cli("verify", src, str(code_path))
    assert rc == 0 and out.endswith("RESULT: verified\n")
    # the check and the symbol numbering share one T=2 expansion
    assert [x.n_edges for x in expansions] == [2 * inst.n_edges]
    # each session owns two expanded symbols, numbered in session order
    terminals = out.splitlines()[:3]
    assert [re.findall(r"x(\d+) =", line) for line in terminals] == [
        ["0", "1"], ["2", "3"], ["4", "5"]
    ]


def test_verify_refuses_a_duplicate_global_line(fig1, tmp_path):
    code_path = tmp_path / "fig1.code"
    assert run_cli("search", fig1, "--q", "2", "-o", str(code_path))[0] == 0
    inst, (code, _) = load_instance(fig1), load_code(str(code_path))
    right = ",".join(map(str, propagate(inst, code)[0]))
    wrong = ",".join("1" if c == "0" else "0" for c in right.split(","))
    text = serialize_code(code)
    code_path.write_text(text + f"global 0 : {wrong}\n")
    rc, out, _ = run_cli("verify", fig1, str(code_path))
    assert (rc, out.splitlines()[-2:]) == (1, ["global 0: mismatch", "RESULT: verification failed"])
    # a later correct line must not hide the wrong one
    code_path.write_text(text + f"global 0 : {wrong}\nglobal 0 : {right}\n")
    lineno = text.count("\n") + 2
    rc, out, err = run_cli("verify", fig1, str(code_path))
    assert (rc, out) == (2, "")
    assert f"line {lineno}: duplicate global line for edge 0" in err


def test_verify_huge_T_exits_2_before_expanding(fig1, tmp_path, monkeypatch):
    code_path = tmp_path / "huge.code"
    code_path.write_text("field q=2\nvector T=1000000\ncode 0 :\n")

    def no_expansion(instance, T):
        raise AssertionError(f"expanded to T={T} before checking the rule count")

    # expanding fig1's 16 edges first took 17 s and 4.8 GB at this T
    monkeypatch.setattr(netcode, "expand_time", no_expansion)
    start = time.process_time()
    rc, _, err = run_cli("verify", fig1, str(code_path))
    assert time.process_time() - start < 0.5
    assert rc == 2
    assert "covers 1 edges, expanded instance has 16000000" in err


def _wide_edge(tmp_path, cap: int) -> str:
    """One unit session over one edge of capacity ``cap``: route_uniform
    codes it at T=cap, so n_edges * T = cap * cap."""
    path = tmp_path / f"wide{cap}.txt"
    path.write_text(f"session 1 s t\nedge s t cap={cap}\n")
    return str(path)


def _refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} reached past the bound")
    return refused


def test_code_and_verify_on_a_wide_edge(tmp_path):
    src, out_path = _wide_edge(tmp_path, 40), str(tmp_path / "w.code")
    rc, out, _ = run_cli("code", src, "-o", out_path)
    assert (rc, out.splitlines()[-1]) == (0, f"RESULT: code q=2 T=40 written {out_path}")
    rc, out, _ = run_cli("verify", src, out_path)
    assert rc == 0 and out.endswith("RESULT: verified\n")


@pytest.mark.parametrize("bound", [None, 40 * 40 - 1])
def test_code_past_the_expansion_bound_exits_2_before_expanding(tmp_path, monkeypatch, bound):
    # the real bound, and one just below cap=40, which is accepted above
    if bound is not None:
        monkeypatch.setattr(graph, "MAX_EXPANDED_EDGES", bound)
    bound = graph.MAX_EXPANDED_EDGES
    cap = math.isqrt(bound) + 1
    assert (cap - 1) ** 2 <= bound < cap * cap
    src = _wide_edge(tmp_path, cap)
    given = load_instance(src)
    # only the input is built, not the expansion, and nothing is planned
    built = record_builds(monkeypatch)
    monkeypatch.setattr(constructors, "edge_disjoint_paths", _refuse("edge_disjoint_paths"))
    rc, out, err = run_cli("code", src, "-o", str(tmp_path / "w.code"))
    assert (rc, out) == (2, "")
    assert f"the {cap}-slot expansion has {cap * cap} edges, above the bound of {bound}" in err
    assert built == [given]


@pytest.mark.parametrize("bound", [None, 40 * 40 - 1])
def test_verify_past_the_expansion_bound_exits_2_before_expanding(
    tmp_path, monkeypatch, bound
):
    if bound is not None:
        monkeypatch.setattr(graph, "MAX_EXPANDED_EDGES", bound)
    bound = graph.MAX_EXPANDED_EDGES
    # a rule line for each of n_edges * T expanded edges, one more than the bound
    cap = bound + 1
    code_path = tmp_path / "wide.code"
    code_path.write_text("field q=2\nvector T=1\n" + "".join(f"code {e} :\n" for e in range(cap)))
    src = _wide_edge(tmp_path, cap)
    given = load_instance(src)
    # only the input is built, not the expansion
    built = record_builds(monkeypatch)
    rc, out, err = run_cli("verify", src, str(code_path))
    assert (rc, out) == (2, "")
    assert f"the 1-slot expansion has {cap} edges, above the bound of {bound}" in err
    assert built == [given]


def test_verify_nonpositive_T_exits_2(fig1, tmp_path):
    code_path = tmp_path / "zero.code"
    code_path.write_text("field q=2\nvector T=0\n")
    rc, _, err = run_cli("verify", fig1, str(code_path))
    assert rc == 2
    assert "T must be >= 1, got 0" in err


# ---------------------------------------------------------------- classify


def test_classify_feasible_lines():
    rc, out, _ = run_cli("classify", "1", "3", "3")
    assert (rc, out) == (0, "RESULT: triple [1,3,3] feasible strategy vector-T2\n")
    rc, out, _ = run_cli("classify", "3", "3", "3")
    assert (rc, out) == (0, "RESULT: triple [3,3,3] feasible strategy routing\n")


def test_classify_infeasible_with_witness_file(tmp_path):
    path = str(tmp_path / "w.txt")
    rc, out, _ = run_cli("classify", "2", "2", "2", "--emit-witness", "-o", path)
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "RESULT: triple [2,2,2] infeasible witness gen_222"
    assert lines[1] == f"WITNESS: gen_222 written {path}"
    assert connectivity_level(load_instance(path)) == (2, 2, 2)


@pytest.mark.parametrize("triple", ["111", "211", "221"])
def test_classify_writes_edge_deleted_witnesses(tmp_path, triple):
    path = str(tmp_path / "w.txt")
    rc, out, _ = run_cli("classify", *triple, "--emit-witness", "-o", path)
    name = "gen_" + "".join(sorted(triple))
    assert (rc, out.splitlines()) == (
        1,
        [f"RESULT: triple [{','.join(triple)}] infeasible witness {name}",
         f"WITNESS: {name} written {path}"],
    )
    assert sorted(connectivity_level(load_instance(path))) == sorted(map(int, triple))


def test_classify_characterization_only_writes_nothing(tmp_path):
    path = tmp_path / "w.txt"
    rc, out, _ = run_cli("classify", "1", "2", "3", "--emit-witness", "-o", str(path))
    assert rc == 1
    assert "witness characterization-only" in out
    assert "WITNESS: none (characterization-only)" in out
    assert not path.exists()


def test_classify_unsorted_input_echoed_verbatim():
    rc, out, _ = run_cli("classify", "3", "1", "3")
    assert rc == 0
    assert out.startswith("RESULT: triple [3,1,3] feasible")


def test_classify_out_of_range_exits_2():
    rc, _, err = run_cli("classify", "0", "3", "3")
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------- search


def test_search_exhausts_fig2b(fig2b):
    rc, out, _ = run_cli("search", fig2b, "--q", "2")
    assert rc == 1
    assert out.strip() == "RESULT: field=2 T=1 enumerated=8 exhausted=true code=none"


def test_search_budget_exceeded_exits_2(fig2b):
    rc, out, _ = run_cli("search", fig2b, "--q", "2", "--budget", "3")
    assert rc == 2
    assert "exhausted=false code=none" in out


def test_search_finds_and_saves_code(fig1, tmp_path):
    code_path = str(tmp_path / "f1.code")
    rc, out, _ = run_cli("search", fig1, "--q", "2", "-o", code_path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == f"CODE: {code_path}"
    assert lines[1] == (
        f"RESULT: field=2 T=1 enumerated=53 exhausted=false code={code_path}"
    )
    assert run_cli("verify", fig1, code_path)[0] == 0


def test_search_found_without_output_says_found(fig1):
    rc, out, _ = run_cli("search", fig1, "--q", "2")
    assert rc == 0
    assert out.strip().endswith("code=found")


def test_search_routing_mode_exhausts_scalar(fig1):
    rc, out, _ = run_cli("search", fig1, "--mode", "routing")
    assert rc == 1
    assert "exhausted=true code=none" in out


def test_search_routing_refuses_a_field_other_than_gf2(fig1):
    rc, out, err = run_cli("search", fig1, "--mode", "routing", "--q", "3")
    assert (rc, out) == (2, "")
    assert "GF(2) only, got --q 3" in err
    # --q 2 is what routing runs anyway
    assert run_cli("search", fig1, "--mode", "routing", "--q", "2") == run_cli(
        "search", fig1, "--mode", "routing"
    )


def test_search_rejects_composite_field(fig2b):
    rc, _, err = run_cli("search", fig2b, "--q", "4")
    assert rc == 2
    assert "prime" in err


@pytest.mark.parametrize("fixture", ["fig2a", "fig3"])
def test_code_rejects_composite_field_before_any_verdict(fixture, request, tmp_path):
    # fig2a has a violated cut and fig3 no construction: neither verdict is
    # printed for a field order that is not prime
    path = request.getfixturevalue(fixture)
    rc, out, err = run_cli("code", path, "--q", "4", "-o", str(tmp_path / "no.code"))
    assert rc == 2
    assert out == ""
    assert "prime" in err


@pytest.mark.parametrize("command", ["code", "search"])
def test_huge_field_order_exits_2(fig1, tmp_path, command):
    # a prime with 19 digits; trial division on it would not finish
    out_path = str(tmp_path / "huge.code")
    rc, out, err = run_cli(command, fig1, "--q", "1000000000000000003", "-o", out_path)
    assert rc == 2
    assert out == ""
    assert "at most 2**31 - 1" in err


def test_search_field_order_past_the_search_bound_exits_2(fig1):
    # the largest field order the field accepts is past the search's bound
    rc, out, err = run_cli("search", fig1, "--q", "2147483647")
    assert (rc, out) == (2, "")
    assert "search field order must be at most 65537" in err


def test_search_accepts_the_largest_search_field_order(fig1):
    rc, out, _ = run_cli("search", fig1, "--q", "65537", "--budget", "3")
    assert rc == 2
    assert out == "RESULT: field=65537 T=1 enumerated=4 exhausted=false code=none\n"


def test_a_budget_bounds_a_search_at_the_largest_field(fig1):
    # normal blocks are built directly: skipping the q - 2 rescalings of each
    # block would walk billions of blocks between two counted ones here.
    # Every counted block is a line of its own, which takes span work, so
    # this takes 1.3-2.1 s of CPU on one Xeon core under Python 3.11, against
    # 0.15 s for the parent's rescaled blocks over the same span
    start = time.process_time()
    rc, out, _ = run_cli("search", fig1, "--q", "65537", "--budget", "100000")
    assert time.process_time() - start < 5.0
    assert rc == 2
    assert out == "RESULT: field=65537 T=1 enumerated=100001 exhausted=false code=none\n"


@pytest.mark.parametrize("mode", ["linear", "routing"])
def test_search_huge_T_exits_2_before_expanding(fig1, monkeypatch, mode):
    def no_expansion(instance, T):
        raise AssertionError(f"expanded to T={T} before checking the edge count")

    monkeypatch.setattr(oracle, "expand_time", no_expansion)
    start = time.process_time()
    rc, out, err = run_cli("search", fig1, "--mode", mode, "--T", "1000000", "--budget", "1")
    assert time.process_time() - start < 0.5
    assert (rc, out) == (2, "")
    assert "search covers at most 1024 expanded edges, got 16000000" in err


def test_search_accepts_the_largest_expanded_instance(fig1):
    # fig1's 16 edges at T=64 fill the bound exactly
    assert oracle.MAX_SEARCH_EDGES == 16 * 64
    rc, out, _ = run_cli("search", fig1, "--T", "64", "--budget", "1")
    assert (rc, out) == (2, "RESULT: field=2 T=64 enumerated=2 exhausted=false code=none\n")
    rc, _, err = run_cli("search", fig1, "--T", "65", "--budget", "1")
    assert rc == 2 and "got 1040" in err


# ---------------------------------------------------------------- export-dot


def test_export_dot_structure(fig1):
    rc, out, _ = run_cli("export-dot", fig1)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "digraph instance {"
    assert lines[-1] == "}"
    inst = load_instance(fig1)
    arrows = [l for l in lines if "->" in l]
    assert len(arrows) == inst.n_edges
    assert '"s1" [label="s1 (s1)", color="crimson", penwidth=2];' in out
    assert run_cli("export-dot", fig1) == (rc, out, "")


def test_export_dot_escapes_quotes_and_backslashes(tmp_path):
    src = tmp_path / "odd.txt"
    src.write_text('session 1 s"1 t\\\nedge s"1 a\nedge a t\\\n')
    rc, out, _ = run_cli("export-dot", str(src))
    assert rc == 0
    assert out.splitlines() == [
        "digraph instance {",
        "  rankdir=LR;",
        '  "s\\"1" [label="s\\"1 (s1)", color="crimson", penwidth=2];',
        '  "a";',
        '  "t\\\\" [label="t\\\\ (t1)", color="crimson", penwidth=2];',
        '  "s\\"1" -> "a" [label="e0"];',
        '  "a" -> "t\\\\" [label="e1"];',
        "}",
    ]


def test_export_dot_with_code_labels(fig1, tmp_path):
    code_path = str(tmp_path / "f1.code")
    dot_path = str(tmp_path / "f1.dot")
    assert run_cli("search", fig1, "--q", "2", "-o", code_path)[0] == 0
    rc, out, _ = run_cli("export-dot", fig1, "--code", code_path, "-o", dot_path)
    assert rc == 0
    assert out == f"RESULT: written {dot_path}\n"
    text = open(dot_path).read()
    arrows = [l for l in text.splitlines() if "->" in l]
    assert all(": " in l for l in arrows)  # every edge labeled with its vector


# ---------------------------------------------------------------- pipeline


def test_gen_minimize_structure_code_verify_pipeline(tmp_path):
    raw = str(tmp_path / "raw.txt")
    slim = str(tmp_path / "slim.txt")
    shaped = str(tmp_path / "shaped.txt")
    code_path = str(tmp_path / "final.code")
    save_instance(sample_1m(seed=21, m=3), raw)
    assert run_cli("minimize", raw, "-o", slim)[0] == 0
    assert run_cli("structure", slim, "-o", shaped)[0] == 0
    assert run_cli("code", shaped, "-o", code_path)[0] == 0
    assert run_cli("verify", shaped, code_path)[0] == 0
    assert connectivity_level(load_instance(shaped)) == connectivity_level(
        load_instance(raw)
    )
