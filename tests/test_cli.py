"""End-to-end command-line checks: exit codes, output lines, file artifacts."""

from __future__ import annotations

import contextlib
import io

import pytest

from netcode_unicast import (
    CutWitness,
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
    verify_code,
)
from netcode_unicast.cli import main


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


@pytest.mark.parametrize(
    "gen, relays, cut",
    [(gen_113, 22, "capacity 1 rate 2"), (gen_222, 24, "capacity 2 rate 3")],
)
def test_analyze_witness_past_the_cut_guard(gen, relays, cut, tmp_path):
    # v1 -> a split by enough relays that the node-set scan would refuse
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
    CutWitness(
        sessions=tuple(int(i) - 1 for i in fields["sessions"].split(",")),
        nodes=tuple(sorted(inst.node_id(n) for n in fields["nodes"].split(","))),
        cut_edges=tuple(int(e) for e in fields["edges"].split(",")),
        capacity=int(fields["capacity"]),
        required_rate=int(fields["rate"]),
    ).validate(inst)


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
    map_text = (tmp_path / "hub.str.map").read_text()
    assert "node h gadget" in map_text
    assert "gadget\n" in map_text


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


def test_code_infeasible_triple_refused(fig2a, tmp_path):
    rc, out, _ = run_cli("code", fig2a, "-o", str(tmp_path / "no.code"))
    assert rc == 1
    assert out == "RESULT: infeasible per classification\n"
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


def test_classify_characterization_only_writes_nothing(tmp_path):
    path = tmp_path / "w.txt"
    rc, out, _ = run_cli("classify", "1", "1", "2", "--emit-witness", "-o", str(path))
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
    assert out.strip() == "RESULT: field=2 T=1 enumerated=32 exhausted=true code=none"


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
        f"RESULT: field=2 T=1 enumerated=391 exhausted=false code={code_path}"
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


def test_search_rejects_composite_field(fig2b):
    rc, _, err = run_cli("search", fig2b, "--q", "4")
    assert rc == 2
    assert "prime" in err


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
