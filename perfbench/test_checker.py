"""The checker accepts the program's real outputs and rejects corrupted ones.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import checker
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from netcode_unicast import cli  # noqa: E402

# Two sessions crossing on the middle edge 2, each with a side edge to the
# other's terminal: the middle edge must carry x0 + x1.
BUTTERFLY = workloads.Spec(
    (("s1", "a"), ("s2", "a"), ("a", "b"), ("b", "t1"), ("b", "t2"), ("s1", "t2"), ("s2", "t1")),
    (("s1", "t1", 1), ("s2", "t2", 1)),
)
BUTTERFLY_CODE = """field q=2
vector T=1
code 0 : x0=1
code 1 : x1=1
code 2 : e0=1 e1=1
code 3 : e2=1
code 4 : e2=1
code 5 : x0=1
code 6 : x1=1
"""

GEN_113 = workloads.Spec(
    (("s1", "v1"), ("s2", "v1"), ("v1", "a"), ("a", "t1"), ("a", "t2"),
     ("s3", "t3"), ("s3", "t3"), ("s3", "t3")),
    (("s1", "t1", 1), ("s2", "t2", 1), ("s3", "t3", 1)),
)


def run_cli(tmp_path: Path, spec, *argv: str) -> tuple[int, str]:
    path = tmp_path / "instance.txt"
    path.write_text(spec.text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([argv[0], str(path), *argv[1:]])
    return status, out.getvalue()


def test_butterfly_code_decodes():
    assert checker.check_code_text(BUTTERFLY, BUTTERFLY_CODE, 2, 1, routing=False) is None


def test_flipped_coefficient_is_rejected():
    flipped = BUTTERFLY_CODE.replace("code 2 : e0=1 e1=1", "code 2 : e0=1")
    reason = checker.check_code_text(BUTTERFLY, flipped, 2, 1, routing=False)
    assert reason is not None and "cannot decode" in reason


def test_coefficient_on_an_absent_edge_is_rejected():
    moved = BUTTERFLY_CODE.replace("code 3 : e2=1", "code 3 : e1=1")
    assert "not available" in checker.check_code_text(BUTTERFLY, moved, 2, 1, routing=False)


def test_mixed_vector_is_rejected_in_routing_mode():
    reason = checker.check_code_text(BUTTERFLY, BUTTERFLY_CODE, 2, 1, routing=True)
    assert reason is not None and "mixed vector" in reason


def test_program_code_passes_and_flipped_coefficient_fails(tmp_path):
    code_path = tmp_path / "found.code"
    status, out = run_cli(tmp_path, BUTTERFLY, "search", "--q", "2", "-o", str(code_path))
    text = code_path.read_text()
    assert checker.check_found(BUTTERFLY, status, out, text, str(code_path), 2, 1, False) is None
    # edge 3 (b -> t1) can only copy edge 2; flipping that coefficient to 0
    # leaves t1 with x1 alone
    assert "code 3 : e2=1\n" in text
    flipped = text.replace("code 3 : e2=1\n", "code 3 :\n")
    reason = checker.check_found(BUTTERFLY, status, out, flipped, str(code_path), 2, 1, False)
    assert reason is not None and "cannot decode" in reason


def test_program_witness_passes_and_dropped_node_fails(tmp_path):
    status, out = run_cli(tmp_path, GEN_113, "analyze")
    assert checker.check_analyze(GEN_113, status, out) is None
    line = next(line for line in out.splitlines() if line.startswith("WITNESS:"))
    assert " nodes s1,v1,s2 " in line
    for dropped in ("s1,s2", "v1,s2"):
        bad = out.replace(line, line.replace("s1,v1,s2", dropped))
        assert checker.check_analyze(GEN_113, status, bad) is not None


def test_missing_witness_is_rejected(tmp_path):
    status, out = run_cli(tmp_path, GEN_113, "analyze")
    stripped = "\n".join(line for line in out.splitlines() if not line.startswith("WITNESS:"))
    reason = checker.check_analyze(GEN_113, 0, stripped)
    assert reason is not None and "no witness" in reason


def test_wrong_connectivity_vector_is_rejected(tmp_path):
    spec = workloads.clean_instance(random.Random(5))
    status, out = run_cli(tmp_path, spec, "analyze")
    assert checker.check_analyze(spec, status, out) is None
    line = next(line for line in out.splitlines() if line.startswith("RESULT: connectivity"))
    levels = [int(x) for x in line[line.index("[") + 1 : -1].split(",")]
    levels[0] += 1
    bad = out.replace(line, "RESULT: connectivity [" + ",".join(map(str, levels)) + "]")
    reason = checker.check_analyze(spec, status, bad)
    assert reason is not None and "connectivity" in reason


def test_exhausted_search_on_a_violated_cut(tmp_path):
    status, out = run_cli(tmp_path, GEN_113, "search", "--q", "2")
    assert checker.check_exhausted(GEN_113, status, out, 2, 1, cut_implied=True) is None
    # the butterfly has no violated cut, so the checker cannot back the claim
    assert checker.check_exhausted(BUTTERFLY, status, out, 2, 1, cut_implied=True) is not None


def test_violated_instance_stops_the_sweep_at_its_depth():
    spec = workloads.violated_instance(random.Random(3), 9)
    assert checker.violated_subsets(spec)
    order = list(dict.fromkeys(n for edge in spec.edges for n in edge))
    pair = checker.violated_subsets(spec)[0]
    ends = {spec.sessions[i][x] for i in pair for x in (0, 1)}
    free = [n for n in order if n not in ends]
    sources = {spec.sessions[i][0] for i in pair}
    bottleneck = next(v for u, v in spec.edges if u in sources)
    assert free.index(bottleneck) == 9


def test_clean_instances_violate_no_cut():
    rng = random.Random(11)
    for _ in range(20):
        assert checker.violated_subsets(workloads.clean_instance(rng)) == []
