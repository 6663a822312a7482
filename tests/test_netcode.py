"""Code representation, propagation, verification, simulation, file io."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from simulate_oracle import simulate
from span_oracle import in_span_reference

from netcode_unicast.constructors import route_uniform
from netcode_unicast.gf import Vectors
from netcode_unicast.graph import build_instance, parse_instance
from netcode_unicast.netcode import (
    EMPTY_RULE,
    CodeError,
    LocalRule,
    NetworkCode,
    code_from_plan,
    is_routing,
    parse_code,
    propagate,
    serialize_code,
    verify_code,
)

BUTTERFLY = build_instance(
    [
        ("s1", "a"),     # 0
        ("s2", "a"),     # 1
        ("s1", "t2"),    # 2
        ("s2", "t1"),    # 3
        ("a", "b"),      # 4
        ("b", "t1"),     # 5
        ("b", "t2"),     # 6
    ],
    [("s1", "t1"), ("s2", "t2")],
)

# the classic XOR-in-the-middle solution
BUTTERFLY_CODE = NetworkCode(
    q=2,
    T=1,
    rules=(
        LocalRule(src_coeffs=((0, 1),)),
        LocalRule(src_coeffs=((1, 1),)),
        LocalRule(src_coeffs=((0, 1),)),
        LocalRule(src_coeffs=((1, 1),)),
        LocalRule(in_coeffs=((0, 1), (1, 1))),
        LocalRule(in_coeffs=((4, 1),)),
        LocalRule(in_coeffs=((4, 1),)),
    ),
)


def with_global_lines(code, vectors):
    """``code``'s file text plus a ``global`` line per expanded edge, which
    ``parse_code`` reads and ``verify`` checks but the package never writes."""
    lines = [f"global {eid} : " + ",".join(map(str, vec)) for eid, vec in enumerate(vectors)]
    return serialize_code(code) + "\n".join(lines) + "\n"


def test_propagate_butterfly():
    vectors = propagate(BUTTERFLY, BUTTERFLY_CODE)
    assert vectors[0] == (1, 0)
    assert vectors[1] == (0, 1)
    assert vectors[4] == (1, 1)
    assert vectors[5] == (1, 1)


def test_verify_butterfly_passes():
    result = verify_code(BUTTERFLY, BUTTERFLY_CODE)
    assert result.all_pass
    t1 = result.reports[0]
    assert t1.in_edges == (3, 5)
    # X_0 = Y_3 + Y_5 = X_1 + (X_0 + X_1) over GF(2)
    assert t1.decoders == ((1, 1),)


def test_verify_rank_deficiency_fails():
    # drop the side edges: terminals only see X_0 + X_1
    crippled = NetworkCode(
        q=2,
        T=1,
        rules=BUTTERFLY_CODE.rules[:2]
        + (EMPTY_RULE, EMPTY_RULE)
        + BUTTERFLY_CODE.rules[4:],
    )
    result = verify_code(BUTTERFLY, crippled)
    assert not result.all_pass
    assert result.reports[0].decoders == (None,)


def test_zero_code_fails():
    zero = NetworkCode(2, 1, (EMPTY_RULE,) * BUTTERFLY.n_edges)
    assert not verify_code(BUTTERFLY, zero).all_pass


def test_validate_errors():
    with pytest.raises(CodeError, match="covers"):
        propagate(BUTTERFLY, NetworkCode(2, 1, (EMPTY_RULE,) * 3))
    bad_key = NetworkCode(2, 1, ((LocalRule(in_coeffs=((5, 1),)),) + (EMPTY_RULE,) * 6))
    with pytest.raises(CodeError, match="not\\s+available"):
        propagate(BUTTERFLY, bad_key)
    bad_coeff = NetworkCode(
        2, 1, ((LocalRule(src_coeffs=((0, 2),)),) + (EMPTY_RULE,) * 6)
    )
    with pytest.raises(CodeError, match="outside"):
        propagate(BUTTERFLY, bad_coeff)
    unsorted = NetworkCode(
        2,
        1,
        (EMPTY_RULE,) * 4
        + (LocalRule(in_coeffs=((1, 1), (0, 1))),)
        + (EMPTY_RULE,) * 2,
    )
    with pytest.raises(CodeError, match="ascend"):
        propagate(BUTTERFLY, unsorted)


@pytest.mark.parametrize(
    "eid,rule,message",
    [
        # edge 2 (s1 -> t2) does not end at edge 4's tail a
        (4, LocalRule(in_coeffs=((2, 1),)), "edge 4: coefficient on in-edge 2 not available"),
        (4, LocalRule(in_coeffs=((-1, 1),)), "edge 4: coefficient on in-edge -1 not available"),
        (4, LocalRule(in_coeffs=((7, 1),)), "edge 4: coefficient on in-edge 7 not available"),
        # symbol 1 is injected at s2, not at edge 0's tail s1
        (0, LocalRule(src_coeffs=((1, 1),)), "edge 0: coefficient on source symbol 1 not"),
        (0, LocalRule(src_coeffs=((-1, 1),)), "edge 0: coefficient on source symbol -1 not"),
        (0, LocalRule(src_coeffs=((2, 1),)), "edge 0: coefficient on source symbol 2 not"),
        (4, LocalRule(src_coeffs=((0, 1),)), "edge 4: coefficient on source symbol 0 not"),
        (4, LocalRule(in_coeffs=((1, 1), (1, 1))), "edge 4: in-edge keys must ascend"),
        (4, LocalRule(in_coeffs=((0, 1), (1, 2))), "edge 4: coefficient 2 outside GF\\(2\\)"),
    ],
)
def test_validate_names_each_fault(eid, rule, message):
    rules = list(BUTTERFLY_CODE.rules)
    rules[eid] = rule
    with pytest.raises(CodeError, match=message):
        NetworkCode(2, 1, tuple(rules)).validate(BUTTERFLY)


def test_vector_code_on_expanded_edges():
    inst = build_instance([("s", "t"), ("s", "t")], [("s", "t", 1)])
    # T=2: four expanded edges, rate 2, symbols x0 x1
    code = NetworkCode(
        q=2,
        T=2,
        rules=(
            LocalRule(src_coeffs=((0, 1),)),
            LocalRule(src_coeffs=((1, 1),)),
            EMPTY_RULE,
            EMPTY_RULE,
        ),
    )
    result = verify_code(inst, code)
    assert result.all_pass
    vectors = propagate(inst, code)
    assert vectors == ((1, 0), (0, 1), (0, 0), (0, 0))


def test_code_from_plan_reconstructs():
    plan = {
        0: (1, 0),
        1: (0, 1),
        2: (1, 0),
        3: (0, 1),
        4: (1, 1),
        5: (1, 1),
        6: (1, 1),
    }
    code = code_from_plan(BUTTERFLY, 2, 1, plan)
    assert propagate(BUTTERFLY, code) == tuple(plan[e] for e in range(7))
    assert verify_code(BUTTERFLY, code).all_pass
    assert code.rules[4] == LocalRule(in_coeffs=((0, 1), (1, 1)))


def test_code_from_plan_rejects_unrealizable():
    plan = {0: (1, 0), 1: (0, 1), 4: (1, 1), 5: (1, 0)}
    with pytest.raises(CodeError, match="not realizable"):
        code_from_plan(BUTTERFLY, 2, 1, plan)


@pytest.mark.parametrize("eid", [7, -1])
def test_code_from_plan_rejects_a_vector_on_a_missing_edge(eid):
    # BUTTERFLY has edges 0..6; a vector meant for an edge it lacks is a
    # mapping error upstream, not a zero to drop
    with pytest.raises(CodeError, match="outside the expanded instance"):
        code_from_plan(BUTTERFLY, 2, 1, {0: (1, 0), eid: (1, 0)})
    with pytest.raises(CodeError, match="outside the expanded instance"):
        code_from_plan(BUTTERFLY, 2, 2, {14 if eid == 7 else eid: (1, 0, 0, 0)})


def test_code_from_plan_rejects_a_vector_of_the_wrong_length():
    # BUTTERFLY carries two unit symbols at T=1
    with pytest.raises(CodeError, match="edge 0: plan vector has the wrong length"):
        code_from_plan(BUTTERFLY, 2, 1, {0: (1, 0, 0)})


def test_is_routing():
    assert is_routing([(0, 0), (1, 0), (0, 1)])
    assert not is_routing([(1, 1)])
    assert not is_routing([(0, 2)])


def test_code_file_roundtrip():
    text = serialize_code(BUTTERFLY_CODE)
    code, globals_table = parse_code(text)
    assert code == BUTTERFLY_CODE
    assert globals_table is None
    assert serialize_code(code) == text
    lines = text.splitlines()
    assert lines[0] == "field q=2"
    assert lines[1] == "vector T=1"
    assert lines[2] == "code 0 : x0=1"
    assert lines[6] == "code 4 : e0=1 e1=1"


def test_code_file_with_globals():
    vectors = propagate(BUTTERFLY, BUTTERFLY_CODE)
    text = with_global_lines(BUTTERFLY_CODE, vectors)
    code, globals_table = parse_code(text)
    assert code == BUTTERFLY_CODE
    assert globals_table == {e: vectors[e] for e in range(7)}
    assert "global 4 : 1,1" in text


@pytest.mark.parametrize(
    "text,needle",
    [
        ("code 0 : x0=1\n", "header"),
        ("field q=2\nvector T=1\ncode 0 : x0=1\ncode 0 : x0=1\n", "duplicate"),
        ("field q=2\nvector T=1\nglobal 0 : 1\nglobal 0 : 1\n", "line 4: duplicate global"),
        ("field q=3\nfield q=2\nvector T=1\ncode 0 : x0=1\n", "line 2: duplicate 'field'"),
        ("field q=2\nvector T=2\nvector T=1\ncode 0 : x0=1\n", "line 3: duplicate 'vector'"),
        ("field q=2\nvector T=1\ncode 1 : x0=1\n", "cover"),
        ("field q=2\nvector T=1\ncode 0 : y0=1\n", "bad coefficient"),
        # a repeated key is refused, whether a copy is zero or not
        ("field q=2\nvector T=1\ncode 0 : e0=0 e0=1\n", "line 3: duplicate coefficient 'e0'"),
        ("field q=2\nvector T=1\ncode 0 : e0=1 e0=1\n", "line 3: duplicate coefficient 'e0'"),
        ("field q=2\nvector T=1\ncode 0 : x1=1 x1=0\n", "line 3: duplicate coefficient 'x1'"),
        ("field q=2\nvector T=1\ncode 0 x0=1\n", "expected"),
        ("field q=2\nvector T=1\nnoise\n", "unknown directive"),
        ("field q=x\n", "bad integer"),
        ("field\n", "line 1: expected 'field q=<q>'"),
        ("field q=2\nvector T=1 x\n", "line 2: expected 'vector T=<T>'"),
        ("field q=2\nvector T=1\nglobal 0 :\n", "line 3: expected 'global <edge-id> : v,\\.\\.\\.'"),
    ],
)
def test_code_parse_errors(text, needle):
    with pytest.raises(CodeError, match=needle):
        parse_code(text)


@st.composite
def butterfly_code_and_values(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    coeff = st.integers(min_value=0, max_value=q - 1)
    rules = []
    for eid in range(BUTTERFLY.n_edges):
        tail = BUTTERFLY.tail(eid)
        in_coeffs = tuple(
            (j, c)
            for j in BUTTERFLY.in_edges[tail]
            if (c := draw(coeff)) != 0
        )
        src_coeffs = tuple(
            (k, c)
            for k in BUTTERFLY.observed_symbols(tail)
            if (c := draw(coeff)) != 0
        )
        rules.append(LocalRule(in_coeffs, src_coeffs))
    values = tuple(draw(coeff) for _ in range(2))
    return NetworkCode(q, 1, tuple(rules)), values


@settings(max_examples=150, derandomize=True)
@given(butterfly_code_and_values())
def test_simulation_matches_propagation(code_and_values):
    code, values = code_and_values
    vectors = propagate(BUTTERFLY, code)
    edge_values = simulate(BUTTERFLY, code, values)
    for vec, got in zip(vectors, edge_values):
        want = sum(c * x for c, x in zip(vec, values)) % code.q
        assert got == want


def test_verify_monotone_under_extra_in_edge():
    # widening a terminal's view can only help decoding
    wide = build_instance(
        [
            ("s1", "a"),     # 0
            ("s2", "a"),     # 1
            ("s1", "t2"),    # 2
            ("s2", "t1"),    # 3
            ("a", "b"),      # 4
            ("b", "t1"),     # 5
            ("b", "t2"),     # 6
            ("s2", "t2"),    # 7  extra idle in-edge
        ],
        [("s1", "t1"), ("s2", "t2")],
    )
    rules = BUTTERFLY_CODE.rules + (EMPTY_RULE,)
    code = NetworkCode(q=2, T=1, rules=rules)
    report = verify_code(wide, code)
    assert report.all_pass


def test_wide_terminal_decoders_match_per_symbol_reference():
    # 1,600 in-edge copies against 40 symbols: one elimination per terminal
    # must give what a separate solve per symbol gives
    inst = parse_instance("session 1 s t\nedge s t cap=40\n")
    code = route_uniform(inst)
    result = verify_code(inst, code)
    [report] = result.reports
    assert report.passed and len(report.in_edges) == 40 * 40
    rows = [result.vectors[e] for e in report.in_edges]
    V = Vectors(code.q, 40)
    assert report.decoders == tuple(in_span_reference(V.unit(k), rows, code.q) for k in range(40))
