"""Linear network codes: local rules, propagation, decodability, file io.

A code over GF(q) with vector length T lives on the T-expanded instance
(edge copy tau of edge e has id ``e*T + tau``).  Each expanded edge has a
local rule: coefficients over the in-edges of its tail plus injection
coefficients over the source symbols observed there.  Global coding vectors
(length L = total expanded rate) follow by topological propagation, and a
terminal decodes iff its own unit vectors lie in the span of its in-edge
vectors, which one elimination of those vectors answers for all of them.
Realizing a plan and checking the code it gives share one expansion of the
instance: :func:`~netcode_unicast.graph.expand_time` keeps it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .gf import Vector, Vectors, _checked_prime, in_span
from .graph import UnicastInstance, expand_time


class CodeError(ValueError):
    """Raised for structurally invalid codes or malformed code files."""


@dataclass(frozen=True, slots=True)
class LocalRule:
    """Coefficients of one edge: ``in_coeffs`` over in-edge ids of the tail,
    ``src_coeffs`` over observed source-symbol indices.  Zero coefficients
    are omitted; keys ascend."""

    in_coeffs: tuple[tuple[int, int], ...] = ()
    src_coeffs: tuple[tuple[int, int], ...] = ()

    @classmethod
    def over(
        cls, in_ids: Sequence[int], src_ids: Sequence[int], coeffs: Vector
    ) -> LocalRule:
        """The rule whose ``coeffs`` run over ``in_ids``, then ``src_ids``."""
        return cls(
            tuple((j, c) for j, c in zip(in_ids, coeffs) if c),
            tuple((k, c) for k, c in zip(src_ids, coeffs[len(in_ids):]) if c),
        )


EMPTY_RULE = LocalRule()


@dataclass(frozen=True, slots=True)
class NetworkCode:
    """Local rules for every edge of the T-expanded instance, in id order."""

    q: int
    T: int
    rules: tuple[LocalRule, ...]

    def validate(self, instance: UnicastInstance) -> UnicastInstance:
        """Check structural fit against ``instance``; returns the expanded
        instance the code lives on."""
        # checked before expanding, which costs time and memory linear in T
        if self.T < 1:
            raise CodeError(f"T must be >= 1, got {self.T}")
        if len(self.rules) != instance.n_edges * self.T:
            raise CodeError(
                f"code covers {len(self.rules)} edges, expanded instance has "
                f"{instance.n_edges * self.T}"
            )
        expanded = expand_time(instance, self.T)
        _checked_prime(self.q)
        # a key is available at a tail when the tail is the head of that
        # in-edge, or the source of that symbol's session
        heads = [v for _, v in expanded.edges]
        observers = [s.source for s in expanded.sessions for _ in range(s.rate)]
        for eid, rule in enumerate(self.rules):
            tail = expanded.edges[eid][0]
            for keys, at, what in (
                (rule.in_coeffs, heads, "in-edge"),
                (rule.src_coeffs, observers, "source symbol"),
            ):
                prev = -1
                for key, coeff in keys:
                    if not (0 <= key < len(at) and at[key] == tail):
                        raise CodeError(
                            f"edge {eid}: coefficient on {what} {key} not "
                            f"available at its tail"
                        )
                    if key <= prev:
                        raise CodeError(f"edge {eid}: {what} keys must ascend")
                    prev = key
                    if not 1 <= coeff < self.q:
                        raise CodeError(
                            f"edge {eid}: coefficient {coeff} outside GF({self.q})"
                        )
        return expanded


def propagate(instance: UnicastInstance, code: NetworkCode) -> tuple[Vector, ...]:
    """Global coding vectors per expanded edge, in topological edge order."""
    return _propagate(code.validate(instance), code)


def _propagate(expanded: UnicastInstance, code: NetworkCode) -> tuple[Vector, ...]:
    V = Vectors(code.q, expanded.n_symbols)
    vectors: list[Vector] = [V.zero] * expanded.n_edges
    for eid in expanded.edges_in_topo_order():
        ins, srcs = code.rules[eid].in_coeffs, code.rules[eid].src_coeffs
        if not srcs and len(ins) == 1 and ins[0][1] == 1:
            vectors[eid] = vectors[ins[0][0]]  # a copy is the same vector
        elif ins or srcs:  # an empty rule keeps the one zero vector
            vectors[eid] = V.combine(
                [c for _, c in ins + srcs],
                [vectors[j] for j, _ in ins] + [V.unit(k) for k, _ in srcs],
            )
    return tuple(vectors)


@dataclass(frozen=True, slots=True)
class TerminalReport:
    """Decodability of one session at its terminal.

    ``decoders`` holds, per own source symbol, the combination coefficients
    over the terminal's in-edges (ascending id) proving recovery, or None.
    """

    session: int
    passed: bool
    in_edges: tuple[int, ...]
    decoders: tuple[Vector | None, ...]


@dataclass(frozen=True, slots=True)
class VerifyResult:
    """Terminal reports, and the global vector of every expanded edge."""

    reports: tuple[TerminalReport, ...]
    vectors: tuple[Vector, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.reports)


def verify_code(instance: UnicastInstance, code: NetworkCode) -> VerifyResult:
    """Check every session's terminal: own unit vectors must lie in the span
    of the global vectors received on its in-edges."""
    expanded = code.validate(instance)
    vectors = _propagate(expanded, code)
    V = Vectors(code.q, expanded.n_symbols)
    reports: list[TerminalReport] = []
    for i, session in enumerate(expanded.sessions):
        fed = tuple(expanded.in_edges[session.terminal])
        rows = [vectors[e] for e in fed]
        decoders = in_span([V.unit(k) for k in expanded.session_symbols(i)], rows, code.q)
        reports.append(
            TerminalReport(
                session=i,
                passed=all(d is not None for d in decoders),
                in_edges=fed,
                decoders=tuple(decoders),
            )
        )
    return VerifyResult(tuple(reports), vectors)


def is_routing(vectors: Iterable[Vector]) -> bool:
    """True when every vector carries at most one symbol, with coefficient 1."""
    for vec in vectors:
        nonzero = len(vec) - vec.count(0)
        if nonzero > 1 or (nonzero and 1 not in vec):
            return False
    return True


def code_from_plan(
    instance: UnicastInstance,
    q: int,
    T: int,
    plan: Mapping[int, Vector],
) -> NetworkCode:
    """Realize target global vectors as local rules.

    ``plan`` maps expanded edge ids to the vectors they must carry.  Missing
    edges carry zero and keep the empty rule.  Each planned edge's rule is
    solved from its tail's in-edge vectors and observed unit injections,
    one :func:`~netcode_unicast.gf.in_span` call per distinct set of those
    rows for all the targets asked of it; unrealizable targets, and targets
    on edges the expanded instance lacks, raise.
    """
    expanded = expand_time(instance, T)
    if any(not 0 <= eid < expanded.n_edges for eid in plan):
        raise CodeError("plan vector on an edge outside the expanded instance")
    V = Vectors(q, expanded.n_symbols)
    rules: list[LocalRule] = [EMPTY_RULE] * expanded.n_edges
    # only session sources observe symbols
    observed_at = {s.source: expanded.observed_symbols(s.source) for s in expanded.sessions}
    # the planned out-edges of a tail, and tails whose in-edges carry the
    # same vectors, ask of the same rows: each distinct row set is
    # eliminated once, for every distinct target asked of it
    by_rows: dict[tuple[Vector, ...], dict[Vector, Vector | None]] = {}
    asked_at: dict[int, dict[Vector, Vector | None]] = {}
    planned: list[tuple[int, int, Vector]] = []
    for eid in expanded.edges_in_topo_order():
        target = plan.get(eid)
        if target is None:
            continue
        if len(target) != V.n:
            raise CodeError(f"edge {eid}: plan vector has the wrong length")
        tail = expanded.tail(eid)
        if tail not in asked_at:
            rows = (
                *[plan.get(j, V.zero) for j in expanded.in_edges[tail]],
                *[V.unit(k) for k in observed_at.get(tail, ())],
            )
            asked_at[tail] = by_rows.setdefault(rows, {})
        asked_at[tail][target] = None
        planned.append((eid, tail, target))
    for rows, asked in by_rows.items():
        targets = list(asked)
        asked.update(zip(targets, in_span(targets, rows, q)))
    for eid, tail, target in planned:
        coeffs = asked_at[tail][target]
        if coeffs is None:
            raise CodeError(f"edge {eid}: plan vector not realizable at its tail")
        rules[eid] = LocalRule.over(expanded.in_edges[tail], observed_at.get(tail, ()), coeffs)
    return NetworkCode(q, T, tuple(rules))


# -- code file format -------------------------------------------------------


def serialize_code(code: NetworkCode) -> str:
    """Canonical text form: header, then one line per expanded edge."""
    lines = [f"field q={code.q}", f"vector T={code.T}"]
    for eid, rule in enumerate(code.rules):
        parts = [f"e{j}={c}" for j, c in rule.in_coeffs]
        parts += [f"x{k}={c}" for k, c in rule.src_coeffs]
        rhs = " " + " ".join(parts) if parts else ""
        lines.append(f"code {eid} :{rhs}")
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> tuple[NetworkCode, dict[int, Vector] | None]:
    """Parse a code file; returns the code and the global table if present.

    Raises:
        CodeError: with a 1-based line number on malformed input.
    """
    q: int | None = None
    T: int | None = None
    rule_lines: dict[int, LocalRule] = {}
    globals_table: dict[int, Vector] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "field":
            if len(parts) != 2 or not parts[1].startswith("q="):
                raise CodeError(f"line {lineno}: expected 'field q=<q>'")
            if q is not None:
                raise CodeError(f"line {lineno}: duplicate 'field' header")
            q = _parse_int(parts[1][2:], lineno)
        elif kind == "vector":
            if len(parts) != 2 or not parts[1].startswith("T="):
                raise CodeError(f"line {lineno}: expected 'vector T=<T>'")
            if T is not None:
                raise CodeError(f"line {lineno}: duplicate 'vector' header")
            T = _parse_int(parts[1][2:], lineno)
        elif kind == "code":
            if len(parts) < 3 or parts[2] != ":":
                raise CodeError(f"line {lineno}: expected 'code <edge-id> : ...'")
            eid = _parse_int(parts[1], lineno)
            if eid in rule_lines:
                raise CodeError(f"line {lineno}: duplicate code line for edge {eid}")
            coeffs: dict[str, dict[int, int]] = {"e": {}, "x": {}}
            for token in parts[3:]:
                if "=" not in token or token[0] not in coeffs:
                    raise CodeError(f"line {lineno}: bad coefficient {token!r}")
                key_text, _, coeff_text = token.partition("=")
                key = _parse_int(key_text[1:], lineno)
                if key in coeffs[token[0]]:
                    raise CodeError(f"line {lineno}: duplicate coefficient {key_text!r}")
                coeffs[token[0]][key] = _parse_int(coeff_text, lineno)
            rule_lines[eid] = LocalRule(
                in_coeffs=tuple(sorted((j, c) for j, c in coeffs["e"].items() if c != 0)),
                src_coeffs=tuple(sorted((k, c) for k, c in coeffs["x"].items() if c != 0)),
            )
        elif kind == "global":
            if len(parts) != 4 or parts[2] != ":":
                raise CodeError(f"line {lineno}: expected 'global <edge-id> : v,...'")
            eid = _parse_int(parts[1], lineno)
            if eid in globals_table:
                raise CodeError(f"line {lineno}: duplicate global line for edge {eid}")
            globals_table[eid] = tuple(
                _parse_int(v, lineno) for v in parts[3].split(",")
            )
        else:
            raise CodeError(f"line {lineno}: unknown directive {kind!r}")
    if q is None or T is None:
        raise CodeError("missing 'field q=' or 'vector T=' header")
    # sized by the lines, not by the largest id, which may be huge
    n_edges = len(rule_lines)
    if sorted(rule_lines) != list(range(n_edges)):
        raise CodeError("code lines must cover edge ids 0..N-1 exactly")
    rules = tuple(rule_lines[eid] for eid in range(n_edges))
    return NetworkCode(q, T, rules), (globals_table or None)


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CodeError(f"line {lineno}: bad integer {text!r}") from None


def load_code(path: str) -> tuple[NetworkCode, dict[int, Vector] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code(fh.read())


def save_code(code: NetworkCode, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_code(code))
