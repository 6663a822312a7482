"""Independent checks of the program's outputs.

Nothing here imports the program.  The checker works on the benchmark's own
instance specs (named edges in file order, sessions as (source, terminal,
rate)) and on the text the program printed or wrote, with its own max-flow,
its own GF(q) propagation and its own elimination.

Every ``check_*`` function returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import combinations

SUPER_SOURCE = ("super", "source")
SUPER_SINK = ("super", "sink")


class Rejected(Exception):
    """An output that cannot be right; the message says why."""


# -- flows ----------------------------------------------------------------------


def max_flow(arcs, source, sink) -> int:
    """Shortest-augmenting-path max-flow over (tail, head, capacity) arcs.

    Each arc is stored next to its reverse residual arc, so arc ``a ^ 1`` is
    the partner of arc ``a``."""
    adjacent: dict = {}
    heads: list = []
    residual: list[int] = []
    for u, v, cap in arcs:
        adjacent.setdefault(u, []).append(len(heads))
        heads.append(v)
        residual.append(cap)
        adjacent.setdefault(v, []).append(len(heads))
        heads.append(u)
        residual.append(0)
    total = 0
    while True:
        via = {source: None}
        queue = deque([source])
        while queue and sink not in via:
            x = queue.popleft()
            for a in adjacent.get(x, ()):
                if residual[a] and heads[a] not in via:
                    via[heads[a]] = a
                    queue.append(heads[a])
        if sink not in via:
            return total
        push, x = None, sink
        while via[x] is not None:
            a = via[x]
            push = residual[a] if push is None else min(push, residual[a])
            x = heads[a ^ 1]
        x = sink
        while via[x] is not None:
            a = via[x]
            residual[a] -= push
            residual[a ^ 1] += push
            x = heads[a ^ 1]
        total += push


def connectivity(spec) -> tuple[int, ...]:
    unit = [(u, v, 1) for u, v in spec.edges]
    return tuple(max_flow(unit, s, t) for s, t, _ in spec.sessions)


def violated_subsets(spec) -> list[tuple[int, ...]]:
    """Session subsets (0-based) whose super-source/super-sink min-cut is
    below their summed rate.  A subset whose sources and terminals overlap
    cannot be separated by any node set and is skipped."""
    big = len(spec.edges) + 1
    unit = [(u, v, 1) for u, v in spec.edges]
    found = []
    for size in range(1, len(spec.sessions) + 1):
        for subset in combinations(range(len(spec.sessions)), size):
            sources = {spec.sessions[i][0] for i in subset}
            terminals = {spec.sessions[i][1] for i in subset}
            if sources & terminals:
                continue
            arcs = unit + [(SUPER_SOURCE, s, big) for s in sources]
            arcs += [(t, SUPER_SINK, big) for t in terminals]
            if max_flow(arcs, SUPER_SOURCE, SUPER_SINK) < sum(spec.sessions[i][2] for i in subset):
                found.append(subset)
    return found


# -- analyze ----------------------------------------------------------------------

WITNESS = re.compile(
    r"WITNESS: capacity (\d+) rate (\d+) sessions ([\d,]+) nodes (\S*) edges ?(\S*)$"
)


def check_witness(spec, line: str) -> str | None:
    """Recount the printed witness against the instance."""
    match = WITNESS.fullmatch(line.strip())
    if match is None:
        return f"malformed witness line {line!r}"
    capacity, rate = int(match[1]), int(match[2])
    sessions = [int(x) - 1 for x in match[3].split(",")]
    inside = set(match[4].split(",")) if match[4] else set()
    edges = [int(x) for x in match[5].split(",")] if match[5] else []
    names = {n for edge in spec.edges for n in edge}
    if not inside <= names:
        return f"witness names unknown nodes {sorted(inside - names)}"
    if any(not 0 <= i < len(spec.sessions) for i in sessions):
        return "witness names an unknown session"
    for i in sessions:
        source, terminal, _ = spec.sessions[i]
        if source not in inside or terminal in inside:
            return f"witness node set does not separate session {i + 1}"
    crossing = [e for e, (u, v) in enumerate(spec.edges) if u in inside and v not in inside]
    if crossing != edges:
        return f"witness lists edges {edges}, the node set has crossing edges {crossing}"
    if capacity != len(crossing):
        return f"witness capacity {capacity}, crossing edge count {len(crossing)}"
    if rate != sum(spec.sessions[i][2] for i in sessions):
        return f"witness rate {rate} is not the sessions' summed rate"
    if capacity >= rate:
        return f"witness capacity {capacity} does not violate rate {rate}"
    return None


def check_analyze(spec, status: int, out: str) -> str | None:
    lines = out.splitlines()
    nodes = {n for edge in spec.edges for n in edge}
    if f"nodes {len(nodes)}" not in lines or f"edges {len(spec.edges)}" not in lines:
        return "node or edge count line is wrong"
    want = "RESULT: connectivity [" + ",".join(map(str, connectivity(spec))) + "]"
    if want not in lines:
        return f"connectivity line missing or wrong, expected {want!r}"
    witnesses = [line for line in lines if line.startswith("WITNESS:")]
    violated = violated_subsets(spec)
    if not violated:
        if witnesses:
            return "no cut-set bound is violated, yet a witness was printed"
        return None if status == 0 else f"exit status {status} with no violated cut"
    if not witnesses:
        shown = ",".join(str(i + 1) for i in violated[0])
        return f"the cut for sessions {shown} is violated, but no witness was printed"
    if len(witnesses) > 1:
        return "more than one witness line"
    reason = check_witness(spec, witnesses[0])
    if reason is None and status != 1:
        return f"exit status {status} with a witness"
    return reason


# -- codes ----------------------------------------------------------------------


def parse_code(text: str):
    """Return (q, T, rules) where rules[x] = (in-edge terms, symbol terms)."""
    q = T = None
    rules: dict[int, tuple[list, list]] = {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts or parts[0] == "global":
            continue
        if parts[0] == "field" and len(parts) == 2 and parts[1].startswith("q="):
            q = int(parts[1][2:])
        elif parts[0] == "vector" and len(parts) == 2 and parts[1].startswith("T="):
            T = int(parts[1][2:])
        elif parts[0] == "code" and len(parts) >= 3 and parts[2] == ":":
            x = int(parts[1])
            if x in rules:
                raise Rejected(f"two rules for expanded edge {x}")
            terms: tuple[list, list] = ([], [])
            for token in parts[3:]:
                key, _, coeff = token.partition("=")
                if key[:1] not in ("e", "x") or not coeff:
                    raise Rejected(f"bad term {token!r}")
                terms[key[0] == "x"].append((int(key[1:]), int(coeff)))
            rules[x] = terms
        else:
            raise Rejected(f"unreadable code line {raw!r}")
    if q is None or T is None:
        raise Rejected("code file lacks its field or vector header")
    return q, T, rules


def _topological(spec) -> list[str]:
    indegree: dict[str, int] = {}
    succ: dict[str, list[str]] = {}
    for u, v in spec.edges:
        indegree.setdefault(u, 0)
        indegree[v] = indegree.get(v, 0) + 1
        succ.setdefault(u, []).append(v)
    ready = deque(n for n, d in indegree.items() if d == 0)
    order = []
    while ready:
        n = ready.popleft()
        order.append(n)
        for v in succ.get(n, ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    if len(order) != len(indegree):
        raise Rejected("instance has a cycle")
    return order


def global_vectors(spec, q: int, T: int, rules) -> list[list[int]]:
    """Propagate the local rules to a global vector per expanded edge.

    Expanded edge ``e*T + tau`` is copy tau of edge e; session i owns
    ``rate_i * T`` consecutive symbols, observed at its source."""
    n_edges = len(spec.edges) * T
    if sorted(rules) != list(range(n_edges)):
        raise Rejected(f"rules do not cover expanded edges 0..{n_edges - 1} exactly")
    width = sum(r * T for _, _, r in spec.sessions)
    observed: dict[str, set[int]] = {}
    offset = 0
    for source, _, rate in spec.sessions:
        observed.setdefault(source, set()).update(range(offset, offset + rate * T))
        offset += rate * T
    into: dict[str, set[int]] = {}
    for e, (_, v) in enumerate(spec.edges):
        into.setdefault(v, set()).update(range(e * T, e * T + T))
    rank = {n: i for i, n in enumerate(_topological(spec))}
    vectors: list[list[int] | None] = [None] * n_edges
    for x in sorted(range(n_edges), key=lambda x: rank[spec.edges[x // T][0]]):
        tail = spec.edges[x // T][0]
        edge_terms, symbol_terms = rules[x]
        acc = [0] * width
        for key, coeff in edge_terms:
            _check_term(x, f"e{key}", key in into.get(tail, ()), coeff, q)
            acc = [(a + coeff * b) % q for a, b in zip(acc, vectors[key])]
        for key, coeff in symbol_terms:
            _check_term(x, f"x{key}", key in observed.get(tail, ()), coeff, q)
            acc[key] = (acc[key] + coeff) % q
        vectors[x] = acc
    return vectors


def _check_term(x: int, term: str, available: bool, coeff: int, q: int) -> None:
    if not available:
        raise Rejected(f"edge {x} uses {term}, which is not available at its tail")
    if not 0 < coeff < q:
        raise Rejected(f"edge {x} has coefficient {coeff} outside GF({q})")


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over GF(q), q prime, by reduced row elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        rows[rank] = [a * inv % q for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_code_text(spec, text: str, q: int, T: int, routing: bool) -> str | None:
    """Every terminal's own unit vectors lie in the span of its in-edge
    vectors; in routing mode every global vector is zero or a unit vector."""
    try:
        got_q, got_T, rules = parse_code(text)
        if (got_q, got_T) != (q, T):
            return f"code is over GF({got_q}) with T={got_T}, expected GF({q}) with T={T}"
        vectors = global_vectors(spec, q, T, rules)
    except (Rejected, ValueError) as exc:
        return str(exc)
    if routing:
        for x, vec in enumerate(vectors):
            if [c for c in vec if c] not in ([], [1]):
                return f"edge {x} carries a mixed vector in a routing code"
    width = len(vectors[0]) if vectors else 0
    offset = 0
    for i, (_, terminal, rate) in enumerate(spec.sessions):
        rows = [vectors[e * T + tau] for e, (_, v) in enumerate(spec.edges) if v == terminal for tau in range(T)]
        base = rank_mod(rows, q)
        for k in range(offset, offset + rate * T):
            unit = [int(c == k) for c in range(width)]
            if rank_mod(rows + [unit], q) != base:
                return f"terminal of session {i + 1} cannot decode symbol {k}"
        offset += rate * T
    return None


def check_code(spec, status: int, out: str, text: str | None, path: str, q: int, T: int) -> str | None:
    """Output of ``code``: exit 0, a RESULT line naming the file, a code that decodes."""
    want = f"RESULT: code q={q} T={T} written {path}"
    if want not in out.splitlines():
        return f"expected {want!r}"
    if status != 0:
        return f"exit status {status}"
    if text is None:
        return "no code file was written"
    return check_code_text(spec, text, q, T, routing=False)


SEARCH = re.compile(r"RESULT: field=(\d+) T=(\d+) enumerated=(\d+) exhausted=(true|false) code=(\S+)")


def search_result(out: str):
    """(q, T, enumerated, exhausted, code reference) from a search's RESULT line."""
    for line in out.splitlines():
        match = SEARCH.fullmatch(line)
        if match:
            return int(match[1]), int(match[2]), int(match[3]), match[4] == "true", match[5]
    return None


def check_found(spec, status, out, text, path, q, T, routing) -> str | None:
    result = search_result(out)
    if result is None:
        return "no search RESULT line"
    if result[:2] != (q, T) or result[3] or result[4] != path:
        return f"expected a code written to {path} over GF({q}), T={T}"
    if status != 0:
        return f"exit status {status}"
    if text is None:
        return "no code file was written"
    return check_code_text(spec, text, q, T, routing)


def check_exhausted(spec, status, out, q, T, cut_implied) -> str | None:
    """An exhausted search with no code.  Where ``cut_implied``, the
    checker's own min-cut must find a violated cut, which rules out every
    code; elsewhere the verdict is the paper's result."""
    result = search_result(out)
    if result is None:
        return "no search RESULT line"
    if result[:2] != (q, T) or not result[3] or result[4] != "none":
        return f"expected an exhausted search with no code over GF({q}), T={T}"
    if status != 1:
        return f"exit status {status}"
    if cut_implied and not violated_subsets(spec):
        return "no violated cut, so the checker cannot confirm that no code exists"
    return None
