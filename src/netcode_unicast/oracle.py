"""Feasibility verdicts, canonical counter-examples, exhaustive code search.

The brute-force searches enumerate local-coefficient assignments edge by
edge in topological order, which is lexicographic order over the free
coefficient blocks.  A memo of failed (position, frontier) states collapses
subtrees whose outcome depends only on the vectors still visible to the
remaining edges, so exhausting the space is usually far cheaper than the
raw q**C count while still returning the identical first hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .gf import PrimeField
from .graph import Session, UnicastInstance, build_instance, expand_time
from .netcode import CodeError, LocalRule, NetworkCode, verify_code

__all__ = [
    "DEFAULT_BUDGET",
    "SearchReport",
    "Verdict",
    "brute_force_routing",
    "brute_force_scalar",
    "classify_triple",
    "gen_113",
    "gen_222",
    "gen_232",
    "gen_23_rate21",
    "gen_fig1",
]

DEFAULT_BUDGET = 1 << 36
# the scalar search materialises range(q) at every node it visits, so it
# refuses larger field orders before allocating anything
MAX_SEARCH_FIELD_ORDER = 65537


# ------------------------------------------------------------- classification

@dataclass(frozen=True, slots=True)
class Verdict:
    """Feasibility status of a three-session connectivity triple.

    ``triple`` is the sorted form; ``permutation`` maps sorted positions back
    to the original order (``triple[i] == original[permutation[i]]``).  For
    feasible triples ``strategy`` is one of ``routing``, ``scalar``,
    ``vector-T2``; for infeasible ones ``witness`` names the generator that
    exhibits a counter-example, or ``characterization-only`` when only the
    boundary argument applies.
    """

    triple: tuple[int, int, int]
    feasible: bool
    strategy: str | None
    witness: str | None
    permutation: tuple[int, int, int]


_WITNESSES = {
    (2, 2, 2): "gen_222",
    (1, 1, 3): "gen_113",
    (2, 2, 3): "gen_232",
}


def classify_triple(k: Sequence[int]) -> Verdict:
    """Classify a connectivity triple with all entries in [1, 3].

    Every instance at the given level is feasible exactly when the sorted
    triple dominates [1, 3, 3]; [3, 3, 3] admits plain time-shared routing
    while the rest of the feasible region needs coding over two time slots.
    """
    ks = tuple(int(x) for x in k)
    if len(ks) != 3:
        raise ValueError(f"expected a triple, got {len(ks)} entries")
    if any(not 1 <= x <= 3 for x in ks):
        raise ValueError(f"entries must lie in [1, 3], got {list(ks)}")
    permutation = tuple(sorted(range(3), key=lambda i: (ks[i], i)))
    s = tuple(ks[i] for i in permutation)
    if s[1] >= 3 and s[2] >= 3:
        strategy = "routing" if s == (3, 3, 3) else "vector-T2"
        return Verdict(s, True, strategy, None, permutation)
    witness = _WITNESSES.get(s, "characterization-only")
    return Verdict(s, False, None, witness, permutation)


# ----------------------------------------------------------------- generators

def gen_222() -> UnicastInstance:
    """Connectivity [2,2,2] instance that no code of any kind can serve.

    All three sessions are squeezed through the two middle edges, so the
    node set {s1, s2, s3, v1, v2} has an out-cut of capacity 2 against a
    total demand of 3.
    """
    return build_instance(
        [
            ("s1", "v1"),
            ("s2", "v1"),
            ("s3", "v1"),
            ("s1", "v2"),
            ("s2", "v2"),
            ("s3", "v2"),
            ("v1", "a"),
            ("v2", "b"),
            ("a", "t1"),
            ("a", "t2"),
            ("a", "t3"),
            ("b", "t1"),
            ("b", "t2"),
            ("b", "t3"),
        ],
        [("s1", "t1"), ("s2", "t2"), ("s3", "t3")],
    )


def gen_113() -> UnicastInstance:
    """Connectivity [1,1,3] instance that no code can serve.

    Sessions 1 and 2 share the single edge out of {s1, s2, v1}: cut
    capacity 1 against demand 2.  The third session rides three parallel
    edges of its own.
    """
    return build_instance(
        [
            ("s1", "v1"),
            ("s2", "v1"),
            ("v1", "a"),
            ("a", "t1"),
            ("a", "t2"),
            ("s3", "t3"),
            ("s3", "t3"),
            ("s3", "t3"),
        ],
        [("s1", "t1"), ("s2", "t2"), ("s3", "t3")],
    )


def gen_23_rate21() -> UnicastInstance:
    """Two-session instance, rates {2, 1}, connectivity [2, 3].

    Infeasible even though no cut is violated: the rate-1 flow must thread
    every relay stage of the rate-2 session, and the chain of functional
    dependencies along the alternating merge/fork spine admits no linear
    code.  Exhaustive search confirms this over small fields.
    """
    return build_instance(
        [
            ("s1", "d"),
            ("s1", "b"),
            ("s2", "d"),
            ("s2", "a"),
            ("s2", "c"),
            ("d", "f1"),
            ("f1", "t2"),
            ("f1", "a"),
            ("a", "f2"),
            ("f2", "t1"),
            ("f2", "b"),
            ("b", "f3"),
            ("f3", "t2"),
            ("f3", "c"),
            ("c", "f4"),
            ("f4", "t1"),
            ("f4", "t2"),
        ],
        [("s1", "t1", 2), ("s2", "t2", 1)],
    )


def gen_232() -> UnicastInstance:
    """Three unit-rate sessions with connectivity [2, 3, 2].

    Same graph as :func:`gen_23_rate21` with the rate-2 session split into
    two collocated unit sessions; the sources and terminals are untouched,
    so the infeasibility carries over.
    """
    base = gen_23_rate21()
    lead = base.sessions[0]
    return base.with_sessions(
        (
            Session(lead.source, lead.terminal, 1),
            base.sessions[1],
            Session(lead.source, lead.terminal, 1),
        )
    )


def gen_fig1() -> UnicastInstance:
    """Two-session [2,2] instance separating routing from coding.

    Every s1-t1 path shares one of the four labelled middle edges with
    every s2-t2 path, so no scalar routing exists; a scalar code over
    GF(2) does, and with two time slots plain routing works again.
    """
    return build_instance(
        [
            ("s1", "a1"),
            ("s1", "c1"),
            ("s2", "a1"),
            ("s2", "b1"),
            ("a1", "a2"),
            ("b1", "b2"),
            ("c1", "c2"),
            ("d1", "d2"),
            ("a2", "b1"),
            ("a2", "c1"),
            ("b2", "t1"),
            ("b2", "d1"),
            ("c2", "d1"),
            ("c2", "t2"),
            ("d2", "t1"),
            ("d2", "t2"),
        ],
        [("s1", "t1"), ("s2", "t2")],
    )


# ------------------------------------------------------------- search engine

@dataclass(frozen=True, slots=True)
class SearchReport:
    """Outcome of one exhaustive search.

    ``enumerated`` counts explored coefficient-block assignments (memoized
    subtree skips are not re-counted).  ``exhausted`` true with no code
    proves that no code of the searched class exists over GF(q) at this T.
    """

    q: int
    T: int
    enumerated: int
    exhausted: bool
    code: NetworkCode | None

    def summary(self, code_ref: str = "none") -> str:
        """Flat key=value rendering; ``code_ref`` names the stored code."""
        found = self.code is not None
        return (
            f"field={self.q} T={self.T} enumerated={self.enumerated} "
            f"exhausted={str(self.exhausted).lower()} "
            f"code={code_ref if found else 'none'}"
        )


class _Budget(Exception):
    pass


class _PackedOps:
    """Vectors over GF(q) packed into base-q integers, digit k holding
    coordinate k."""

    def __init__(self, q: int):
        self.q = q

    def unit(self, k: int) -> int:
        return self.q**k

    def scale(self, c: int, v: int) -> int:
        if c == 0 or v == 0:
            return 0
        if c == 1:
            return v
        q = self.q
        out = 0
        base = 1
        while v:
            v, d = divmod(v, q)
            out += (d * c % q) * base
            base *= q
        return out

    def add(self, a: int, b: int) -> int:
        q = self.q
        if q == 2:
            return a ^ b
        out = 0
        base = 1
        while a or b:
            a, da = divmod(a, q)
            b, db = divmod(b, q)
            out += (da + db) % q * base
            base *= q
        return out


def _decodable(ops: _PackedOps, vectors: Iterable[int], symbols: Iterable[int]) -> bool:
    # span of at most a handful of packed vectors, built element by element
    span = {0}
    for v in vectors:
        if v == 0 or v in span:
            continue
        scaled = [ops.scale(c, v) for c in range(1, ops.q)]
        span |= {ops.add(s, w) for s in span for w in scaled}
    return all(ops.unit(k) in span for k in symbols)


def _routing_blocks(n_in: int, n_src: int) -> list[tuple[int, ...]]:
    width = n_in + n_src
    blocks = [(0,) * width]
    for j in range(width):
        blocks.append(tuple(1 if i == j else 0 for i in range(width)))
    return sorted(blocks)


def _search(
    instance: UnicastInstance,
    q: int,
    T: int,
    budget: int,
    routing: bool,
) -> SearchReport:
    if budget < 1:
        raise ValueError("budget must be positive")
    PrimeField(q)
    if q > MAX_SEARCH_FIELD_ORDER:
        raise ValueError(
            f"search field order must be at most {MAX_SEARCH_FIELD_ORDER}, got {q}"
        )
    expanded, _ = expand_time(instance, T)
    ops = _PackedOps(q)
    order = expanded.edges_in_topo_order()
    M = len(order)
    pos = [0] * M
    for i, eid in enumerate(order):
        pos[eid] = i

    # sessions grouped by terminal node; a terminal is checked as soon as
    # the last of its in-edges has been assigned
    by_terminal: dict[int, list[int]] = {}
    for idx, s in enumerate(expanded.sessions):
        by_terminal.setdefault(s.terminal, []).append(idx)
    checks_at: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for node, session_ids in by_terminal.items():
        in_ids = expanded.in_edges[node]
        symbols = tuple(
            sym for i in session_ids for sym in expanded.session_symbols(i)
        )
        if not in_ids:
            return SearchReport(q, T, 0, True, None)
        done = max(pos[e] for e in in_ids)
        checks_at.setdefault(done, []).append((in_ids, symbols))

    # how long each assigned edge stays relevant: as long as some out-edge
    # of its head is unassigned, or its head's terminal check is pending
    last_rel = [0] * M
    for eid in range(M):
        h = expanded.head(eid)
        rel = pos[eid]
        if expanded.out_edges[h]:
            rel = max(rel, max(pos[e] for e in expanded.out_edges[h]))
        if h in by_terminal:
            rel = max(rel, max(pos[e] for e in expanded.in_edges[h]))
        last_rel[eid] = rel
    live_at: list[tuple[int, ...]] = [
        tuple(x for x in range(M) if pos[x] < i <= last_rel[x]) for i in range(M + 1)
    ]

    in_ids_at = [expanded.in_edges[expanded.tail(order[i])] for i in range(M)]
    src_ids_at = [expanded.observed_symbols(expanded.tail(order[i])) for i in range(M)]
    block_lists = None
    if routing:
        block_lists = [
            _routing_blocks(len(in_ids_at[i]), len(src_ids_at[i])) for i in range(M)
        ]

    vecs = [0] * M
    chosen: list[tuple[int, ...]] = [()] * M
    memo: set[tuple[int, tuple[int, ...]]] = set()
    counter = 0

    def dfs(i: int) -> bool:
        nonlocal counter
        if i == M:
            return True
        key = (i, tuple(vecs[x] for x in live_at[i]))
        if key in memo:
            return False
        in_ids = in_ids_at[i]
        src_ids = src_ids_at[i]
        n_in = len(in_ids)
        x = order[i]
        blocks: Iterable[tuple[int, ...]]
        if routing:
            blocks = block_lists[i]
        else:
            blocks = product(range(q), repeat=n_in + len(src_ids))
        for block in blocks:
            counter += 1
            if counter > budget:
                raise _Budget
            v = 0
            for j in range(n_in):
                c = block[j]
                if c:
                    v = ops.add(v, ops.scale(c, vecs[in_ids[j]]))
            for kk in range(len(src_ids)):
                c = block[n_in + kk]
                if c:
                    v = ops.add(v, ops.scale(c, ops.unit(src_ids[kk])))
            vecs[x] = v
            ok = True
            for edge_set, symbols in checks_at.get(i, ()):
                if not _decodable(ops, (vecs[e] for e in edge_set), symbols):
                    ok = False
                    break
            if ok:
                chosen[i] = block
                if dfs(i + 1):
                    return True
        vecs[x] = 0
        memo.add(key)
        return False

    try:
        found = dfs(0)
    except _Budget:
        return SearchReport(q, T, counter, False, None)
    finally:
        # dfs reaches itself through its closure; break that cycle so dfs
        # and the memo are freed now, not at the next cyclic collection
        memo.clear()
        dfs = None  # type: ignore[assignment]

    if not found:
        return SearchReport(q, T, counter, True, None)

    rules = [None] * M
    for i in range(M):
        in_ids = in_ids_at[i]
        src_ids = src_ids_at[i]
        block = chosen[i]
        n_in = len(in_ids)
        rules[order[i]] = LocalRule(
            in_coeffs=tuple(
                (in_ids[j], block[j]) for j in range(n_in) if block[j]
            ),
            src_coeffs=tuple(
                (src_ids[k], block[n_in + k])
                for k in range(len(src_ids))
                if block[n_in + k]
            ),
        )
    code = NetworkCode(q=q, T=T, rules=tuple(rules))
    if not verify_code(instance, code).all_pass:
        raise CodeError("internal error: search returned a non-verifying code")
    return SearchReport(q, T, counter, False, code)


def brute_force_scalar(
    instance: UnicastInstance,
    q: int,
    T: int = 1,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exhaustive search for a linear code over GF(q) on the T-expanded graph.

    Assignments are explored in lexicographic order of the per-edge
    coefficient blocks (edges in topological order), so a returned code is
    the lexicographically first one.
    """
    return _search(instance, q, T, budget, routing=False)


def brute_force_routing(
    instance: UnicastInstance,
    T: int = 1,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exhaustive search for a routing solution on the T-expanded graph.

    Each edge either stays silent, copies one in-edge, or injects one
    observed source symbol.  Restricting to these one-hot rules loses no
    solutions: in any routing-valid code an edge's unit vector must already
    be present verbatim on an in-edge or as a local injection, so the same
    global vectors are reachable with one-hot rules.
    """
    return _search(instance, 2, T, budget, routing=True)
