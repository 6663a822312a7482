"""The exhaustive code search as it was before its inner loop was rewritten.

Kept unchanged as a reference for ``oracle._search``: blocks are built by
recombining every generator with digit-loop arithmetic on packed vectors,
each terminal check rebuilds a span from scratch, and the memo is keyed on
the exact vectors of the live edges.  Slow, but simple enough to trust.  In
both modes the fast search keys its memo on the span at each live node, a
coarser key that merges states this one keeps apart, and cuts states its
lookahead shows cannot be completed, so it must agree on ``exhausted`` and
the returned code and enumerate no more blocks.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from netcode_unicast.gf import _checked_prime
from netcode_unicast.graph import UnicastInstance, expand_time
from netcode_unicast.netcode import CodeError, LocalRule, NetworkCode, verify_code
from netcode_unicast.oracle import MAX_SEARCH_FIELD_ORDER, SearchReport


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
    _checked_prime(q)
    if q > MAX_SEARCH_FIELD_ORDER:
        raise ValueError(
            f"search field order must be at most {MAX_SEARCH_FIELD_ORDER}, got {q}"
        )
    expanded = expand_time(instance, T)
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
