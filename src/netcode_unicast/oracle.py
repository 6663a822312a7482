"""Feasibility verdicts, canonical counter-examples, exhaustive code search.

The brute-force searches enumerate local-coefficient assignments edge by
edge in topological order, which is lexicographic order over the free
coefficient blocks.  A memo of failed (position, frontier) states collapses
subtrees whose outcome depends only on the vectors still visible to the
remaining edges, so exhausting the space is usually far cheaper than the
raw q**C count while still returning the identical first hit.

Cost per block.  A node whose edge combines n generators (in-edge vectors
and injected unit symbols) walks its q**n blocks with the last coefficient
running fastest, so a block adds one copy of the last generator to the
vector before it: one addition per block, plus n - 1 more for each of the
q**(n-1) blocks that end in 0.  A terminal is checked when its last in-edge
is assigned.  The span of its other in-edges is fixed for the whole visit,
so it is built once per visit, and each distinct candidate vector v is
tested once: every wanted unit u must have u - c*v in that span for some c.
Entering a node costs one memo-key lookup (an ``itemgetter`` over the live
edges) and a set probe.

Arithmetic.  Vectors over GF(q) have L = T * (total rate) coordinates.  At
q = 2 they are bitmasks and adding is XOR.  For q >= 3, while the q**L
vectors number at most ``TABLE_VECTORS`` they are packed base-q integers and
every sum and multiple is read from tables built once per search.  Above
that no table fits (q = 65537 has 65537**L vectors), and the general path
keeps them as tuples, adds coordinate by coordinate and checks terminals by
elimination (``gf.in_span``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .gf import PrimeField, Vector, in_span
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
# each visited node walks its blocks with itertools.product, which holds
# range(q) as a tuple of q ints, so the search refuses larger field orders
# before allocating anything
MAX_SEARCH_FIELD_ORDER = 65537
# set-up lists the live edges at every position, in time quadratic in the
# expanded edge count.  fig1 at T=64 sits at this bound and sets up in 0.07 s
# (0.35 s routing) on one Xeon core under Python 3.11; at T=400 it took 3.7 s.
# The search refuses more before expanding
MAX_SEARCH_EDGES = 1024
# largest q**L that gets add/scale tables.  Timed on whole sample_1m searches
# (Python 3.11, one Xeon core, build counted), tables beat tuples 3.0-4.6x in
# total at 81, 125, 243 and 343 vectors and lose only where the build
# outweighs the search (32 blocks at 81 vectors, 1,899 at 343).  Up to 256
# every entry is a cached small int: 243 vectors build in 2.4 ms and hold
# 0.54 MiB; above it each entry is its own int (1.9 MiB at 343 vectors, 15 MiB
# and 26 ms at 729, where tables and tuples tie over 20,000 blocks)
TABLE_VECTORS = 256


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


class _Xor:
    """GF(2) vectors as bitmasks (bit k holds coordinate k); adding is XOR."""

    q = 2
    zero = 0

    @staticmethod
    def unit(k: int) -> int:
        return 1 << k

    @staticmethod
    def combine(block: Sequence[int], gens: Sequence[int]) -> int:
        v = 0
        for c, g in zip(block, gens):
            if c:
                v ^= g
        return v

    @staticmethod
    def adder(g: int) -> Callable[[int], int]:
        return g.__xor__

    @staticmethod
    def decoder(others: Sequence[int], units: Sequence[int]) -> Callable[[int], bool]:
        # echelon basis of the others: each element, reduced in order against
        # the ones before it, has their leading bits clear, so reducing x in
        # the same order clears every leading bit and leaves the one member of
        # x's coset with none set; the reduction is linear and 0 on the span
        basis: list[int] = []
        for w in others:
            for b in basis:
                w = min(w, w ^ b)
            if w:
                basis.append(w)

        def reduce(x: int) -> int:
            for b in basis:
                x = min(x, x ^ b)
            return x

        residues = [reduce(u) for u in units]

        def decodes(v: int) -> bool:
            r = reduce(v)
            return all(x == 0 or x == r for x in residues)

        return decodes


class _Tables:
    """GF(q) vectors packed base q (digit k holds coordinate k), with every
    sum and multiple read from tables over all q**L vectors."""

    def __init__(self, q: int, n_symbols: int):
        self.q = q
        self.zero = 0
        # add[a][b], grown one more significant digit at a time: a vector
        # a + p*d (a below p = q**k) plus b + p*e is add[a][b] + p*((d+e) % q)
        add: list[list[int]] = [[0]]
        p = 1
        for _ in range(n_symbols):
            add = [
                [x + p * ((d + e) % q) for e in range(q) for x in row]
                for d in range(q)
                for row in add
            ]
            p *= q
        self.add = add
        # mul[v][c] = c*v
        self.mul = []
        for v in range(len(add)):
            multiples = [0]
            for _ in range(q - 1):
                multiples.append(add[multiples[-1]][v])
            self.mul.append(multiples)

    def unit(self, k: int) -> int:
        return self.q**k

    def combine(self, block: Sequence[int], gens: Sequence[int]) -> int:
        add, mul = self.add, self.mul
        v = 0
        for c, g in zip(block, gens):
            if c:
                v = add[v][mul[g][c]]
        return v

    def adder(self, g: int) -> Callable[[int], int]:
        return self.add[g].__getitem__

    def decoder(self, others: Sequence[int], units: Sequence[int]) -> Callable[[int], bool]:
        add, mul = self.add, self.mul
        span = {0}
        for w in others:
            if w not in span:
                span = {add[s][m] for s in span for m in mul[w]}
        shifts = [add[u].__getitem__ for u in units]

        def decodes(v: int) -> bool:
            # u lies in span + <v> when u - c*v lies in span for some c
            multiples = mul[v]
            return all(not span.isdisjoint(map(shift, multiples)) for shift in shifts)

        return decodes


class _Tuples:
    """GF(q) vectors as tuples, for fields whose q**L vectors no table holds."""

    def __init__(self, q: int, n_symbols: int):
        self.q = q
        self.field = PrimeField(q)
        self.n_symbols = n_symbols
        self.zero = (0,) * n_symbols

    def unit(self, k: int) -> Vector:
        return self.field.unit(self.n_symbols, k)

    def combine(self, block: Sequence[int], gens: Sequence[Vector]) -> Vector:
        return self.field.vec_combine(block, gens, self.n_symbols)

    def adder(self, g: Vector) -> Callable[[Vector], Vector]:
        return partial(self.field.vec_add, g)

    def decoder(
        self, others: Sequence[Vector], units: Sequence[Vector]
    ) -> Callable[[Vector], bool]:
        q = self.q

        def decodes(v: Vector) -> bool:
            rows = [*others, v]
            return all(in_span(u, rows, q) is not None for u in units)

        return decodes


def _arithmetic(q: int, n_symbols: int) -> _Xor | _Tables | _Tuples:
    """Bitmasks at q=2, tables while q**L fits TABLE_VECTORS, else tuples."""
    if q == 2:
        return _Xor()
    # q >= 3, so q**8 already exceeds the table size; the cap keeps a huge L
    # from building a huge power
    if q ** min(n_symbols, 8) <= TABLE_VECTORS:
        return _Tables(q, n_symbols)
    return _Tuples(q, n_symbols)


def _linear_blocks(arith, gens: Sequence) -> Iterator[tuple[tuple[int, ...], object]]:
    """Every coefficient block over ``gens`` in lexicographic order, with the
    vector it forms.  The last coefficient runs fastest, so a block whose last
    coefficient is c > 0 adds one copy of the last generator to the vector
    before it; only the q**(n-1) blocks ending in 0 recombine the others."""
    if not gens:
        yield (), arith.zero
        return
    lead = gens[:-1]
    plus_last = arith.adder(gens[-1])
    combine = arith.combine
    v = arith.zero
    for block in product(range(arith.q), repeat=len(gens)):
        v = plus_last(v) if block[-1] else combine(block, lead)
        yield block, v


def _routing_blocks(n: int) -> tuple[list[tuple[int, ...]], Callable[[list], Sequence]]:
    """The routing blocks over n generators in lexicographic order, and a
    getter that takes ``[zero, *gens]`` to the vectors those blocks form, in
    the same order: all zero first, then a single 1 moving from the last
    position to the first."""
    blocks = [(0,) * n]
    picks = [0]
    for j in reversed(range(n)):
        blocks.append((0,) * j + (1,) + (0,) * (n - 1 - j))
        picks.append(j + 1)
    # with a single pick itemgetter would return the bare vector
    return blocks, itemgetter(*picks) if n else list


class _Verdicts(dict):
    """Terminal-check answers for one visit, keyed by the checked vector."""

    def __init__(self, decodes: Callable[[object], bool]):
        super().__init__()
        self.decodes = decodes

    def __missing__(self, v: object) -> bool:
        ok = self[v] = self.decodes(v)
        return ok


def _no_live(vecs: list) -> tuple:
    return ()


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
    if instance.n_edges * T > MAX_SEARCH_EDGES:
        raise ValueError(
            f"search covers at most {MAX_SEARCH_EDGES} expanded edges,"
            f" got {instance.n_edges * T}"
        )
    expanded = expand_time(instance, T)
    arith = _arithmetic(q, expanded.n_symbols)
    order = expanded.edges_in_topo_order()
    M = len(order)
    pos = [0] * M
    for i, eid in enumerate(order):
        pos[eid] = i

    # sessions grouped by terminal node; a terminal is checked when its last
    # in-edge is assigned, against the span of its other in-edges, which are
    # fixed for the whole visit
    by_terminal: dict[int, list[int]] = {}
    for idx, s in enumerate(expanded.sessions):
        by_terminal.setdefault(s.terminal, []).append(idx)
    check_at: list[tuple[list[int], list] | None] = [None] * M
    for node, session_ids in by_terminal.items():
        in_ids = expanded.in_edges[node]
        if not in_ids:
            return SearchReport(q, T, 0, True, None)
        last = max(in_ids, key=pos.__getitem__)
        units = [
            arith.unit(sym) for i in session_ids for sym in expanded.session_symbols(i)
        ]
        check_at[pos[last]] = ([e for e in in_ids if e != last], units)

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
    # memo key at position i: the vectors of the edges live there
    key_at = []
    for i in range(M + 1):
        live = [x for x in range(M) if pos[x] < i <= last_rel[x]]
        key_at.append(itemgetter(*live) if live else _no_live)

    in_ids_at = [expanded.in_edges[expanded.tail(order[i])] for i in range(M)]
    src_ids_at = [expanded.observed_symbols(expanded.tail(order[i])) for i in range(M)]
    units_at = [[arith.unit(k) for k in src_ids_at[i]] for i in range(M)]
    routes = [
        _routing_blocks(len(in_ids_at[i]) + len(units_at[i])) if routing else None
        for i in range(M)
    ]

    vecs = [arith.zero] * M
    chosen: list[tuple[int, ...]] = [()] * M
    memos: list[set] = [set() for _ in range(M + 1)]
    keys: list[object] = [None] * M
    # per depth of the walk: the (block, vector) iterator and the terminal
    # check answers of the visit in progress there
    walks: list[Iterator | None] = [None] * M
    verdicts: list[_Verdicts | None] = [None] * M
    counter = 0
    i = -1
    key = key_at[0](vecs)
    found = M == 0
    while not found:
        if key is not None:
            # enter the node at depth i + 1, whose memo key is not yet failed
            i += 1
            keys[i] = key
            gens = [vecs[e] for e in in_ids_at[i]] + units_at[i]
            if routing:
                blocks, pick = routes[i]
                walks[i] = zip(blocks, pick([arith.zero, *gens]))
            else:
                walks[i] = _linear_blocks(arith, gens)
            check = check_at[i]
            verdicts[i] = (
                None if check is None
                else _Verdicts(arith.decoder([vecs[e] for e in check[0]], check[1]))
            )
        x = order[i]
        verdict = verdicts[i]
        memo_next = memos[i + 1]
        key_next = key_at[i + 1]
        key = None
        for block, v in walks[i]:
            counter += 1
            if counter > budget:
                return SearchReport(q, T, counter, False, None)
            if verdict is not None and not verdict[v]:
                continue
            vecs[x] = v
            chosen[i] = block
            if i + 1 == M:
                found = True
                break
            key = key_next(vecs)
            if key not in memo_next:
                break
            key = None
        else:
            # every block failed: this state fails wherever it recurs
            memos[i].add(keys[i])
            walks[i] = verdicts[i] = None
            if i == 0:
                return SearchReport(q, T, counter, True, None)
            i -= 1

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
