"""Feasibility verdicts, canonical counter-examples, exhaustive code search.

The brute-force searches enumerate local-coefficient assignments edge by
edge in topological order, which is lexicographic order over the free
coefficient blocks.  A memo of failed (position, state) pairs skips subtrees
known to fail: the first hit is the lexicographically first code.

The memo state.  Whether the rest can be completed depends only on the span
of the assigned in-edge vectors at each node still live (an out-edge or a
terminal check to come): later out-edges draw from it and a check asks
whether units lie in it (the subspace view of Koetter & Medard 2003).  So
the key holds one interned span id per live node.  It is exact in routing,
where every vector is a unit or zero: a span of units holds exactly the
units that span it, so it fixes the vectors a one-hot rule can copy.

Lookahead.  Every later edge carries a vector from its tail's span plus the
units observed there (a routed one copies one of them), so all that a
terminal t with in-edges to come can still receive lies in the join of its
span with span(h) + units(h) over the live nodes h reaching t.  A state
whose join misses a unit of t has no completion, and its key goes into the
memo unentered: verdicts and first codes stay.  The join shrinks only when a
node fires its last out-edge, so only then is it taken, for the terminals
that node reaches.

Normal codes.  Linear mode walks one code of each of two families that
every check treats alike (lex-leader symmetry breaking; Crawford, Ginsberg,
Luks & Roy 1996):

* (a) edge scaling, q > 2: an edge's block times c != 0, with the later
  coefficients on that edge times 1/c, keeps every span.  So a block's
  first nonzero coefficient is 1.
* (b) source basis: sessions sharing (source, terminal) form a group whose
  r = sum of rate * T symbols only that source injects and only that
  terminal wants, all of them.  An invertible change of their basis changes
  only the group's coordinates in the unit parts at the source's out-edges
  and keeps every check.  Taking those r coordinates in block order, with k
  pivots seen at the source's earlier out-edges, a unit part is zero in its
  first r - k coordinates or is the unit vector at coordinate r - k - 1, the
  next pivot.

Each rule turns a code into a lexicographically smaller valid one and
leaves every position before it unchanged.  So the first valid code is
normal, and so is the first valid completion of any normal prefix: the
memo's failure facts and the lookahead stay exact, and the verdict and the
code returned are those of the search over every code, in fewer blocks.
A walk is keyed by its generator tuple and its spec, the groups' pivot
counts at the node.  Routing keeps every one-hot block.

Cost per block.  A node whose edge combines n generators (in-edge vectors
and injected unit symbols) walks its normal blocks in lexicographic order
with an odometer: a block raises one coefficient by one and zeroes those
after it, so it adds one copy of that generator to the kept vector of the
coefficients before it: one addition per block.  The same walk key recurs
at many node entries (a cor232 search at q=2 builds 21 walks over 18
generator tuples), so each walk of (block, vector) pairs is built once per
search and replayed after that: in routing always (its n + 1 blocks copy no
generator or one), in linear mode while q**n is at most ``TABLE_VECTORS``; a
longer walk is built lazily at each entry.  A lookup in the join row of
the head's span gives the new span id, or -1 at a terminal's last in-edge
where the span misses a wanted unit; an ``itemgetter`` of the live nodes'
span ids and a set probe test the next memo key.

Arithmetic.  Vectors over GF(q) have L = T * (total rate) coordinates.  At
q = 2 they are bitmasks and adding is XOR.  For q >= 3, while the q**L
vectors number at most ``TABLE_VECTORS`` they are packed base-q integers and
every sum and multiple is read from tables built once per search.  Above
that no table fits (q = 65537 has 65537**L vectors): vectors are tuples and
spans are reduced row echelon bases, both kept by ``gf.Vectors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .gf import Vectors, _checked_prime
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
# the largest field order a search accepts; it refuses a larger one before
# expanding anything.  Walks are generated block by block, so nothing here
# grows with q, but the reference search in the tests lists range(q) at
# every node it enters
MAX_SEARCH_FIELD_ORDER = 65537
# set-up, lookahead included, takes time linear in the expanded edges times
# the live nodes per position, the same in both modes: fig1 at T=64 sits at
# this bound and sets up in 5 ms on one Xeon core under Python 3.11, at T=256
# in 34-36 ms.  The search refuses more before expanding
MAX_SEARCH_EDGES = 1024
# largest q**L that gets add/scale tables.  Timed on whole searches with the
# span-keyed memo and the lookahead (Python 3.11, one Xeon core, build
# counted), tuples take 1.2-1.9x the tables' time on searches of 250 blocks or
# more at 27 to 243 vectors (fig2a q=3 2.8 -> 5.3 ms, fig3 q=3 24 -> 37 ms),
# about the same below 60 blocks, where the build outweighs the search, and
# 0.1-1.0x at 343 and 729 vectors.  Up to 256 every entry is a cached small
# int (243 vectors: 2.4 ms, 0.54 MiB); above it each is its own int (1.9 MiB
# at 343 vectors, 15 MiB at 729).  The same bound caps the walks a search
# keeps: a linear walk of q**n blocks is kept for replay only while q**n is
# at most this
TABLE_VECTORS = 256


# ------------------------------------------------------------- classification

@dataclass(frozen=True, slots=True)
class Verdict:
    """Feasibility status of a three-session connectivity triple.

    ``triple`` is the sorted form.  For feasible triples ``strategy`` is one
    of ``routing``, ``scalar``, ``vector-T2``; for infeasible ones
    ``witness`` names the generator that exhibits a counter-example, or
    ``characterization-only`` when only the boundary argument applies.
    """

    triple: tuple[int, int, int]
    feasible: bool
    strategy: str | None
    witness: str | None


def classify_triple(k: Sequence[int]) -> Verdict:
    """Classify a connectivity triple with all entries in [1, 3].

    Every instance at the given level is feasible exactly when the sorted
    triple dominates [1, 3, 3]; [3, 3, 3] admits plain time-shared routing
    while the rest of the feasible region needs coding over two time slots.
    """
    ks = tuple(k)
    if len(ks) != 3:
        raise ValueError(f"expected a triple, got {len(ks)} entries")
    if not all(isinstance(x, int) for x in ks):
        raise ValueError(f"entries must be integers, got {list(ks)}")
    if any(not 1 <= x <= 3 for x in ks):
        raise ValueError(f"entries must lie in [1, 3], got {list(ks)}")
    s = tuple(sorted(map(int, ks)))
    if s[1] >= 3 and s[2] >= 3:
        strategy = "routing" if s == (3, 3, 3) else "vector-T2"
        return Verdict(s, True, strategy, None)
    witness = WITNESSES[s].__name__ if s in WITNESSES else "characterization-only"
    return Verdict(s, False, None, witness)


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


def _gen_222_without(*dropped: int) -> UnicastInstance:
    # deleting edges keeps every violated cut violated
    base = gen_222()
    return base.keep_edges(e for e in range(base.n_edges) if e not in dropped)[0]


def gen_111() -> UnicastInstance:
    """Connectivity [1,1,1]: :func:`gen_222` without v1 -> a (edge 6).

    Every path now runs through v2 -> b, so sessions 1 and 2 alone meet a
    cut of capacity 1 against demand 2.
    """
    return _gen_222_without(6)


def gen_112() -> UnicastInstance:
    """Connectivity [1,1,2]: :func:`gen_222` without s1 -> v1 and s2 -> v1
    (edges 0 and 1).

    Sessions 1 and 2 leave their sources only towards v2, so {s1, s2, v2}
    has the single out-edge v2 -> b: capacity 1 against demand 2.
    """
    return _gen_222_without(0, 1)


def gen_122() -> UnicastInstance:
    """Connectivity [1,2,2]: :func:`gen_222` without s1 -> v1 (edge 0).

    The three sessions still share the two middle edges: capacity 2
    against demand 3.
    """
    return _gen_222_without(0)


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


# sorted infeasible triple -> the generator of its counter-example; a
# verdict names the generator, and ``classify --emit-witness`` runs it
WITNESSES = {
    (1, 1, 1): gen_111,
    (1, 1, 2): gen_112,
    (1, 2, 2): gen_122,
    (2, 2, 2): gen_222,
    (1, 1, 3): gen_113,
    (2, 2, 3): gen_232,
}


# ------------------------------------------------------------- search engine

@dataclass(frozen=True, slots=True)
class SearchReport:
    """Outcome of one exhaustive search.

    ``enumerated`` counts the coefficient blocks tried, not those in
    subtrees the memo or the lookahead skips; its states are spans, which
    skip more than exact vectors would.  A linear search tries normal blocks
    only (see :func:`brute_force_scalar`).  ``pruned`` counts the states the
    lookahead cut, and ``memo_size`` the failed states, cut ones included,
    that the memos hold at return.  ``exhausted`` true with no code proves
    that no code of the searched class exists over GF(q) at T.
    """

    q: int
    T: int
    enumerated: int
    exhausted: bool
    code: NetworkCode | None
    pruned: int = 0
    memo_size: int = 0

    def summary(self, code_ref: str | None = None) -> str:
        """Flat key=value rendering; ``code`` is ``none`` with no code, else
        ``code_ref`` (where the code is stored) or ``found``."""
        code = "none" if self.code is None else code_ref or "found"
        return (
            f"field={self.q} T={self.T} enumerated={self.enumerated} "
            f"exhausted={str(self.exhausted).lower()} code={code}"
        )


class _Xor:
    """GF(2) vectors as bitmasks (bit k holds coordinate k); adding is XOR.
    A span is its reduced basis, highest bit first: each basis vector's top
    bit is set in no other basis vector."""

    q = 2
    zero = 0
    zero_span: tuple[int, ...] = ()

    @staticmethod
    def unit(k: int) -> int:
        return 1 << k

    @staticmethod
    def adder(g: int) -> Callable[[int], int]:
        return g.__xor__

    @staticmethod
    def extend(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
        # XOR with b lowers v exactly when v holds b's top bit, which no
        # other basis vector holds, so this clears every top bit from v
        for b in basis:
            v = min(v, v ^ b)
        if not v:
            return basis
        top = 1 << (v.bit_length() - 1)
        return tuple(sorted([b ^ v if b & top else b for b in basis] + [v], reverse=True))


class _Tables:
    """GF(q) vectors packed base q (digit k holds coordinate k), with every
    sum and multiple read from tables over all q**L vectors.  A span is the
    frozenset of its elements."""

    def __init__(self, q: int, n_symbols: int):
        self.q = q
        self.zero = 0
        self.zero_span = frozenset((0,))
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

    def adder(self, g: int) -> Callable[[int], int]:
        return self.add[g].__getitem__

    def extend(self, span: frozenset[int], v: int) -> frozenset[int]:
        if v in span:
            return span
        return frozenset(self.add[s][m] for s in span for m in self.mul[v])


def _arithmetic(q: int, n_symbols: int) -> _Xor | _Tables | Vectors:
    """Bitmasks at q=2, tables while q**L fits TABLE_VECTORS, else tuples."""
    if q == 2:
        return _Xor()
    # q >= 3, so q**8 already exceeds the table size; the cap keeps a huge L
    # from building a huge power
    if q ** min(n_symbols, 8) <= TABLE_VECTORS:
        return _Tables(q, n_symbols)
    return Vectors(q, n_symbols)


class _Lazy(dict):
    """A dict that fills a missing entry with ``fill(key)`` on first use."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key: object) -> object:
        value = self[key] = self.fill(key)
        return value


def _span_rows(arith: _Xor | _Tables | Vectors) -> tuple[_Lazy, _Lazy]:
    """Join rows over interned spans, ``(rows, joins)``: ``rows[sid][v]`` is
    the id of span(sid) + <v>, id 0 is {0}, and ``joins[a][b]`` is the id of
    span(a) + span(b).  Equal spans get equal ids.  The spans and their bases
    live in this closure and refer to no row, so the rows form no cycle."""
    canon = [arith.zero_span]
    bases: list[tuple] = [()]
    ids = {arith.zero_span: 0}

    def join(sid: int, v: object) -> int:
        span = arith.extend(canon[sid], v)
        new = ids.setdefault(span, len(canon))
        if new == len(canon):
            canon.append(span)
            bases.append(bases[sid] + (v,))
        return new

    def join_spans(a: int, b: int) -> int:
        for v in bases[b]:
            a = join(a, v)
        return a

    rows = _Lazy(lambda sid: _Lazy(partial(join, sid)))
    return rows, _Lazy(lambda a: _Lazy(partial(join_spans, a)))


def _checked_rows(rows: _Lazy, units: Sequence) -> _Lazy:
    """Rows like ``rows`` but -1 wherever the joined span misses one of
    ``units``; a span holds u exactly when joining u leaves it unchanged."""

    def checked(row: _Lazy, v: object) -> int:
        sid = row[v]
        return sid if all(rows[sid][u] == sid for u in units) else -1

    return _Lazy(lambda prev: _Lazy(partial(checked, rows[prev])))


def _serves(rows: _Lazy, joins: _Lazy, terms: list[tuple], sids: list) -> bool:
    """False when, for some (reads, base, units) in ``terms``, the span base
    joined with the spans ``sids[r]`` for r in reads misses one of units."""
    for reads, sid, units in terms:
        for r in reads:
            sid = joins[sid][sids[r]]
        row = rows[sid]
        for u in units:
            if row[u] != sid:
                return False
    return True


def _normal_blocks(
    arith, gens: Sequence, spec: tuple
) -> Iterator[tuple[tuple[int, ...], object]]:
    """Every normal coefficient block over ``gens`` in lexicographic order,
    with the vector it forms (see "Normal codes").  ``spec`` holds a
    (coordinates, k) pair per source group: with k pivots seen, the group's
    first r - k - 1 coordinates are 0 and coordinate r - k - 1, its pivot,
    is 0 or 1, and a 1 there forces the group's last k to 0.  The first
    nonzero coefficient is 1.  Every allowed value set is 0..cap, so an
    odometer raises the last coordinate that is below its cap and zeroes the
    ones after it: one vector addition per block, and no block is built only
    to be dropped."""
    n = len(gens)
    zero = arith.zero
    # top[c]: the largest coefficient at c; gate[c]: the pivot whose 1
    # forces c to 0 (-1: none)
    top = [arith.q - 1] * n
    gate = [-1] * n
    for coords, k in spec:
        r = len(coords)
        if k < r:
            pivot = coords[r - k - 1]
            for c in coords[: r - k - 1]:
                top[c] = 0
            top[pivot] = 1
            for c in coords[r - k :]:
                gate[c] = pivot
    block = [0] * n
    yield tuple(block), zero
    # sums[c]: the vector of block[: c + 1]
    sums = [zero] * n
    adders = [arith.adder(g) for g in gens]
    first = n  # the first nonzero coordinate
    j = n - 1
    while j >= 0:
        c = block[j]
        g = gate[j]
        cap = 0 if g >= 0 and block[g] else top[j]
        if j <= first and cap > 1:
            cap = 1
        if c >= cap:
            j -= 1
            continue
        block[j] = c + 1
        v = sums[j] = adders[j](sums[j])
        if j < first:
            first = j
        if j < n - 1:
            for t in range(j + 1, n):
                block[t] = 0
                sums[t] = v
            j = n - 1
        yield tuple(block), v


def _start_specs(expanded: UnicastInstance, tails: list[int], observed: dict) -> list:
    """The spec at each position, or None where the tail's earlier out-edges
    set it.  A source's groups, its sessions by terminal, hold their
    symbols' coordinates in the block, after the tail's in-edges."""
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, s in enumerate(expanded.sessions):
        groups.setdefault((s.source, s.terminal), []).extend(expanded.session_symbols(idx))
    layout: dict[int, list[tuple[int, ...]]] = {}
    for (u, _), syms in groups.items():
        coord = {k: len(expanded.in_edges[u]) + c for c, k in enumerate(observed.get(u, ()))}
        if coord:
            layout.setdefault(u, []).append(tuple(coord[k] for k in syms))
    return [
        None if i and u in layout and tails[i - 1] == u
        else tuple((coords, 0) for coords in layout.get(u, ()))
        for i, u in enumerate(tails)
    ]


def _next_spec(spec: tuple, block: tuple[int, ...]) -> tuple:
    """``spec`` after ``block`` at the same source: a group's pivot count
    grows where the block puts a 1 at its pivot coordinate."""
    return tuple(
        (coords, k + 1) if k < len(coords) and block[coords[-k - 1]] else (coords, k)
        for coords, k in spec
    )


def _routing_walk(zero: object, gens: Sequence) -> list[tuple[tuple[int, ...], object]]:
    """The routing blocks over ``gens`` in lexicographic order, each with the
    vector it forms: all zero first, then a single 1 moving from the last
    generator to the first."""
    n = len(gens)
    return [((0,) * n, zero)] + [
        ((0,) * j + (1,) + (0,) * (n - 1 - j), gens[j]) for j in reversed(range(n))
    ]


def _no_live(state: list) -> tuple:
    return ()


def _search(
    instance: UnicastInstance,
    q: int,
    T: int,
    budget: int,
    routing: bool,
) -> SearchReport:
    """The depth-first search behind both entry points.  Linear mode walks
    normal blocks only (see "Normal codes"): a block's first nonzero
    coefficient is 1, and with k pivots seen at a source, a (source,
    terminal) group's r coordinates in a unit part are zero in the first
    r - k or form the unit vector at coordinate r - k - 1.  ``enumerated``
    counts normal blocks, and a returned code is the lexicographically
    first valid one."""
    if budget < 1:
        raise ValueError("budget must be positive")
    _checked_prime(q)
    if q > MAX_SEARCH_FIELD_ORDER:
        raise ValueError(f"search field order must be at most {MAX_SEARCH_FIELD_ORDER}, got {q}")
    if instance.n_edges * T > MAX_SEARCH_EDGES:
        raise ValueError(
            f"search covers at most {MAX_SEARCH_EDGES} expanded edges,"
            f" got {instance.n_edges * T}"
        )
    expanded = expand_time(instance, T)
    arith = _arithmetic(q, expanded.n_symbols)
    order = expanded.edges_in_topo_order()
    M = len(order)
    heads = [expanded.head(x) for x in order]
    tails = [expanded.tail(x) for x in order]
    # until[h]: the last position that needs node h's span, its last
    # out-edge, or its last in-edge if it is a terminal (-1: none);
    # prev_in[i]: the position of heads[i]'s in-edge before i (M: none)
    until = [-1] * expanded.n_nodes
    prev_in = [M] * M
    last_in: dict[int, int] = {}
    for i, x in enumerate(order):
        until[expanded.tail(x)] = i
        prev_in[i] = last_in.get(heads[i], M)
        last_in[heads[i]] = i

    # the blocks at position i are read through the join row of the span of
    # heads[i]'s in-edges before i; a terminal is checked at its last in-edge
    rows, joins = _span_rows(arith)
    joins_at = [rows] * M
    wanted: dict[int, list] = {}
    for idx, s in enumerate(expanded.sessions):
        units = wanted.setdefault(s.terminal, [])
        units += [arith.unit(sym) for sym in expanded.session_symbols(idx)]
    for node, units in wanted.items():
        if node not in last_in:
            return SearchReport(q, T, 0, True, None)
        until[node] = max(until[node], last_in[node])
        joins_at[last_in[node]] = _checked_rows(rows, units)
    observed = {u: expanded.observed_symbols(u) for u in set(tails)}
    units_of = {u: [arith.unit(k) for k in ids] for u, ids in observed.items() if ids}
    # reach[v] has bit j when v reaches the terminal of bit j
    bit = {t: 1 << j for j, t in enumerate(wanted)}
    reach = [0] * expanded.n_nodes
    for v in reversed(expanded.topo_order):
        for x in expanded.out_edges[v]:
            reach[v] |= reach[expanded.head(x)] | bit.get(expanded.head(x), 0)

    # one sweep: the key at position p reads, for each node h live there
    # (an in-edge assigned, until[h] >= p), the span id at its last in-edge
    # before p: by position, as a per-node record would keep a deeper
    # branch's span after backtracking.  The lookahead is added where
    # tails[p-1] fired its last out-edge
    live: dict[int, int] = {}
    key_at = [_no_live]
    ahead_at: list[Callable | None] = [None] * (M + 1)
    for p, h in enumerate(heads, start=1):
        live[h] = p - 1
        live = {n: r for n, r in live.items() if until[n] >= p}
        key_at.append(itemgetter(*live.values()) if live else _no_live)
        if until[tails[p - 1]] >= p:
            continue
        terms = []
        for t, j in bit.items():
            if reach[tails[p - 1]] & j and last_in[t] >= p:
                base = 0
                for n, units in units_of.items():
                    if until[n] >= p and reach[n] & j:
                        for u in units:
                            base = rows[base][u]
                reads = [r for n, r in live.items() if n == t or reach[n] & j]
                terms.append((reads, base, wanted[t]))
        if terms:
            ahead_at[p] = partial(_serves, rows, joins, terms)

    in_ids_at = [expanded.in_edges[u] for u in tails]
    units_at = [units_of.get(u, []) for u in tails]
    start_spec = [()] * M if routing else _start_specs(expanded, tails, observed)
    # each (generator tuple, spec) walk, built on first use and replayed (see
    # "Cost per block"); a linear walk past TABLE_VECTORS stays lazy, so a
    # budget cut at a wide node stops in bounded time and memory
    def walk(key: tuple) -> list:
        gens, spec = key
        if routing:
            return _routing_walk(arith.zero, gens)
        return list(_normal_blocks(arith, gens, spec))

    walk_of = _Lazy(walk)
    # q >= 2, so q**9 already exceeds TABLE_VECTORS
    cached_at = [routing or q ** min(len(ids) + len(us), 9) <= TABLE_VECTORS
                 for ids, us in zip(in_ids_at, units_at)]

    vecs = [arith.zero] * M
    specs: list[tuple] = [()] * M
    # sids[i]: the span id of heads[i]'s in-edges up to i; sids[M] stays 0
    sids = [0] * (M + 1)
    chosen: list[tuple[int, ...]] = [()] * M
    memos: list[set] = [set() for _ in range(M + 1)]
    keys: list[object] = [None] * M
    # per depth: the (block, vector) iterator and the row of the visit there
    walks: list[Iterator | None] = [None] * M
    visit_rows: list[_Lazy | None] = [None] * M
    counter = pruned = 0
    i = -1
    key = key_at[0](sids)
    found = M == 0
    while not found:
        if key is not None:
            # enter the node at depth i + 1, whose memo key is not yet failed
            i += 1
            keys[i] = key
            gens = (*[vecs[e] for e in in_ids_at[i]], *units_at[i])
            spec = start_spec[i]
            if spec is None:
                spec = _next_spec(specs[i - 1], chosen[i - 1])
            specs[i] = spec
            if cached_at[i]:
                walks[i] = iter(walk_of[gens, spec])
            else:
                walks[i] = _normal_blocks(arith, gens, spec)
            visit_rows[i] = joins_at[i][sids[prev_in[i]]]
        x = order[i]
        row = visit_rows[i]
        memo_next = memos[i + 1]
        key_next = key_at[i + 1]
        ahead = ahead_at[i + 1]
        key = None
        for block, v in walks[i]:
            counter += 1
            if counter > budget:
                return SearchReport(q, T, counter, False, None, pruned, sum(map(len, memos)))
            sid = row[v]
            if sid < 0:
                continue
            vecs[x] = v
            sids[i] = sid
            chosen[i] = block
            if i + 1 == M:
                found = True
                break
            key = key_next(sids)
            if key not in memo_next:
                if ahead is None or ahead(sids):
                    break
                # a pending terminal can no longer be served: cut unentered
                memo_next.add(key)
                pruned += 1
            key = None
        else:
            # every block failed: this state fails wherever it recurs
            memos[i].add(keys[i])
            walks[i] = visit_rows[i] = None
            if i == 0:
                return SearchReport(q, T, counter, True, None, pruned, sum(map(len, memos)))
            i -= 1

    rules = [None] * M
    for i, block in enumerate(chosen):
        rules[order[i]] = LocalRule.over(in_ids_at[i], observed[tails[i]], block)
    code = NetworkCode(q=q, T=T, rules=tuple(rules))
    if not verify_code(instance, code).all_pass:
        raise CodeError("internal error: search returned a non-verifying code")
    return SearchReport(q, T, counter, False, code, pruned, sum(map(len, memos)))


def brute_force_scalar(
    instance: UnicastInstance,
    q: int,
    T: int = 1,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exhaustive search for a linear code over GF(q) on the T-expanded graph.

    Assignments are explored in lexicographic order of the per-edge
    coefficient blocks (edges in topological order), normal codes only:

    * every block's first nonzero coefficient is 1 (edge scaling, q > 2);
    * group the sessions by (source, terminal), and take a group's r
      symbols as coordinates of the unit parts at the source's out-edges,
      in search order.  With k pivots seen, a unit part is zero in its first
      r - k coordinates or is the unit vector at coordinate r - k - 1.

    Every code can be made normal, one position at a time, by a change that
    keeps every check and makes the code lexicographically smaller.  So a
    returned code is still the lexicographically first one, and exhausting
    still proves that none exists; ``enumerated`` counts normal blocks.
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
