"""Directed acyclic unit-capacity networks with unicast sessions.

An instance couples a DAG (parallel edges allowed, every edge capacity one)
with an ordered list of unicast sessions.  Nodes are referred to by dense
integer ids assigned in order of first appearance in the edge list; the
original string names are kept for serialization.

The on-disk format is line oriented::

    # comment
    session 1 s1 t1 rate=2
    edge s1 v1
    edge v1 t1 cap=2

``cap=c`` is expanded into ``c`` parallel unit edges at parse time, so a
parsed instance never carries capacities.  Canonical serialization prints
sessions first (ascending index) and then edges in id order, omitting
``rate=1`` and never emitting ``cap=``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class InstanceError(ValueError):
    """Raised for malformed instance structure or files."""


@dataclass(frozen=True, slots=True)
class Session:
    """One unicast demand: ``rate`` unit symbols from ``source`` to ``terminal``."""

    source: int
    terminal: int
    rate: int = 1

    def __post_init__(self) -> None:
        if self.rate < 1:
            raise InstanceError(f"session rate must be >= 1, got {self.rate}")
        if self.source == self.terminal:
            raise InstanceError("session source and terminal must differ")


def _valid_name(name: str) -> bool:
    """Non-empty, with no '#' and no whitespace: ``str.split`` breaks at
    exactly the characters ``str.isspace`` accepts."""
    return "#" not in name and name.split() == [name]


@dataclass(frozen=True)
class UnicastInstance:
    """Immutable DAG plus sessions.

    Attributes:
        names: node names, index = node id.
        edges: edge endpoint pairs ``(tail, head)``, index = edge id.
        sessions: sessions in index order (file index 1 = sessions[0]).
    """

    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    sessions: tuple[Session, ...]
    out_edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    in_edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # (T, the T-slot expansion) kept by the last ``expand_time`` with T > 1
    _expansion: tuple[int, UnicastInstance] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # the connectivity vector, kept by ``flows.connectivity_level``
    _connectivity: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        """Every structural check; fills the adjacency and proves the graph
        acyclic in one linear pass."""
        names, edges, n = self.names, self.edges, len(self.names)
        if len(set(names)) != n:
            raise InstanceError("duplicate node names")
        # one pass in C over all names; the loop only names the offender
        joined = " ".join(names)
        if "#" in joined or joined.split() != list(names):
            for name in names:
                if not _valid_name(name):
                    raise InstanceError(f"invalid node name {name!r}")
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge {eid} references unknown node")
            if u == v:
                raise InstanceError(f"edge {eid} is a self-loop")
            out[u].append(eid)
            inc[v].append(eid)
        for s in self.sessions:
            if not (0 <= s.source < n and 0 <= s.terminal < n):
                raise InstanceError("session references unknown node")
        object.__setattr__(self, "out_edges", tuple(map(tuple, out)))
        object.__setattr__(self, "in_edges", tuple(map(tuple, inc)))
        # remove nodes whose in-edges are all gone; a node left over lies on
        # or below a cycle
        indeg = list(map(len, inc))
        ready = [v for v in range(n) if not indeg[v]]
        for v in ready:
            for eid in out[v]:
                w = edges[eid][1]
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
        if len(ready) != n:
            raise InstanceError("graph contains a directed cycle")

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """The lexicographically smallest topological order, computed on
        first read."""
        n = len(self.names)
        indeg = [len(self.in_edges[v]) for v in range(n)]
        heap = [v for v in range(n) if indeg[v] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for eid in self.out_edges[v]:
                w = self.edges[eid][1]
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        return tuple(order)

    # -- basic queries ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def tail(self, eid: int) -> int:
        return self.edges[eid][0]

    def head(self, eid: int) -> int:
        return self.edges[eid][1]

    def edges_in_topo_order(self) -> list[int]:
        """Edge ids ordered so every edge appears after its tail's in-edges:
        by the tail's place in ``topo_order``, then by id."""
        out_edges = self.out_edges
        return [e for v in self.topo_order for e in out_edges[v]]

    # -- symbol layout ----------------------------------------------------

    def symbol_offsets(self) -> tuple[int, ...]:
        """Start of each session's block of unit-symbol indices."""
        offsets = []
        acc = 0
        for s in self.sessions:
            offsets.append(acc)
            acc += s.rate
        return tuple(offsets)

    @property
    def n_symbols(self) -> int:
        return sum(s.rate for s in self.sessions)

    def observed_symbols(self, node: int) -> tuple[int, ...]:
        """Unit-symbol indices injected at ``node`` (sources observe own block)."""
        mine = [i for i, s in enumerate(self.sessions) if s.source == node]
        return tuple(k for i in mine for k in self.session_symbols(i))

    def session_symbols(self, index: int) -> tuple[int, ...]:
        offsets = self.symbol_offsets()
        s = self.sessions[index]
        return tuple(range(offsets[index], offsets[index] + s.rate))

    # -- construction helpers ---------------------------------------------

    def with_sessions(self, sessions: Sequence[Session]) -> "UnicastInstance":
        return UnicastInstance(self.names, self.edges, tuple(sessions))

    def keep_edges(self, keep: Iterable[int]) -> tuple["UnicastInstance", tuple[int, ...]]:
        """Sub-instance on a subset of edges.

        Node set and ids are unchanged; edges are renumbered densely in old id
        order.  Returns the new instance and the old id of each new id.
        """
        kept = tuple(sorted(set(keep)))
        if kept and not (0 <= kept[0] and kept[-1] < len(self.edges)):
            bad = next(e for e in kept if not 0 <= e < len(self.edges))
            raise InstanceError(f"unknown edge id {bad}")
        new_edges = tuple(self.edges[e] for e in kept)
        return UnicastInstance(self.names, new_edges, self.sessions), kept


def _numbered(
    pairs: Iterable[tuple[str, str]],
) -> tuple[tuple[str, ...], dict[str, int], tuple[tuple[int, int], ...]]:
    """Node names in order of first appearance in ``pairs``, the name -> id
    map, and ``pairs`` as id pairs."""
    index: dict[str, int] = {}
    add = index.setdefault
    ids = tuple((add(u, len(index)), add(v, len(index))) for u, v in pairs)
    return tuple(index), index, ids


def build_instance(
    edges: Sequence[tuple[str, str]],
    sessions: Sequence[tuple[str, str] | tuple[str, str, int]],
) -> UnicastInstance:
    """Assemble an instance from named edge and session lists.

    Node ids follow first appearance in ``edges``; session endpoints must
    already occur there.  A session is (source, terminal) or (source,
    terminal, rate).
    """
    names, index, edge_ids = _numbered(edges)
    sess: list[Session] = []
    for spec in sessions:
        if len(spec) not in (2, 3):
            raise InstanceError(f"session must be (source, terminal[, rate]), got {spec!r}")
        for name in spec[:2]:
            if name not in index:
                raise InstanceError(f"unknown node {name!r} in session")
        sess.append(Session(index[spec[0]], index[spec[1]], *spec[2:]))
    return UnicastInstance(names, edge_ids, tuple(sess))


# -- file format ----------------------------------------------------------


# cap=c becomes c parallel edges and rate=r becomes r symbols per time step,
# so a larger value is refused before anything is allocated for it
MAX_COUNT = 2**16
# the largest instance the package derives from a file: the edges of a T-slot
# expansion (n_edges * T), which ``expand_time`` refuses to exceed, and the
# crossbar cells of ``transform.structure``; the slowest accepted ``code``
# measured, 34 unit sessions each over one edge of capacity 34, takes about
# 1.9 s of CPU on a 2-core Xeon
MAX_EXPANDED_EDGES = 200 * 200


def _bounded_count(token: str, what: str, lineno: int) -> int:
    """The integer after the ``=`` of ``token``, at most ``MAX_COUNT``."""
    try:
        value = int(token.partition("=")[2])
    except ValueError:
        raise InstanceError(f"line {lineno}: bad {what} {token!r}") from None
    if value > MAX_COUNT:
        raise InstanceError(f"line {lineno}: {what} {value} exceeds {MAX_COUNT}")
    return value


def parse_instance(text: str) -> UnicastInstance:
    """Parse the line-oriented instance format.

    Raises:
        InstanceError: with a 1-based line number on any syntax problem,
            ``cap=`` or ``rate=`` above ``MAX_COUNT``, a self-loop, duplicate
            or non-contiguous session index, unknown node in a session line,
            or a directed cycle.
    """
    edge_pairs: list[tuple[str, str]] = []  # one per unit edge, cap= expanded
    session_specs: list[tuple[int, str, str, int, int]] = []  # (idx, src, dst, rate, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "edge":
            if len(parts) not in (3, 4):
                raise InstanceError(f"line {lineno}: expected 'edge <u> <v> [cap=<c>]'")
            cap = 1
            if len(parts) == 4:
                if not parts[3].startswith("cap="):
                    raise InstanceError(f"line {lineno}: bad edge attribute {parts[3]!r}")
                cap = _bounded_count(parts[3], "capacity", lineno)
                if cap < 1:
                    raise InstanceError(f"line {lineno}: capacity must be >= 1")
            if parts[1] == parts[2]:
                raise InstanceError(f"line {lineno}: self-loop on node {parts[1]!r}")
            edge_pairs += [(parts[1], parts[2])] * cap
        elif kind == "session":
            if len(parts) not in (4, 5):
                raise InstanceError(
                    f"line {lineno}: expected 'session <i> <src> <dst> [rate=<r>]'"
                )
            try:
                idx = int(parts[1])
            except ValueError:
                raise InstanceError(f"line {lineno}: bad session index {parts[1]!r}") from None
            rate = 1
            if len(parts) == 5:
                if not parts[4].startswith("rate="):
                    raise InstanceError(f"line {lineno}: bad session attribute {parts[4]!r}")
                rate = _bounded_count(parts[4], "rate", lineno)
            session_specs.append((idx, parts[2], parts[3], rate, lineno))
        else:
            raise InstanceError(f"line {lineno}: unknown directive {kind!r}")

    names, index, edges = _numbered(edge_pairs)
    session_specs.sort(key=lambda s: (s[0], s[4]))
    sessions: list[Session] = []
    seen: set[int] = set()
    for pos, (idx, src, dst, rate, lineno) in enumerate(session_specs, start=1):
        if idx in seen:
            raise InstanceError(f"line {lineno}: duplicate session index {idx}")
        seen.add(idx)
        if idx != pos:
            raise InstanceError(f"line {lineno}: session indices must be 1-based contiguous")
        for name in (src, dst):
            if name not in index:
                raise InstanceError(f"line {lineno}: unknown node {name!r} in session")
        try:
            sessions.append(Session(index[src], index[dst], rate))
        except InstanceError as exc:
            raise InstanceError(f"line {lineno}: {exc}") from None
    if not sessions:
        raise InstanceError("instance declares no sessions")
    return UnicastInstance(names, edges, tuple(sessions))


def serialize_instance(instance: UnicastInstance) -> str:
    """Canonical text form: sessions first, then edges in id order."""
    lines: list[str] = []
    for i, s in enumerate(instance.sessions, start=1):
        rate = f" rate={s.rate}" if s.rate != 1 else ""
        lines.append(
            f"session {i} {instance.names[s.source]} {instance.names[s.terminal]}{rate}"
        )
    for u, v in instance.edges:
        lines.append(f"edge {instance.names[u]} {instance.names[v]}")
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> UnicastInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(instance: UnicastInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(instance))


# -- endpoint attachment and time expansion --------------------------------


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "~"
    taken.add(name)
    return name


def attach_endpoints(
    instance: UnicastInstance, width: Mapping[int, int] | Sequence[int]
) -> UnicastInstance:
    """Attach private session endpoints joined by ``width[i]`` parallel edges.

    Fresh source ``~s<i>`` feeds session i's source and its terminal feeds
    fresh terminal ``~t<i>``, so no source has in-edges and no terminal has
    out-edges.  The attachment bounds session i's max-flow above by
    width[i] while any width[i] edge-disjoint paths survive below it, so
    the result has connectivity exactly min(width[i], previous max-flow)
    per session.  Original edge ids are preserved; attachments come after
    them.  A width missing or below 0 for some session raises
    :class:`InstanceError`.
    """
    names = list(instance.names)
    taken = set(names)
    edges = list(instance.edges)
    sessions: list[Session] = []
    for i, s in enumerate(instance.sessions):
        try:
            w = width[i]
        except LookupError:
            raise InstanceError(f"no width given for session {i + 1}") from None
        if w < 0:
            raise InstanceError(f"session {i + 1}: width must be >= 0, got {w}")
        names.append(_fresh_name(f"~s{i + 1}", taken))
        src = len(names) - 1
        names.append(_fresh_name(f"~t{i + 1}", taken))
        dst = len(names) - 1
        edges.extend([(src, s.source)] * w)
        edges.extend([(s.terminal, dst)] * w)
        sessions.append(Session(src, dst, s.rate))
    return UnicastInstance(tuple(names), tuple(edges), tuple(sessions))


def expand_time(instance: UnicastInstance, T: int) -> UnicastInstance:
    """Time-expand the instance for vector coding over T slots.

    Every edge becomes T parallel copies (copy tau of edge e gets id
    ``e * T + tau``); session rates multiply by T; nodes are unchanged.
    The expansion is kept on ``instance``, as ``topo_order`` is, so the code
    layer expands each instance once to build a code and check it.  One of
    more than ``MAX_EXPANDED_EDGES`` edges is refused before anything is
    built.
    """
    if T < 1:
        raise InstanceError(f"T must be >= 1, got {T}")
    if instance.n_edges * T > MAX_EXPANDED_EDGES:
        raise InstanceError(
            f"the {T}-slot expansion has {instance.n_edges * T} edges,"
            f" above the bound of {MAX_EXPANDED_EDGES}"
        )
    if T == 1:
        return instance  # the same edges and rates
    if instance._expansion is not None and instance._expansion[0] == T:
        return instance._expansion[1]
    edges = tuple(edge for edge in instance.edges for _ in range(T))
    sessions = tuple(Session(s.source, s.terminal, s.rate * T) for s in instance.sessions)
    expanded = UnicastInstance(instance.names, edges, sessions)
    object.__setattr__(instance, "_expansion", (T, expanded))
    return expanded
