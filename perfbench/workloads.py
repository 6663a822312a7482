"""Seed-pinned inputs for the four benchmark workloads.

A workload is a list of operations and one round runs the list once.  An
operation is one command line for ``netcode_unicast.cli.main`` on one
instance file, plus what the checker needs to judge its output.  The program
only ever sees the instance files written from these specs.

Why the inputs look the way they do:

* ``construct`` and the searches run fixed structures, so every seed gives
  the same work and a run's times vary only with the machine.  ``construct``
  samples each slot from ``sampling.sample_triple`` with pinned sampling
  seeds, and the slot fixes the sorted connectivity triple and an edge-count
  band; the searches run the paper's instances and ``sample_1m`` instances
  drawn with pinned sampling seeds.  Per-instance time varies a good deal
  (assign_133: 0.24 s to 0.42 s; a search at m=2, q=3: 0.002 s to 1.9 s),
  so instances drawn afresh for every seed would move the medians between
  seeds.  The seed renames the nodes and keeps the edge order, which keeps
  node ids, topological order and every search count identical.
* No single operation takes more than about 2 s, so a run holds at least
  three repeats of each, spread over the run.  fig3 and cor232 at q=3 (9 s
  each) and fig1 ``--mode routing --T 2`` (7 s) are left out: a run could
  hold one sample of each, and a single long sample carries the machine's
  drift into the run's throughput.
* ``analyze`` instances are built here rather than with ``sample_triple``:
  sampled triples mostly exceed the 24-free-node guard, and one inside it
  took 47 s in the cut sweep.  Each slot fixes the node and edge counts, and
  a violated instance fixes the depth of the cut sweep: its bottleneck node
  sits at position ``depth`` among the sweep's free nodes, so the sweep
  scans exactly ``2**depth + 1`` node sets.  Two fixed, seed-independent
  instances put a violated cut past the guard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

WORKLOADS = ("construct", "search-prove", "search-find", "analyze")

# sorted triple -> median edge count of sample_triple at that triple
TRIPLE_EDGES = {
    (1, 3, 3): 50,
    (2, 3, 3): 67,
    (1, 3, 4): 62,
    (2, 3, 4): 82,
    (1, 4, 4): 76,
    (3, 3, 4): 101,
}
EDGE_BAND = 2
SLOTS_PER_TRIPLE = 3

# pinned sample_1m seeds per m; with twelve at m=1, the cheap searches whose
# time is mostly per-search set-up and the command line hold the median
SEARCH_FIND_SAMPLES = {1: range(12), 2: range(4)}
CLEAN_SLOTS = 96
SWEEP_DEPTHS = (6, 8, 10, 12, 14) * 2


@dataclass(frozen=True)
class Spec:
    """An instance as the benchmark knows it: named edges in file order and
    sessions as (source, terminal, rate)."""

    edges: tuple[tuple[str, str], ...]
    sessions: tuple[tuple[str, str, int], ...]

    def text(self) -> str:
        lines = [
            f"session {i} {s} {t}" + (f" rate={r}" if r != 1 else "")
            for i, (s, t, r) in enumerate(self.sessions, start=1)
        ]
        lines += [f"edge {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``expect`` is ``analyze``, ``code`` (a construction
    that must verify), ``found`` (a search that must stop at a code) or
    ``exhausted`` (a search that must exhaust with no code).  ``cut_implied``
    marks an exhausted search whose verdict the checker derives from a
    violated cut.  ``planted`` marks an operation that fails on a known
    fault in the program; its check failures count as failed operations."""

    name: str
    command: str
    spec: Spec
    args: tuple[str, ...]
    expect: str
    q: int = 2
    T: int = 1
    routing: bool = False
    cut_implied: bool = False
    planted: bool = False


def _spec(inst, names: list[str] | None = None) -> Spec:
    """Spec of a program instance, optionally with new node names."""
    names = names or list(inst.names)
    return Spec(
        tuple((names[u], names[v]) for u, v in inst.edges),
        tuple((names[s.source], names[s.terminal], s.rate) for s in inst.sessions),
    )


class _Namer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()

    def __call__(self, prefix: str = "v") -> str:
        while True:
            name = f"{prefix}{self.rng.randrange(16**5):05x}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def _renamed(inst, rng: random.Random) -> Spec:
    namer = _Namer(rng)
    return _spec(inst, [namer() for _ in inst.names])


def construct(seed: int, pkg) -> list[Op]:
    rng = random.Random(seed * 4 + 0)
    ops: list[Op] = []
    for k in range(SLOTS_PER_TRIPLE):
        for t, (triple, target) in enumerate(TRIPLE_EDGES.items()):
            slot = k * len(TRIPLE_EDGES) + t
            orders = sorted(set(permutations(triple)))
            order = orders[slot % len(orders)]
            j = 1000 * slot
            while abs((inst := pkg.sample_triple(j, order)).n_edges - target) > EDGE_BAND:
                j += 1
            label = "".join(map(str, order))
            ops.append(Op(f"assign_133-{label}-{k}", "code", _renamed(inst, rng), ("--q", "2"), "code", T=2))
    uniform = pkg.sample_uniform(0, 3)
    ops.append(Op("route_uniform-333", "code", _renamed(uniform, rng), ("--q", "2"), "code", T=3))
    one_m = pkg.sample_1m(0, 2)
    ops.append(Op("assign_1m-13", "code", _renamed(one_m, rng), ("--q", "2"), "code", T=1))
    return ops


def search_prove(seed: int, pkg) -> list[Op]:
    rng = random.Random(seed * 4 + 1)
    ops: list[Op] = []
    for name, gen, by_cut in (
        ("fig2a", pkg.gen_222, True),
        ("fig2b", pkg.gen_113, True),
        ("fig3", pkg.gen_23_rate21, False),
        ("cor232", pkg.gen_232, False),
    ):
        spec = _renamed(gen(), rng)
        # fig3 and cor232 at q=3 take 9 s each; see the module docstring
        for q in (2, 3) if by_cut else (2,):
            ops.append(
                Op(f"{name}-q{q}", "search", spec, ("--q", str(q)), "exhausted", q=q, cut_implied=by_cut)
            )
    fig1 = _renamed(pkg.gen_fig1(), rng)
    ops.append(Op("fig1-routing", "search", fig1, ("--mode", "routing"), "exhausted", routing=True))
    return ops


def search_find(seed: int, pkg) -> list[Op]:
    rng = random.Random(seed * 4 + 2)
    fig1 = _renamed(pkg.gen_fig1(), rng)
    heavy = [
        Op(f"fig1-q{q}", "search", fig1, ("--q", str(q)), "found", q=q) for q in (2, 3, 5)
    ]
    # a routing find at T=2: 61,752 blocks, where fig1's takes 1.87 million
    routed = _renamed(pkg.sample_1m(1, 1), rng)
    heavy.append(
        Op("sample_1m-m1-1-routing-T2", "search", routed, ("--mode", "routing", "--T", "2"), "found",
           T=2, routing=True)
    )
    light = []
    for m, samples in SEARCH_FIND_SAMPLES.items():
        for j in samples:
            spec = _renamed(pkg.sample_1m(j, m), rng)
            for q in (2, 3):
                op = Op(f"sample_1m-m{m}-{j}-q{q}", "search", spec, ("--q", str(q)), "found", q=q)
                (light if m == 1 else heavy).append(op)
    # the cheap m=1 searches hold the median; spreading them between the
    # longer searches times them at many moments of the round, not in one burst
    ops = []
    for i, op in enumerate(heavy):
        ops.append(op)
        ops += light[i * len(light) // len(heavy) : (i + 1) * len(light) // len(heavy)]
    return ops


# -- analyze instances ---------------------------------------------------------


def _chains(rng, namer, src, dst, count, relays):
    """``count`` chains src -> dst sharing ``relays`` relay nodes at random.
    Returns the edges and, per chain, its relays in order."""
    cuts = sorted(rng.randint(0, relays) for _ in range(count - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [relays])]
    edges, chains = [], []
    for size in sizes:
        nodes = [namer() for _ in range(size)]
        hops = [src] + nodes + [dst]
        edges += list(zip(hops, hops[1:]))
        chains.append(nodes)
    return edges, chains


def clean_instance(rng: random.Random) -> Spec:
    """Three sessions on private edge-disjoint chains plus forward cross
    edges.  Every session subset keeps at least its chain count of disjoint
    paths, so no cut-set bound is violated and every subset is settled by
    the min-cut skip."""
    namer = _Namer(rng)
    counts = rng.choice(((1, 2, 3), (2, 2, 2), (1, 1, 4), (2, 3, 1)))
    relays = [5, 5, 4]
    rng.shuffle(relays)
    edges, level, sessions, relay_nodes = [], {}, [], []
    for count, budget in zip(counts, relays):
        src, dst = namer("s"), namer("t")
        chain_edges, chains = _chains(rng, namer, src, dst, count, budget)
        edges += chain_edges
        for nodes in chains:
            stamps = sorted(rng.random() for _ in nodes)
            level.update(zip(nodes, stamps))
            relay_nodes += nodes
        rate = 2 if count >= 2 and rng.random() < 0.3 else 1
        sessions.append((src, dst, rate))
    for _ in range(6):
        u, v = rng.sample(relay_nodes, 2)
        if level[u] > level[v]:
            u, v = v, u
        edges.append((u, v))
    rng.shuffle(edges)
    return Spec(tuple(edges), tuple(sessions))


def violated_instance(rng: random.Random, depth: int) -> Spec:
    """Two unit sessions whose sources feed one bottleneck node ``u`` (cut
    capacity 1 against rate 2), and a third, clean session.

    The third session's ``depth`` nodes are written first, so ``u`` is the
    free node at position ``depth`` of the sweep over sessions {i, j}.  The
    smallest violating node set is {s_i, s_j, u}, so the binary-counter sweep
    stops at mask ``2**depth``."""
    namer = _Namer(rng)
    i, j, k = rng.sample(range(3), 3)
    ends = [(namer("s"), namer("t")) for _ in range(3)]
    k_edges, _ = _chains(rng, namer, *ends[k], rng.randint(1, 2), depth - 2)
    u, w = namer(), namer()
    spine = [u] + [namer() for _ in range(rng.randint(0, 2))] + [w]
    rest = [(ends[i][0], u), (ends[j][0], u)] + list(zip(spine, spine[1:]))
    for a in (i, j):
        hops = [w] + [namer() for _ in range(rng.randint(0, 1))] + [ends[a][1]]
        rest += list(zip(hops, hops[1:]))
    rng.shuffle(k_edges)
    rng.shuffle(rest)
    # u must be the first free node after the third session's
    first = next(x for x, edge in enumerate(rest) if u in edge)
    rest.insert(0, rest.pop(first))
    sessions = tuple((s, t, 1) for s, t in ends)
    return Spec(tuple(k_edges + rest), sessions)


def planted_instances() -> list[tuple[str, Spec]]:
    """Violated cuts past the 24-free-node guard; independent of the seed.

    ``gen_113`` with its shared edge v1 -> a split by 22 relays has 24
    non-endpoint nodes, inside the static guard, but the sweep for sessions
    {1,2} also counts s3 and t3 as free (26) and raises.  ``gen_222`` with
    v1 -> a split by 24 relays fails the static guard itself.  Either way
    ``analyze`` drops the witness today."""
    relays = [f"r{x}" for x in range(22)]
    hops = ["v1"] + relays + ["a"]
    g113 = Spec(
        (("s1", "v1"), ("s2", "v1"), *zip(hops, hops[1:]), ("a", "t1"), ("a", "t2"),
         ("s3", "t3"), ("s3", "t3"), ("s3", "t3")),
        (("s1", "t1", 1), ("s2", "t2", 1), ("s3", "t3", 1)),
    )
    relays = [f"r{x}" for x in range(24)]
    hops = ["v1"] + relays + ["a"]
    g222 = Spec(
        (("s1", "v1"), ("s2", "v1"), ("s3", "v1"), ("s1", "v2"), ("s2", "v2"), ("s3", "v2"),
         *zip(hops, hops[1:]), ("v2", "b"), ("a", "t1"), ("a", "t2"), ("a", "t3"),
         ("b", "t1"), ("b", "t2"), ("b", "t3")),
        (("s1", "t1", 1), ("s2", "t2", 1), ("s3", "t3", 1)),
    )
    return [("gen_113-relays22", g113), ("gen_222-relays24", g222)]


def analyze(seed: int, pkg) -> list[Op]:
    rng = random.Random(seed * 4 + 3)
    ops = [Op(f"clean-{x}", "analyze", clean_instance(rng), (), "analyze") for x in range(CLEAN_SLOTS)]
    ops += [
        Op(f"violated-d{d}-{x}", "analyze", violated_instance(rng, d), (), "analyze")
        for x, d in enumerate(SWEEP_DEPTHS)
    ]
    ops += [Op(name, "analyze", spec, (), "analyze", planted=True) for name, spec in planted_instances()]
    return ops


BUILDERS = {
    "construct": construct,
    "search-prove": search_prove,
    "search-find": search_find,
    "analyze": analyze,
}
