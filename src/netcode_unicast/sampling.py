"""Seeded random instance generators for the constructive-code test suites.

Instances are assembled from per-session bundles of relay chains wired
source to terminal, optionally crossed pairwise through shared merge/fork
segments ("weaves").  Endpoint degrees cap each session's max-flow at its
chain count and the chains realize it, so connectivity vectors are exact
by construction, and all internal nodes have total degree at most 3.
"""

from __future__ import annotations

import random
from typing import Sequence

from .graph import UnicastInstance, build_instance

__all__ = ["sample_1m", "sample_uniform", "sample_triple"]

PathId = tuple[int, int]  # (session index, chain index)


def _weave_build(
    seed: int, chains: Sequence[int], rates: Sequence[int], weave_prob: float
) -> UnicastInstance:
    """Chains plus pairwise crossings, acyclic by a global crossing order.

    Each unordered pair of chains from different sessions is crossed at
    most once.  Every chain visits its crossings in ascending global rank,
    so every edge moves forward in rank order and the graph stays acyclic.
    """
    rng = random.Random(seed)
    paths = [(i, j) for i, count in enumerate(chains) for j in range(count)]
    weaves: list[tuple[PathId, PathId]] = []
    for pi, p in enumerate(paths):
        for other in paths[pi + 1 :]:
            if p[0] == other[0]:
                continue
            if rng.random() < weave_prob:
                weaves.append((p, other))
    rng.shuffle(weaves)

    visits: dict[PathId, list[int]] = {p: [] for p in paths}
    for rank, (p, other) in enumerate(weaves):
        visits[p].append(rank)
        visits[other].append(rank)

    counter = 0
    edges: list[tuple[str, str]] = []

    def relay() -> str:
        nonlocal counter
        counter += 1
        return f"n{counter}"

    def pad(cur: str) -> str:
        for _ in range(rng.randint(0, 2)):
            nxt = relay()
            edges.append((cur, nxt))
            cur = nxt
        return cur

    for i, count in enumerate(chains):
        for j in range(count):
            cur = f"s{i + 1}"
            for rank in sorted(visits[(i, j)]):
                cur = pad(cur)
                edges.append((cur, f"m{rank + 1}"))
                cur = f"f{rank + 1}"
            cur = pad(cur)
            edges.append((cur, f"t{i + 1}"))
    for rank in range(len(weaves)):
        # the shared segment itself: one or two edges
        if rng.random() < 0.5:
            mid = relay()
            edges.append((f"m{rank + 1}", mid))
            edges.append((mid, f"f{rank + 1}"))
        else:
            edges.append((f"m{rank + 1}", f"f{rank + 1}"))

    sessions = [(f"s{i + 1}", f"t{i + 1}", rate) for i, rate in enumerate(rates)]
    return build_instance(edges, sessions)


def sample_1m(seed: int, m: int) -> UnicastInstance:
    """Random minimal structured two-session instance, rates {1, m},
    connectivity [1, m+1].

    The rate-1 chain crosses each rate-m chain at most once; under that
    bound every edge is critical for one of the two max-flows, so the
    instance is minimal as built.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return _weave_build(seed, (1, m + 1), (1, m), 0.6)


def sample_uniform(seed: int, n: int) -> UnicastInstance:
    """Random n-session unit-rate instance with connectivity [n, ..., n]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _weave_build(seed, (n,) * n, (1,) * n, 0.35)


def sample_triple(seed: int, triple: Sequence[int]) -> UnicastInstance:
    """Random three-session unit-rate instance with the given connectivity."""
    if len(triple) != 3 or any(k < 1 for k in triple):
        raise ValueError("triple must hold three values of at least 1")
    return _weave_build(seed, tuple(triple), (1, 1, 1), 0.45)
