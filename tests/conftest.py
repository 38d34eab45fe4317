"""Shared test oracles, kept independent of the library code they check."""

from __future__ import annotations

from itertools import permutations
from math import comb

from oidrd.graphs import Graph


def labeled_connected_count(n: int) -> int:
    """Number of labeled connected graphs on n vertices, via the standard
    inclusion-exclusion recurrence over the component containing vertex 1."""
    total = [0] * (n + 1)
    for k in range(1, n + 1):
        total[k] = 2 ** comb(k, 2)
    conn = [0] * (n + 1)
    for k in range(1, n + 1):
        conn[k] = total[k]
        for j in range(1, k):
            conn[k] -= comb(k - 1, j - 1) * conn[j] * total[k - j]
    return conn[n]


def isomorphic(a: Graph, b: Graph) -> bool:
    """Brute-force isomorphism test for tiny graphs (n <= 8)."""
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(map(a.degree, range(a.n))) != sorted(map(b.degree, range(b.n))):
        return False
    edges_b = set()
    for u, v in b.edges():
        edges_b.add((u, v))
        edges_b.add((v, u))
    for perm in permutations(range(a.n)):
        if all((perm[u], perm[v]) in edges_b for u, v in a.edges()):
            return True
    return False
