"""Recognizers for the connected graphs with gamma_oidR in {3, 4, 5}.

Every G and H family fixes the neighborhood of each non-anchor vertex to a
subset of its anchors, so an accepted anchor set always covers every edge.
Recognition therefore tries, with exact neighborhood matching, only the
ordered anchor tuples drawn from the graph's 2- and 3-vertex covers, in
lexicographic order.  Families may overlap, so classify reports the first
accepting family in the fixed order star, G1, G2, G3, H1..H6.  Only the
value class carries a correctness contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, NamedTuple

from .graphs import Graph, is_connected

THREE, FOUR, FIVE, OTHER = "THREE", "FOUR", "FIVE", "OTHER"


class CharacterizeError(ValueError):
    """Classification precondition violated."""


@dataclass(frozen=True)
class ClassifyResult:
    value_class: str
    family: str | None = None
    subcase: str | None = None
    anchors: tuple[int, ...] = ()


def is_star(g: Graph) -> bool:
    """True iff g is K_{1,n-1}; requires a connected graph on n >= 3."""
    _require_connected(g)
    return g.m == g.n - 1 and g.max_degree == g.n - 1


def _require_connected(g: Graph) -> None:
    if g.n < 3:
        raise CharacterizeError(f"classification requires n >= 3, got n = {g.n}")
    if not is_connected(g):
        raise CharacterizeError("classification requires a connected graph")


# --- the three graphs of the gamma_oidR = 4 family ---
# Matchers return the subcase ("none" for a family without subcases) or None.


def _match_g1(g: Graph, v1: int, v2: int) -> str | None:
    # edge v1v2, k >= 1 common neighbors seeing exactly {v1, v2}, plus
    # at least one pendant leaf on v1, and nothing else
    if not g.has_edge(v1, v2):
        return None
    k = leaves = 0
    for u in range(g.n):
        if u == v1 or u == v2:
            continue
        nb = g.adj[u]
        if nb == {v1, v2}:
            k += 1
        elif nb == {v1}:
            leaves += 1
        else:
            return None
    return "none" if k >= 1 and leaves >= 1 else None


def _match_g2(g: Graph, v1: int, v2: int) -> str | None:
    if not g.has_edge(v1, v2):
        return None
    others = [u for u in range(g.n) if u != v1 and u != v2]
    ok = len(others) >= 1 and all(g.adj[u] == {v1, v2} for u in others)
    return "none" if ok else None


def _match_g3(g: Graph, v1: int, v2: int) -> str | None:
    if g.has_edge(v1, v2):
        return None
    others = [u for u in range(g.n) if u != v1 and u != v2]
    ok = len(others) >= 2 and all(g.adj[u] == {v1, v2} for u in others)
    return "none" if ok else None


# --- the six families of the gamma_oidR = 5 characterization ---


def _partition_by_neighborhood(g: Graph, anchors: tuple[int, ...],
                               allowed: dict[frozenset, str]) -> dict[str, list[int]] | None:
    """Assign every non-anchor vertex to the V-set its exact neighborhood names;
    None if some vertex fits no set."""
    out: dict[str, list[int]] = {name: [] for name in allowed.values()}
    anchor_set = set(anchors)
    for u in range(g.n):
        if u in anchor_set:
            continue
        name = allowed.get(g.adj[u])
        if name is None:
            return None
        out[name].append(u)
    return out


def _match_h1(g: Graph, a: int, b: int, c: int) -> str | None:
    sets = _partition_by_neighborhood(g, (a, b, c), {
        frozenset((b,)): "b",
        frozenset((a, b)): "ab",
        frozenset((b, c)): "bc",
        frozenset((a, b, c)): "abc",
    })
    if sets is None:
        return None
    ab, bc, abc = len(sets["ab"]), len(sets["bc"]), len(sets["abc"])
    if ab == 0 and bc == 0 and abc >= 2:
        return "a1"
    if (ab == 0) != (bc == 0) and abc >= 1:
        return "b1"
    if ab >= 1 and bc >= 1:
        return "c1"
    return None


def _match_h2(g: Graph, a: int, b: int, c: int) -> str | None:
    sets = _partition_by_neighborhood(g, (a, b, c), {
        frozenset((b,)): "b",
        frozenset((a, b)): "ab",
        frozenset((b, c)): "bc",
        frozenset((a, b, c)): "abc",
    })
    if sets is None:
        return None
    if len(sets["abc"]) >= 1:
        return "a2"
    if len(sets["ab"]) >= 1 and len(sets["bc"]) >= 1:
        return "b2"
    return None


def _match_h3(g: Graph, a: int, b: int) -> str | None:
    sets = _partition_by_neighborhood(g, (a, b), {
        frozenset((a,)): "a",
        frozenset((a, b)): "ab",
    })
    if sets is None:
        return None
    if len(sets["a"]) >= 1 and len(sets["ab"]) >= 1:
        return "none"
    return None


def _match_h4(g: Graph, a: int, b: int, c: int) -> str | None:
    sets = _partition_by_neighborhood(g, (a, b, c), {
        frozenset((a, b)): "ab",
        frozenset((a, b, c)): "abc",
    })
    if sets is None:
        return None
    ab, abc = len(sets["ab"]), len(sets["abc"])
    if ab == 0 and abc >= 2:
        return "a4"
    if ab >= 1:
        return "b4"
    return None


def _match_h5(g: Graph, a: int, b: int, c: int) -> str | None:
    sets = _partition_by_neighborhood(g, (a, b, c), {
        frozenset((a, b)): "ab",
        frozenset((a, b, c)): "abc",
    })
    if sets is None:
        return None
    ab, abc = len(sets["ab"]), len(sets["abc"])
    if ab >= 1 and abc >= 1:
        return "a5"
    if ab == 0 and abc >= 2:
        return "b5"
    return None


def _match_h6(g: Graph, a: int, b: int, c: int) -> str | None:
    sets = _partition_by_neighborhood(g, (a, b, c), {
        frozenset((a, c)): "ac",
        frozenset((a, b, c)): "abc",
    })
    if sets is None:
        return None
    ac, abc = len(sets["ac"]), len(sets["abc"])
    if ac >= 1 and abc >= 1:
        return "a6"
    if ac == 0 and abc >= 2:
        return "b6"
    return None


def _path(A, a: int, b: int, c: int) -> bool:  # edges ab, bc; non-edge ac
    return b in A[a] and c in A[b] and c not in A[a]


class _Family(NamedTuple):
    name: str
    value_class: str
    match: Callable[..., str | None]
    arity: int
    shape: Callable[..., bool]


# shape: the adjacency an ordered anchor tuple must have, over the open
# neighborhoods A; the candidates of a family are the lex-sorted ordered
# tuples of that shape drawn from the graph's 2- or 3-vertex covers
_FAMILIES = (
    _Family("G1", FOUR, _match_g1, 2, lambda A, a, b: b in A[a]),
    _Family("G2", FOUR, _match_g2, 2, lambda A, a, b: a < b and b in A[a]),
    _Family("G3", FOUR, _match_g3, 2, lambda A, a, b: a < b and b not in A[a]),
    _Family("H1", FIVE, _match_h1, 3, _path),
    _Family("H2", FIVE, _match_h2, 3, lambda A, a, b, c: b in A[a] and c in A[a] and c in A[b]),
    _Family("H3", FIVE, _match_h3, 2, lambda A, a, b: b not in A[a]),
    # a adjacent to neither end of the edge bc
    _Family("H4", FIVE, _match_h4, 3, lambda A, a, b, c: b not in A[a] and c in A[b] and c not in A[a]),
    _Family("H5", FIVE, _match_h5, 3, _path),
    _Family("H6", FIVE, _match_h6, 3, _path),
)
_FAMILY_BY_NAME = {fam.name: fam for fam in _FAMILIES}


def _covers(g: Graph) -> dict[int, list[tuple[int, ...]]]:
    """Lex-sorted ordered pairs (key 2) and triples (key 3) of distinct vertices
    whose vertex set touches every edge: sum of degrees minus inner edges = m."""
    n, m, nb = g.n, g.m, g.nbr_masks
    deg = [len(s) for s in g.adj]
    pairs, triples = [], []
    for a in range(n):
        for b in range(a + 1, n):
            dab = deg[a] + deg[b] - (nb[a] >> b & 1)
            if dab == m:
                pairs.append((a, b))
            for c in range(b + 1, n):
                if dab + deg[c] - (nb[c] >> a & 1) - (nb[c] >> b & 1) == m:
                    triples.append((a, b, c))
    return {k: sorted(t for s in sets for t in permutations(s))
            for k, sets in ((2, pairs), (3, triples))}


def _first_hit(g: Graph, value_class: str, covers: dict[int, list[tuple[int, ...]]]
               ) -> tuple[str, str, tuple[int, ...]] | None:
    """First (family, subcase, anchors) of the value class accepting g."""
    adj = g.adj
    for name, cls, match, arity, shape in _FAMILIES:
        if cls == value_class:
            for anchors in covers[arity]:
                if shape(adj, *anchors) and (sub := match(g, *anchors)) is not None:
                    return name, sub, anchors
    return None


def recognize_G(g: Graph) -> tuple[str, tuple[int, int]] | None:
    """First family among G1, G2, G3 matching g, with its anchor pair."""
    _require_connected(g)
    hit = _first_hit(g, FOUR, _covers(g))
    return None if hit is None else (hit[0], hit[2])


def recognize_H(g: Graph) -> tuple[str, str, tuple[int, ...]] | None:
    """First family among H1..H6 matching g, with its subcase and anchors."""
    _require_connected(g)
    return _first_hit(g, FIVE, _covers(g))


def classify(g: Graph) -> ClassifyResult:
    """Value class of a connected graph on n >= 3: THREE, FOUR, FIVE, or OTHER.

    All three recognizers run so that an (impossible) overlap between value
    classes is surfaced as an error rather than masked by ordering.
    """
    _require_connected(g)
    covers = _covers(g)
    hits = [(cls, hit) for cls in (FOUR, FIVE)
            if (hit := _first_hit(g, cls, covers)) is not None]
    if g.m == g.n - 1 and g.max_degree == g.n - 1:
        center = next(v for v in range(g.n) if g.degree(v) == g.n - 1)
        hits.insert(0, (THREE, ("star", "none", (center,))))
    if len(hits) > 1:
        raise CharacterizeError("recognizers for distinct value classes both accepted; "
                                "this contradicts their characterizations")
    if not hits:
        return ClassifyResult(OTHER)
    value_class, (name, sub, anchors) = hits[0]
    return ClassifyResult(value_class, name, None if sub == "none" else sub, anchors)


def verify_classification(g: Graph, res: ClassifyResult) -> bool:
    """Re-check the reported anchors and V-set partition against the family definition."""
    if res.value_class == OTHER:
        return res.family is None
    if res.family == "star":
        return is_star(g) and len(res.anchors) == 1 and g.degree(res.anchors[0]) == g.n - 1
    fam = _FAMILY_BY_NAME.get(res.family)
    if fam is None:
        return False
    sub = fam.match(g, *res.anchors)
    return sub is not None and (res.subcase or "none") == sub
