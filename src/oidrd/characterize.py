"""Recognizers for the connected graphs with gamma_oidR in {3, 4, 5}.

The G and H families are the rows of graphs.ANCHORED, the table the builders
read too: anchors with fixed edges among them, and blocks of vertices whose
neighborhood is exactly a fixed anchor subset.  So an accepted anchor set
covers every edge, and recognition takes each 2- and 3-vertex cover once, as
a sorted set, and reads its inner edges and how many other vertices see each
subset of it against _ROWS, the family anchor orders per edge pattern.
Families may overlap, so classify reports the first accepting family in the
fixed order star, G1, G2, G3, H1..H6, at its least accepting anchor tuple,
with that tuple's first subcase whose rule the block sizes meet.
verify_classification re-checks one tuple with _match, which recognition
does not share.  Only the value class carries a correctness contract.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import permutations

from .graphs import ANCHORED, Anchored, Graph, is_connected

THREE, FOUR, FIVE, OTHER = "THREE", "FOUR", "FIVE", "OTHER"
# the gamma_oidR value of each class but OTHER
CLASS_VALUE = {THREE: 3, FOUR: 4, FIVE: 5}


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


def _shape(nb: Sequence[int], anchors: tuple[int, ...]) -> tuple[int, int]:
    """(k, bits) of an ordered pair or triple of anchors over the neighbor
    masks nb: bit i is set iff its i-th pair, in the order 01, 02, 12, is an
    edge."""
    if len(anchors) == 2:
        a, b = anchors
        return 2, nb[a] >> b & 1
    a, b, c = anchors
    return 3, (nb[a] >> b & 1) | (nb[a] >> c & 1) << 1 | (nb[b] >> c & 1) << 2


def _family_shape(fam: Anchored, order: Sequence[int] = range(3)) -> tuple[int, int]:
    """The shape of fam's anchors once each anchor i is renumbered order[i]."""
    nb = [0] * fam.k
    for x, y in fam.edges:
        nb[order[x]] |= 1 << order[y]
        nb[order[y]] |= 1 << order[x]
    return _shape(nb, tuple(range(fam.k)))


# family name -> (its row, the shape of its anchors), for verify_classification
_FAMILIES = {fam.name: (fam, _family_shape(fam)) for fam in ANCHORED.values()}


def _match(g: Graph, fam: Anchored, anchors: tuple[int, ...]) -> str | None:
    """The first subcase of fam whose rule the block sizes meet, when every
    vertex outside the anchors sees exactly one block's anchor subset; None
    otherwise.  The anchors' adjacency among themselves is the caller's check."""
    nb = g.nbr_masks
    # an anchor may see exactly a block's subset too, but is no block vertex
    own = [nb[a] for a in anchors]
    sizes = []
    for block in fam.blocks:
        mask = 0
        for i in block:
            mask |= 1 << anchors[i]
        sizes.append(nb.count(mask) - own.count(mask))
    if sum(sizes) != g.n - fam.k:
        return None
    return next((sub for sub, rule in fam.rules.items() if rule(*sizes)), None)


def _rows() -> dict[tuple[int, int], list[tuple]]:
    """Shape of a sorted anchor set -> (family, rank, order, slots, forbidden)
    per fit of the rank-th family: anchor i is the set's order[i]-th vertex,
    block i sees just the set positions in bitmask slots[i], and `forbidden`
    has bit j iff position subset j is no block's."""
    rows: dict[tuple[int, int], list[tuple]] = {}
    for rank, fam in enumerate(ANCHORED.values()):
        for order in permutations(range(fam.k)):
            slots = tuple(sum(1 << order[i] for i in block) for block in fam.blocks)
            rows.setdefault(_family_shape(fam, order), []).append(
                (fam, rank, order, slots, 255 & ~sum(1 << j for j in slots)))
    return rows


_ROWS = _rows()


def _cover_sets(g: Graph) -> Iterator[tuple[int, ...]]:
    """The sorted pairs and triples of vertices that touch every edge (sum of
    degrees minus inner edges = m).  A set touches at most the sum of its
    degrees, so none exists when m exceeds the three largest degrees, and a
    pair (a, b) has no third vertex when m exceeds its count plus the
    largest degree after b."""
    n, m, nb = g.n, g.m, g.nbr_masks
    deg = [mask.bit_count() for mask in nb]
    if m > sum(sorted(deg)[-3:]):
        return
    tail = [0] * n  # tail[b]: the largest degree among b+1..n-1
    big = 0
    for i in range(n - 1, 0, -1):
        if deg[i] > big:
            big = deg[i]
        tail[i - 1] = big
    for a in range(n):
        for b in range(a + 1, n):
            dab = deg[a] + deg[b] - (nb[a] >> b & 1)
            if dab == m:
                yield a, b
            if dab + tail[b] >= m:
                for c in range(b + 1, n):
                    if dab + deg[c] - (nb[c] >> a & 1) - (nb[c] >> b & 1) == m:
                        yield a, b, c


def _hits(g: Graph) -> dict[int, tuple[int, tuple[int, ...], str, str]]:
    """Value -> (rank, anchors, family, subcase) of the first family of that
    value accepting g, at its least accepting anchor tuple.  A vertex outside
    a cover sees only anchors, so it is in a block iff the subset it sees is
    the block's, and the block sizes sum to n - k iff no vertex sees a
    forbidden subset."""
    n, nb = g.n, g.nbr_masks
    best: dict[int, tuple[int, tuple[int, ...], str, str]] = {}
    for s in _cover_sets(g):
        a, b, c = s if len(s) == 3 else (*s, n)  # no vertex sees a vertex n
        count, seen = [0] * 8, 0
        for v in range(n):
            if v != a and v != b and v != c:
                x = nb[v]
                j = (x >> a & 1) | (x >> b & 1) << 1 | (x >> c & 1) << 2
                count[j] += 1
                seen |= 1 << j
        for fam, rank, order, slots, forbidden in _ROWS.get(_shape(nb, s), ()):
            if not seen & forbidden:
                sizes = [count[j] for j in slots]
                sub = next((sub for sub, rule in fam.rules.items() if rule(*sizes)), None)
                hit = rank, tuple(s[i] for i in order), fam.name, sub
                if sub and (fam.value not in best or hit < best[fam.value]):
                    best[fam.value] = hit
    return best


def recognize_G(g: Graph) -> tuple[str, tuple[int, int]] | None:
    """First family among G1, G2, G3 matching g, with its anchor pair."""
    _require_connected(g)
    hit = _hits(g).get(CLASS_VALUE[FOUR])
    return None if hit is None else (hit[2], hit[1])


def recognize_H(g: Graph) -> tuple[str, str, tuple[int, ...]] | None:
    """First family among H1..H6 matching g, with its subcase and anchors."""
    _require_connected(g)
    hit = _hits(g).get(CLASS_VALUE[FIVE])
    return None if hit is None else (hit[2], hit[3], hit[1])


def classify(g: Graph) -> ClassifyResult:
    """Value class of a connected graph on n >= 3: THREE, FOUR, FIVE, or OTHER.

    All three recognizers run so that an (impossible) overlap between value
    classes is surfaced as an error rather than masked by ordering.
    """
    _require_connected(g)
    found = _hits(g)
    hits = [(cls, found[CLASS_VALUE[cls]]) for cls in (FOUR, FIVE) if CLASS_VALUE[cls] in found]
    if g.m == g.n - 1 and g.max_degree == g.n - 1:
        center = next(v for v in range(g.n) if g.degree(v) == g.n - 1)
        hits.insert(0, (THREE, (0, (center,), "star", "none")))
    if len(hits) > 1:
        raise CharacterizeError("recognizers for distinct value classes both accepted; "
                                "this contradicts their characterizations")
    if not hits:
        return ClassifyResult(OTHER)
    value_class, (_, anchors, name, sub) = hits[0]
    return ClassifyResult(value_class, name, None if sub == "none" else sub, anchors)


def verify_classification(g: Graph, res: ClassifyResult) -> bool:
    """Re-check the reported value class, anchors and block partition against
    the family definition."""
    a = res.anchors
    if res.value_class == OTHER:
        return res.family is None
    if res.family == "star":
        return (res.value_class == THREE and is_star(g) and len(a) == 1
                and 0 <= a[0] < g.n and g.degree(a[0]) == g.n - 1)
    fam, shape = _FAMILIES.get(res.family, (None, None))
    return (fam is not None and CLASS_VALUE.get(res.value_class) == fam.value
            and len(set(a)) == len(a) == fam.k and all(0 <= v < g.n for v in a)
            and _shape(g.nbr_masks, a) == shape
            and _match(g, fam, a) == (res.subcase or "none"))
