"""Recognizers for the connected graphs with gamma_oidR in {3, 4, 5}.

The G and H families are the rows of graphs.ANCHORED, the table the builders
read too: anchors with fixed edges among them, and blocks of vertices whose
neighborhood is exactly a fixed anchor subset.  So an accepted anchor set
covers every edge, and a family is tried only on the ordered anchor tuples,
in lexicographic order, drawn from the graph's 2- and 3-vertex covers whose
adjacency among themselves is the family's edge set.  Families may overlap,
so classify reports the first accepting family in the fixed order star, G1,
G2, G3, H1..H6, with its first subcase whose rule the block sizes meet.
Only the value class carries a correctness contract.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _family_shape(fam: Anchored) -> tuple[int, int]:
    nb = [0] * fam.k
    for x, y in fam.edges:
        nb[x] |= 1 << y
        nb[y] |= 1 << x
    return _shape(nb, tuple(range(fam.k)))


# family name -> (its row, the shape of its anchors), in recognition order
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


def _covers(g: Graph) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Lex-sorted ordered pairs and triples of distinct vertices whose vertex
    set touches every edge (sum of degrees minus inner edges = m), keyed by
    their shape."""
    n, m, nb = g.n, g.m, g.nbr_masks
    deg = [mask.bit_count() for mask in nb]
    sets = []
    for a in range(n):
        for b in range(a + 1, n):
            dab = deg[a] + deg[b] - (nb[a] >> b & 1)
            if dab == m:
                sets.append((a, b))
            for c in range(b + 1, n):
                if dab + deg[c] - (nb[c] >> a & 1) - (nb[c] >> b & 1) == m:
                    sets.append((a, b, c))
    out: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for t in sorted(t for s in sets for t in permutations(s)):
        out.setdefault(_shape(nb, t), []).append(t)
    return out


def _first_hit(g: Graph, value_class: str, covers: dict[tuple[int, int], list[tuple[int, ...]]]
               ) -> tuple[str, str, tuple[int, ...]] | None:
    """First (family, subcase, anchors) of the value class accepting g."""
    value = CLASS_VALUE[value_class]
    for name, (fam, shape) in _FAMILIES.items():
        if fam.value == value:
            for anchors in covers.get(shape, ()):
                if (sub := _match(g, fam, anchors)) is not None:
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
