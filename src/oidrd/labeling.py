"""Vertex labelings with values in {0,1,2,3} and the validity predicates of
the seven invariants: the four Roman-type conditions, and the 0/1
dominating, cover and independent sets.

All predicates are total over well-formed inputs: semantic failures return
False (a 3 in a Roman labeling or a 2 in a 0/1 labeling among them), only
structural mismatches (wrong length, a value outside 0..3) raise.

The predicates work on bit masks: one pass over the values gives the label
classes V0..V3 as masks (bit v for vertex v), and each condition is a
bitwise test of a vertex's neighbourhood mask (`Graph.nbr_masks`) against
them.  Only the vertices of V0 and V1 are visited: an independent class has
no neighbour in itself, a 0 needs a neighbour in its support class (for
double Roman a 3 or two 2s), and a double Roman 1 a neighbour in V2 | V3.
A class that a predicate's label range excludes makes it False at once.
These checks certify the solver's witnesses, so they read nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import Graph


class LabelingError(ValueError):
    """Structural labeling problem: bad value or size mismatch."""


@dataclass(frozen=True)
class Labeling:
    """Per-vertex values in {0,1,2,3}; text form is comma-separated digits."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if v not in (0, 1, 2, 3):
                raise LabelingError(f"label out of range 0..3: {v}")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    @classmethod
    def from_text(cls, text: str) -> "Labeling":
        try:
            return cls(tuple(int(t) for t in text.strip().split(",")))
        except ValueError as exc:
            if isinstance(exc, LabelingError):
                raise
            raise LabelingError(f"cannot parse labeling text {text!r}") from None

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.values)


@dataclass(frozen=True)
class ClassPartition:
    """The index sets V_0..V_3 of a labeling."""

    v0: frozenset[int]
    v1: frozenset[int]
    v2: frozenset[int]
    v3: frozenset[int]


def _values(f: Labeling | Sequence[int]) -> tuple[int, ...]:
    if isinstance(f, Labeling):
        return f.values
    vals = tuple(f)
    for v in vals:
        if v not in (0, 1, 2, 3):
            raise LabelingError(f"label out of range 0..3: {v}")
    return vals


def weight(f: Labeling | Sequence[int]) -> int:
    """Sum of all vertex values."""
    return sum(_values(f))


def classes(f: Labeling | Sequence[int]) -> ClassPartition:
    vals = _values(f)
    sets: list[set[int]] = [set(), set(), set(), set()]
    for v, x in enumerate(vals):
        sets[x].add(v)
    return ClassPartition(*(frozenset(s) for s in sets))


def _check_size(g: Graph, vals: tuple[int, ...]) -> None:
    if len(vals) != g.n:
        raise LabelingError(f"labeling has {len(vals)} values for a graph on {g.n} vertices")


def _class_masks(g: Graph, f: Labeling | Sequence[int]) -> list[int]:
    """[V0, V1, V2, V3] of f as bit masks over the vertices of g.  Raises
    LabelingError unless f has one label in 0..3 per vertex of g."""
    vals = _values(f)
    _check_size(g, vals)
    masks = [0, 0, 0, 0]
    bit = 1
    for x in vals:
        masks[x] |= bit
        bit <<= 1
    return masks


def _independent(nbr: Sequence[int], mask: int) -> bool:
    # no edge inside mask: each vertex is tested against the later ones
    while mask:
        low = mask & -mask
        mask ^= low
        if nbr[low.bit_length() - 1] & mask:
            return False
    return True


def _dominated(nbr: Sequence[int], mask: int, need: int, pair: int = 0) -> bool:
    # every vertex of mask has a neighbour in need or two in pair
    while mask:
        low = mask & -mask
        mask ^= low
        m = nbr[low.bit_length() - 1]
        two = m & pair
        if not (m & need or two & (two - 1)):
            return False
    return True


def zeros_independent(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """True iff no edge joins two 0-labeled vertices."""
    return _independent(g.nbr_masks, _class_masks(g, f)[0])


def _double_roman(g: Graph, f: Labeling | Sequence[int], oi: bool) -> bool:
    v0, v1, v2, v3 = _class_masks(g, f)
    nbr = g.nbr_masks
    return ((not oi or _independent(nbr, v0)) and _dominated(nbr, v0, v3, v2)
            and _dominated(nbr, v1, v2 | v3))


def is_drd(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Double Roman domination: every 0 sees a 3 or two 2s; every 1 sees a value >= 2."""
    return _double_roman(g, f, False)


def is_oidrd(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Outer independent DRD: is_drd plus an independent 0-class."""
    return _double_roman(g, f, True)


def _roman(g: Graph, f: Labeling | Sequence[int], oi: bool) -> bool:
    v0, _, v2, v3 = _class_masks(g, f)
    nbr = g.nbr_masks
    return not v3 and (not oi or _independent(nbr, v0)) and _dominated(nbr, v0, v2)


def is_rd(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Roman domination over {0,1,2}: every 0 sees a 2.  False if a 3 is present."""
    return _roman(g, f, False)


def is_oird(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Outer independent Roman domination: is_rd plus an independent 0-class."""
    return _roman(g, f, True)


def _indicator(g: Graph, f: Labeling | Sequence[int]) -> tuple[int, int] | None:
    """(V0, V1) of f if its labels are all 0 or 1, else None.  Raises
    LabelingError unless f has one label in 0..3 per vertex of g."""
    v0, v1, v2, v3 = _class_masks(g, f)
    return None if v2 | v3 else (v0, v1)


def is_dominating_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set dominates g."""
    classes01 = _indicator(g, f)
    return classes01 is not None and _dominated(g.nbr_masks, *classes01)


def is_cover_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set covers every edge."""
    classes01 = _indicator(g, f)
    return classes01 is not None and _independent(g.nbr_masks, classes01[0])


def is_independent_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set is independent."""
    classes01 = _indicator(g, f)
    return classes01 is not None and _independent(g.nbr_masks, classes01[1])
