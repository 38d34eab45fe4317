"""Vertex labelings with values in {0,1,2,3} and the validity predicates of
the seven invariants: the four Roman-type conditions, and the 0/1
dominating, cover and independent sets.

All predicates are total over well-formed inputs: semantic failures return
False (a 3 in a Roman labeling or a 2 in a 0/1 labeling among them), only
structural mismatches (wrong length, a value outside 0..3) raise.
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


def zeros_independent(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """True iff no edge joins two 0-labeled vertices."""
    vals = _values(f)
    _check_size(g, vals)
    return not any(vals[u] == 0 and any(vals[w] == 0 for w in g.adj[u]) for u in range(g.n))


def is_drd(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Double Roman domination: every 0 sees a 3 or two 2s; every 1 sees a value >= 2."""
    vals = _values(f)
    _check_size(g, vals)
    for v, x in enumerate(vals):
        if x == 0:
            twos = 0
            ok = False
            for w in g.adj[v]:
                if vals[w] == 3:
                    ok = True
                    break
                if vals[w] == 2:
                    twos += 1
                    if twos >= 2:
                        ok = True
                        break
            if not ok:
                return False
        elif x == 1:
            if not any(vals[w] >= 2 for w in g.adj[v]):
                return False
    return True


def is_oidrd(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Outer independent DRD: is_drd plus an independent 0-class."""
    return zeros_independent(g, f) and is_drd(g, f)


def is_rd(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Roman domination over {0,1,2}: every 0 sees a 2.  False if a 3 is present."""
    vals = _values(f)
    _check_size(g, vals)
    if 3 in vals:
        return False
    for v, x in enumerate(vals):
        if x == 0 and not any(vals[w] == 2 for w in g.adj[v]):
            return False
    return True


def is_oird(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Outer independent Roman domination: is_rd plus an independent 0-class."""
    return zeros_independent(g, f) and is_rd(g, f)


def _indicator(g: Graph, f: Labeling | Sequence[int]) -> tuple[int, ...] | None:
    """The values of f if they are all 0 or 1, else None.  Raises
    LabelingError unless f has one label in 0..3 per vertex of g."""
    vals = _values(f)
    _check_size(g, vals)
    return vals if max(vals, default=0) <= 1 else None


def is_dominating_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set dominates g."""
    vals = _indicator(g, f)
    return vals is not None and all(x == 1 or any(vals[w] == 1 for w in g.adj[v])
                                    for v, x in enumerate(vals))


def is_cover_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set covers every edge."""
    vals = _indicator(g, f)
    return vals is not None and zeros_independent(g, vals)


def is_independent_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set is independent."""
    vals = _indicator(g, f)
    return vals is not None and not any(vals[u] == 1 and any(vals[w] == 1 for w in g.adj[u])
                                        for u in range(g.n))
