"""Hardness gadget: attach a 3-vertex path center to every vertex and verify
the weight identity gamma_oidR(G') = 4n - alpha(G)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, gadget as gadget_graph
from .labeling import Labeling, is_oidrd, weight
from .solver import CertificationError, solve_alpha, solve_oidrd

IDENTITY_BASE_CAP = 5


class ReductionError(ValueError):
    """Bad reduction input: oversized base graph or dependent vertex set."""


@dataclass(frozen=True)
class GadgetMap:
    """The gadget graph plus index maps back to the base graph.

    u_index[v] is the path center attached to base vertex v; leaf_index[u]
    gives the two leaves of center u.
    """

    base: Graph
    gadget: Graph
    u_index: dict[int, int]
    leaf_index: dict[int, tuple[int, int]]


def build_gadget(g: Graph) -> GadgetMap:
    gp = gadget_graph(g)
    n = g.n
    u_index = {v: n + v for v in range(n)}
    leaf_index = {n + v: (2 * n + 2 * v, 2 * n + 2 * v + 1) for v in range(n)}
    if gp.n != 4 * n:
        raise CertificationError(f"gadget has {gp.n} vertices, expected 4n = {4 * n}")
    if not all(gp.degree(u) == 3 for u in u_index.values()):
        raise CertificationError("a gadget path center does not have degree 3")
    if not all(gp.degree(leaf) == 1 for pair in leaf_index.values() for leaf in pair):
        raise CertificationError("a gadget leaf does not have degree 1")
    # centers always have degree 3, so the gadget degree is max(deg+1, 3)
    if gp.max_degree > max(g.max_degree + 1, 3):
        raise CertificationError(f"gadget max degree {gp.max_degree} exceeds "
                                 f"max({g.max_degree} + 1, 3)")
    return GadgetMap(g, gp, u_index, leaf_index)


@dataclass(frozen=True)
class IdentityReport:
    lhs: int  # gamma_oidR of the gadget
    rhs: int  # 4n - alpha of the base
    equal: bool


def verify_identity(g: Graph, max_n: int = IDENTITY_BASE_CAP) -> IdentityReport:
    """Compute both sides of the gadget identity exactly.

    The identity gamma_oidR(G') = 4n - alpha(G) holds for every graph G,
    whatever its maximum degree.  Lower bound: let f be an OIDRD function of
    G'.  Each center u with leaves a and b weighs f(u) + f(a) + f(b) >= 3: a
    leaf labeled 0 has u as its one neighbour, so f(u) = 3; otherwise both
    leaves are nonzero, and a leaf labeled 1 needs f(u) >= 2, so the three
    weigh at least 4.  The base vertices labeled 0 are independent in G', so
    in G, and at most alpha of them are 0: the other n - alpha weigh at least
    1 each, and f weighs at least 3n + n - alpha.  Upper bound: the labeling
    of witness_from_independent_set on a maximum independent set weighs
    4n - alpha.
    """
    if g.n > max_n:
        raise ReductionError(
            f"identity verification capped at base n <= {max_n} (the gadget has 4n vertices)")
    gm = build_gadget(g)
    lhs = solve_oidrd(gm.gadget).value
    rhs = 4 * g.n - solve_alpha(g).value
    return IdentityReport(lhs, rhs, lhs == rhs)


def witness_from_independent_set(g: Graph, independent: Iterable[int]) -> Labeling:
    """The gadget labeling induced by an independent set of the base: 3 on
    every path center, 0 on leaves and on the set, 1 on remaining base vertices."""
    chosen = set(independent)
    if not chosen <= set(range(g.n)):
        raise ReductionError("independent set contains vertices outside the base graph")
    chosen_mask = sum(1 << v for v in chosen)
    for v in chosen:
        if g.nbr_masks[v] & chosen_mask:
            raise ReductionError(f"vertex set is not independent: {v} has a chosen neighbor")
    gm = build_gadget(g)
    values = [0] * gm.gadget.n
    for v in range(g.n):
        values[gm.u_index[v]] = 3
        if v not in chosen:
            values[v] = 1
    lab = Labeling(tuple(values))
    if not is_oidrd(gm.gadget, lab):
        raise CertificationError(f"induced gadget labeling {lab.to_text()} is not "
                                 f"an OIDRD function")
    if weight(lab) != 4 * g.n - len(chosen):
        raise CertificationError(f"induced gadget labeling has weight {weight(lab)}, "
                                 f"expected 4n - |I| = {4 * g.n - len(chosen)}")
    return lab
