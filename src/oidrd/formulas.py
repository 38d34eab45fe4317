"""Closed-form values for the basic families and the corona minimum."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graphs import Graph
from .solver import CertificationError, InvariantBundle, bundle

CORONA_BASE_CAP = 20


class FormulaError(ValueError):
    """Argument outside a formula's stated domain."""


def formula_path(n: int) -> int:
    """gamma_oidR of the path P_n."""
    if n < 1:
        raise FormulaError("path formula requires n >= 1")
    return n if n == 3 else n + 1


def formula_cycle(n: int) -> int:
    """gamma_oidR of the cycle C_n."""
    if n < 3:
        raise FormulaError("cycle formula requires n >= 3")
    return n if n % 2 == 0 else n + 1


def formula_complete(n: int) -> int:
    """gamma_oidR of the complete graph K_n."""
    if n < 1:
        raise FormulaError("complete formula requires n >= 1")
    return n + 1


def formula_complete_bipartite(m: int, n: int) -> int:
    """gamma_oidR of K_{m,n}; the parts may be given in either order."""
    if m < 1 or n < 1:
        raise FormulaError("complete bipartite formula requires m, n >= 1")
    m, n = min(m, n), max(m, n)
    if m == 1:
        return 3
    if m in (2, 3):
        return 2 * m
    return m + 4


def formula_complete_multipartite(parts) -> int:
    """gamma_oidR of a complete k-partite graph, k >= 3: all but the largest
    part, plus 2."""
    sizes = sorted(parts)
    if len(sizes) < 3:
        raise FormulaError("multipartite formula requires k >= 3 parts; use the bipartite formula")
    if any(p < 1 for p in sizes):
        raise FormulaError("part sizes must be >= 1")
    return sum(sizes[:-1]) + 2


@dataclass(frozen=True)
class CoronaCoefficients:
    """Per-label costs of one H-copy plus its base vertex in the corona."""

    c0: int
    c1: int
    c2: int
    c3: int

    @classmethod
    def from_bundle(cls, hb: InvariantBundle, h_n: int) -> "CoronaCoefficients":
        co = cls(h_n + hb.gamma, hb.gamma_oidr + 1, hb.gamma_oir + 2, hb.beta + 3)
        if min(co.c0, co.c1, co.c2, co.c3) <= 0:
            raise CertificationError(f"corona coefficients must be positive, got {co}")
        return co


def _min_over_independent_zero_sets(g: Graph, co: CoronaCoefficients) -> int:
    # vertices outside V0 always take the cheapest of c1, c2, c3
    cmin = min(co.c1, co.c2, co.c3)
    n, adj_mask = g.n, g.nbr_masks
    indep = bytearray(1 << n)
    indep[0] = 1
    best = n * cmin
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        if indep[rest] and not adj_mask[low.bit_length() - 1] & rest:
            indep[s] = 1
            k = s.bit_count()
            cost = k * co.c0 + (n - k) * cmin
            if cost < best:
                best = cost
    return best


def _direct_four_way_minimum(g: Graph, co: CoronaCoefficients) -> int:
    costs = (co.c0, co.c1, co.c2, co.c3)
    best = None
    edges = g.edges()
    for f in product(range(4), repeat=g.n):
        if any(f[u] == 0 == f[w] for u, w in edges):
            continue
        c = sum(costs[x] for x in f)
        if best is None or c < best:
            best = c
    return best


def _check_corona_domain(g: Graph, h_n: int, h_max_degree: int) -> None:
    if h_max_degree > h_n - 2:
        raise FormulaError(
            f"corona formula requires max degree of H at most its order minus two "
            f"(got degree {h_max_degree} with order {h_n})")
    if g.n > CORONA_BASE_CAP:
        raise FormulaError(f"corona formula capped at base graphs with n <= {CORONA_BASE_CAP}")


def corona_formula(g: Graph, hb: InvariantBundle, h_n: int, h_max_degree: int) -> int:
    """Exact gamma_oidR of the corona of g with an h_n-vertex graph H whose
    invariants are hb, valid when H has maximum degree at most h_n - 2."""
    _check_corona_domain(g, h_n, h_max_degree)
    co = CoronaCoefficients.from_bundle(hb, h_n)
    value = _min_over_independent_zero_sets(g, co)
    if g.n <= 8:
        # the reduction to one-set scans is our inference; cross-check it
        direct = _direct_four_way_minimum(g, co)
        if value != direct:
            raise CertificationError(f"corona minimum {value} differs from the direct "
                                     f"four-way minimum {direct}")
    return value


def corona_value(g: Graph, h: Graph) -> tuple[int, CoronaCoefficients]:
    """Convenience wrapper: compute H's invariants and apply the corona
    formula; the formula's domain is checked before H is solved."""
    _check_corona_domain(g, h.n, h.max_degree)
    hb = bundle(h)
    value = corona_formula(g, hb, h.n, h.max_degree)
    return value, CoronaCoefficients.from_bundle(hb, h.n)
