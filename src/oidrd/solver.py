"""Exact solvers for the domination invariants.

Every parameter has two independent routes: a branch-and-bound engine
(pure Python, usable at desk scale) and a vectorized full-enumeration
oracle capped at n <= 12, used to cross-validate values and witnesses.
The oracle keeps one bit-packed plane per vertex and label over all base^n
labelings.  One bitwise kernel turns the planes of a vertex and its
neighbours into that vertex's packed validity column, and a graph's valid set
is the AND of its n columns.  Columns are memoized per neighbourhood while
base^n <= _MEMO_LIMIT; above _CACHE_LIMIT labelings the scan runs in chunks
under fixed label prefixes, whose vertices get constant planes.
On forests, gamma_oidr and beta have a third, value-only route in linear
time: a bottom-up dynamic program over the labels (`tree_oidrd`) and greedy
leaf matching (`tree_beta`).

Canonical witness contract: the lexicographically smallest optimal
labeling, values read in vertex order 0..n-1.  The engine makes one
optimizing pass along 0..n-1, labels tried ascending, from an incumbent one
above an achievable weight, and keeps the labeling at each strict
improvement.  The last one kept is canonical: until the lex-first optimum
is reached the incumbent stays above the optimum, and every bound on that
optimum's path is at most its weight, so no pruning cuts it off; after it,
nothing improves.  The vertex cover problem tries 1 before 0 instead, so
the same pass keeps the lex-largest minimum cover: that is the beta
witness, and its complement, the lex-smallest maximum independent set, is
the alpha witness.  All seven invariants thus come from one search.

Since the vertex order is fixed, the free set at each depth of the search is
the same on every path, and so is all that depends on it alone.  One plan
per graph (_build_plan) holds it per depth: the settled vertices, whose
labels become final there; the sealed free vertices, with no free neighbor;
and the opened ones, with their closed neighborhoods within the free set.
The seven searches on one graph share the plan, and the initial incumbents'
greedy independent set and isolated vertices, through a one-entry cache
keyed by graph identity.  The search state is a few masks: the vertices
labeled 0 and 1, and those with a 0-neighbor, a support neighbor, two
2-neighbors or a 3-neighbor.  The feasibility checks of the settled vertices
and the sealed vertices' share of the lower bound are a few bitwise ops
each.  What is left, a packing (or for the cover a matching) over the opened
vertices and the clique-cover independence bound, depends only on the depth
and on one mask, and is memoized under it in one dict per depth.  The memo
lives for one search and stops growing at _BOUND_MEMO_LIMIT entries; it
returns exactly the bound it replaces, so the search tree, node counts,
values and witnesses are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, GraphError
from .labeling import (Labeling, _check_size, _values, is_drd, is_oidrd, is_oird, is_rd,
                       weight, zeros_independent)

BRUTE_FORCE_CAP = 12
_CACHE_LIMIT = 1 << 18  # labelings per oracle chunk
_MEMO_LIMIT = 1 << 12  # oracle columns are memoized while base^n <= this
_NO_SCORE = np.iinfo(np.int16).max  # above every labeling weight
_BOUND_MEMO_LIMIT = 1 << 16  # memoized bounds kept per search
_last_plan: tuple | None = None  # _search_plan of the last graph, with the graph


class CertificationError(RuntimeError):
    """A computed result failed the check that certifies it.  Raised, never
    asserted, so the checks also run under python -O."""


@dataclass(frozen=True)
class SolveResult:
    """Optimal value plus the canonical witness labeling: the lex-smallest
    optimum, or for beta the lex-largest minimum cover.

    node_count: feasible partial labelings the engine visited (alpha reports
    the cover search it complements); base^n for an oracle.
    """

    value: int
    witness: Labeling
    node_count: int
    optimal_count: int | None = None


@dataclass(frozen=True)
class _Problem:
    # zero_mode: 0 = none, 1 = needs a 1-neighbor, 2 = needs a 2-neighbor,
    # 3 = needs a 3-neighbor or two 2-neighbors; descending: the search
    # tries labels high to low
    base: int
    oi: bool
    zero_mode: int
    one_ge2: bool
    descending: bool = False


_OIDR = _Problem(4, True, 3, True)
_DR = _Problem(4, False, 3, True)
_OIR = _Problem(3, True, 2, False)
_R = _Problem(3, False, 2, False)
_DOM = _Problem(2, False, 1, False)
_COVER = _Problem(2, True, 0, False, descending=True)


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


# The seven invariants, in report order: name -> (the problem both exact
# routes solve, the name of the predicate that certifies a labeling).  The
# predicate is looked up when a labeling is checked, so rebinding it here
# reaches every route.  Two rows are read off another search: the engine's
# alpha is the complement of its cover search, and the oracle's beta the
# complement of its independent-set scan.
INVARIANTS: dict[str, tuple[_Problem, str]] = {
    "gamma_oidr": (_OIDR, "is_oidrd"),
    "gamma_dr": (_DR, "is_drd"),
    "gamma_oir": (_OIR, "is_oird"),
    "gamma_r": (_R, "is_rd"),
    "gamma": (_DOM, "is_dominating_labeling"),
    "alpha": (_COVER, "is_independent_labeling"),
    "beta": (_COVER, "is_cover_labeling"),
}


def is_feasible(name: str, g: Graph, f: Labeling | Sequence[int]) -> bool:
    """Whether f is a feasible labeling of g for the invariant `name`; a
    label above the invariant's range makes it infeasible.  Raises
    LabelingError on a wrong length or a label outside 0..3."""
    return globals()[INVARIANTS[name][1]](g, f)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


def _greedy_max_independent(g: Graph) -> set[int]:
    # ascending degree, ties by index (sorted is stable)
    nbr = g.nbr_masks
    deg = [len(a) for a in g.adj]
    chosen: set[int] = set()
    taken = 0
    for v in sorted(range(g.n), key=deg.__getitem__):
        if not nbr[v] & taken:
            chosen.add(v)
            taken |= 1 << v
    return chosen


def _greedy_domination_size(g: Graph) -> int:
    # repeatedly take the first vertex dominating the most undominated ones
    closed = [m | 1 << v for v, m in enumerate(g.nbr_masks)]
    undominated = (1 << g.n) - 1
    size = 0
    while undominated:
        undominated &= ~max(closed, key=lambda c: (c & undominated).bit_count())
        size += 1
    return size


def _initial_ub(g: Graph, prob: _Problem) -> int:
    # every returned bound is the weight of some valid labeling
    n = g.n
    if prob.zero_mode == 1:
        return _greedy_domination_size(g)
    _, iso, k = _search_plan(g)
    if prob.base == 4:
        return min(2 * n, 3 * (n - k) + 2 * iso)
    if prob.base == 3:
        return min(n, 2 * (n - k) + iso)
    return n - k


def _search_plan(g: Graph) -> tuple[list[tuple], int, int]:
    """(plan, isolated vertices, greedy independent set size) of g, from a
    one-entry cache keyed by graph identity, so the searches on one graph
    share one plan and one set of incumbents.  The cache holds the graph
    itself, so its identity cannot be reused; the entry is read once, so a
    graph never gets a plan another caller just stored."""
    global _last_plan
    last = _last_plan
    if last is None or last[0] is not g:
        last = _last_plan = (g, _build_plan(g), sum(1 for a in g.adj if not a),
                             len(_greedy_max_independent(g)))
    return last[1:]


def _build_plan(g: Graph) -> list[tuple]:
    """Per depth d, the static part of labeling vertex d, the same on every
    path of a search along 0..n-1:
    (bit, nbr, free, settled, sealed, opened, open), where
      bit, nbr  1 << d and the neighborhood mask of d
      free      the mask of d+1..n-1, free once d is labeled
      settled   the labeled vertices whose neighbors are all labeled once d
                is: d itself if it has no neighbor in free, and each
                neighbor u < d whose last neighbor is d
      sealed    the vertices of free with no neighbor in free
      opened    (bit, bit | nbr & free) of every other vertex of free,
                ascending: its closed neighborhood within free
      open      the mask of those vertices, free & ~sealed
    """
    n = g.n
    nbr = g.nbr_masks
    settled = [0] * n
    for u, m in enumerate(nbr):
        settled[max(u, m.bit_length() - 1)] |= 1 << u
    plan = []
    full = (1 << n) - 1
    for d, m in enumerate(nbr):
        bit = 1 << d
        free = full ^ ((bit << 1) - 1)
        sealed = 0
        opened = []
        for v in range(d + 1, n):
            low = 1 << v
            near = nbr[v] & free
            if near:
                opened.append((low, low | near))
            else:
                sealed |= low
        plan.append((bit, m, free, settled[d], sealed, opened, free ^ sealed))
    return plan


def _branch_and_bound(g: Graph, prob: _Problem,
                      ub: int) -> tuple[int, tuple[int, ...] | None, int]:
    """Min-weight labeling search along vertices 0..n-1.  Labels are tried
    in the problem's fixed order: ascending for the five label problems, so
    complete labelings are met in lex order, and descending (1 before 0) for
    the vertex cover, so covers are met in reverse lex order.

    Starts from the incumbent ub and keeps the labeling at each strict
    improvement.  Returns (best weight, last labeling kept or None if none
    beat ub, nodes), where nodes counts the feasible partial labelings
    visited.  The state is a handful of masks: l0 and l1, the vertices
    labeled 0 and 1; z, those with a 0-neighbor; s1, those with a support
    neighbor (labeled 1 for gamma, 2 otherwise); s2, those with two
    2-neighbors; s3, those with a 3-neighbor.  Labeling d ORs nbr[d] into
    one or two of them, and "may this vertex be 0" is a bit test against
    ok: s3 | s2, or s1, or every vertex for the cover, less z when the
    0-class is independent.  Since vertex d is labeled at depth d, the
    free set there is d+1..n-1 on every path, and all that depends on it
    alone comes from the graph's plan (_build_plan): each settled vertex,
    whose neighbors are all labeled now, is checked with one mask test, and
    each sealed vertex adds the least label it can still take to the lower
    bound, bitwise.

    The rest of the lower bound loops over the opened vertices: a packing
    of disjoint closed neighborhoods with no support, which depends only on
    the opened vertices without support, or for the cover a greedy
    matching, which depends only on the opened vertices without a
    0-neighbor.  The clique-cover independence bound, for the problems
    with an independent 0-class, depends only on z & free.  Both are
    memoized under that key in one dict per depth, for this search only;
    once _BOUND_MEMO_LIMIT entries are stored in all, misses are computed
    but no longer kept.
    """
    n = g.n
    plan = _search_plan(g)[0]
    oi, zmode, one_ge2 = prob.oi, prob.zero_mode, prob.one_ge2
    descending = prob.descending
    labels = range(prob.base - 1, -1, -1) if descending else range(prob.base)
    bonus = 2 if zmode == 3 else 1
    nodes = 0
    best = ub
    found: tuple[int, ...] | None = None
    path = [0] * n
    pack_memo: list[dict[int, int]] = [{} for _ in range(n)]
    clique_memo: list[dict[int, int]] = [{} for _ in range(n)] if oi else []
    room = _BOUND_MEMO_LIMIT

    def independence_lb(opened: list[tuple[int, int]], key: int) -> int:
        # with an independent 0-class, the zeros among free vertices fit
        # inside any clique cover of them; everything else costs at least 1.
        # key: the free vertices with a 0-neighbor, forced nonzero; a sealed
        # vertex is a clique of its own
        rest = 0
        cliques: list[int] = []
        for low, near in opened:
            if low & key:
                continue
            rest += 1
            for i, members in enumerate(cliques):
                if members & ~near == 0:
                    cliques[i] = members | low
                    break
            else:
                cliques.append(low)
        return key.bit_count() + rest - len(cliques)

    if zmode:
        def pack(opened: list[tuple[int, int]], avail: int) -> int:
            # disjoint closed neighborhoods of the opened vertices in avail,
            # which have no support yet: each holds a label >= bonus
            count = blocked = 0
            for low, near in opened:
                if low & avail and not near & blocked:
                    count += 1
                    blocked |= near
            return bonus * count
    else:
        def pack(opened: list[tuple[int, int]], avail: int) -> int:
            # vertex cover: a forced 1 at each opened vertex outside avail,
            # which has a 0-neighbor, plus a greedy matching inside avail
            count = len(opened) - avail.bit_count()
            for low, near in opened:
                if low & avail:
                    cand = near & avail & -(low << 1)
                    if cand:
                        count += 1
                        avail ^= cand & -cand
            return count

    def dfs(depth: int, w: int, l0: int, l1: int, z: int, s1: int, s2: int, s3: int) -> None:
        nonlocal best, found, nodes, room
        bit, m, free, settled, sealed, opened, open_mask = plan[depth]
        packs = pack_memo[depth]
        for x in labels:
            wx = w + x
            if wx >= best:
                if descending:
                    continue  # a lower label may still beat best
                break
            n0, n1, nz, t1, t2, t3 = l0, l1, z, s1, s2, s3
            if x == 0:
                if oi and bit & z:
                    continue
                n0 |= bit
                nz |= m
            elif x == 1:
                n1 |= bit
                if zmode == 1:
                    t1 |= m
            elif x == 2:
                t2 |= t1 & m
                t1 |= m
            else:
                t3 |= m
            high = t1 | t3  # a 2- or 3-neighbor (for gamma, a 1-neighbor)
            ok = t3 | t2 if zmode == 3 else t1 if zmode else -1
            if oi:
                ok &= ~nz
            # settled labels are final: a 0 needs ok, a 1 may need high
            if settled & n0 & ~ok or one_ge2 and settled & n1 & ~high:
                continue
            nodes += 1
            path[depth] = x
            if not free:
                best = wx
                found = tuple(path)
                continue
            # a sealed vertex that may not be 0 takes 1, or 2 if a 1 needs high
            lb = wx
            bad = sealed & ~ok
            if bad:
                lb += bad.bit_count()
                if one_ge2:
                    lb += (bad & ~high).bit_count()
            avail = open_mask & ~(high if zmode else nz)
            p = packs.get(avail)
            if p is None:
                p = pack(opened, avail)
                if room:
                    packs[avail] = p
                    room -= 1
            if lb + p >= best:
                continue
            if oi:
                key = nz & free
                cliques = clique_memo[depth]
                c = cliques.get(key)
                if c is None:
                    c = independence_lb(opened, key)
                    if room:
                        cliques[key] = c
                        room -= 1
                if wx + c >= best:
                    continue
            dfs(depth + 1, wx, n0, n1, nz, t1, t2, t3)

    dfs(0, 0, 0, 0, 0, 0, 0, 0)
    return best, found, nodes


def _certified(g: Graph, name: str, lab: Labeling, value: int, nodes: int) -> SolveResult:
    if weight(lab) != value or not is_feasible(name, g, lab):
        raise CertificationError(f"{name} witness {lab.to_text()} is not a valid labeling "
                                 f"of weight {value}")
    return SolveResult(value, lab, nodes)


def _solve_min(g: Graph, name: str) -> SolveResult:
    # one pass along 0..n-1; ub + 1 so that an optimal ub is still met
    prob = INVARIANTS[name][0]
    value, wit, nodes = _branch_and_bound(g, prob, _initial_ub(g, prob) + 1)
    if wit is None:
        raise CertificationError(f"search found no labeling below its incumbent {value}")
    return _certified(g, name, Labeling(wit), value, nodes)


def solve_oidrd(g: Graph, *, count_optimal: bool = False) -> SolveResult:
    """Exact outer independent double Roman domination number with witness."""
    res = _solve_min(g, "gamma_oidr")
    if count_optimal:
        _check_brute_cap(g)
        n_opt = sum(1 for _ in _iter_optimal_indices(g, _OIDR, res.value))
        return SolveResult(res.value, res.witness, res.node_count, n_opt)
    return res


def solve_gamma_dr(g: Graph) -> SolveResult:
    """Exact double Roman domination number with witness."""
    return _solve_min(g, "gamma_dr")


def solve_gamma_oir(g: Graph) -> SolveResult:
    """Exact outer independent Roman domination number with witness."""
    return _solve_min(g, "gamma_oir")


def solve_gamma_r(g: Graph) -> SolveResult:
    """Exact Roman domination number with witness."""
    return _solve_min(g, "gamma_r")


def solve_gamma(g: Graph) -> SolveResult:
    """Exact domination number; witness is the 0/1 indicator of the set."""
    return _solve_min(g, "gamma")


def solve_beta(g: Graph) -> SolveResult:
    """Exact vertex cover number; witness is the lex-largest minimum cover."""
    return _solve_min(g, "beta")


def solve_alpha(g: Graph) -> SolveResult:
    """Exact independence number, n - beta; witness is the complement of the
    beta witness, i.e. the lex-smallest maximum independent set."""
    b = solve_beta(g)
    return _certified(g, "alpha", Labeling(tuple(1 - x for x in b.witness.values)),
                      g.n - b.value, b.node_count)


@dataclass(frozen=True)
class InvariantBundle:
    """The seven invariants of one graph, mutually consistency-checked."""

    gamma: int
    alpha: int
    beta: int
    gamma_r: int
    gamma_oir: int
    gamma_dr: int
    gamma_oidr: int


def bundle(g: Graph) -> InvariantBundle:
    alpha = solve_alpha(g).value
    beta = g.n - alpha
    b = InvariantBundle(
        gamma=solve_gamma(g).value,
        alpha=alpha,
        beta=beta,
        gamma_r=solve_gamma_r(g).value,
        gamma_oir=solve_gamma_oir(g).value,
        gamma_dr=solve_gamma_dr(g).value,
        gamma_oidr=solve_oidrd(g).value,
    )
    # a maximum independent set dominates
    if b.gamma > b.alpha:
        raise CertificationError(f"gamma = {b.gamma} > alpha = {b.alpha}")
    # label a minimum cover 3, isolated vertices 2 and the rest 0
    cover_labeling = 3 * b.beta + 2 * sum(1 for a in g.adj if not a)
    if b.gamma_oidr > cover_labeling:
        raise CertificationError(f"gamma_oidr = {b.gamma_oidr} > 3 beta + 2 (isolated) "
                                 f"= {cover_labeling}")
    if b.gamma_dr > b.gamma_oidr:
        raise CertificationError(f"gamma_dr = {b.gamma_dr} > gamma_oidr = {b.gamma_oidr}")
    if b.gamma_oir >= b.gamma_oidr:
        raise CertificationError(f"gamma_oir = {b.gamma_oir} >= gamma_oidr = {b.gamma_oidr}")
    return b


# the engine route of each INVARIANTS row, in the same order
SOLVERS = {
    "gamma_oidr": solve_oidrd,
    "gamma_dr": solve_gamma_dr,
    "gamma_oir": solve_gamma_oir,
    "gamma_r": solve_gamma_r,
    "gamma": solve_gamma,
    "alpha": solve_alpha,
    "beta": solve_beta,
}


# ---------------------------------------------------------------------------
# Forests: linear-time, value-only routes (independent of the engine above)
# ---------------------------------------------------------------------------


def _forest_order(g: Graph) -> tuple[list[int], list[int]]:
    """Breadth-first order of every component (roots are the smallest vertex
    of each) and each vertex's parent, -1 at roots.  Raises GraphError unless
    g is a forest, i.e. m = n - (number of components)."""
    parent = [-1] * g.n
    seen = bytearray(g.n)
    order: list[int] = []
    components = 0
    for root in range(g.n):
        if seen[root]:
            continue
        components += 1
        seen[root] = 1
        i = len(order)
        order.append(root)
        while i < len(order):
            v = order[i]
            i += 1
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = v
                    order.append(w)
    if g.m != g.n - components:
        raise GraphError(f"not a forest: {g.m} edges on {g.n} vertices in {components} components")
    return order, parent


def _forest_routes(order: list[int], parent: list[int]) -> tuple[int, int]:
    """(beta, gamma_oidr) of the forest given by an order that lists every
    parent before its children and each vertex's parent (-1 at roots), such
    as _forest_order or graphs.prufer_parents returns."""
    return _leaf_matching(order, parent), _label_dp(order, parent)


def tree_oidrd(g: Graph) -> int:
    """gamma_oidr of a forest by a bottom-up dynamic program, O(n)."""
    return _label_dp(*_forest_order(g))


def tree_beta(g: Graph) -> int:
    """Vertex cover number of a forest by leaf matching, O(n)."""
    return _leaf_matching(*_forest_order(g))


def _label_dp(order: list[int], parent: list[int]) -> int:
    """gamma_oidr of the forest given by a parent-before-child order and parents.

    Each vertex v carries the minimum weight of its subtree for seven states
    of v, given the labels of its children only:
      Z0, Z1, Z2  label 0 with no 2- or 3-child, with exactly one 2-child
                  and no 3-child, or already satisfied (a 3-child or two
                  2-children)
      O0, O1      label 1 without / with a child labeled 2 or 3
      T, H        label 2, label 3
    The parent's label closes each child's state: Z0 needs a parent labeled 3,
    Z1 and O0 a parent labeled 2 or 3, and no 0 may have a parent labeled 0.
    A root has no parent, so only Z2, O1, T and H are final there.
    """
    n = len(order)
    inf = 3 * n + 1  # above every feasible weight; sums of it stay above too
    # per-vertex accumulators [Z0, Z1, Z2, O0, O1, T, H], seeded for a leaf
    acc = [[0, inf, inf, 1, inf, 2, 3] for _ in range(n)]
    total = 0
    for v in reversed(order):
        z0, z1, z2, o0, o1, t, h = acc[v]
        p = parent[v]
        if p < 0:
            total += min(z2, o1, t, h)
            continue
        pa = acc[p]
        low, high = min(z2, o1), min(t, h)
        # parent labeled 0: the child is O1, T or H
        pa[0], pa[1], pa[2] = (pa[0] + o1,
                               min(pa[1] + o1, pa[0] + t),
                               min(pa[2] + min(o1, high), pa[1] + high, pa[0] + h))
        # parent labeled 1: the child is Z2 or O1, or supports it with T or H
        pa[3], pa[4] = pa[3] + low, min(pa[4] + min(low, high), pa[3] + high)
        # parent labeled 2 closes everything but Z0; labeled 3, everything
        closed = min(z1, o0, low, high)
        pa[5] += closed
        pa[6] += min(z0, closed)
    return total


def _leaf_matching(order: list[int], parent: list[int]) -> int:
    """Vertex cover number of the forest given by a parent-before-child order
    and parents: by Konig's theorem it equals the maximum matching, which
    greedy matching of leaves to their parents attains when every vertex is
    taken after its children."""
    matched = bytearray(len(order))
    size = 0
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and not matched[v] and not matched[p]:
            matched[v] = matched[p] = 1
            size += 1
    return size


# ---------------------------------------------------------------------------
# Full-enumeration oracles (independent of the engine above)
#
# The base^n labelings are indexed in lex order, vertex 0 most significant.
# planes[v][x] is the bit-packed column (np.packbits, 8 labelings per byte) of
# "v is labeled x".  Each vertex's constraint is one packed column built with
# bitwise ops from the planes of v and its neighbours (_column); a graph's
# valid set is the AND of its n columns, unpacked once.  While base^n <=
# _MEMO_LIMIT, columns are memoized per (problem, n, v, neighbourhood mask).
# Above _CACHE_LIMIT labelings the scan runs in chunks: the cached planes of
# the last k vertices under each fixed prefix of the first n - k labels,
# whose vertices get constant planes, so the same kernel runs in every chunk.
# ---------------------------------------------------------------------------

_NONE = np.uint8(0)
_ALL = np.uint8(0xFF)
# the planes of a vertex with a fixed label d, indexed by label
_CONSTANT_PLANES = [tuple(_ALL if x == d else _NONE for x in range(4)) for d in range(4)]
_plane_cache: dict[tuple[int, int], dict] = {}
_column_memo: dict[tuple[_Problem, int], dict[tuple[int, int], np.ndarray]] = {}


def _cached_tables(base: int, n: int) -> dict:
    key = (base, n)
    t = _plane_cache.get(key)
    if t is None:
        weight = np.zeros(base ** n, dtype=np.int16)
        planes = []
        for v in range(n):
            # v's label along the lex order: each label base^(n-1-v) times in
            # a row, that block repeated base^v times
            digit = np.tile(np.arange(base, dtype=np.int8).repeat(base ** (n - 1 - v)), base ** v)
            planes.append(tuple(np.packbits(digit == x) for x in range(base)))
            weight += digit
        t = _plane_cache[key] = {"planes": planes, "weight": weight}
    return t


def _chunks(base: int, n: int) -> Iterator[tuple[int, list, np.ndarray, int]]:
    """All base^n labelings in lex order, as (index of the first, planes,
    weights, weight offset) chunks: the cached planes and weights of the last
    k vertices under each fixed prefix of the first n - k labels.  A prefix
    vertex labeled d gets the constant planes _ALL for d and _NONE for every
    other label; the offset is the prefix's weight."""
    k = n
    while base ** k > _CACHE_LIMIT:
        k -= 1
    t = _cached_tables(base, k)
    for p in range(base ** (n - k)):
        prefix = _decode(p, base, n - k)
        yield (p * base ** k, [_CONSTANT_PLANES[d] for d in prefix] + t["planes"],
               t["weight"], sum(prefix))


def _column(prob: _Problem, planes: list, v: int, nbrs) -> np.ndarray:
    """Packed column of the labelings that meet v's constraint, from the
    planes of v and of its neighbours nbrs."""
    zmode = prob.zero_mode
    one = two = three = zeros = _NONE
    for w in nbrs:
        pw = planes[w]
        if prob.oi:
            zeros = zeros | pw[0]
        if zmode == 3:
            # running accumulators: some / at least two neighbours labeled 2
            two = two | (one & pw[2])
            one = one | pw[2]
            three = three | pw[3]
        elif zmode:
            one = one | pw[zmode]  # the label a 0 needs next to it
    # a 0 needs its zero_mode support and, with oi, no neighbour labeled 0
    ok0 = (three | two) if zmode == 3 else one if zmode else _ALL
    if prob.oi:
        ok0 = ok0 & ~zeros
    col = ~planes[v][0] | ok0
    if prob.one_ge2:
        # a 1 needs a neighbour labeled 2 or 3 (one_ge2 implies zero_mode 3)
        col &= ~planes[v][1] | one | three
    return col


def _scan(g: Graph, prob: _Problem) -> Iterator[tuple[int, np.ndarray, np.ndarray, int]]:
    """(index of the first labeling, valid mask, weights, weight offset) for
    each chunk of the base^n labelings of g, in lex order."""
    n = g.n
    memo = _column_memo.setdefault((prob, n), {}) if prob.base ** n <= _MEMO_LIMIT else None
    for start, planes, wt, offset in _chunks(prob.base, n):
        valid = _ALL
        for v, mask in enumerate(g.nbr_masks):
            if memo is None:
                col = _column(prob, planes, v, g.adj[v])
            else:
                col = memo.get((v, mask))
                if col is None:
                    col = memo[(v, mask)] = _column(prob, planes, v, g.adj[v])
            valid &= col  # the first AND rebinds the scalar to a new array
        yield start, np.unpackbits(valid, count=wt.size).view(bool), wt, offset


def _decode(idx: int, base: int, n: int) -> tuple[int, ...]:
    return tuple(idx // base ** (n - 1 - v) % base for v in range(n))


def _brute_min(g: Graph, prob: _Problem) -> tuple[int, tuple[int, ...]]:
    """Scan all base^n labelings in lexicographic order; return the minimum
    weight and the first labeling attaining it."""
    best: int | None = None
    best_idx = -1
    for start, valid, wt, offset in _scan(g, prob):
        scores = np.where(valid, wt, _NO_SCORE)
        i = int(scores.argmin())  # the first minimum
        m = int(scores[i]) + offset
        if valid[i] and (best is None or m < best):
            best, best_idx = m, start + i
    if best is None:
        raise CertificationError("full enumeration found no valid labeling")
    return best, _decode(best_idx, prob.base, g.n)


def _iter_optimal_indices(g: Graph, prob: _Problem, value: int) -> Iterator[int]:
    for start, valid, wt, offset in _scan(g, prob):
        for i in np.flatnonzero(valid & (wt == value - offset)):
            yield start + int(i)


def _check_brute_cap(g: Graph) -> None:
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"full enumeration capped at n <= {BRUTE_FORCE_CAP}, got n = {g.n}")


def _brute_result(g: Graph, name: str) -> SolveResult:
    prob = INVARIANTS[name][0]
    _check_brute_cap(g)
    value, wit = _brute_min(g, prob)
    return SolveResult(value, Labeling(wit), node_count=prob.base ** g.n)


def brute_force_oidrd(g: Graph) -> SolveResult:
    """Oracle twin of solve_oidrd: full scan of 4^n labelings, n <= 12."""
    return _brute_result(g, "gamma_oidr")


def _independent_sets(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(valid mask, weights) of the 2^n 0/1 indicators in lex order, valid
    where the 1-set is independent.  An indicator is independent iff its
    complement is a vertex cover, and complementing maps lex index i to
    2^n - 1 - i, so this is the cover scan read backwards (one chunk, since
    2^n <= _CACHE_LIMIT for n <= BRUTE_FORCE_CAP)."""
    _, cover, wt, _ = next(_scan(g, _COVER))
    return cover[::-1], wt


def brute_force_alpha(g: Graph) -> SolveResult:
    """Oracle twin of solve_alpha: scan of 2^n indicators, first maximum wins."""
    _check_brute_cap(g)
    valid, wt = _independent_sets(g)
    scores = np.where(valid, wt, -1)
    idx = int(scores.argmax())  # the first maximum
    return SolveResult(int(scores[idx]), Labeling(_decode(idx, 2, g.n)), node_count=wt.size)


def brute_force_beta(g: Graph) -> SolveResult:
    """Oracle twin of solve_beta: n - alpha, witness = complement of the
    alpha oracle witness."""
    a = brute_force_alpha(g)
    comp = tuple(1 - x for x in a.witness.values)
    return SolveResult(g.n - a.value, Labeling(comp), node_count=a.node_count)


# the full scan of each row's problem, but alpha and beta read the
# independent-set scan; callers look entries up when they call, so one can be swapped
BRUTE_SOLVERS = {name: partial(_brute_result, name=name) for name in INVARIANTS}
BRUTE_SOLVERS.update(alpha=brute_force_alpha, beta=brute_force_beta)


def _optimal_labelings(g: Graph, name: str) -> Iterator[Labeling]:
    _check_brute_cap(g)
    prob = INVARIANTS[name][0]
    value, _ = _brute_min(g, prob)
    for idx in _iter_optimal_indices(g, prob, value):
        yield Labeling(_decode(idx, prob.base, g.n))


def enumerate_optimal_oidrd(g: Graph) -> Iterator[Labeling]:
    """All optimal OIDRD labelings in lexicographic order (n <= 12)."""
    return _optimal_labelings(g, "gamma_oidr")


def enumerate_optimal_oir(g: Graph) -> Iterator[Labeling]:
    """All optimal outer independent Roman labelings in lexicographic order (n <= 12)."""
    return _optimal_labelings(g, "gamma_oir")
