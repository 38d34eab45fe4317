"""Exact solvers for the domination invariants.

Every parameter has two independent routes: a branch-and-bound engine
(pure Python, usable at desk scale) and a vectorized full-enumeration
oracle capped at n <= 12, used to cross-validate values and witnesses.
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
nothing improves.  Alpha has its own witness descent, since the complement
of the lex-first minimum cover is not the lex-first maximum independent set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, GraphError
from .labeling import Labeling, is_drd, is_oidrd, is_oird, is_rd, weight, zeros_independent

BRUTE_FORCE_CAP = 12
_CACHE_LIMIT = 1 << 18


class CertificationError(RuntimeError):
    """A computed result failed the check that certifies it.  Raised, never
    asserted, so the checks also run under python -O."""


@dataclass(frozen=True)
class SolveResult:
    """Optimal value plus the canonical (lex-smallest) witness labeling.

    node_count: feasible partial labelings the engine visited (for alpha and
    beta, the cover search plus the witness descent); base^n for an oracle.
    """

    value: int
    witness: Labeling
    node_count: int
    optimal_count: int | None = None


@dataclass(frozen=True)
class _Problem:
    # zero_mode: 0 = none, 1 = needs a 1-neighbor, 2 = needs a 2-neighbor,
    # 3 = needs a 3-neighbor or two 2-neighbors
    base: int
    oi: bool
    zero_mode: int
    one_ge2: bool


_OIDR = _Problem(4, True, 3, True)
_DR = _Problem(4, False, 3, True)
_OIR = _Problem(3, True, 2, False)
_R = _Problem(3, False, 2, False)
_DOM = _Problem(2, False, 1, False)
_COVER = _Problem(2, True, 0, False)


def is_dominating_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set dominates g."""
    vals = tuple(f)
    return all(x == 1 or any(vals[w] == 1 for w in g.adj[v]) for v, x in enumerate(vals))


def is_cover_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set covers every edge."""
    return zeros_independent(g, tuple(f))


def is_independent_labeling(g: Graph, f: Labeling | Sequence[int]) -> bool:
    """0/1 labeling whose 1-set is independent."""
    vals = tuple(f)
    return not any(vals[u] == 1 and any(vals[w] == 1 for w in g.adj[u]) for u in range(g.n))


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


def _greedy_max_independent(g: Graph) -> set[int]:
    chosen: set[int] = set()
    for v in sorted(range(g.n), key=lambda u: (len(g.adj[u]), u)):
        if g.adj[v].isdisjoint(chosen):
            chosen.add(v)
    return chosen


def _greedy_domination_size(g: Graph) -> int:
    undominated = set(range(g.n))
    size = 0
    while undominated:
        best_v, best_cov = 0, -1
        for v in range(g.n):
            cov = (v in undominated) + sum(1 for w in g.adj[v] if w in undominated)
            if cov > best_cov:
                best_v, best_cov = v, cov
        undominated -= g.adj[best_v] | {best_v}
        size += 1
    return size


def _initial_ub(g: Graph, prob: _Problem) -> int:
    # every returned bound is the weight of some valid labeling
    n = g.n
    iso = sum(1 for v in range(n) if not g.adj[v])
    ind = _greedy_max_independent(g)
    k = len(ind)
    if prob.base == 4:
        return min(2 * n, 3 * (n - k) + 2 * iso)
    if prob.base == 3:
        return min(n, 2 * (n - k) + iso)
    if prob.zero_mode == 1:
        return _greedy_domination_size(g)
    return n - k


def _branch_and_bound(g: Graph, prob: _Problem, order: Sequence[int],
                      ub: int) -> tuple[int, tuple[int, ...] | None, int]:
    """Min-weight labeling search, labels tried ascending at each vertex of
    `order`, so complete labelings are met in lex order along `order`.

    Starts from the incumbent ub and keeps the labeling at each strict
    improvement.  Returns (best weight, last labeling kept or None if none
    beat ub, nodes), where nodes counts the feasible partial labelings
    visited.  The state is the mask of free (unlabeled) vertices plus one
    mask per label; a vertex is surrounded once no neighbor is free.
    """
    n = g.n
    nbr = [sum(1 << w for w in g.adj[v]) for v in range(n)]
    base, oi, zmode, one_ge2 = prob.base, prob.oi, prob.zero_mode, prob.one_ge2
    bonus = 2 if zmode == 3 else 1
    nodes = 0
    best = ub
    found: tuple[int, ...] | None = None

    def zero_ok(m: int, l1: int, l2: int, l3: int) -> int:
        # a vertex with neighborhood m may be labeled 0 (truthy: yes)
        if zmode == 3:
            m2 = m & l2
            return m & l3 or m2 & (m2 - 1)
        if zmode == 2:
            return m & l2
        if zmode == 1:
            return m & l1
        return 1

    def independence_lb(free: int, l0: int) -> int:
        # with an independent 0-class, the zeros among free vertices fit
        # inside any clique cover of them; everything else costs at least 1
        forced = rest = 0
        cliques: list[int] = []
        while free:
            low = free & -free
            free ^= low
            m = nbr[low.bit_length() - 1]
            if m & l0:
                forced += 1
                continue
            rest += 1
            for i, members in enumerate(cliques):
                if members & ~m == 0:
                    cliques[i] = members | low
                    break
            else:
                cliques.append(low)
        return forced + rest - len(cliques)

    if zmode == 0:
        # vertex cover: forced 1s next to a 0, plus a greedy matching
        def lower_bound(free: int, l0: int, l1: int, l2: int, l3: int) -> int:
            total = 0
            avail = free
            rem = free
            while rem:
                low = rem & -rem
                rem ^= low
                if nbr[low.bit_length() - 1] & l0:
                    total += 1
                    avail ^= low
            rem = avail
            while rem:
                low = rem & -rem
                rem ^= low
                cand = nbr[low.bit_length() - 1] & avail & -(low << 1)
                if cand:
                    w = cand & -cand
                    total += 1
                    avail ^= w
                    rem &= ~w
            return total
    else:
        # exact minimum feasible label for surrounded vertices, plus a
        # packing of disjoint closed neighborhoods with no >=2 label nearby
        def lower_bound(free: int, l0: int, l1: int, l2: int, l3: int) -> int:
            total = 0
            blocked = 0
            high = l2 | l3
            support = l1 if zmode == 1 else high
            rem = free
            while rem:
                low = rem & -rem
                rem ^= low
                m = nbr[low.bit_length() - 1]
                if not m & free:
                    if (not oi or not m & l0) and zero_ok(m, l1, l2, l3):
                        continue
                    total += 1 if not one_ge2 or m & high else 2
                elif not (blocked & low or m & support or m & blocked):
                    total += bonus
                    blocked |= low | (m & free)
            return total

    def dfs(depth: int, w: int, free: int, l0: int, l1: int, l2: int, l3: int) -> None:
        nonlocal best, found, nodes
        v = order[depth]
        bit = 1 << v
        free ^= bit
        m = nbr[v]
        surrounded = not m & free
        for x in range(base):
            wx = w + x
            if wx >= best:
                break
            n0, n1, n2, n3 = l0, l1, l2, l3
            if x == 0:
                if (oi and m & l0) or (surrounded and not zero_ok(m, l1, l2, l3)):
                    continue
                n0 |= bit
            elif x == 1:
                if one_ge2 and surrounded and not m & (l2 | l3):
                    continue
                n1 |= bit
            elif x == 2:
                n2 |= bit
            else:
                n3 |= bit
            # labeled 0/1 neighbors that v's label just surrounded
            watch = m & ((n0 if zmode else 0) | (n1 if one_ge2 else 0))
            while watch:
                low = watch & -watch
                watch ^= low
                mu = nbr[low.bit_length() - 1]
                if mu & free:
                    continue
                if low & n0:
                    if not zero_ok(mu, n1, n2, n3):
                        break
                elif not mu & (n2 | n3):
                    break
            else:
                nodes += 1
                if not free:
                    best = wx
                    found = tuple(0 if n0 >> u & 1 else 1 if n1 >> u & 1 else
                                  2 if n2 >> u & 1 else 3 for u in range(n))
                elif (wx + lower_bound(free, n0, n1, n2, n3) < best
                      and (not oi or wx + independence_lb(free, n0) < best)):
                    dfs(depth + 1, wx, free, n0, n1, n2, n3)

    dfs(0, 0, (1 << n) - 1, 0, 0, 0, 0)
    return best, found, nodes


def _degree_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))


def _solve_min(g: Graph, prob: _Problem, predicate) -> SolveResult:
    # one pass along 0..n-1; ub + 1 so that an optimal ub is still met
    value, wit, nodes = _branch_and_bound(g, prob, range(g.n), _initial_ub(g, prob) + 1)
    if wit is None:
        raise CertificationError(f"search found no labeling below its incumbent {value}")
    lab = Labeling(wit)
    if weight(lab) != value or not predicate(g, lab):
        raise CertificationError(f"witness {lab.to_text()} is not a valid labeling "
                                 f"of weight {value}")
    return SolveResult(value, lab, nodes)


def solve_oidrd(g: Graph, *, count_optimal: bool = False) -> SolveResult:
    """Exact outer independent double Roman domination number with witness."""
    res = _solve_min(g, _OIDR, is_oidrd)
    if count_optimal:
        _check_brute_cap(g)
        n_opt = sum(1 for _ in _iter_optimal_indices(g, _OIDR, res.value))
        return SolveResult(res.value, res.witness, res.node_count, n_opt)
    return res


def solve_gamma_dr(g: Graph) -> SolveResult:
    """Exact double Roman domination number with witness."""
    return _solve_min(g, _DR, is_drd)


def solve_gamma_oir(g: Graph) -> SolveResult:
    """Exact outer independent Roman domination number with witness."""
    return _solve_min(g, _OIR, is_oird)


def solve_gamma_r(g: Graph) -> SolveResult:
    """Exact Roman domination number with witness."""
    return _solve_min(g, _R, is_rd)


def solve_gamma(g: Graph) -> SolveResult:
    """Exact domination number; witness is the 0/1 indicator of the set."""
    return _solve_min(g, _DOM, is_dominating_labeling)


def _alpha_witness(g: Graph, alpha: int) -> tuple[tuple[int, ...], int]:
    """Lex-smallest 0/1 indicator of a maximum independent set."""
    n = g.n
    adj = [tuple(sorted(g.adj[v])) for v in range(n)]
    label = [0] * n
    conflict = [0] * n
    nodes = 0
    found: tuple[int, ...] | None = None

    def dfs(depth: int, ones: int) -> None:
        nonlocal found, nodes
        if found is not None:
            return
        free = sum(1 for u in range(depth, n) if conflict[u] == 0)
        if ones + free < alpha:
            return
        if depth == n:
            found = tuple(label)
            return
        nodes += 1
        label[depth] = 0
        dfs(depth + 1, ones)
        if found is not None:
            return
        if conflict[depth] == 0:
            label[depth] = 1
            for w in adj[depth]:
                conflict[w] += 1
            dfs(depth + 1, ones + 1)
            for w in adj[depth]:
                conflict[w] -= 1
        label[depth] = 0

    dfs(0, 0)
    if found is None:
        raise CertificationError(f"witness descent found no independent set of size {alpha}")
    return found, nodes


def solve_alpha(g: Graph) -> SolveResult:
    """Exact independence number via complement-of-vertex-cover branch and bound."""
    ub = _initial_ub(g, _COVER)
    cover_value, _, nodes1 = _branch_and_bound(g, _COVER, _degree_order(g), ub)
    alpha = g.n - cover_value
    wit, nodes2 = _alpha_witness(g, alpha)
    lab = Labeling(wit)
    if weight(lab) != alpha or not is_independent_labeling(g, lab):
        raise CertificationError(f"alpha witness {lab.to_text()} is not an independent set "
                                 f"of size {alpha}")
    return SolveResult(alpha, lab, nodes1 + nodes2)


def solve_beta(g: Graph) -> SolveResult:
    """Exact vertex cover number, n - alpha; witness is the complement of the
    alpha witness."""
    a = solve_alpha(g)
    comp = tuple(1 - x for x in a.witness.values)
    lab = Labeling(comp)
    if not is_cover_labeling(g, lab):
        raise CertificationError(f"beta witness {lab.to_text()} is not a vertex cover")
    return SolveResult(g.n - a.value, lab, a.node_count)


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
    if b.alpha + b.beta != g.n:
        raise CertificationError(f"alpha + beta = {b.alpha + b.beta} != n = {g.n}")
    if b.gamma_dr > b.gamma_oidr:
        raise CertificationError(f"gamma_dr = {b.gamma_dr} > gamma_oidr = {b.gamma_oidr}")
    if b.gamma_oir >= b.gamma_oidr:
        raise CertificationError(f"gamma_oir = {b.gamma_oir} >= gamma_oidr = {b.gamma_oidr}")
    return b


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


def _forest_routes(g: Graph) -> tuple[int, int]:
    """(beta, gamma_oidr) of a forest from one traversal order: the shared
    entry of tree_beta and tree_oidrd for callers that need both."""
    order, parent = _forest_order(g)
    return _leaf_matching(order, parent), _label_dp(order, parent)


def tree_oidrd(g: Graph) -> int:
    """gamma_oidr of a forest by a bottom-up dynamic program, O(n)."""
    return _label_dp(*_forest_order(g))


def tree_beta(g: Graph) -> int:
    """Vertex cover number of a forest by leaf matching, O(n)."""
    return _leaf_matching(*_forest_order(g))


def _label_dp(order: list[int], parent: list[int]) -> int:
    """gamma_oidr of the forest given by a breadth-first order and parents.

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
    """Vertex cover number of the forest given by a breadth-first order and
    parents: by Konig's theorem it equals the maximum matching, which greedy
    matching of leaves to their parents attains when vertices are taken
    deepest first."""
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
# ---------------------------------------------------------------------------

_digit_cache: dict[tuple[int, int], dict] = {}


def _cached_tables(base: int, n: int) -> dict:
    key = (base, n)
    t = _digit_cache.get(key)
    if t is None:
        idx = np.arange(base ** n, dtype=np.int64)
        vals = [((idx // base ** (n - 1 - v)) % base).astype(np.int8) for v in range(n)]
        t = {"vals": vals, "weight": sum(v.astype(np.int16) for v in vals)}
        _digit_cache[key] = t
    return t


def _chunks(base: int, n: int) -> Iterator[tuple[int, list, np.ndarray]]:
    """All base^n labelings in lex order, as (index of the first, digit
    columns, weights) chunks: the cached table of the last k vertices under
    each fixed prefix of the first n - k digits, given as numpy scalars."""
    k = n
    while base ** k > _CACHE_LIMIT:
        k -= 1
    t = _cached_tables(base, k)
    for p in range(base ** (n - k)):
        prefix = _decode(p, base, n - k)
        s = sum(prefix)
        yield (p * base ** k, [np.int8(d) for d in prefix] + t["vals"],
               t["weight"] + s if s else t["weight"])


def _valid_from_vals(g: Graph, prob: _Problem, vals: list) -> np.ndarray:
    size = vals[-1].shape[0]
    valid = np.ones(size, dtype=bool)
    if prob.oi:
        for u, v in g.edges():
            valid &= ~((vals[u] == 0) & (vals[v] == 0))
    zmode = prob.zero_mode
    for v in range(g.n):
        nb = sorted(g.adj[v])
        if zmode:
            if not nb:
                valid &= vals[v] != 0
            elif zmode == 3:
                any3 = np.zeros(size, dtype=bool)
                cnt2 = np.zeros(size, dtype=np.int8)
                for w in nb:
                    any3 |= vals[w] == 3
                    cnt2 += vals[w] == 2
                valid &= (vals[v] != 0) | any3 | (cnt2 >= 2)
            else:
                want = 2 if zmode == 2 else 1
                sat = np.zeros(size, dtype=bool)
                for w in nb:
                    sat |= vals[w] == want
                valid &= (vals[v] != 0) | sat
        if prob.one_ge2:
            sat1 = np.zeros(size, dtype=bool)
            for w in nb:
                sat1 |= vals[w] >= 2
            valid &= (vals[v] != 1) | sat1
    return valid


def _decode(idx: int, base: int, n: int) -> tuple[int, ...]:
    return tuple(idx // base ** (n - 1 - v) % base for v in range(n))


def _brute_min(g: Graph, prob: _Problem) -> tuple[int, tuple[int, ...]]:
    """Scan all base^n labelings in lexicographic order; return the minimum
    weight and the first labeling attaining it."""
    best: int | None = None
    best_idx = -1
    for start, vals, wt in _chunks(prob.base, g.n):
        valid = _valid_from_vals(g, prob, vals)
        if not valid.any():
            continue
        m = int(wt[valid].min())
        if best is None or m < best:
            best = m
            best_idx = start + int(np.flatnonzero(valid & (wt == m))[0])
    if best is None:
        raise CertificationError("full enumeration found no valid labeling")
    return best, _decode(best_idx, prob.base, g.n)


def _iter_optimal_indices(g: Graph, prob: _Problem, value: int) -> Iterator[int]:
    for start, vals, wt in _chunks(prob.base, g.n):
        valid = _valid_from_vals(g, prob, vals)
        for i in np.flatnonzero(valid & (wt == value)):
            yield start + int(i)


def _check_brute_cap(g: Graph) -> None:
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"full enumeration capped at n <= {BRUTE_FORCE_CAP}, got n = {g.n}")


def _brute_result(g: Graph, prob: _Problem) -> SolveResult:
    _check_brute_cap(g)
    value, wit = _brute_min(g, prob)
    return SolveResult(value, Labeling(wit), node_count=prob.base ** g.n)


def brute_force_oidrd(g: Graph) -> SolveResult:
    """Oracle twin of solve_oidrd: full scan of 4^n labelings, n <= 12."""
    return _brute_result(g, _OIDR)


def brute_force_gamma_dr(g: Graph) -> SolveResult:
    return _brute_result(g, _DR)


def brute_force_gamma_oir(g: Graph) -> SolveResult:
    return _brute_result(g, _OIR)


def brute_force_gamma_r(g: Graph) -> SolveResult:
    return _brute_result(g, _R)


def brute_force_gamma(g: Graph) -> SolveResult:
    return _brute_result(g, _DOM)


def brute_force_alpha(g: Graph) -> SolveResult:
    """Oracle twin of solve_alpha: scan of 2^n indicators, first maximum wins."""
    _check_brute_cap(g)
    n = g.n
    size = 2 ** n
    t = _cached_tables(2, n)
    vals = t["vals"]
    valid = np.ones(size, dtype=bool)
    for u, v in g.edges():
        valid &= ~((vals[u] == 1) & (vals[v] == 1))
    wt = t["weight"]
    best = int(wt[valid].max())
    idx = int(np.flatnonzero(valid & (wt == best))[0])
    return SolveResult(best, Labeling(_decode(idx, 2, n)), node_count=size)


def brute_force_beta(g: Graph) -> SolveResult:
    """Oracle twin of solve_beta: n - alpha, witness = complement of the
    alpha oracle witness."""
    a = brute_force_alpha(g)
    comp = tuple(1 - x for x in a.witness.values)
    return SolveResult(g.n - a.value, Labeling(comp), node_count=a.node_count)


BRUTE_SOLVERS = {
    "gamma_oidr": brute_force_oidrd,
    "gamma_dr": brute_force_gamma_dr,
    "gamma_oir": brute_force_gamma_oir,
    "gamma_r": brute_force_gamma_r,
    "gamma": brute_force_gamma,
    "alpha": brute_force_alpha,
    "beta": brute_force_beta,
}


def enumerate_optimal_oidrd(g: Graph) -> Iterator[Labeling]:
    """All optimal OIDRD labelings in lexicographic order (n <= 12)."""
    _check_brute_cap(g)
    value, _ = _brute_min(g, _OIDR)
    for idx in _iter_optimal_indices(g, _OIDR, value):
        yield Labeling(_decode(idx, 4, g.n))


def enumerate_optimal_oir(g: Graph) -> Iterator[Labeling]:
    """All optimal outer independent Roman labelings in lexicographic order (n <= 12)."""
    _check_brute_cap(g)
    value, _ = _brute_min(g, _OIR)
    for idx in _iter_optimal_indices(g, _OIR, value):
        yield Labeling(_decode(idx, 3, g.n))
