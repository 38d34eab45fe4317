"""Exact solvers for the domination invariants.

Every parameter has two independent routes: a branch-and-bound engine
(pure Python, usable at desk scale) and a vectorized full-enumeration
oracle capped at n <= 12, used to cross-validate values and witnesses.
On forests, gamma_oidr and beta have a third, value-only route in linear
time: a bottom-up dynamic program over the labels (`tree_oidrd`) and greedy
leaf matching (`tree_beta`).

Canonical witness contract: the lexicographically smallest optimal
labeling, values read in vertex order 0..n-1.  The engine finds the
optimal value first (branching on vertices by descending degree, labels
tried ascending), then re-derives the witness by a lexicographic descent
at the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, GraphError
from .labeling import Labeling, is_drd, is_oidrd, is_oird, is_rd, weight, zeros_independent

BRUTE_FORCE_CAP = 12
_CACHE_LIMIT = 1 << 18
_CHUNK = 1 << 18


class CertificationError(RuntimeError):
    """A computed result failed the check that certifies it.  Raised, never
    asserted, so the checks also run under python -O."""


@dataclass(frozen=True)
class SolveResult:
    """Optimal value plus the canonical (lex-smallest) witness labeling."""

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


def _branch_and_bound(g: Graph, prob: _Problem, order: Sequence[int], ub: int,
                      target: int | None = None) -> tuple:
    """Min-weight labeling search.

    target=None: return (optimal value, nodes), starting from the achievable
    incumbent ub.  Otherwise: return (first valid labeling of weight <= target
    in lex order along `order`, nodes); with target set to the optimal value
    and order = 0..n-1 this is the canonical-witness descent.
    """
    n = g.n
    adj = [tuple(sorted(g.adj[v])) for v in range(n)]
    masks = [sum(1 << w for w in a) for a in adj]
    base, oi, zmode, one_ge2 = prob.base, prob.oi, prob.zero_mode, prob.one_ge2
    label = [-1] * n
    unl = [len(a) for a in adj]
    cnt = [[0, 0, 0, 0] for _ in range(n)]
    nodes = 0
    best = ub
    found: tuple[int, ...] | None = None
    optimize = target is None

    def independence_lb() -> int:
        # with an independent 0-class, the zeros among unlabeled vertices fit
        # inside any clique cover of them; everything else costs at least 1
        forced = 0
        rest = []
        for u in range(n):
            if label[u] >= 0:
                continue
            if cnt[u][0] > 0:
                forced += 1
            else:
                rest.append(u)
        cliques: list[int] = []
        for u in rest:
            mu = masks[u]
            for i, members in enumerate(cliques):
                if members & ~mu == 0:
                    cliques[i] = members | (1 << u)
                    break
            else:
                cliques.append(1 << u)
        return forced + len(rest) - len(cliques)

    def zero_ok(c: list) -> bool:
        if zmode == 3:
            return c[3] > 0 or c[2] > 1
        if zmode == 2:
            return c[2] > 0
        if zmode == 1:
            return c[1] > 0
        return True

    if zmode == 0:
        # vertex cover: forced 1s next to a 0, plus a greedy matching
        def lower_bound() -> int:
            total = 0
            used = bytearray(n)
            for u in range(n):
                if label[u] < 0 and cnt[u][0] > 0:
                    total += 1
                    used[u] = 1
            for u in range(n):
                if label[u] >= 0 or used[u]:
                    continue
                for w in adj[u]:
                    if w > u and label[w] < 0 and not used[w]:
                        total += 1
                        used[u] = 1
                        used[w] = 1
                        break
            return total
    else:
        # exact minimum feasible label for surrounded vertices, plus a
        # packing of disjoint closed neighborhoods with no >=2 label nearby
        bonus = 2 if zmode == 3 else 1

        def lower_bound() -> int:
            total = 0
            blocked = bytearray(n)
            for u in range(n):
                if label[u] >= 0:
                    continue
                c = cnt[u]
                if unl[u] == 0:
                    if (not oi or c[0] == 0) and zero_ok(c):
                        continue
                    if not one_ge2 or c[2] + c[3] > 0:
                        total += 1
                    else:
                        total += 2
                elif not blocked[u]:
                    uncov = c[1] == 0 if zmode == 1 else c[2] == 0 and c[3] == 0
                    if uncov:
                        ok = True
                        for w in adj[u]:
                            if label[w] < 0 and blocked[w]:
                                ok = False
                                break
                        if ok:
                            total += bonus
                            blocked[u] = 1
                            for w in adj[u]:
                                if label[w] < 0:
                                    blocked[w] = 1
            return total

    def dfs(depth: int, w: int) -> None:
        nonlocal best, found, nodes
        if depth == n:
            if optimize:
                best = w
            else:
                found = tuple(label)
            return
        v = order[depth]
        av = adj[v]
        cv = cnt[v]
        for x in range(base):
            wx = w + x
            if optimize:
                if wx >= best:
                    break
            elif wx > target:
                break
            if x == 0:
                if (oi and cv[0] > 0) or (unl[v] == 0 and not zero_ok(cv)):
                    continue
            elif x == 1 and one_ge2 and unl[v] == 0 and cv[2] + cv[3] == 0:
                continue
            label[v] = x
            ok = True
            for w2 in av:
                c2 = cnt[w2]
                c2[x] += 1
                unl[w2] -= 1
                if unl[w2] == 0:
                    l2 = label[w2]
                    if l2 == 0:
                        if not zero_ok(c2):
                            ok = False
                    elif l2 == 1 and one_ge2 and c2[2] + c2[3] == 0:
                        ok = False
            if ok:
                nodes += 1
                bound = wx + lower_bound()
                good = (bound < best) if optimize else (bound <= target)
                if good and oi:
                    bound = wx + independence_lb()
                    good = (bound < best) if optimize else (bound <= target)
                if good:
                    dfs(depth + 1, wx)
            for w2 in av:
                cnt[w2][x] -= 1
                unl[w2] += 1
            label[v] = -1
            if found is not None:
                return

    dfs(0, 0)
    if optimize:
        return best, nodes
    return found, nodes


def _degree_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))


def _solve_min(g: Graph, prob: _Problem, predicate) -> SolveResult:
    ub = _initial_ub(g, prob)
    value, nodes1 = _branch_and_bound(g, prob, _degree_order(g), ub)
    wit, nodes2 = _branch_and_bound(g, prob, range(g.n), ub, target=value)
    if wit is None:
        raise CertificationError(f"witness descent found no labeling of weight {value}")
    lab = Labeling(wit)
    if weight(lab) != value or not predicate(g, lab):
        raise CertificationError(f"witness {lab.to_text()} is not a valid labeling "
                                 f"of weight {value}")
    return SolveResult(value, lab, nodes1 + nodes2)


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
    cover_value, nodes1 = _branch_and_bound(g, _COVER, _degree_order(g), ub)
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


def tree_oidrd(g: Graph) -> int:
    """gamma_oidr of a forest by a bottom-up dynamic program, O(n).

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
    order, parent = _forest_order(g)
    inf = 3 * g.n + 1  # above every feasible weight; sums of it stay above too
    # per-vertex accumulators [Z0, Z1, Z2, O0, O1, T, H], seeded for a leaf
    acc = [[0, inf, inf, 1, inf, 2, 3] for _ in range(g.n)]
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


def tree_beta(g: Graph) -> int:
    """Vertex cover number of a forest, O(n): by Konig's theorem it equals
    the maximum matching, which greedy matching of leaves to their parents
    attains when vertices are taken deepest first."""
    order, parent = _forest_order(g)
    matched = bytearray(g.n)
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


def _digits_for_range(base: int, n: int, start: int, stop: int) -> list[np.ndarray]:
    idx = np.arange(start, stop, dtype=np.int64)
    return [((idx // base ** (n - 1 - v)) % base).astype(np.int8) for v in range(n)]


def _valid_from_vals(g: Graph, prob: _Problem, vals: list[np.ndarray]) -> np.ndarray:
    size = vals[0].shape[0]
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
    n, base = g.n, prob.base
    size = base ** n
    best: int | None = None
    best_idx = -1
    if size <= _CACHE_LIMIT:
        t = _cached_tables(base, n)
        valid = _valid_from_vals(g, prob, t["vals"])
        if valid.any():
            wt = t["weight"]
            best = int(wt[valid].min())
            best_idx = int(np.flatnonzero(valid & (wt == best))[0])
    else:
        for start in range(0, size, _CHUNK):
            stop = min(start + _CHUNK, size)
            vals = _digits_for_range(base, n, start, stop)
            valid = _valid_from_vals(g, prob, vals)
            if not valid.any():
                continue
            wt = sum(v.astype(np.int16) for v in vals)
            m = int(wt[valid].min())
            if best is None or m < best:
                best = m
                best_idx = start + int(np.flatnonzero(valid & (wt == m))[0])
    if best is None:
        raise CertificationError("full enumeration found no valid labeling")
    return best, _decode(best_idx, base, n)


def _iter_optimal_indices(g: Graph, prob: _Problem, value: int) -> Iterator[int]:
    n, base = g.n, prob.base
    size = base ** n
    if size <= _CACHE_LIMIT:
        t = _cached_tables(base, n)
        valid = _valid_from_vals(g, prob, t["vals"])
        for i in np.flatnonzero(valid & (t["weight"] == value)):
            yield int(i)
    else:
        for start in range(0, size, _CHUNK):
            stop = min(start + _CHUNK, size)
            vals = _digits_for_range(base, n, start, stop)
            valid = _valid_from_vals(g, prob, vals)
            wt = sum(v.astype(np.int16) for v in vals)
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
