"""Exact solvers for the domination invariants.

Every parameter has two independent routes: a branch-and-bound engine
(pure Python, usable at desk scale) and a full-enumeration oracle capped at
n <= 12, used to cross-validate values and witnesses.  The oracle holds a
set of labelings as a Python int, bit i for the i-th of the base^n
labelings in lex order: one plane per vertex and label, and one set per
weight.  One bitwise kernel turns the planes of a vertex and its neighbours
into that vertex's validity column, and a graph's valid set is the AND of
its n columns.  The least weight whose set meets it is the value, and its
lowest bit the lex-first optimum (for the cover the highest bit, the
lex-largest minimum cover).  Columns are memoized per neighbourhood while
one chunk holds all base^n <= _MEMO_LIMIT labelings; above _CACHE_LIMIT
labelings the scan runs in chunks under fixed label prefixes, whose
vertices get constant planes.

Canonical witness contract: the lexicographically smallest optimal
labeling, values read in vertex order 0..n-1.  The engine makes one
optimizing pass along 0..n-1, labels tried ascending, from an incumbent one
above an achievable weight, and keeps the labeling at each strict
improvement.  The last one kept is canonical: until the lex-first optimum
is reached the incumbent stays above the optimum, and every bound on that
optimum's path is at most its weight, so no pruning cuts it off; after it,
nothing improves.  That holds from any incumbent above the optimum, so
_solve_below runs the same pass from a caller's bound and returns the
canonical optimum if one lies below it, and nothing otherwise.  The vertex
cover problem tries 1 before 0 instead, so the same pass keeps the
lex-largest minimum cover: that is the beta witness, and on both routes
alpha is read off it (_read_off): n - beta, with the complement, the
lex-smallest maximum independent set, as witness.

Since the vertex order is fixed, the free set at each depth of the search is
the same on every path, and so is all that depends on it alone.  One plan
per graph (_build_plan) holds it per depth: the settled vertices, whose
labels become final there; the sealed free vertices, with no free neighbor;
and the opened ones, with their closed neighborhoods within the free set.
The seven searches on one graph share the plan, and the initial incumbents'
greedy independent set and isolated vertices, through a one-entry cache
keyed by graph identity, which also keeps each problem's search result,
so alpha and beta share one cover search.  Three search kernels, one per
constraint shape, write each label as a straight-line block with the
problem's constants folded in: 0..3 for gamma_oidr and gamma_dr; one for
the problems where a 0 needs a neighbor with the support label zero_mode,
0..2 for gamma_oir and gamma_r (support 2) and 0/1 for gamma (support 1,
so no plain label 1); and 1/0 for the cover.
The search state is a few masks: the vertices labeled 0 and 1, those with a
0-neighbor and those with a support neighbor; the 0..3 kernel carries hi (a
2- or 3-neighbor, which a 1 needs) and ok0 (a 3-neighbor or two
2-neighbors, which a 0 needs) in place of the 2- and 3-neighbor masks.  The
feasibility checks of the settled vertices and the sealed vertices' share
of the lower bound are a few bitwise ops each.  What is left, a packing over
the opened vertices and the clique-cover independence bound, depends only on
the graph, the depth and one mask, not on the problem, and is memoized under
that mask in the depth's plan row, one memo per bound.  So the seven
searches on one graph share the memos: the five label problems one packing
memo, and gamma_oidr, gamma_oir and the cover one clique memo.  A pendant
group, a free support with two or more free leaves plus those leaves,
leaves those bounds, and its least weight (3 double Roman, the support label
for Roman and domination, 1 for the cover) is added to them through the
depth's memos, where the cover then gets a clique memo of its own.
For gamma_oidr the two bounds add up, as in the paper's lower bound
gamma + beta: a label x weighs at least [x >= 1] + [x >= 2], the clique
bound counts nonzero vertices and the packing vertices labeled 2 or 3, so
the search prunes on their sum.  Labels that leave the mask as it is share
one lookup per call: labels 0 and 1 one packing, labels 2 and 3 another,
and every label but 0 one clique bound.  The memos of a graph stop growing
at _BOUND_MEMO_LIMIT entries in all; a memo returns exactly the bound it
replaces, so the search tree, node counts, values and witnesses do not
depend on what it holds, nor on which searches ran before.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator, Sequence

from .graphs import Graph, GraphError, bits
from .labeling import (Labeling, is_cover_labeling, is_dominating_labeling, is_drd,
                       is_independent_labeling, is_oidrd, is_oird, is_rd, weight)

BRUTE_FORCE_CAP = 12
_CACHE_LIMIT = 1 << 18  # labelings per oracle chunk
_MEMO_LIMIT = 1 << 12  # one-chunk oracle columns are memoized while base^n <= this
_BOUND_MEMO_LIMIT = 1 << 16  # memoized bounds kept per graph
_STACK_HEADROOM = 200  # frames below the recursion limit kept for a search's callers
_SHARE = -1  # the memo key of a row's pendant-group share; no bound key is negative
_GROUP_MIN_N = 8  # smaller graphs get no pendant-group rows: they cost more than they save there
_last_plan: list | None = None  # _search_plan of the last graph


class CertificationError(RuntimeError):
    """A computed result failed the check that certifies it.  Raised, never
    asserted, so the checks also run under python -O."""


@dataclass(frozen=True)
class SolveResult:
    """Optimal value plus the canonical witness labeling: the lex-smallest
    optimum, or for beta the lex-largest minimum cover.

    node_count: feasible partial labelings the engine visited (alpha reports
    the cover search it complements); base^n for an oracle.
    proof_node_count: those of the engine's nodes visited after the last
    improvement, which only prove the value optimal; None for an oracle.
    """

    value: int
    witness: Labeling
    node_count: int
    optimal_count: int | None = None
    proof_node_count: int | None = None


@dataclass(frozen=True, eq=False)
class _Problem:
    # zero_mode: 0 = none (the cover, searched 1 before 0), 1 = needs a
    # 1-neighbor, 2 = needs a 2-neighbor, 3 = needs a 3-neighbor or two
    # 2-neighbors, and a 1 then needs a neighbor labeled 2 or 3.  The six
    # problems below are the only ones, so they key dicts by identity
    base: int
    oi: bool
    zero_mode: int


_OIDR = _Problem(4, True, 3)
_DR = _Problem(4, False, 3)
_OIR = _Problem(3, True, 2)
_R = _Problem(3, False, 2)
_DOM = _Problem(2, False, 1)
_COVER = _Problem(2, True, 0)


# The seven invariants, in report order: name -> (the problem both exact
# routes solve, the name of the predicate that certifies a labeling).  The
# predicate is looked up when a labeling is checked, so rebinding it here
# reaches every route.  Alpha solves beta's problem and is read off its
# optimum by _read_off.
INVARIANTS: dict[str, tuple[_Problem, str]] = {
    "gamma_oidr": (_OIDR, "is_oidrd"),
    "gamma_dr": (_DR, "is_drd"),
    "gamma_oir": (_OIR, "is_oird"),
    "gamma_r": (_R, "is_rd"),
    "gamma": (_DOM, "is_dominating_labeling"),
    "alpha": (_COVER, "is_independent_labeling"),
    "beta": (_COVER, "is_cover_labeling"),
}


def _read_off(g: Graph, name: str, value: int,
              wit: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The invariant's (value, witness) from its problem's optimum: alpha is
    n - beta, and the complement of the lex-largest minimum cover is the
    lex-smallest maximum independent set; every other row is its optimum."""
    if name == "alpha":
        return g.n - value, tuple(1 - x for x in wit)
    return value, wit


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
    deg = [m.bit_count() for m in nbr]
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
    _, _, iso, k, _, _, _ = _search_plan(g)
    if prob.base == 4:
        return min(2 * n, 3 * (n - k) + 2 * iso)
    if prob.base == 3:
        return min(n, 2 * (n - k) + iso)
    return n - k


def _search_plan(g: Graph) -> list:
    """[g, rows, isolated vertices, greedy independent set size, search
    results, memo room, cover rows] of g, with both row lists from
    _build_plan, from a one-entry cache keyed by graph identity, so the
    searches on one graph share one plan with its bound memos and one set of
    incumbents, and each problem is searched once: the results map each
    _Problem searched on g to its _branch_and_bound result.  Memo room
    counts the bounds the graph's memos may still keep, _BOUND_MEMO_LIMIT
    at first.  The cache holds the graph itself, so its identity cannot be
    reused; the entry is read once, so a graph never gets a plan another
    caller just stored.  The search recurses once per vertex, so a graph
    that would hit the recursion limit gets no plan."""
    global _last_plan
    last = _last_plan
    if last is None or last[0] is not g:
        if g.n > sys.getrecursionlimit() - _STACK_HEADROOM:
            raise GraphError(f"graph has {g.n} vertices; the search recurses once per vertex "
                             f"and supports n <= {sys.getrecursionlimit() - _STACK_HEADROOM}")
        rows, cover_rows = _build_plan(g)
        last = _last_plan = [g, rows, g.nbr_masks.count(0), len(_greedy_max_independent(g)),
                             {}, _BOUND_MEMO_LIMIT, cover_rows]
    return last


def _build_plan(g: Graph) -> tuple[list[tuple], list[tuple]]:
    """(rows, cover rows), one row per depth d: the static part of labeling
    vertex d, the same on every path of a search along 0..n-1, and the
    depth's bound memos.  The label kernels read rows and labels_10 the
    cover rows, the same list unless a depth has a pendant group: a free
    support u with two or more free leaves, plus those leaves.  From
    _GROUP_MIN_N vertices on, _add_groups rewrites those depths' rows.
    A row is (bit, nbr, free, settled, sealed, opened, open, packs, cliques),
    where
      bit, nbr  1 << d and the neighborhood mask of d
      free      the mask of d+1..n-1, free once d is labeled
      settled   the labeled vertices whose neighbors are all labeled once d
                is: d itself if it has no neighbor in free, and each
                neighbor u < d whose last neighbor is d
      sealed    the vertices of free with no neighbor in free
      opened    (bit, bit | nbr & free) of every other vertex of free,
                ascending: its closed neighborhood within free.  At a depth
                with pendant groups, rows leave out every vertex of N[u]
                and cover rows every vertex of a group
      open      the mask of the vertices in opened
      packs     the packing memo (_packing) of the five label problems:
                the count, which labels_0123 reads as 2 * p
      cliques   the clique bound memo (_independence_lb); a cover row with
                pendant groups has its own
    The memos are empty at first and filled by the searches on the graph
    (see _branch_and_bound).  At a depth with g pendant groups each memo
    starts with their share under the key _SHARE: g in packs, 2g in the
    rows' cliques and g in the cover rows' cliques.
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
        plan.append((bit, m, free, settled[d], sealed, opened, free ^ sealed, {}, {}))
    # two leaves of one support have equal masks, so distinct masks rule
    # out a pendant group without a scan
    if n < _GROUP_MIN_N or len(set(nbr)) == n:
        return plan, plan
    return plan, _add_groups(plan, nbr)


def _add_groups(plan: list[tuple], nbr: Sequence[int]) -> list[tuple]:
    """Rewrite the rows of plan at the depths with a pendant group, and
    return the cover rows: plan itself if no depth has one, else a copy
    whose rewritten rows differ in opened, open and the clique memo.  A
    group is taken out of the bounds' lists and its least weight goes into
    the depth's memos under _SHARE, which miss adds to each bound it
    computes; _branch_and_bound gives the rule and why it holds."""
    seen = twice = 0  # the supports of one leaf, and of two or more
    for m in nbr:
        if not m & (m - 1):
            twice |= seen & m
            seen |= m
    # (depths, N[u], u and its leaves) per support u: its group lasts while
    # u and its second-last leaf are free, at depths 0..last-1
    groups = []
    for u in bits(twice):
        low = 1 << u
        leaves = [v for v, m in enumerate(nbr) if m == low]
        if last := min(u, leaves[-2]):
            groups.append((last, nbr[u] | low, sum(1 << v for v in leaves) | low))
    if not groups:
        return plan
    cover = plan[:]
    for d in range(max(last for last, _, _ in groups)):
        near = held = share = 0
        for last, closed, members in groups:
            if d < last:
                near |= closed
                held |= members
                share += 1
        bit, m, free, settled, sealed, opened, open_mask = plan[d][:7]
        packs = {_SHARE: share}
        plan[d] = (bit, m, free, settled, sealed, [p for p in opened if not p[0] & near],
                   open_mask & ~near, packs, {_SHARE: 2 * share})
        cover[d] = (bit, m, free, settled, sealed, [p for p in opened if not p[0] & held],
                    open_mask & ~held, packs, {_SHARE: share})
    return cover


def _packing(opened: list[tuple[int, int]], avail: int) -> int:
    # disjoint closed neighborhoods of the opened vertices in avail, which
    # have no support yet: each holds a label >= 1, and >= 2 under double
    # Roman rules, which labels_0123 reads as twice the count
    count = blocked = 0
    for low, near in opened:
        if low & avail and not near & blocked:
            count += 1
            blocked |= near
    return count


def _independence_lb(opened: list[tuple[int, int]], key: int) -> int:
    # with an independent 0-class, the zeros among the opened vertices fit
    # inside any clique cover of them; everything else costs at least 1.
    # key: the opened vertices with a 0-neighbor, forced nonzero, so it
    # counts the nonzero opened vertices; callers that bound all of free
    # add the sealed ones with a 0-neighbor
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


def _branch_and_bound(g: Graph, prob: _Problem,
                      ub: int) -> tuple[int, tuple[int, ...] | None, int, int]:
    """Min-weight labeling search along vertices 0..n-1.  Labels are tried
    in the problem's fixed order: ascending for the five label problems, so
    complete labelings are met in lex order, and descending (1 before 0) for
    the vertex cover, so covers are met in reverse lex order.

    Starts from the incumbent ub and keeps the labeling at each strict
    improvement.  Returns (best weight, last labeling kept or None if none
    beat ub, nodes, proof nodes), where nodes counts the feasible partial
    labelings visited and proof nodes those visited after the last
    improvement, which only prove it optimal.

    One of three kernels runs the search, each label a straight-line block:
    labels_0123 for base 4, labels_012 for the problems whose 0 needs a
    neighbor labeled sup = zero_mode (2 for gamma_r and gamma_oir, 1 for
    gamma, which skips the plain label 1), and labels_10 for the cover.
    The state: l0 and l1, the vertices labeled 0 and 1; z, those with a
    0-neighbor; s1, those with a support neighbor (labeled sup, or 2 in
    labels_0123); and in labels_0123 hi = s1 | s3 and ok0 = s2 | s3, where
    s2 and s3 are the vertices with two 2-neighbors and with a 3-neighbor:
    a 1 needs hi, a 0 needs ok0.  Label 2 sets ok0 | s1 & m, s1 | m and
    hi | m, label 3 ok0 | m and hi | m.  The free set at depth d is
    d+1..n-1 on every path, so each settled vertex of the plan
    (_build_plan) is checked with one mask test, and each sealed vertex
    adds the least label it can still take to the lower bound, bitwise.

    The rest of the lower bound loops over the opened vertices: a packing
    of disjoint closed neighborhoods with no support (_packing), keyed by
    the opened vertices without support, and for an independent 0-class
    the clique-cover independence bound (_independence_lb), keyed by the
    opened vertices with a 0-neighbor, z & open.  These module functions
    read nothing of the search or the problem, so the memos sit in the plan
    rows and every search on the graph shares them: the five label problems
    one packing memo, and gamma_oidr, gamma_oir and the cover one clique
    memo.  The cover prunes on the clique bound alone.  A greedy matching
    on the same opened list, a forced 1 per key vertex plus one per matched
    edge, is a valid bound too, but a checked observation (not a proof)
    says it is never above the clique bound: every labeled graph with
    n <= 7 under all or seeded keys, which covers each search state with at
    most 7 opened vertices, and random graphs up to n = 40 (the matching is
    kept in tests/test_solver.py as the reference).  labels_012 and
    labels_10 bound the whole free set, so they add the sealed vertices
    with a 0-neighbor: for a key within free,
      _independence_lb(opened, key)
          = _independence_lb(opened, key & open) + |key & sealed|,
    since the bound reads key only through low & key of opened vertices,
    which lie in open, and through key.bit_count().  A memo returns the
    bound it replaces, so the searches see the same numbers in any order.
    The graph's memos keep at most _BOUND_MEMO_LIMIT entries in all: a
    search reads the room left at its start and writes it back at its end.
    Labels that share a key look it up at most once per call: labels 0 and
    1 leave hi (s1 below 3), labels 2 and 3 both set hi | m, and every label
    but 0 leaves z.  A leaf is an improvement and, in ascending order, ends
    the call, since the next label weighs more.  A child is called only when
    its weight plus its bound beats best, so it does not test its weight
    again on entry.

    gamma_oidr prunes on the packing and the clique bound together, the
    argument of the paper's lower bound gamma + beta.  Let C be the nonzero
    vertices and H those labeled 2 or 3.  A label x weighs at least
    [x >= 1] + [x >= 2], so weight(free) >= |C & free| + |H & free|.  The
    free set splits into sealed and opened vertices:
      sealed  no free neighbor, so its state is final: it is in C if it
              cannot be 0 and in H if it can be neither 0 nor 1, which is
              the 1 + 1 it already adds to the bound.
      opened  at least c of them are in C, c the clique bound keyed by the
              opened vertices with a 0-neighbor: 0-class independent, the
              other zeros fit in a clique cover.  At least p, the packing
              count, are in H: a packed vertex has no neighbor labeled 2 or
              3 yet, so it is one or its free closed neighborhood holds
              one, and that neighborhood lies within the opened vertices,
              disjoint from the other packed ones.
    So weight(free) >= sealed share + c + p.  A child is first tested on its
    weight + 2p + sealed share, which needs no clique lookup, then on that
    sum - p + c.  Both bounds are valid, so no path to the lex-first optimum
    is cut: the search visits a subset of the nodes that the two bounds
    taken apart would, and makes the same improvements in the same order.
    gamma_dr has no independent 0-class and no c: its bound stays
    weight + 2p + sealed share.

    Pendant groups.  At depth d a pendant group is a free support u with
    two or more free leaves, plus those leaves (_build_plan, from
    _GROUP_MIN_N vertices on).  A leaf sees only u, so whatever the labels
    outside a group, a valid labeling gives it at least its least weight:
    3 under double Roman rules (a 0-leaf forces u = 3, a 1-leaf u >= 2,
    else both leaves weigh 2 or more), sup in labels_012 (a 0-leaf forces
    u = sup, else both leaves weigh 1 or more), and 1 for the cover (the
    edge u l1).
    Groups are disjoint: a leaf has one support, and a support is no leaf.
    So weight(free) >= the groups' share + the weight off the groups, and
    the bounds above stay valid on the rest when no counted label lies in
    a group: the rows leave every free vertex of N[u] out of opened, so a
    packed closed neighborhood, which must hold the label the packing
    counts, misses the group; the cover rows leave out only the groups'
    vertices, since every vertex the clique bound counts lies in opened.
    A sealed vertex has no free neighbor, so it is in no group.  Each
    depth's memos hold the share of its g groups, which miss adds: g in
    packs, so labels_0123 reads 2g and the others g; 2g in the rows'
    cliques; g in the cover rows' own cliques.  Then gamma_oidr's sum counts
    2g - g + 2g = 3g, gamma_oir's clique bound 2g, gamma_dr's packing 2g,
    gamma_r's and gamma's g, and the cover's bound g: none above the least
    weights.  A valid bound only cuts subtrees, so by the argument of the
    module docstring every value and canonical witness stays as it was;
    only node counts move.
    """
    oi = prob.oi
    sup = prob.zero_mode  # the support label of labels_012
    entry = _search_plan(g)
    rows = entry[1]
    nodes = last = 0
    best = ub
    found: tuple[int, ...] | None = None
    path = [0] * g.n
    room = entry[5]

    def miss(memo: dict[int, int], bound, opened: list[tuple[int, int]], key: int) -> int:
        # a bound the memo lacks: compute it, and keep it while there is room
        nonlocal room
        b = bound(opened, key)
        if room:
            memo[key] = b
            room -= 1
        return b

    if entry[6] is not rows:
        def miss(memo: dict[int, int], bound, opened: list[tuple[int, int]], key: int) -> int:
            # the same plus the share the depth's memo holds (_add_groups).
            # A copy of its own: the lookup on every miss, in one miss for
            # all graphs, slows the searches on graphs with n < 8 (no group
            # rows, a miss per few nodes) by about 1.4 %
            nonlocal room
            b = bound(opened, key) + memo.get(_SHARE, 0)
            if room:
                memo[key] = b
                room -= 1
            return b

    def improve(wx: int) -> None:
        # a complete labeling: the search reaches one only below best
        nonlocal best, found, last
        best = wx
        found = tuple(path)
        last = nodes

    def labels_0123(depth: int, w: int, l0: int, l1: int, z: int, s1: int, hi: int,
                    ok0: int) -> None:
        # gamma_oidr (oi) and gamma_dr: a 0 needs ok0, a 1 needs hi
        nonlocal nodes
        bit, m, free, settled, sealed, opened, open_mask, packs, cliques = rows[depth]
        low = high = None  # the packings of labels 0-1 and of labels 2-3
        keep = None  # the clique bound of labels 1-3
        zeros = settled & l0
        ones = settled & l1
        # label 0
        if not (oi and bit & z):
            nz = z | m
            ok = ok0 & ~nz if oi else ok0
            if not ((zeros | settled & bit) & ~ok or ones & ~hi):
                nodes += 1
                path[depth] = 0
                if not free:
                    return improve(w)
                if (low := packs.get(key := open_mask & ~hi)) is None:
                    low = miss(packs, _packing, opened, key)
                lb = w + 2 * low
                if bad := sealed & ~ok:
                    lb += bad.bit_count() + (bad & ~hi).bit_count()
                if oi and lb < best:
                    if (c := cliques.get(key := nz & open_mask)) is None:
                        c = miss(cliques, _independence_lb, opened, key)
                    lb += c - low
                if lb < best:
                    labels_0123(depth + 1, w, l0 | bit, l1, nz, s1, hi, ok0)
        # label 1: the masks stay
        w1 = w + 1
        if w1 >= best:
            return
        ok = ok0 & ~z if oi else ok0
        if not (zeros & ~ok or (ones | settled & bit) & ~hi):
            nodes += 1
            path[depth] = 1
            if not free:
                return improve(w1)
            if low is None and (low := packs.get(key := open_mask & ~hi)) is None:
                low = miss(packs, _packing, opened, key)
            lb = w1 + 2 * low
            if bad := sealed & ~ok:
                lb += bad.bit_count() + (bad & ~hi).bit_count()
            if oi and lb < best:
                if keep is None and (keep := cliques.get(key := z & open_mask)) is None:
                    keep = miss(cliques, _independence_lb, opened, key)
                lb += keep - low
            if lb < best:
                labels_0123(depth + 1, w1, l0, l1 | bit, z, s1, hi, ok0)
        # label 2: a second 2-neighbor completes ok0 where s1 already is
        w2 = w + 2
        if w2 >= best:
            return
        hi2 = hi | m
        ok2 = ok0 | s1 & m
        ok = ok2 & ~z if oi else ok2
        if not (zeros & ~ok or ones & ~hi2):
            nodes += 1
            path[depth] = 2
            if not free:
                return improve(w2)
            if (high := packs.get(key := open_mask & ~hi2)) is None:
                high = miss(packs, _packing, opened, key)
            lb = w2 + 2 * high
            if bad := sealed & ~ok:
                lb += bad.bit_count() + (bad & ~hi2).bit_count()
            if oi and lb < best:
                if keep is None and (keep := cliques.get(key := z & open_mask)) is None:
                    keep = miss(cliques, _independence_lb, opened, key)
                lb += keep - high
            if lb < best:
                labels_0123(depth + 1, w2, l0, l1, z, s1 | m, hi2, ok2)
        # label 3
        w3 = w + 3
        if w3 >= best:
            return
        ok3 = ok0 | m
        ok = ok3 & ~z if oi else ok3
        if not (zeros & ~ok or ones & ~hi2):
            nodes += 1
            path[depth] = 3
            if not free:
                return improve(w3)
            if high is None and (high := packs.get(key := open_mask & ~hi2)) is None:
                high = miss(packs, _packing, opened, key)
            lb = w3 + 2 * high
            if bad := sealed & ~ok:
                lb += bad.bit_count() + (bad & ~hi2).bit_count()
            if oi and lb < best:
                if keep is None and (keep := cliques.get(key := z & open_mask)) is None:
                    keep = miss(cliques, _independence_lb, opened, key)
                lb += keep - high
            if lb < best:
                labels_0123(depth + 1, w3, l0, l1, z, s1, hi2, ok3)

    def labels_012(depth: int, w: int, l0: int, z: int, s1: int) -> None:
        # gamma_oir (oi), gamma_r and gamma: a 0 needs s1, a neighbor
        # labeled sup; gamma has no plain label 1
        nonlocal nodes
        bit, m, free, settled, sealed, opened, open_mask, packs, cliques = rows[depth]
        low = None  # the packing of labels 0-1
        keep = None if oi else 0  # the clique bound of labels 1-2
        zeros = settled & l0
        # label 0
        if not (oi and bit & z):
            nz = z | m
            ok = s1 & ~nz if oi else s1
            if not (zeros | settled & bit) & ~ok:
                nodes += 1
                path[depth] = 0
                if not free:
                    return improve(w)
                if (low := packs.get(key := open_mask & ~s1)) is None:
                    low = miss(packs, _packing, opened, key)
                if w + (sealed & ~ok).bit_count() + low < best:
                    c = 0
                    if oi:
                        if (c := cliques.get(key := nz & open_mask)) is None:
                            c = miss(cliques, _independence_lb, opened, key)
                        c += (nz & sealed).bit_count()
                    if w + c < best:
                        labels_012(depth + 1, w, l0 | bit, nz, s1)
        # label 1, the masks stay (for gamma the support, which weighs 1)
        w1 = w + 1
        if w1 >= best:
            return
        if sup == 2:
            ok = s1 & ~z if oi else s1
            if not zeros & ~ok:
                nodes += 1
                path[depth] = 1
                if not free:
                    return improve(w1)
                if low is None and (low := packs.get(key := open_mask & ~s1)) is None:
                    low = miss(packs, _packing, opened, key)
                if w1 + (sealed & ~ok).bit_count() + low < best:
                    if keep is None:
                        if (keep := cliques.get(key := z & open_mask)) is None:
                            keep = miss(cliques, _independence_lb, opened, key)
                        keep += (z & sealed).bit_count()
                    if w1 + keep < best:
                        labels_012(depth + 1, w1, l0, z, s1)
        # label sup, the support
        ws = w + sup
        if ws >= best:
            return
        s1 |= m
        ok = s1 & ~z if oi else s1
        if not zeros & ~ok:
            nodes += 1
            path[depth] = sup
            if not free:
                return improve(ws)
            if (p := packs.get(key := open_mask & ~s1)) is None:
                p = miss(packs, _packing, opened, key)
            if ws + (sealed & ~ok).bit_count() + p < best:
                if keep is None:
                    if (keep := cliques.get(key := z & open_mask)) is None:
                        keep = miss(cliques, _independence_lb, opened, key)
                    keep += (z & sealed).bit_count()
                if ws + keep < best:
                    labels_012(depth + 1, ws, l0, z, s1)

    def labels_10(depth: int, w: int, l0: int, z: int) -> None:
        # the vertex cover, 1 before 0: a 0 needs no 0-neighbor
        nonlocal nodes
        bit, m, free, settled, sealed, opened, open_mask, _, cliques = rows[depth]
        zeros = settled & l0
        # label 1: the masks stay
        w1 = w + 1
        if w1 < best and not zeros & z:
            nodes += 1
            path[depth] = 1
            if not free:
                improve(w1)  # a 0 here weighs less and may improve again
            else:
                if (c := cliques.get(key := z & open_mask)) is None:
                    c = miss(cliques, _independence_lb, opened, key)
                if w1 + (sealed & z).bit_count() + c < best:
                    labels_10(depth + 1, w1, l0, z)
        # label 0
        if w >= best or bit & z:
            return
        nz = z | m
        if not (zeros | settled & bit) & nz:
            nodes += 1
            path[depth] = 0
            if not free:
                return improve(w)
            if (c := cliques.get(key := nz & open_mask)) is None:
                c = miss(cliques, _independence_lb, opened, key)
            if w + (sealed & nz).bit_count() + c < best:
                labels_10(depth + 1, w, l0 | bit, nz)

    if prob.base == 4:
        labels_0123(0, 0, 0, 0, 0, 0, 0, 0)
    elif sup:
        labels_012(0, 0, 0, 0, 0)
    else:
        rows = entry[6]
        labels_10(0, 0, 0, 0)
    entry[5] = room
    return best, found, nodes, nodes - last


def _certified(g: Graph, name: str, run: tuple) -> SolveResult | None:
    # the invariant's result from a _branch_and_bound run, its witness
    # checked by the row's predicate; None if the run beat no incumbent
    value, wit, nodes, proof = run
    if wit is None:
        return None
    value, wit = _read_off(g, name, value, wit)
    lab = Labeling(wit)
    if weight(lab) != value or not is_feasible(name, g, lab):
        raise CertificationError(f"{name} witness {lab.to_text()} is not a valid labeling "
                                 f"of weight {value}")
    return SolveResult(value, lab, nodes, proof_node_count=proof)


def _solve_below(name: str, g: Graph, bound: int) -> SolveResult | None:
    """The invariant's certified result on g, value and canonical witness,
    if its problem has a labeling that weighs less than bound; else None.
    For alpha the bound is on the cover it is read off.

    One search from the incumbent bound.  The witness is the canonical one
    whatever the bound above the optimum, by the argument of the module
    docstring, so a claim that only needs to know whether the value lies
    below a bound pays for no descent from a looser incumbent, and for no
    proof above the bound.  The run shares the graph's plan and bound memos,
    which are exact, but it is not kept as the problem's session result, so
    a later solve on g searches as it would have without it."""
    return _certified(g, name, _branch_and_bound(g, INVARIANTS[name][0], bound))


def _solve_min(name: str, g: Graph) -> SolveResult:
    # the search below an achievable weight plus one, so that an optimal one
    # is still met.  The run is kept beside the plan, so each problem is
    # searched once per graph
    prob = INVARIANTS[name][0]
    runs = _search_plan(g)[4]
    run = runs.get(prob)
    if run is None:
        run = runs[prob] = _branch_and_bound(g, prob, _initial_ub(g, prob) + 1)
    res = _certified(g, name, run)
    if res is None:
        raise CertificationError(f"search found no labeling below its incumbent {run[0]}")
    return res


def solve_oidrd(g: Graph, *, count_optimal: bool = False) -> SolveResult:
    """Exact outer independent double Roman domination number with witness."""
    if count_optimal:
        _check_brute_cap(g)  # before the search, which can take long above the cap
    res = _solve_min("gamma_oidr", g)
    if count_optimal:
        n_opt = sum(1 for _ in _iter_optimal_indices(g, _OIDR, res.value))
        return replace(res, optimal_count=n_opt)
    return res


def solve_gamma_dr(g: Graph) -> SolveResult:
    """Exact double Roman domination number with witness."""
    return _solve_min("gamma_dr", g)


def solve_gamma_oir(g: Graph) -> SolveResult:
    """Exact outer independent Roman domination number with witness."""
    return _solve_min("gamma_oir", g)


def solve_gamma_r(g: Graph) -> SolveResult:
    """Exact Roman domination number with witness."""
    return _solve_min("gamma_r", g)


def solve_gamma(g: Graph) -> SolveResult:
    """Exact domination number; witness is the 0/1 indicator of the set."""
    return _solve_min("gamma", g)


def solve_beta(g: Graph) -> SolveResult:
    """Exact vertex cover number; witness is the lex-largest minimum cover."""
    return _solve_min("beta", g)


def solve_alpha(g: Graph) -> SolveResult:
    """Exact independence number, n - beta; witness is the complement of the
    beta witness, i.e. the lex-smallest maximum independent set."""
    return _solve_min("alpha", g)


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
    cover_labeling = 3 * b.beta + 2 * g.nbr_masks.count(0)
    if b.gamma_oidr > cover_labeling:
        raise CertificationError(f"gamma_oidr = {b.gamma_oidr} > 3 beta + 2 (isolated) "
                                 f"= {cover_labeling}")
    if b.gamma_dr > b.gamma_oidr:
        raise CertificationError(f"gamma_dr = {b.gamma_dr} > gamma_oidr = {b.gamma_oidr}")
    if b.gamma_oir >= b.gamma_oidr:
        raise CertificationError(f"gamma_oir = {b.gamma_oir} >= gamma_oidr = {b.gamma_oidr}")
    return b


# the engine route of each INVARIANTS row, in the same order
SOLVERS = {name: partial(_solve_min, name) for name in INVARIANTS}


# ---------------------------------------------------------------------------
# Full-enumeration oracles (independent of the engine above)
#
# The base^n labelings are indexed in lex order, vertex 0 most significant,
# and a set of labelings is a Python int whose bit i is labeling i.
# planes[v][x] is the set where v is labeled x, and weights[w] the set of
# labelings of weight w.  Each vertex's constraint is one column built with
# bitwise ops from the planes of v and its neighbours (_column); a graph's
# valid set is the AND of its n columns.  While base^n <= _MEMO_LIMIT and
# the scan is one chunk, columns are memoized per (problem, n, v,
# neighbourhood mask); a chunk's columns hold for that chunk only.  Above
# _CACHE_LIMIT labelings the scan runs in chunks: the cached tables of the
# last k vertices under each fixed prefix of the first n - k labels, whose
# vertices get constant planes, so the same kernel runs in every chunk.
# ---------------------------------------------------------------------------

# seeded with the tables of no vertices: one labeling, of weight 0
_table_cache: dict[tuple[int, int], tuple[list, list[int]]] = {(b, 0): ([], [1]) for b in (2, 3, 4)}
_column_memo: dict[tuple[_Problem, int], dict[tuple[int, int], int]] = {}


def _tables(base: int, n: int) -> tuple[list, list[int]]:
    """(planes, weights) of the base^n labelings, built from the tables of
    the last n - 1 vertices: the labelings with vertex 0 labeled x are block
    x, those tables shifted up by x base^(n-1)."""
    t = _table_cache.get((base, n))
    if t is None:
        planes, weights = _tables(base, n - 1)
        size = base ** (n - 1)
        shifts = [x * size for x in range(base)]
        # the blocks are disjoint, so each sum is their union; a labeling of
        # weight w in block x has weight w - x in the smaller table
        t = _table_cache[(base, n)] = (
            [tuple(((1 << size) - 1) << sh for sh in shifts)]
            + [tuple(sum(p << sh for sh in shifts) for p in pv) for pv in planes],
            [sum(weights[w - x] << shifts[x] for x in range(base) if 0 <= w - x < len(weights))
             for w in range(len(weights) + base - 1)])
    return t


def _chunks(base: int, n: int) -> Iterator[tuple[int, list, list[int], int, int]]:
    """All base^n labelings in lex order, as (index of the first, planes,
    weights, weight offset, full set) chunks: the cached tables of the last
    k vertices under each fixed prefix of the first n - k labels.  A prefix
    vertex labeled d gets the constant planes, the full set for d and the
    empty set for every other label; the offset is the prefix's weight.
    While base^n <= _CACHE_LIMIT there is no prefix, and the one chunk is
    the cached tables themselves, which callers only read."""
    k = n
    while base ** k > _CACHE_LIMIT:
        k -= 1
    planes, weights = _tables(base, k)
    full = (1 << base ** k) - 1
    if k == n:
        yield 0, planes, weights, 0, full
        return
    constant = [tuple(full if x == d else 0 for x in range(base)) for d in range(base)]
    for p in range(base ** (n - k)):
        prefix = _decode(p, base, n - k)
        yield p * base ** k, [constant[d] for d in prefix] + planes, weights, sum(prefix), full


def _column(prob: _Problem, planes: list, full: int, v: int, nbrs) -> int:
    """The labelings that meet v's constraint, from the planes of v and of
    its neighbours nbrs; full is the set of all labelings."""
    zmode = prob.zero_mode
    one = two = three = zeros = 0
    for w in nbrs:
        pw = planes[w]
        if prob.oi:
            zeros |= pw[0]
        if zmode == 3:
            # running accumulators: some / at least two neighbours labeled 2
            two |= one & pw[2]
            one |= pw[2]
            three |= pw[3]
        elif zmode:
            one |= pw[zmode]  # the label a 0 needs next to it
    # a 0 needs its zero_mode support and, with oi, no neighbour labeled 0
    ok0 = (three | two) if zmode == 3 else one if zmode else full
    if prob.oi:
        ok0 &= full ^ zeros
    col = (full ^ planes[v][0]) | ok0
    if zmode == 3:
        # a 1 needs a neighbour labeled 2 or 3
        col &= (full ^ planes[v][1]) | one | three
    return col


def _scan(g: Graph, prob: _Problem) -> Iterator[tuple[int, int, list[int], int]]:
    """(index of the first labeling, valid set, weights, weight offset) for
    each chunk of the base^n labelings of g, in lex order."""
    n = g.n
    one_chunk = prob.base ** n <= min(_MEMO_LIMIT, _CACHE_LIMIT)
    memo = _column_memo.setdefault((prob, n), {}) if one_chunk else None
    nbrs = None if one_chunk else [bits(mask) for mask in g.nbr_masks]
    for start, planes, weights, offset, full in _chunks(prob.base, n):
        valid = full
        for v, mask in enumerate(g.nbr_masks):
            if memo is None:
                col = _column(prob, planes, full, v, nbrs[v])
            else:
                col = memo.get((v, mask))
                if col is None:
                    col = memo[(v, mask)] = _column(prob, planes, full, v, bits(mask))
            valid &= col
        yield start, valid, weights, offset


def _decode(idx: int, base: int, n: int) -> tuple[int, ...]:
    return tuple(idx // base ** (n - 1 - v) % base for v in range(n))


def _brute_min(g: Graph, prob: _Problem) -> tuple[int, tuple[int, ...]]:
    """Scan all base^n labelings in lexicographic order; return the minimum
    weight and the first labeling attaining it, or for the cover the last,
    the lex-largest minimum cover that the engine's 1-before-0 search keeps."""
    last = not prob.zero_mode
    best: int | None = None
    best_idx = -1
    for start, valid, weights, offset in _scan(g, prob):
        # the chunk's least weight, and its lowest (cover: highest) labeling
        # of that weight; a later chunk holds higher labelings
        w = next((w for w, s in enumerate(weights) if s & valid), None)
        if w is not None and (best is None or w + offset < best
                              or last and w + offset == best):
            hit = weights[w] & valid
            best, best_idx = w + offset, start + (hit if last else hit & -hit).bit_length() - 1
    if best is None:
        raise CertificationError("full enumeration found no valid labeling")
    return best, _decode(best_idx, prob.base, g.n)


def _iter_optimal_indices(g: Graph, prob: _Problem, value: int) -> Iterator[int]:
    for start, valid, weights, offset in _scan(g, prob):
        hit = valid & weights[value - offset] if 0 <= value - offset < len(weights) else 0
        while hit:  # the set bits, ascending
            low = hit & -hit
            yield start + low.bit_length() - 1
            hit ^= low


def _check_brute_cap(g: Graph) -> None:
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"full enumeration capped at n <= {BRUTE_FORCE_CAP}, got n = {g.n}")


def _brute_result(name: str, g: Graph) -> SolveResult:
    prob = INVARIANTS[name][0]
    _check_brute_cap(g)
    value, wit = _read_off(g, name, *_brute_min(g, prob))
    return SolveResult(value, Labeling(wit), node_count=prob.base ** g.n)


def brute_force_oidrd(g: Graph) -> SolveResult:
    """Oracle twin of solve_oidrd: full scan of 4^n labelings, n <= 12."""
    return _brute_result("gamma_oidr", g)


# the full scan of each row's problem, read off like the engine's result;
# callers look entries up when they call, so one can be swapped
BRUTE_SOLVERS = {name: partial(_brute_result, name) for name in INVARIANTS}
brute_force_alpha = BRUTE_SOLVERS["alpha"]


def _optimal_labelings(g: Graph, prob: _Problem) -> Iterator[Labeling]:
    # every optimum of prob itself, ascending: no row's read-off applies
    _check_brute_cap(g)
    value, _ = _brute_min(g, prob)
    for idx in _iter_optimal_indices(g, prob, value):
        yield Labeling(_decode(idx, prob.base, g.n))


def enumerate_optimal_oidrd(g: Graph) -> Iterator[Labeling]:
    """All optimal OIDRD labelings in lexicographic order (n <= 12)."""
    return _optimal_labelings(g, _OIDR)


def enumerate_optimal_oir(g: Graph) -> Iterator[Labeling]:
    """All optimal outer independent Roman labelings in lexicographic order (n <= 12)."""
    return _optimal_labelings(g, _OIR)
