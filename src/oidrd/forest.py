"""Linear-time, value-only routes for gamma_oidr and beta on forests.

This is a third exact route, independent of the branch-and-bound engine and
the full-enumeration oracle in solver.py: it reads nothing but the graph.
One children-first pass computes both values, one lookup per edge in one
product transition table.  _forest_routes peels leaves off a graph's
neighbour masks, and _prufer_offsets runs the same pass while it decodes
Prufer sequences.  A leaf closes into its one remaining neighbour, its
parent, with its state final; a vertex left with no neighbour is the last of
its component, its root.  Any such order is children-first, so the values do
not depend on which leaf goes first.

beta: by Konig's theorem the vertex cover number equals the maximum matching,
which greedy matching of leaves to their parents attains when every vertex
is taken after its children.

gamma_oidr: each vertex v carries the minimum weight of its subtree for seven
states of v, given the labels of its children only:
  Z0, Z1, Z2  label 0 with no 2- or 3-child, with exactly one 2-child and no
              3-child, or already satisfied (a 3-child or two 2-children)
  O0, O1      label 1 without / with a child labeled 2 or 3
  T, H        label 2, label 3
A child closes into its parent by _merge, and a root has no parent, so only
Z2, O1, T and H are final there.  The pass runs this program as a finite
automaton.  A vertex's costs are an offset plus a normalised vector
(_normalised: clipped, less its minimum), interned as a state id.  Offsets
only flow into the root's, so one running sum holds them all.  Two facts make
this exact and bounded:
- Min-plus linearity.  Every merged entry is one parent entry plus a min over
  child entries, so merging vectors shifted by a and b gives the merge
  shifted by a + b: a move is determined by the normalised vectors alone.
- Clipping.  H accepts every parent label and gives the parent all any other
  state could, a nonzero label and a 3-neighbor.  So replacing the subtree's
  labeling by its best H-labeling stays valid and only moves the parent to a
  better bucket (Z0/Z1 to Z2, O0 to O1), and any other state costing at
  least H can be dropped.  This holds on partial vectors too, because a later
  child adds at least its minimum to every state and exactly that to H.
  Since H is at most the minimum plus 3, every kept relative cost lies in
  0..3.
The closure of the leaf vector under _merge and normalisation has 99 states.

The table is that automaton times the matched bit m of greedy leaf matching:
a product id is 2 s + m, for automaton state s, so there are at most 2 * 99
ids and (2 * 99)^2 moves.  A child with bit c closing into a parent with bit
m is matched to it iff both are free, both ids even, which adds 1 to beta,
and leaves the parent matched iff it was or the child is free.  A move in
_PAIR_MOVES maps (parent id, child id) to (the next id, the increment of the
offset e), where e sums the gamma_oidr increments less twice the beta
increments; _close_pair computes a missing move, so the table is a memo and
no result depends on what it holds.  So gamma_oidr - 2 beta of a tree is e
plus _ROOT of its root's state, which scores the tree bound
gamma_oidr >= 2 beta + 1: the tree meets it with equality iff that is 1.
This is exact because the matching rule is: a vertex's bit once its children
are in is the OR of their free bits, and it gains one beta increment iff some
child is free, so neither depends on the order in which the children close
in, and greedy leaf matching is maximum in any children-first order.  The
product therefore folds what the two rules give apart.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, GraphError

# A cost vector holds the seven states in the order Z0, Z1, Z2, O0, O1, T, H,
# with _INF for a state out of reach.
_INF = float("inf")
_LEAF = (0, _INF, _INF, 1, _INF, 2, 3)  # a vertex before any child closes in


def _merge(p: tuple, c: tuple) -> tuple:
    """The cost vector of a vertex with vector p once a child with vector c
    closes into it: the min-plus algebra that holds every rule of the forest
    program.  The parent's label closes each child's state: Z0 needs a parent
    labeled 3, Z1 and O0 a parent labeled 2 or 3, and no 0 may have a parent
    labeled 0."""
    pz0, pz1, pz2, po0, po1, pt, ph = p
    z0, z1, z2, o0, o1, t, h = c
    low = min(z2, o1)  # final without the parent
    high = min(t, h)  # labeled 2 or 3
    return (
        # parent labeled 0: the child is O1, T or H
        pz0 + o1,
        min(pz1 + o1, pz0 + t),
        min(pz2 + min(o1, high), pz1 + high, pz0 + h),
        # parent labeled 1: the child is Z2 or O1, or supports it with T or H
        po0 + low,
        min(po1 + min(low, high), po0 + high),
        # parent labeled 2 closes everything but Z0; labeled 3, everything
        pt + min(z1, o0, low, high),
        ph + min(z0, z1, o0, low, high),
    )


def _normalised(x: tuple) -> tuple[tuple, int]:
    """x with every state that costs at least H dropped, less its minimum;
    and that minimum."""
    h = x[6]
    kept = (*(c if c < h else _INF for c in x[:6]), h)
    least = min(kept)
    return tuple(c - least for c in kept), least


# Filled by _intern: the normalised vectors met so far, the leaf's first, and
# their ids, and per state the least weight it leaves at a root.  Filled by
# _close_pair: per product id 2 s + m, for state s and matched bit m, its
# moves, a dict from the product id of a child closing in to (the merged
# product id, the increment of the offset e).
_STATES: list[tuple] = []
_STATE_IDS: dict[tuple, int] = {}
_ROOT: list[int] = []
_PAIR_MOVES: list[dict[int, tuple[int, int]]] = []


def _intern(x: tuple) -> int:
    s = _STATE_IDS.get(x)
    if s is None:
        s = _STATE_IDS[x] = len(_STATES)
        _STATES.append(x)
        _ROOT.append(min(x[2], x[4], x[5], x[6]))
        _PAIR_MOVES.extend(({}, {}))
    return s


_intern(_LEAF)


def _close_pair(a: int, b: int) -> tuple[int, int]:
    """The product move of product id a when a child with product id b closes
    into it, tabled: the automaton's move on the states, and greedy leaf
    matching on the bits, which matches a free child to a free parent."""
    merged, least = _normalised(_merge(_STATES[a >> 1], _STATES[b >> 1]))
    matched, child_matched = a & 1, b & 1
    taken = not (matched or child_matched)
    move = _PAIR_MOVES[a][b] = (2 * _intern(merged) + (matched or not child_matched),
                                least - 2 * taken)
    return move


def _forest_routes(g: Graph) -> tuple[int, int]:
    """(beta, gamma_oidr) of the forest g, peeling leaves off its neighbour
    masks and closing each into its parent by one product move.  A vertex is
    pushed once, when its remaining mask first has at most one bit; a vertex
    whose mask empties had one bit before, so it is already pushed.  Raises
    GraphError unless every vertex peels, i.e. g is a forest."""
    masks = list(g.nbr_masks)
    leaves = [v for v, mask in enumerate(masks) if not mask & (mask - 1)]
    state = [0] * g.n  # the free leaf, until a child closes in
    moves = _PAIR_MOVES
    beta = e = peeled = 0
    while leaves:
        v = leaves.pop()
        peeled += 1
        mask = masks[v]
        sc = state[v]
        if not mask:
            e += _ROOT[sc >> 1]
            continue
        p = mask.bit_length() - 1
        sp = state[p]
        beta += not (sp | sc) & 1  # a free child matches a free parent
        try:
            state[p], inc = moves[sp][sc]
        except KeyError:
            state[p], inc = _close_pair(sp, sc)
        e += inc
        rest = masks[p] = masks[p] ^ (1 << v)
        if rest and not rest & (rest - 1):
            leaves.append(p)
    if peeled < g.n:
        raise GraphError(f"not a forest: {g.n - peeled} of {g.n} vertices are left "
                         f"on or between cycles once every leaf is peeled")
    return beta, e + 2 * beta


def _prufer_offsets(n: int, first_seq: Sequence[int], count: int) -> list[int]:
    """gamma_oidr - 2 beta of count labeled trees on n vertices, those whose
    Prufer sequences run in lexicographic order from first_seq (a tuple or
    bytes) on.  Unchecked, for speed: n >= 1, first_seq as
    graphs.prufer_sequences(n) yields it, and count at most the sequences
    left from it; graphs.prufer_decode checks a sequence.

    Each tree costs one decoding pass.  Root the tree at n - 1, the last
    vertex left; a leaf's parent is the vertex it is joined to when it is
    removed.  The leaf-removal order, then n - 1, is children-first, so one
    lookup in the product table per edge scores the tree, and no graph is
    built.  A removed leaf is never read again, so its degree is not cleared:
    the smallest-leaf pointer steps past each leaf it takes.  Between trees
    the sequence turns like an odometer, last entry fastest, and the degree
    list follows each entry it changes instead of being recounted.
    """
    if n == 1:
        return [_ROOT[0]] * count
    walk = [*first_seq, n - 1]
    deg = [1] * n
    for s in first_seq:
        deg[s] += 1
    moves = _PAIR_MOVES
    root = n - 1
    offsets = []
    for _ in range(count):
        left = deg[:]  # decoding spends the degrees
        state = [0] * n  # the free leaf, until a child closes in
        e = ptr = 0
        leaf = -1
        # as in graphs.prufer_decode, the appended n - 1 attaches the last leaf
        # but one to the root
        for p in walk:
            if leaf < 0:
                while left[ptr] != 1:
                    ptr += 1
                leaf = ptr
                ptr += 1
            sp = state[p]
            try:
                state[p], inc = moves[sp][state[leaf]]
            except KeyError:
                state[p], inc = _close_pair(sp, state[leaf])
            e += inc
            d = left[p] = left[p] - 1
            leaf = p if d == 1 and p < ptr else -1
        offsets.append(e + _ROOT[state[root] >> 1])
        i = n - 3  # the last entry; an order-2 sequence has none
        while i >= 0:
            s = walk[i]
            deg[s] -= 1
            if s < root:
                walk[i] = s + 1
                deg[s + 1] += 1
                break
            walk[i] = 0
            deg[0] += 1
            i -= 1
    return offsets


def tree_oidrd(g: Graph) -> int:
    """gamma_oidr of a forest by a bottom-up dynamic program, O(n)."""
    return _forest_routes(g)[1]


def tree_beta(g: Graph) -> int:
    """Vertex cover number of a forest by leaf matching, O(n)."""
    return _forest_routes(g)[0]
