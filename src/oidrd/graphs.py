"""Simple undirected graphs: construction, named families, enumeration, text I/O.

Vertices are always dense integer indices 0..n-1.  Every named family
documents its vertex numbering so that witness labelings are reproducible.
The value-4 and value-5 families G1..G3 and H1..H6 are the rows of one
table, ANCHORED, which the builders here and the recognizers in
characterize both read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class GraphError(ValueError):
    """Malformed graph input or violated family constraint."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph, stored as one neighbour bitmask per vertex:
    bit w of nbr_masks[v] is set iff w ~ v.  The masks are symmetric with no
    self-loop bit, and m is half their total popcount.  bits(nbr_masks[v])
    lists the neighbours of v."""

    n: int
    nbr_masks: tuple[int, ...]
    m: int

    def degree(self, v: int) -> int:
        return self.nbr_masks[v].bit_count()

    @property
    def max_degree(self) -> int:
        return max(mask.bit_count() for mask in self.nbr_masks)

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, ascending."""
        return [(u, v) for u, mask in enumerate(self.nbr_masks) for v in bits(mask) if u < v]

    def __reduce__(self):
        # the three fields as constructor arguments: a smaller pickle than
        # the default, which also carries the instance dict and field names
        return Graph, (self.n, self.nbr_masks, self.m)


def bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph on n vertices.

    Duplicate edges (in either orientation) are merged silently; self-loops
    and out-of-range endpoints are rejected.
    """
    if n < 1:
        raise GraphError(f"vertex count must be at least 1, got {n}")
    nbr = [0] * n
    m = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range 0..{n - 1}: ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop rejected: ({u}, {v})")
        if not nbr[u] >> v & 1:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            m += 1
    return Graph(n, tuple(nbr), m)


def _connected(nbr: Sequence[int]) -> bool:
    """Whether the graph with neighbour masks nbr is connected, by a
    breadth-first search from vertex 0 over the masks."""
    seen = frontier = 1
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(nbr)) - 1


def is_connected(g: Graph) -> bool:
    return _connected(g.nbr_masks)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def path(n: int) -> Graph:
    """P_n with vertices 0..n-1 in path order."""
    if n < 1:
        raise GraphError("path requires n >= 1")
    return build(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """C_n with vertices 0..n-1 in cycle order."""
    if n < 3:
        raise GraphError("cycle requires n >= 3")
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete requires n >= 1")
    return build(n, combinations(range(n), 2))


def empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    if n < 1:
        raise GraphError("empty requires n >= 1")
    return build(n, [])


def star(leaves: int) -> Graph:
    """K_{1,leaves}: center 0, leaves 1..leaves."""
    if leaves < 1:
        raise GraphError("star requires at least 1 leaf")
    return build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def double_star(a: int, b: int) -> Graph:
    """S_{a,b}: centers 0 and 1 adjacent; leaves of 0 are 2..a+1, of 1 are a+2..a+b+1."""
    if a < 1 or b < 1:
        raise GraphError("double_star requires a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return build(2 + a + b, edges)


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: first part 0..m-1, second part m..m+n-1."""
    if m < 1 or n < 1:
        raise GraphError("complete_bipartite requires m, n >= 1")
    return build(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive index blocks in the given order."""
    sizes = list(parts)
    if len(sizes) < 2 or any(p < 1 for p in sizes):
        raise GraphError("complete_multipartite requires k >= 2 parts, each of size >= 1")
    offsets = [0]
    for p in sizes:
        offsets.append(offsets[-1] + p)
    n = offsets[-1]
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(offsets[i], offsets[i + 1]):
                for v in range(offsets[j], offsets[j + 1]):
                    edges.append((u, v))
    return build(n, edges)


class Anchored(NamedTuple):
    """One family of the value-4 and value-5 characterization.  Anchors
    0..k-1 are joined by `edges`; then come the blocks, in parameter order,
    numbered consecutively from k, and every vertex of a block is adjacent to
    exactly that block's anchor subset.  `rules` maps each subcase ("none"
    for a family without subcases) to the condition its block sizes must
    meet, in the order recognition tries them."""

    name: str
    value: int
    k: int
    edges: tuple[tuple[int, int], ...]
    blocks: tuple[tuple[int, ...], ...]
    rules: dict[str, Callable[..., bool]]

    @property
    def subcases(self) -> tuple[str, ...]:
        return tuple(sub for sub in self.rules if sub != "none")


_PATH = ((0, 1), (1, 2))  # a-b-c

# the one definition of G1..G3 and H1..H6, for the builders and the
# recognizers alike; anchors are a, b, c and a block is named by its subset
ANCHORED: dict[str, Anchored] = {
    # G1: k >= 1 common neighbors of the edge ab, and at least one leaf on a
    "g1": Anchored("G1", 4, 2, ((0, 1),), ((0, 1), (0,)),
                   {"none": lambda ab, a: ab >= 1 and a >= 1}),
    "g2": Anchored("G2", 4, 2, ((0, 1),), ((0, 1),), {"none": lambda ab: ab >= 1}),
    "g3": Anchored("G3", 4, 2, (), ((0, 1),), {"none": lambda ab: ab >= 2}),
    "h1": Anchored("H1", 5, 3, _PATH, ((0, 1, 2), (0, 1), (1, 2), (1,)), {
        "a1": lambda abc, ab, bc, b: ab == 0 and bc == 0 and abc >= 2,
        "b1": lambda abc, ab, bc, b: (ab == 0) != (bc == 0) and abc >= 1,
        "c1": lambda abc, ab, bc, b: ab >= 1 and bc >= 1}),
    "h2": Anchored("H2", 5, 3, ((0, 1), (0, 2), (1, 2)), ((0, 1, 2), (0, 1), (1, 2), (1,)), {
        "a2": lambda abc, ab, bc, b: abc >= 1,
        "b2": lambda abc, ab, bc, b: ab >= 1 and bc >= 1}),
    "h3": Anchored("H3", 5, 2, (), ((0,), (0, 1)), {"none": lambda a, ab: a >= 1 and ab >= 1}),
    # H4: a adjacent to neither end of the edge bc
    "h4": Anchored("H4", 5, 3, ((1, 2),), ((0, 1, 2), (0, 1)), {
        "a4": lambda abc, ab: ab == 0 and abc >= 2,
        "b4": lambda abc, ab: ab >= 1}),
    "h5": Anchored("H5", 5, 3, _PATH, ((0, 1, 2), (0, 1)), {
        "a5": lambda abc, ab: ab >= 1 and abc >= 1,
        "b5": lambda abc, ab: ab == 0 and abc >= 2}),
    "h6": Anchored("H6", 5, 3, _PATH, ((0, 1, 2), (0, 2)), {
        "a6": lambda abc, ac: ac >= 1 and abc >= 1,
        "b6": lambda abc, ac: ac == 0 and abc >= 2}),
}


def anchored(tag: str, *args) -> Graph:
    """Build the ANCHORED family `tag` from its subcase, if it has subcases,
    then its block sizes; trailing blocks left out are empty, and a negative
    size is rejected."""
    fam = ANCHORED[tag]
    sub, sizes = (args[0], args[1:]) if fam.subcases else (None, args)
    _checked(FamilySpec(tag, sizes, sub))
    rule = fam.rules.get(sub or "none")
    if rule is None:
        raise GraphError(f"unknown {tag} subcase: {sub!r}")
    sizes += (0,) * (len(fam.blocks) - len(sizes))
    names = [f"V_{''.join('abc'[i] for i in block)}" for block in fam.blocks]
    for name, size in zip(names, sizes):
        if size < 0:
            raise GraphError(f"{tag} block {name} has negative size {size}")
    if not rule(*sizes):
        named = ", ".join(f"{name}={size}" for name, size in zip(names, sizes))
        where = f" subcase {sub}" if sub else ""
        raise GraphError(f"{tag}{where} rejects the block sizes {named}")
    edges, n = list(fam.edges), fam.k
    for block, size in zip(fam.blocks, sizes):
        for u in range(n, n + size):
            edges += [(a, u) for a in block]
        n += size
    return build(n, edges)


# e.g. g1(k, leaves), h1("a1", n_abc, n_ab, n_bc, n_b), h3(n_a, n_ab)
g1, g2, g3, h1, h2, h3, h4, h5, h6 = (partial(anchored, tag) for tag in
                                      ("g1", "g2", "g3", "h1", "h2", "h3", "h4", "h5", "h6"))


def sharpness_h(m: Iterable[int]) -> Graph:
    """Lower-bound sharpness graph built from t >= 3 blocks.

    Block i (sizes m[i] >= 2) occupies a consecutive index range: x_i, y_i,
    z_i, then the m[i] large-part vertices of a K_{2,m_i} whose small part is
    {x_i, y_i}; z_i is adjacent to x_i and y_i, and the z_i form a cycle.
    """
    sizes = list(m)
    t = len(sizes)
    if t < 3:
        raise GraphError("sharpness_h requires t >= 3 blocks (cycle on the z_i)")
    if any(mi < 2 for mi in sizes):
        raise GraphError("sharpness_h requires every m_i >= 2")
    edges = []
    z = []
    off = 0
    for mi in sizes:
        x, y, zi = off, off + 1, off + 2
        z.append(zi)
        for j in range(mi):
            big = off + 3 + j
            edges += [(x, big), (y, big)]
        edges += [(zi, x), (zi, y)]
        off += 3 + mi
    for i in range(t):
        edges.append((z[i], z[(i + 1) % t]))
    return build(off, edges)


def corona(g: Graph, h: Graph) -> Graph:
    """Corona of g with h on g.n * (1 + h.n) vertices.

    g keeps indices 0..g.n-1; copy i of h occupies the contiguous block
    g.n + i*h.n .. g.n + (i+1)*h.n - 1, and vertex i of g is adjacent to
    every vertex of copy i.
    """
    edges = list(g.edges())
    for i in range(g.n):
        base = g.n + i * h.n
        for (u, v) in h.edges():
            edges.append((base + u, base + v))
        for j in range(h.n):
            edges.append((i, base + j))
    return build(g.n * (1 + h.n), edges)


def gadget(g: Graph) -> Graph:
    """Hardness gadget on 4n vertices: attach to each vertex v_i the center
    u_i of a fresh 3-vertex path.

    Base vertices keep 0..n-1; u_i = n + i; the two leaves of u_i are
    2n + 2i and 2n + 2i + 1.
    """
    n = g.n
    edges = list(g.edges())
    for i in range(n):
        u = n + i
        edges += [(i, u), (u, 2 * n + 2 * i), (u, 2 * n + 2 * i + 1)]
    return build(4 * n, edges)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its parameters, or a wrapper plus its inner specs."""

    tag: str
    params: tuple[int, ...] = ()
    subcase: str | None = None
    inner: tuple["FamilySpec", ...] = ()


@dataclass(frozen=True)
class _Family:
    """What the DSL knows of one tag.  A plain family takes least..most
    parameters after its subcase, if it has subcases (most None: any
    number); its order is `extra` plus each size parameter's value plus
    `per_param` per parameter.  A wrapper takes `inner` specs instead, and
    `order` gives its order from theirs."""

    builder: Callable[..., Graph]
    least: int = 0
    most: int | None = None
    extra: int = 0
    per_param: int = 0
    subcases: tuple[str, ...] = ()
    inner: int = 0
    order: Callable[..., int] | None = None


# the one list of DSL tags, in the order `oidrd --help` shows them
FAMILIES: dict[str, _Family] = {
    "path": _Family(path, 1, 1),
    "cycle": _Family(cycle, 1, 1),
    "complete": _Family(complete, 1, 1),
    "empty": _Family(empty, 1, 1),
    "star": _Family(star, 1, 1, extra=1),
    "dstar": _Family(double_star, 2, 2, extra=2),
    "double_star": _Family(double_star, 2, 2, extra=2),
    "kbipartite": _Family(complete_bipartite, 2, 2),
    "kpartite": _Family(lambda *parts: complete_multipartite(parts)),
    # a family with subcases may leave out trailing blocks; one without takes them all
    **{tag: _Family(partial(anchored, tag), 1 if fam.subcases else len(fam.blocks),
                    len(fam.blocks), extra=fam.k, subcases=fam.subcases)
       for tag, fam in ANCHORED.items()},
    # each block adds x_i, y_i, z_i to its m_i large-part vertices
    "sharph": _Family(lambda *m: sharpness_h(m), per_param=3),
    "corona": _Family(corona, inner=2, order=lambda g, h: g * (1 + h)),
    "gadget": _Family(gadget, inner=1, order=lambda g: 4 * g),
}


def _checked(spec: FamilySpec) -> _Family:
    """The registry entry of spec.tag, once the spec's arity and subcase fit it."""
    fam = FAMILIES.get(spec.tag)
    if fam is None:
        raise GraphError(f"unknown family tag: {spec.tag!r}")
    if fam.inner:
        if len(spec.inner) != fam.inner:
            raise GraphError(f"{spec.tag} spec needs exactly {('one', 'two')[fam.inner - 1]} "
                             f"inner spec{'s' if fam.inner > 1 else ''}")
        return fam
    count = len(spec.params)
    if count < fam.least or (fam.most is not None and count > fam.most):
        wanted = str(fam.least) if fam.least == fam.most else f"{fam.least} to {fam.most}"
        raise GraphError(f"{spec.tag} takes {wanted} parameter{'s' if fam.most != 1 else ''}, "
                         f"got {count}")
    if fam.subcases and spec.subcase is None:
        raise GraphError(f"{spec.tag} requires a subcase, one of {fam.subcases}")
    return fam


def family(spec: FamilySpec) -> Graph:
    """Instantiate a FamilySpec; raises GraphError on violated family constraints."""
    fam = _checked(spec)
    if fam.inner:
        return fam.builder(*(family(inner) for inner in spec.inner))
    if fam.subcases:
        return fam.builder(spec.subcase, *spec.params)
    return fam.builder(*spec.params)


def spec_order(spec: FamilySpec) -> int:
    """Vertex count of family(spec), computed without building anything.

    Every family rejects a negative size; it counts as 0 here, so it cannot
    offset a large size in the sum and the result bounds what family(spec)
    allocates.
    """
    fam = _checked(spec)
    if fam.inner:
        return fam.order(*(spec_order(inner) for inner in spec.inner))
    return fam.extra + sum(max(p, 0) + fam.per_param for p in spec.params)


def _split_top(text: str, lo: int, hi: int, match: dict[int, int]) -> list[tuple[int, int]]:
    """Split text[lo:hi], a wrapper's argument, into the ranges of its inner
    specs at top-level commas.  A nonempty piece with neither ':' nor '(' is
    one more parameter of the spec before it, so 'kbipartite:2,3,path:2'
    gives the ranges of 'kbipartite:2,3' and 'path:2'.  Only top-level
    characters are read: match jumps over each parenthesized group."""
    specs: list[tuple[int, int]] = []
    start = i = lo
    bare = blank = True  # the piece so far: no ':' or '(' / whitespace only
    while True:
        ch = text[i] if i < hi else ","
        if ch == ",":
            if specs and bare and not blank:
                specs[-1] = (specs[-1][0], i)
            else:
                specs.append((start, i))
            if i >= hi:
                return specs
            start = i + 1
            bare = blank = True
        elif ch == "(" and match.get(i, hi) < hi:
            i = match[i]
            bare = blank = False
        elif ch in "()":
            raise GraphError(f"unbalanced parentheses in spec: {text[lo:hi]!r}")
        else:
            bare = bare and ch != ":"
            blank = blank and ch.isspace()
        i += 1


def parse_family_spec(text: str) -> FamilySpec:
    """Parse a generator DSL string, e.g. 'path:6', 'h1:a1,2', 'corona(path:2,empty:2)'.
    Tags are case-insensitive.  One scan pairs each '(' with its ')', so each
    wrapper reads only its own top-level characters and the parse takes
    linear time at any nesting depth."""
    match: dict[int, int] = {}
    opened: list[int] = []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")" and opened:
            match[opened.pop()] = i
    return _parse_range(text, 0, len(text), match)


def _parse_range(text: str, lo: int, hi: int, match: dict[int, int]) -> FamilySpec:
    """The spec text[lo:hi]; a wrapper parses its inner specs in place."""
    a, b = lo, hi
    while a < b and text[a].isspace():
        a += 1
    while b > a and text[b - 1].isspace():
        b -= 1
    paren = text.find("(", a, b)
    name = text[a:paren].strip().lower() if paren >= 0 else ""
    if name in FAMILIES and FAMILIES[name].inner:
        if text[b - 1] != ")":
            s = text[a:b]
            fault = "unbalanced parentheses" if s.count("(") != s.count(")") else "text after ')'"
            raise GraphError(f"{fault} in spec: {text[lo:hi]!r}")
        spec = FamilySpec(name, inner=tuple(_parse_range(text, *piece, match)
                                            for piece in _split_top(text, paren + 1, b - 1, match)))
        _checked(spec)
        return spec
    text = text[lo:hi]  # not a wrapper: the rest reads only this piece
    name, sep, argstr = text.strip().partition(":")
    name = name.strip().lower()
    fam = FAMILIES.get(name)
    if fam is not None and fam.inner:
        raise GraphError(f"{name} wraps its inner specs in parentheses, "
                         f"{name}({','.join(['spec'] * fam.inner)}); got {text!r}")
    if not sep:
        raise GraphError(f"cannot parse graph spec {text!r}: expected family:params")
    if fam is None:
        raise GraphError(f"unknown family tag: {name!r}")
    raw = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    if "" in raw:
        raise GraphError(f"empty parameter in spec {text!r}")
    subcase = None
    if fam.subcases:
        if not raw or raw[0] not in fam.subcases:
            raise GraphError(f"{name} spec needs a subcase from {fam.subcases}, got {text!r}")
        subcase = raw.pop(0)
    try:
        params = tuple(int(a) for a in raw)
    except ValueError:
        raise GraphError(f"non-integer parameter in spec {text!r}") from None
    spec = FamilySpec(name, params=params, subcase=subcase)
    _checked(spec)
    return spec


# ---------------------------------------------------------------------------
# Enumeration and sampling
# ---------------------------------------------------------------------------

MAX_ENUM_GRAPH_N = 7
MAX_ENUM_TREE_N = 10


def _edge_masks(n: int, pairs: list[tuple[int, int]], mask: int) -> list[int]:
    """The neighbour masks of the graph on n vertices whose edges are the
    pairs[i] with bit i of mask set."""
    nbr = [0] * n
    i = 0
    while mask:
        if mask & 1:
            u, v = pairs[i]
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        mask >>= 1
        i += 1
    return nbr


def _enumerated(n: int, connected: bool) -> Iterator[Graph]:
    if not 1 <= n <= MAX_ENUM_GRAPH_N:
        raise GraphError(f"graph enumeration supports 1 <= n <= {MAX_ENUM_GRAPH_N}, got {n}")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        nbr = _edge_masks(n, pairs, mask)
        if not connected or _connected(nbr):
            yield Graph(n, tuple(nbr), mask.bit_count())


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All labeled simple graphs on n vertices, edge-bitmask ascending.

    Edge i of the bitmask is the i-th pair in lexicographic order.
    """
    return _enumerated(n, False)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """All labeled connected simple graphs on n vertices, edge-bitmask ascending."""
    return _enumerated(n, True)


def prufer_sequences(n: int, samples: int | None = None,
                     seed: int = 0) -> Iterator[tuple[int, ...]]:
    """Prufer sequences of the labeled trees on n vertices: all n^(n-2) in
    lexicographic order, or with samples, that many seeded uniform draws
    (one random.Random(seed), n - 2 calls to randrange(n) per sequence).
    Orders 1 and 2 have the one empty sequence."""
    if samples is None:
        if not 1 <= n <= MAX_ENUM_TREE_N:
            raise GraphError(f"tree enumeration supports 1 <= n <= {MAX_ENUM_TREE_N}, got {n}")
        yield from product(range(n), repeat=max(n - 2, 0))
        return
    if n < 1:
        raise GraphError(f"vertex count must be at least 1, got {n}")
    if samples < 0:
        raise GraphError(f"sample count must be at least 0, got {samples}")
    rng = random.Random(seed)
    for _ in range(samples):
        yield tuple(rng.randrange(n) for _ in range(n - 2))


def prufer_decode(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a Prufer sequence of length max(n - 2, 0), entries in 0..n-1,
    into its labeled tree; raises GraphError on any other input.  Each step
    joins the smallest leaf to the next entry.  The pointer steps past each
    leaf it takes, so a taken leaf's degree needs no clearing."""
    if n < 1:
        raise GraphError(f"vertex count must be at least 1, got {n}")
    if len(seq) != max(n - 2, 0):
        raise GraphError(f"a Prufer sequence on {n} vertices has length {max(n - 2, 0)}, "
                         f"got {len(seq)}")
    if seq and not 0 <= min(seq) <= max(seq) < n:
        raise GraphError(f"Prufer entry out of range 0..{n - 1}: {seq!r}")
    if n == 1:
        return Graph(1, (0,), 0)
    nbr = [0] * n
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    ptr = 0
    leaf = -1
    # the appended n - 1 joins the last leaf but one to n - 1, which is never
    # the smallest leaf and so is the last vertex left
    for p in (*seq, n - 1):
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        nbr[leaf] |= 1 << p
        nbr[p] |= 1 << leaf
        d = deg[p] = deg[p] - 1
        leaf = p if d == 1 and p < ptr else -1
    return Graph(n, tuple(nbr), n - 1)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees via Prufer decoding, sequence-lexicographic order."""
    for seq in prufer_sequences(n):
        yield prufer_decode(seq, n)


SAMPLE_ATTEMPTS = 10_000


def sample_connected_graphs(n: int, count: int, seed: int,
                            max_deg: int | None = None) -> Iterator[Graph]:
    """Seeded uniform edge-subset sampling, rejection-filtered to connected graphs.

    Raises GraphError after SAMPLE_ATTEMPTS rejections in a row, which is how
    a constraint that no graph (or almost none) meets shows up.
    """
    if n < 1:
        raise GraphError(f"vertex count must be at least 1, got {n}")
    if count < 0:
        raise GraphError(f"sample count must be at least 0, got {count}")
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    produced = 0
    rejected = 0
    while produced < count:
        if rejected == SAMPLE_ATTEMPTS:
            raise GraphError(f"no connected graph on {n} vertices with max degree "
                             f"{max_deg} in {SAMPLE_ATTEMPTS} draws; the constraint is "
                             f"(nearly) unsatisfiable")
        # one bit per pair, in pair order: bit i of the draw keeps pairs[i]
        mask = sum(1 << i for i in range(len(pairs)) if rng.getrandbits(1))
        nbr = _edge_masks(n, pairs, mask)
        if not _connected(nbr) or (max_deg is not None
                                   and max(b.bit_count() for b in nbr) > max_deg):
            rejected += 1
            continue
        rejected = 0
        produced += 1
        yield Graph(n, tuple(nbr), mask.bit_count())


def sample_trees(n: int, count: int, seed: int) -> Iterator[Graph]:
    """Seeded uniform labeled trees via random Prufer sequences."""
    for seq in prufer_sequences(n, count, seed):
        yield prufer_decode(seq, n)


# ---------------------------------------------------------------------------
# Edge-list text format: "n m" header then m lines "u v"
# ---------------------------------------------------------------------------


def edge_list_lines(text: str) -> list[str]:
    """The stripped lines of edge-list text that are neither blank nor '#' comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def from_edge_list_text(text: str) -> Graph:
    lines = edge_list_lines(text)
    if not lines:
        raise GraphError("empty graph text: expected 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"line 1: expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"line 1: expected integer header 'n m', got {lines[0]!r}") from None
    body = lines[1:]
    if len(body) != m:
        raise GraphError(f"expected {m} edges, found {len(body)}")
    edges = []
    for i, ln in enumerate(body, start=2):
        toks = ln.split()
        if len(toks) != 2:
            raise GraphError(f"line {i}: expected 'u v', got {ln!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphError(f"line {i}: expected integers, got {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {i}: vertex out of range 0..{n - 1}: {ln!r}")
        if u == v:
            raise GraphError(f"line {i}: self-loop rejected: {ln!r}")
        edges.append((u, v))
    return build(n, edges)


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines)
