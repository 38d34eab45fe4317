import hashlib
from itertools import combinations, permutations, product

import pytest

from oidrd import characterize as C
from oidrd import cli
from oidrd import graphs as G
from oidrd import solver as S


def test_star_recognition():
    assert C.is_star(G.star(4))
    assert not C.is_star(G.path(4))
    assert not C.is_star(G.complete(3))
    assert C.is_star(G.path(3))


def test_star_preconditions():
    with pytest.raises(C.CharacterizeError):
        C.is_star(G.path(2))
    with pytest.raises(C.CharacterizeError):
        C.is_star(G.empty(3))


def test_recognize_G_examples():
    fam, anchors = C.recognize_G(G.cycle(4))
    assert fam == "G3" and len(anchors) == 2
    fam, _ = C.recognize_G(G.complete(3))
    assert fam == "G2"
    assert C.recognize_G(G.path(4)) is None
    fam, anchors = C.recognize_G(G.g1(2, 2))
    assert fam == "G1" and anchors == (0, 1)


def test_recognize_H_examples():
    fam, sub, _ = C.recognize_H(G.complete(4))
    assert fam == "H2" and sub == "a2"
    got = C.recognize_H(G.path(4))
    assert got is not None and got[0] == "H3"
    assert C.recognize_H(G.cycle(5)) is None


def test_classify_examples():
    assert C.classify(G.star(7)).value_class == C.THREE
    res = C.classify(G.complete(3))
    assert res.value_class == C.FOUR and res.family == "G2"
    assert C.classify(G.double_star(1, 3)).value_class == C.FIVE
    assert C.classify(G.cycle(5)).value_class == C.OTHER


def test_classify_preconditions():
    with pytest.raises(C.CharacterizeError):
        C.classify(G.path(2))
    with pytest.raises(C.CharacterizeError):
        C.classify(G.build(4, [(0, 1), (2, 3)]))


def _family_sweep():
    for k in range(1, 5):
        yield "G2", 4, G.g2(k)
        if k >= 2:
            yield "G3", 4, G.g3(k)
        for leaves in range(1, 4):
            yield "G1", 4, G.g1(k, leaves)
    for b in range(1, 4):
        yield "star", 3, G.star(b + 1)
    sizes = range(0, 3)
    for n_b in sizes:
        for n_abc in range(2, 4):
            yield "H1", 5, G.h1("a1", n_abc, 0, 0, n_b)
            yield "H2", 5, G.h2("a2", n_abc, 0, 0, n_b)
            yield "H5", 5, G.h5("b5", n_abc)
            yield "H6", 5, G.h6("b6", n_abc)
            yield "H4", 5, G.h4("a4", n_abc)
        for n_ab in range(1, 3):
            for n_abc in range(1, 3):
                yield "H1", 5, G.h1("b1", n_abc, n_ab, 0, n_b)
                yield "H1", 5, G.h1("b1", n_abc, 0, n_ab, n_b)
                yield "H5", 5, G.h5("a5", n_abc, n_ab)
                yield "H6", 5, G.h6("a6", n_abc, n_ab)
            for n_bc in range(1, 3):
                yield "H1", 5, G.h1("c1", 0, n_ab, n_bc, n_b)
                yield "H1", 5, G.h1("c1", 2, n_ab, n_bc, n_b)
                yield "H2", 5, G.h2("b2", 0, n_ab, n_bc, n_b)
            yield "H4", 5, G.h4("b4", 0, n_ab)
            yield "H4", 5, G.h4("b4", 2, n_ab)
    for n_a in range(1, 4):
        for n_ab in range(1, 4):
            yield "H3", 5, G.h3(n_a, n_ab)


def test_generator_recognizer_round_trip():
    value_of_class = {"THREE": 3, "FOUR": 4, "FIVE": 5}
    for expected_family, expected_value, g in _family_sweep():
        res = C.classify(g)
        assert value_of_class.get(res.value_class) == expected_value, (
            expected_family, G.to_edge_list_text(g), res)
        # families may overlap; the value class is the binding contract,
        # but the reported anchors must certify the reported family
        assert C.verify_classification(g, res), (expected_family, res)


def test_classify_agrees_with_solver_on_small_connected_graphs():
    for n in (3, 4):
        for g in G.enumerate_connected_graphs(n):
            res = C.classify(g)
            value = S.solve_oidrd(g).value
            if res.value_class == C.OTHER:
                assert value >= 6
            else:
                assert value == {"THREE": 3, "FOUR": 4, "FIVE": 5}[res.value_class]


def _covers_every_edge(g, anchors):
    return all(u in anchors or v in anchors for u, v in g.edges())


# sha256 of repr((value_class, family, subcase, anchors)) per graph, in
# enumeration order, as classify reported it when it still tried every
# anchor tuple of each family's shape
_CLASSIFY_DIGEST = "3439c06dca426cbdd1cfe560cd50b99da1697dcacf7b964118090eaebc34c211"


def test_classify_output_is_pinned():
    digest = hashlib.sha256()
    graphs = [g for n in range(3, 7) for g in G.enumerate_connected_graphs(n)]
    for g in graphs + list(G.sample_connected_graphs(7, 300, 0)):
        res = C.classify(g)
        digest.update(repr((res.value_class, res.family, res.subcase, res.anchors)).encode())
    assert digest.hexdigest() == _CLASSIFY_DIGEST


def test_matchers_only_see_vertex_covers(monkeypatch):
    seen = []
    cover_sets = C._cover_sets

    def recorded(g):
        for anchors in cover_sets(g):
            seen.append((g, anchors))
            yield anchors

    monkeypatch.setattr(C, "_cover_sets", recorded)
    for n in range(3, 6):
        for g in G.enumerate_connected_graphs(n):
            C.classify(g)
    assert len(seen) > 1000
    for g, anchors in seen:
        assert _covers_every_edge(g, anchors), (G.to_edge_list_text(g), anchors)


def _reference_covers(g):
    """Lex-sorted ordered pairs and triples of distinct vertices whose vertex
    set touches every edge (sum of degrees minus inner edges = m), keyed by
    their shape: every anchor tuple a family could accept, one by one."""
    n, m, nb = g.n, g.m, g.nbr_masks
    deg = [mask.bit_count() for mask in nb]
    sets = []
    for a in range(n):
        for b in range(a + 1, n):
            dab = deg[a] + deg[b] - (nb[a] >> b & 1)
            if dab == m:
                sets.append((a, b))
            for c in range(b + 1, n):
                if dab + deg[c] - (nb[c] >> a & 1) - (nb[c] >> b & 1) == m:
                    sets.append((a, b, c))
    out = {}
    for t in sorted(t for s in sets for t in permutations(s)):
        out.setdefault(C._shape(nb, t), []).append(t)
    return out


def _reference_hit(g, value_class, covers):
    """First (family, subcase, anchors) of the value class accepting g: the
    families in recognition order, each on its shape's tuples in lex order."""
    for name, (fam, shape) in C._FAMILIES.items():
        if fam.value == C.CLASS_VALUE[value_class]:
            for anchors in covers.get(shape, ()):
                if (sub := C._match(g, fam, anchors)) is not None:
                    return name, sub, anchors
    return None


def _reference(g):
    """What classify, recognize_G and recognize_H return, tuple by tuple."""
    covers = _reference_covers(g)
    four, five = (_reference_hit(g, cls, covers) for cls in (C.FOUR, C.FIVE))
    hits = [(cls, hit) for cls, hit in ((C.FOUR, four), (C.FIVE, five)) if hit is not None]
    if C.is_star(g):
        center = next(v for v in range(g.n) if g.degree(v) == g.n - 1)
        hits.insert(0, (C.THREE, ("star", "none", (center,))))
    assert len(hits) <= 1, hits
    res = C.ClassifyResult(C.OTHER)
    if hits:
        value_class, (name, sub, anchors) = hits[0]
        res = C.ClassifyResult(value_class, name, None if sub == "none" else sub, anchors)
    return res, None if four is None else (four[0], four[2]), five


def test_per_set_recognition_matches_the_tuple_by_tuple_reference():
    graphs = [g for n in range(3, 7) for g in G.enumerate_connected_graphs(n)]
    samples = [*G.sample_connected_graphs(7, 300, 0), *G.sample_connected_graphs(7, 300, 1),
               *G.sample_connected_graphs(8, 300, 2)]
    for g in graphs + samples:
        assert (C.classify(g), C.recognize_G(g), C.recognize_H(g)) == _reference(g), (
            G.to_edge_list_text(g))


def test_cover_sets_are_every_covering_pair_and_triple_in_order():
    # the degree-sum cuts in _cover_sets leave its output as a plain scan of
    # every pair and triple would give it: the sorted covers, each pair
    # before the triples it starts
    graphs = [g for n in range(1, 6) for g in G.enumerate_connected_graphs(n)]
    graphs += [g for n in (6, 7, 8, 9) for g in G.sample_connected_graphs(n, 300, n)]
    graphs += [G.cycle(9), G.star(8), G.complete(6)]
    cut = 0
    for g in graphs:
        nb = g.nbr_masks
        covers = []
        for k in (2, 3):
            for s in combinations(range(g.n), k):
                inside = sum(1 << v for v in s)
                if all(nb[v] & ~inside == 0 for v in range(g.n) if not inside >> v & 1):
                    covers.append(s)
        assert list(C._cover_sets(g)) == sorted(covers), G.to_edge_list_text(g)
        cut += g.m > sum(sorted(mask.bit_count() for mask in nb)[-3:])
    # some graphs are refused before any pair is read
    assert cut > 100


def test_reported_anchors_cover_every_edge():
    for expected_family, _, g in _family_sweep():
        res = C.classify(g)
        assert _covers_every_edge(g, res.anchors), (expected_family, res)


def test_verify_classification_rejects_false_certificates():
    h1 = G.h1("a1", 2)
    assert C.verify_classification(h1, C.ClassifyResult(C.FIVE, "H1", "a1", (0, 1, 2)))
    for res in (C.ClassifyResult(C.FIVE, "H1", "a1", (0, 1)),  # wrong anchor count
                C.ClassifyResult(C.FIVE, "H1", "a1", (0, 1, 2, 3)),
                C.ClassifyResult(C.FOUR, "H1", "a1", (0, 1, 2))):  # value class of another family
        assert not C.verify_classification(h1, res), res
    # C4 has value 4; with a repeated or an out-of-range third anchor every
    # other vertex would still see exactly {0, 1}
    c4 = G.g3(2)
    for res in (C.ClassifyResult(C.FIVE, "H4", "a4", (0, 1, 1)),
                C.ClassifyResult(C.FIVE, "H4", "b4", (0, 1, 9)),
                C.ClassifyResult(C.FIVE, "H4", "b4", (0, 1, -1))):
        assert not C.verify_classification(c4, res), res
    star = G.star(3)
    assert C.verify_classification(star, C.ClassifyResult(C.THREE, "star", None, (0,)))
    assert not C.verify_classification(star, C.ClassifyResult(C.FIVE, "star", None, (0,)))
    assert not C.verify_classification(star, C.ClassifyResult(C.THREE, "star", None, (7,)))
    # the anchors see each other as a triangle and as an edge plus a vertex,
    # not as the path a-b-c that H1 and H5 require
    for g, res in ((G.h2("a2", 2), C.ClassifyResult(C.FIVE, "H1", "a1", (0, 1, 2))),
                   (G.h4("a4", 2), C.ClassifyResult(C.FIVE, "H5", "b5", (0, 1, 2)))):
        assert not C.verify_classification(g, res), res


def test_table_rows_agree_with_the_engine(capsys):
    # the engine is an exact route that does not read the table
    for tag, fam in G.ANCHORED.items():
        for sub, rule in fam.rules.items():
            lead = () if sub == "none" else (sub,)
            for sizes in product(range(3), repeat=len(fam.blocks)):
                text = f"{tag}:" + ",".join(map(str, lead + sizes))
                if rule(*sizes):
                    g = G.anchored(tag, *lead, *sizes)
                    assert S.solve_oidrd(g).value == fam.value, text
                    res = C.classify(g)
                    assert C.CLASS_VALUE.get(res.value_class) == fam.value, (text, res)
                    assert C.verify_classification(g, res), (text, res)
                    continue
                where = "" if sub == "none" else f" subcase {sub}"
                with pytest.raises(G.GraphError, match=f"^{tag}{where} rejects the block sizes V_"):
                    G.anchored(tag, *lead, *sizes)
                assert cli.main(["generate", text]) == 2, text
                assert f"{tag}{where} rejects" in capsys.readouterr().err, text
