import pytest

from oidrd import formulas as F
from oidrd import graphs as G
from oidrd import solver as S
from oidrd.labeling import is_oidrd, weight


def test_path_formula():
    assert F.formula_path(3) == 3
    assert F.formula_path(1) == 2
    assert F.formula_path(8) == 9
    with pytest.raises(F.FormulaError):
        F.formula_path(0)


def test_cycle_formula():
    assert F.formula_cycle(4) == 4
    assert F.formula_cycle(7) == 8
    assert F.formula_cycle(3) == 4
    with pytest.raises(F.FormulaError):
        F.formula_cycle(2)


def test_complete_formula():
    assert [F.formula_complete(n) for n in (1, 2, 6)] == [2, 3, 7]


def test_complete_bipartite_formula():
    assert F.formula_complete_bipartite(1, 9) == 3
    assert F.formula_complete_bipartite(3, 3) == 6
    assert F.formula_complete_bipartite(5, 5) == 9
    assert F.formula_complete_bipartite(9, 1) == 3
    # both branch expressions agree at part size 4
    assert F.formula_complete_bipartite(4, 4) == 8


def test_complete_multipartite_formula():
    assert F.formula_complete_multipartite((1, 1, 1)) == 4
    assert F.formula_complete_multipartite((1, 2, 3)) == 5
    assert F.formula_complete_multipartite((2, 2, 2)) == 6
    assert F.formula_complete_multipartite((3, 1, 2)) == 5
    with pytest.raises(F.FormulaError):
        F.formula_complete_multipartite((2, 3))


def test_formulas_agree_with_solver_on_small_slices():
    for n in range(1, 9):
        assert F.formula_path(n) == S.solve_oidrd(G.path(n)).value
    for n in range(3, 9):
        assert F.formula_cycle(n) == S.solve_oidrd(G.cycle(n)).value
    for n in range(1, 7):
        assert F.formula_complete(n) == S.solve_oidrd(G.complete(n)).value
    for m in range(1, 4):
        for n in range(m, 5):
            assert (F.formula_complete_bipartite(m, n)
                    == S.solve_oidrd(G.complete_bipartite(m, n)).value)


def test_path_and_cycle_formulas_match_the_engine_up_to_24():
    # the oracle stops at n = 12, so here the closed forms are the second route
    for n in range(9, 25):
        for g, value in ((G.path(n), F.formula_path(n)), (G.cycle(n), F.formula_cycle(n))):
            r = S.solve_oidrd(g)
            assert (r.value, weight(r.witness)) == (value, value), (n, g.m)
            assert is_oidrd(g, r.witness), (n, g.m)


def test_corona_coefficients_and_values():
    value, co = F.corona_value(G.path(2), G.empty(2))
    assert (co.c0, co.c1, co.c2, co.c3) == (4, 5, 4, 3)
    assert value == 6
    value, co = F.corona_value(G.path(2), G.path(4))
    assert (co.c0, co.c1, co.c2, co.c3) == (6, 6, 5, 5)
    assert value == 10


def test_corona_formula_on_isolated_copies_gives_three_per_vertex():
    for g in (G.path(3), G.cycle(4), G.complete(3)):
        for r in (2, 3):
            value, _ = F.corona_value(g, G.empty(r))
            assert value == 3 * g.n


def test_corona_requires_low_degree_copies():
    with pytest.raises(F.FormulaError, match="order minus two"):
        F.corona_value(G.path(2), G.path(2))


def test_corona_formula_invariant_under_relabeling():
    g1 = G.build(4, [(0, 1), (1, 2), (2, 3)])
    g2 = G.build(4, [(3, 2), (2, 1), (1, 0)])
    g3 = G.build(4, [(2, 0), (0, 3), (3, 1)])  # same path, relabeled
    hb = S.bundle(G.empty(3))
    vals = {F.corona_formula(g, hb, 3, 0) for g in (g1, g2, g3)}
    assert len(vals) == 1


def test_corona_formula_matches_direct_solve():
    for g in (G.path(2), G.path(3), G.complete(3)):
        for h in (G.empty(2), G.empty(3), G.build(3, [(0, 1)])):
            expected = S.solve_oidrd(G.corona(g, h)).value
            got, _ = F.corona_value(g, h)
            assert got == expected, (G.to_edge_list_text(g), G.to_edge_list_text(h))


def test_corona_domain_is_checked_before_h_is_solved(monkeypatch):
    def no_bundle(h):
        raise AssertionError("H solved before the formula's domain was checked")
    monkeypatch.setattr(F, "bundle", no_bundle)
    with pytest.raises(F.FormulaError, match="order minus two"):
        F.corona_value(G.path(1), G.corona(G.path(1), G.cycle(22)))
    with pytest.raises(F.FormulaError, match="base graphs with n <= 20"):
        F.corona_value(G.path(F.CORONA_BASE_CAP + 1), G.empty(2))
