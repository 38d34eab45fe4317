import pytest

from conftest import isomorphic
from oidrd import graphs as G
from oidrd import reduction as R
from oidrd.labeling import is_oidrd, weight


def test_gadget_on_point_is_a_claw():
    gm = R.build_gadget(G.path(1))
    assert gm.gadget.n == 4
    assert isomorphic(gm.gadget, G.star(3))


def test_gadget_sizes_and_degrees():
    gm = R.build_gadget(G.path(2))
    assert gm.gadget.n == 8 and gm.gadget.m == 7
    gm = R.build_gadget(G.cycle(4))
    assert gm.gadget.n == 16 and gm.gadget.max_degree == 3
    for v, u in gm.u_index.items():
        assert gm.gadget.nbr_masks[v] >> u & 1
        l1, l2 = gm.leaf_index[u]
        assert G.bits(gm.gadget.nbr_masks[l1]) == G.bits(gm.gadget.nbr_masks[l2]) == [u]


def test_identity_examples():
    assert R.verify_identity(G.complete(3)) == R.IdentityReport(11, 11, True)
    assert R.verify_identity(G.path(2)) == R.IdentityReport(7, 7, True)
    assert R.verify_identity(G.empty(2)) == R.IdentityReport(6, 6, True)


def test_identity_cap():
    with pytest.raises(R.ReductionError, match="capped"):
        R.verify_identity(G.cycle(6))


def test_witness_from_independent_set():
    lab = R.witness_from_independent_set(G.complete(3), {0})
    assert weight(lab) == 11
    assert is_oidrd(R.build_gadget(G.complete(3)).gadget, lab)
    lab = R.witness_from_independent_set(G.empty(2), {0, 1})
    assert weight(lab) == 6
    lab = R.witness_from_independent_set(G.path(3), set())
    assert weight(lab) == 12


def test_witness_rejects_dependent_sets():
    with pytest.raises(R.ReductionError, match="not independent"):
        R.witness_from_independent_set(G.path(2), {0, 1})
    with pytest.raises(R.ReductionError, match="outside"):
        R.witness_from_independent_set(G.path(2), {5})


def test_maximum_independent_witness_attains_the_optimum():
    from oidrd.solver import solve_alpha, solve_oidrd

    for g in (G.path(4), G.cycle(5), G.complete_bipartite(2, 3)):
        ind = {v for v, x in enumerate(solve_alpha(g).witness.values) if x == 1}
        lab = R.witness_from_independent_set(g, ind)
        assert weight(lab) == solve_oidrd(R.build_gadget(g).gadget).value
