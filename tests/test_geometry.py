import pytest

from coxfree import geometry as geo
from coxfree import weyl as wy
from coxfree.symbols import CoxeterSymbol, inertia, signature
from oracles import eigen_signs


@pytest.mark.parametrize("n", [4, 6, 8])
def test_siegel_covolume_equals_gauss_bonnet(n):
    symbol, _ = geo.vinberg_symbol(n)
    assert geo.covolume_siegel(n) == geo.covolume_gauss_bonnet(symbol, n)


@pytest.mark.parametrize("n", range(4, 10))
def test_pendant_root_basis_is_unimodular(n):
    symbol, _ = geo.vinberg_symbol(n)
    core = geo._affine_e8_symbol() if n == 9 else wy.weyl_data(*geo._VINBERG_CORE[n]).symbol
    (pendant,) = set(symbol.nodes) - set(core.nodes)
    (s,) = symbol.neighbors(pendant)
    assert symbol.order(s, pendant) == 4
    assert geo._root_gram_det(core, s) == -1


def test_exact_inertia_matches_float_signature_on_every_trial():
    # Every pendant placement vinberg_symbol scans, n = 4..9: the exact
    # inertia of the root Gram matrix, the float eigenvalue signs of the
    # same matrix, and the float signature of the cosine form all agree.
    trials = 0
    for n in range(4, 10):
        core = geo._affine_e8_symbol() if n == 9 else wy.weyl_data(*geo._VINBERG_CORE[n]).symbol
        for s in core.nodes:
            gram = geo._root_gram(core, s)
            trial = CoxeterSymbol(list(core.nodes) + ["t1"], list(core.edges()) + [(s, "t1", 4)])
            assert inertia(gram) == eigen_signs(gram) == signature(trial)
            trials += 1
    assert trials == 39


def test_gauss_bonnet_mismatch_raises(monkeypatch):
    # The placement is chosen by det and inertia alone; its Gauss-Bonnet
    # covolume is then checked against Siegel's, and a mismatch is an error.
    siegel = geo.covolume_siegel
    monkeypatch.setattr(geo, "covolume_siegel", lambda n: siegel(n) * 2)
    with pytest.raises(geo.GeometryError):
        geo.vinberg_symbol(6)
