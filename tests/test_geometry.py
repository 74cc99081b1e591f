import numpy as np
import pytest

from coxfree import geometry as geo
from coxfree import weyl as wy
from coxfree.symbols import CoxeterSymbol, bilinear_gram, inertia, root_gram, signature
from oracles import cosine_form, eigen_signs


def _core(n):
    return geo._affine_e8_symbol() if n == 9 else wy.weyl_data(*geo._VINBERG_CORE[n]).symbol


def _trials():
    """Every pendant placement vinberg_symbol scans, n = 4..9, with the
    root norms it reads: 2 on the core, 1 at the pendant t1."""
    for n in range(4, 10):
        core = _core(n)
        norms = {**dict.fromkeys(core.nodes, 2), "t1": 1}
        for s in core.nodes:
            yield CoxeterSymbol(list(core.nodes) + ["t1"], list(core.edges()) + [(s, "t1", 4)]), norms


@pytest.mark.parametrize("n", [4, 6, 8])
def test_siegel_covolume_equals_gauss_bonnet(n):
    symbol, _ = geo.vinberg_symbol(n)
    assert geo.covolume_siegel(n) == geo.covolume_gauss_bonnet(symbol, n)


@pytest.mark.parametrize("n", range(4, 10))
def test_pendant_root_basis_is_unimodular(n):
    symbol, _ = geo.vinberg_symbol(n)
    core = _core(n)
    (pendant,) = set(symbol.nodes) - set(core.nodes)
    (s,) = symbol.neighbors(pendant)
    assert symbol.order(s, pendant) == 4
    norms = {v: 1 if v == pendant else 2 for v in symbol.nodes}
    assert wy.row_reduce(root_gram(symbol, norms))[2] == -1


def test_exact_inertia_matches_float_signature_on_every_trial():
    # The exact inertia of the root Gram matrix, the float eigenvalue signs
    # of the same matrix, and the float signature of the cosine form all agree.
    trials = 0
    for trial, norms in _trials():
        gram = root_gram(trial, norms)
        assert inertia(gram) == eigen_signs(gram) == signature(trial)
        trials += 1
    assert trials == 39


def test_root_gram_is_a_scaled_cosine_form_on_every_trial():
    trials = 0
    for trial, norms in _trials():
        gram = root_gram(trial, norms)
        assert [gram[i][i] for i in range(trial.rank)] == [norms[v] for v in trial.nodes]
        assert np.allclose(cosine_form(gram), bilinear_gram(trial), rtol=0, atol=1e-12)
        trials += 1
    assert trials == 39


def test_gauss_bonnet_mismatch_raises(monkeypatch):
    # The placement is chosen by det and inertia alone; its Gauss-Bonnet
    # covolume is then checked against Siegel's, and a mismatch is an error.
    siegel = geo.covolume_siegel
    monkeypatch.setattr(geo, "covolume_siegel", lambda n: siegel(n) * 2)
    with pytest.raises(geo.GeometryError):
        geo.vinberg_symbol(6)
