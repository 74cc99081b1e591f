import pytest

from coxfree import geometry as geo
from coxfree import weyl as wy


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
