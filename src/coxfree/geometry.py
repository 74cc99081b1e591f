"""Exact hyperbolic covolumes and manifold volumes.

Even-dimensional covolumes are rational multiples of pi^(n/2), computed
two independent ways: the combinatorial Euler characteristic scaled by
the Gauss-Bonnet constant, and the Bernoulli-number formula for the
reflection group of the odd self-dual Lorentzian lattice (Siegel 1936,
evaluated by Ratcliffe-Tschantz 1997).  Multiplying by the index of a
certified torsion-free subgroup gives exact manifold volumes in
dimensions 4, 6 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import List, Optional, Tuple

from . import torsionfree as tf
from . import weyl as wy
from .symbols import CoxeterSymbol, euler_characteristic, inertia, root_gram


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class PiMonomial:
    """Exact rational coefficient times an integer power of pi."""

    coeff: Fraction
    power: int

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiMonomial(self.coeff * other, self.power)
        return NotImplemented

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"num": self.coeff.numerator, "den": self.coeff.denominator,
                "pi_power": self.power}


@lru_cache(maxsize=None)
def _bernoulli_all(upto: int) -> Tuple[Fraction, ...]:
    # sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1, starting from B_0 = 1.
    values: List[Fraction] = [Fraction(1)]
    for m in range(1, upto + 1):
        acc = sum((comb(m + 1, j) * values[j] for j in range(m)), Fraction(0))
        values.append(-acc / (m + 1))
    return tuple(values)


def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number for even k up to 32."""
    if k <= 0 or k % 2 != 0 or k > 32:
        raise GeometryError(f"bernoulli defined here for even k in 2..32, got {k}")
    return _bernoulli_all(k)[k]


def kappa(n: int) -> PiMonomial:
    """Gauss-Bonnet constant kappa_n = 2^n (n!)^-1 (-pi)^(n/2) (n/2)!."""
    if n <= 0 or n % 2 != 0:
        raise GeometryError("kappa needs a positive even dimension")
    coeff = Fraction((-1) ** (n // 2) * 2 ** n * factorial(n // 2), factorial(n))
    return PiMonomial(coeff, n // 2)


def covolume_gauss_bonnet(g: CoxeterSymbol, n: int) -> PiMonomial:
    """kappa_n times the Euler characteristic of the reflection group."""
    if n % 2 != 0:
        raise GeometryError("Gauss-Bonnet route needs even dimension")
    return kappa(n) * euler_characteristic(g)


def covolume_siegel(n: int) -> PiMonomial:
    """Covolume of the rank-(n+1) Lorentzian reflection group, n in {4,6,8}:
    (2^(n/2) -+ 1) pi^(n/2) / n! times the product of |B_2|..|B_n|,
    with the minus sign for n = 4, 6 and the plus sign for n = 8."""
    if n not in (4, 6, 8):
        raise GeometryError("Bernoulli covolume implemented for n in {4, 6, 8}")
    sign = 1 if n == 8 else -1
    coeff = Fraction(2 ** (n // 2) + sign, factorial(n))
    for k in range(1, n // 2 + 1):
        coeff *= abs(bernoulli(2 * k))
    return PiMonomial(coeff, n // 2)


# ---------------------------------------------------------------------------
# The simplex family over the odd self-dual Lorentzian lattices

_VINBERG_CORE = {4: ("A", 4), 5: ("D", 5), 6: ("E", 6), 7: ("E", 7), 8: ("E", 8)}


def _affine_e8_symbol() -> CoxeterSymbol:
    base = wy.weyl_data("E8").symbol
    nodes = list(base.nodes) + [0]
    edges = list(base.edges()) + [(7, 0, 3)]
    return CoxeterSymbol(nodes, edges)


def vinberg_symbol(n: int) -> Tuple[CoxeterSymbol, Optional[tf.DaggerSymbol]]:
    """Simplex reflection symbol of the odd self-dual Lorentzian lattice in
    dimension n (4 <= n <= 9): the core Weyl (or affine, n = 9) symbol plus
    one pendant node on an order-4 edge.

    The pendant location is found by scanning: it must give hyperbolic
    signature (n positive, 1 negative) and a unimodular root-basis Gram
    matrix, since the roots form a basis of the self-dual lattice.
    Symmetric placements give isomorphic symbols; the first in node order
    is kept, and for even n it must match the Bernoulli covolume (else
    GeometryError).  For n in {4, 6, 8} the attachment is admissible and
    the pendant symbol is returned as well.

    Each trial placement is read off one integer Gram matrix, root_gram
    with norm-2 core roots and a norm-1 pendant root, so the determinant
    and the signature are exact and no floating point enters the volume
    path.
    """
    if n not in range(4, 10):
        raise GeometryError("simplex family covers 4 <= n <= 9")
    if n == 9:
        core = _affine_e8_symbol()
        psi = None
    else:
        psi = wy.weyl_data(*_VINBERG_CORE[n])
        core = psi.symbol
    norms = {**dict.fromkeys(core.nodes, 2), "t1": 1}
    for s in core.nodes:
        symbol = CoxeterSymbol(list(core.nodes) + ["t1"], list(core.edges()) + [(s, "t1", 4)])
        gram = root_gram(symbol, norms)
        if wy.row_reduce(gram)[2] == -1 and inertia(gram) == (n, 1, 0):
            break
    else:
        raise GeometryError(f"no pendant node embeds in dimension {n}")
    if n % 2 == 0 and covolume_gauss_bonnet(symbol, n) != covolume_siegel(n):
        raise GeometryError(f"Gauss-Bonnet covolume of the dimension-{n} placement "
                            "differs from Siegel's")
    if n in (4, 6, 8):
        dagger = tf.build_dagger(psi, [s])
        return dagger.gamma, dagger
    return symbol, None


def manifold_volume(n: int) -> Tuple[PiMonomial, Fraction, int, int]:
    """Exact volume of the hyperbolic n-manifold cut out by the certified
    subgroup of the simplex group, n in {4, 6, 8}.

    Dimension 4 uses the kernel itself (the type-A core has odd Coxeter
    number, so no extension exists); 6 extends by Z/8 through the visible
    D5 of E6; 8 extends by Z/2.  Returns (volume, Euler characteristic
    index * chi(gamma) of the subgroup, subgroup index, deck group order).
    """
    if n not in (4, 6, 8):
        raise GeometryError("manifold volumes implemented for n in {4, 6, 8}")
    gamma, dagger = vinberg_symbol(n)
    if n == 4:
        index = tf.kernel_index(dagger, "hat")
        deck = 1
    else:
        ext = tf.cyclic_extension(dagger)
        if not ext.certificate.ok:
            raise GeometryError("extension certificate failed")  # pragma: no cover
        index = ext.index
        deck = 2 ** ext.p
    return index * covolume_siegel(n), index * euler_characteristic(gamma), index, deck
