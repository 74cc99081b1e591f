"""The package's records are immutable values.

Ten are NamedTuples.  WeylData is interned, one instance per type, and
its identity is its equality.
"""

from fractions import Fraction

import pytest

from coxfree import geometry as geo
from coxfree import involutions as inv
from coxfree import modtwo as m2
from coxfree import symbols as sym
from coxfree import torsionfree as tf
from coxfree import weyl as wy


def _element():
    return tf.SemidirectElement(1, (2,), ((1, 0), (0, 1)))


def _certificate():
    return tf.Certificate("cyclic-extension", "hat", (), index=8, p=1)


# (make a fresh instance, a field to assign): two calls give equal values.
RECORDS = {
    "FiniteType": (lambda: sym.FiniteType("B", 4, 384), "rank"),
    "F2Subspace": (lambda: m2.span([3, 5], 4), "basis"),
    # weight_vector is memoized, so a fresh record is built from its fields.
    "WeightVector": (lambda: m2.WeightVector(*m2.weight_vector(wy.weyl_data("E8"), 1)), "coords"),
    "EquivalenceClass": (lambda: inv.EquivalenceClass(((1,), (3,)), 1), "rank"),
    "PiMonomial": (lambda: geo.PiMonomial(Fraction(1, 3), 2), "power"),
    "SemidirectElement": (_element, "x"),
    "CertStep": (lambda: tf.CertStep("relations", {"checked": 3, "failed": []}, True), "ok"),
    "Certificate": (_certificate, "kind"),
    "CyclicExtension": (lambda: tf.CyclicExtension(_element(), 1, 8, _certificate()), "p"),
    "DaggerSymbol": (lambda: tf.build_dagger(wy.weyl_data("E6"), [1]), "ell"),
    "WeylData": (lambda: wy.weyl_data("E8"), "rank"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    make, field = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and not a != b
    if name == "WeylData":
        # Interned: one instance per type, hashed by its id.
        assert a is b and hash(a) == object.__hash__(a)
        copy = wy.WeylData(*(getattr(a, k) for k in wy.WeylData.__annotations__))
        assert copy != a and repr(copy) == repr(a)
    elif name == "CertStep":
        # A step's objects are a dict, so a step compares but does not hash.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a is not b and hash(a) == hash(b)


def test_weyl_memos_fill_on_first_read():
    g2 = wy.weyl_data("G2")
    w = wy.WeylData(*(getattr(g2, k) for k in wy.WeylData.__annotations__))
    assert "gram2_inverse" not in vars(w)
    assert w.gram2_inverse == g2.gram2_inverse
    assert "gram2_inverse" in vars(w)
    with pytest.raises(AttributeError):
        w.gram2_inverse = ()


def test_subspace_order_is_inclusion():
    # <= and >= test inclusion, whatever the tuple order of the bases says.
    small, big = m2.span([2], 3), m2.span([1, 2], 3)
    assert small <= big and big >= small
    assert not big <= small and not small >= big
    assert tuple(big) < tuple(small)
