import itertools
import random

import pytest

from coxfree import (
    CoxeterSymbol,
    InvolutionError,
    SymbolError,
    classify_finite_type,
    coxeter_element,
    elementary_moves,
    equivalence_classes,
    euler_characteristic,
    is_minus_one_type,
    longest_word,
    maximal_rank_class,
    reflection_matrix,
    weyl_data,
    word_to_matrix,
)
from coxfree.involutions import _opposition
from coxfree.symbols import mask_nodes, node_sort_key, spherical_subsets
from coxfree.torsionfree import _free_antipodal_size
from coxfree.weyl import identity_matrix, mat_mul, mat_pow, minus_one_rank
from oracles import closure, involution_class_count, signed_generators, symmetric_generators


def _oracle_group(fam, rank):
    if fam == "A":
        return closure(symmetric_generators(rank))
    return closure(signed_generators(rank, even=fam == "D"))


class TestClassCounts:
    @pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
                                          ("B", 2), ("B", 3), ("B", 4), ("D", 4)])
    def test_against_brute_force_conjugacy(self, fam, rank):
        classes = equivalence_classes(weyl_data(fam, rank).symbol)
        assert len(classes) == involution_class_count(_oracle_group(fam, rank))

    def test_a3_classes(self):
        # S4: transpositions {1}, {2}, {3} and double transpositions {1, 3}.
        classes = equivalence_classes(weyl_data("A", 3).symbol)
        assert [(c.rank, c.members) for c in classes] == \
            [(1, ((1,), (2,), (3,))), (2, ((1, 3),))]

    def test_relabeling_invariance(self):
        base = weyl_data("D", 5).symbol
        names = [f"v{i}" for i in range(5)]
        random.Random(3).shuffle(names)
        relabel = dict(zip(base.nodes, names))
        g = CoxeterSymbol(names, [(relabel[a], relabel[b], m) for a, b, m in base.edges()])
        assert sorted((c.rank, len(c.members)) for c in equivalence_classes(g)) == \
            sorted((c.rank, len(c.members)) for c in equivalence_classes(base))

    @pytest.mark.parametrize("count", [equivalence_classes, euler_characteristic])
    def test_node_cap(self, count):
        with pytest.raises(SymbolError):
            count(CoxeterSymbol(range(13)))


class TestMoves:
    def test_moves_stay_antipodal_and_inside_classes(self):
        g = weyl_data("E6").symbol
        classes = equivalence_classes(g)
        owner = {m: i for i, c in enumerate(classes) for m in c.members}
        for r in range(1, g.rank + 1):
            for combo in itertools.combinations(g.nodes, r):
                if not is_minus_one_type(g, combo):
                    continue
                for moved in elementary_moves(g, combo):
                    assert is_minus_one_type(g, moved)
                    assert owner[moved] == owner[combo]

    def test_a2_exchange(self):
        # {1} with 2 added is A2, whose symmetry swaps 1 and 2.
        assert elementary_moves(weyl_data("A", 3).symbol, [1]) == [(2,)]

    def test_non_antipodal_rejected(self):
        with pytest.raises(InvolutionError):
            elementary_moves(weyl_data("A", 3).symbol, [1, 2])

    def test_empty_and_unknown_rejected(self):
        g = weyl_data("A", 3).symbol
        with pytest.raises(InvolutionError):
            elementary_moves(g, [])
        with pytest.raises(SymbolError, match="99"):
            elementary_moves(g, [1, 99])

    def test_infinite_subsymbol_rejected(self):
        g = CoxeterSymbol([1, 2, 3], [(1, 2, 3), (2, 3, 3), (1, 3, 3)])
        with pytest.raises(InvolutionError):
            elementary_moves(g, [1, 2, 3])


def _relabelled(g, seed):
    names = [f"v{i}" for i in range(g.rank)]
    random.Random(seed).shuffle(names)
    relabel = dict(zip(g.nodes, names))
    return relabel, CoxeterSymbol(names, [(relabel[a], relabel[b], m) for a, b, m in g.edges()])


def pi_permutation(g):
    """The opposition involution of a connected finite symbol, as the move
    closure of equivalence_classes reads it."""
    return _opposition(g, g.nodes, classify_finite_type(g)[0])


class TestOpposition:
    """_opposition is the opposition involution s -> w0 s w0 on the
    generators, computed here in the reflection representation."""

    NON_ANTIPODAL = [("A", r) for r in range(2, 10)] + [("D", 5), ("D", 7), ("D", 9),
                                                        ("E6", None)]
    ANTIPODAL = ([("B", r) for r in range(2, 9)] + [("D", 4), ("D", 6), ("D", 8)]
                 + [("E7", None), ("E8", None), ("F4", None), ("G2", None)])

    @staticmethod
    def _w0_conjugation(w):
        w0 = word_to_matrix(w, longest_word(w))
        refl = {s: reflection_matrix(w, s) for s in w.symbol.nodes}
        images = {}
        for s in w.symbol.nodes:
            conj = mat_mul(mat_mul(w0, refl[s]), w0)
            (images[s],) = [t for t in w.symbol.nodes if refl[t] == conj]
        return images

    @pytest.mark.parametrize("fam,rank", NON_ANTIPODAL + ANTIPODAL)
    def test_matches_w0_conjugation(self, fam, rank):
        # The identity exactly on the antipodal types, where w0 = -1.
        w = weyl_data(fam, rank)
        pi = pi_permutation(w.symbol)
        assert pi == self._w0_conjugation(w)
        assert (pi == {s: s for s in w.symbol.nodes}) == ((fam, rank) in self.ANTIPODAL)

    @pytest.mark.parametrize("fam,rank", NON_ANTIPODAL + ANTIPODAL)
    def test_relabelled_copies(self, fam, rank):
        g = weyl_data(fam, rank).symbol
        pi = pi_permutation(g)
        for seed in range(3):
            relabel, h = _relabelled(g, seed)
            assert pi_permutation(h) == {relabel[s]: relabel[t] for s, t in pi.items()}

    @pytest.mark.parametrize("m", [5, 7])
    def test_odd_dihedral_swaps_its_nodes(self, m):
        for a, b in (("a", "b"), ("b", "a")):
            assert pi_permutation(CoxeterSymbol([a, b], [(a, b, m)])) == {"a": "b", "b": "a"}

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_even_dihedral_is_antipodal(self, m):
        assert pi_permutation(CoxeterSymbol(["a", "b"], [("a", "b", m)])) == \
            {"a": "a", "b": "b"}


class TestHalfTurn:
    @pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 4), ("D", 6), ("E6", None),
                                          ("E8", None), ("F4", None)])
    def test_half_coxeter_rank(self, fam, rank):
        # The Coxeter half-turn is an involution whose minus-one eigenspace
        # has the rank of the unique maximal involution class.
        w = weyl_data(fam, rank)
        g = mat_pow(coxeter_element(w), w.coxeter_number // 2)
        assert mat_mul(g, g) == identity_matrix(w.rank)
        assert minus_one_rank(g) == maximal_rank_class(w).rank

    def test_e8_maximal_class_has_full_rank(self):
        assert maximal_rank_class(weyl_data("E8")).rank == 8


WEYL_TYPES = ([("A", r) for r in range(1, 13)] + [("B", r) for r in range(2, 13)]
              + [("D", r) for r in range(4, 13)]
              + [(t, None) for t in ("E6", "E7", "E8", "F4", "G2")])


class TestAntipodalSize:
    """FiniteType.antipodal_size, the largest antipodal subset in closed
    form, against the classes and the subset walk."""

    @pytest.mark.parametrize("fam,rank", WEYL_TYPES)
    def test_is_the_maximal_class_rank(self, fam, rank):
        w = weyl_data(fam, rank)
        (t,) = classify_finite_type(w.symbol)
        assert t.antipodal_size == maximal_rank_class(w).rank

    @pytest.mark.parametrize("fam,rank", [("E6", None), ("E7", None), ("E8", None), ("D", 8)])
    def test_every_node_mask_against_the_walk(self, fam, rank):
        # Summed over the components of each node mask, it is the largest
        # antipodal set of the walk inside that mask.
        w = weyl_data(fam, rank)
        antipodal = [m for m, comps in spherical_subsets(w.symbol).items()
                     if all(t.antipodal for _, t in comps)]
        for free in range(1 << w.rank):
            expected = max(m.bit_count() for m in antipodal if not m & ~free)
            assert _free_antipodal_size(w, free) == expected, free


class TestUnsortedNodeOrder:
    """Bit i of a mask is g.nodes[i]; outputs list nodes by node_sort_key.
    Symbols whose nodes are not given in that order exercise the symbol's
    precomputed bit order."""

    SYMBOLS = [
        (["v3", "v1", "v10", "v2"], [("v1", "v2", 3), ("v2", "v3", 3), ("v3", "v10", 3)]),
        ([2, "t1", 1], [(1, 2, 3), (2, "t1", 4)]),
    ]

    @staticmethod
    def _key(nodes):
        return tuple(node_sort_key(v) for v in nodes)

    @pytest.mark.parametrize("nodes,edges", SYMBOLS)
    def test_mask_nodes(self, nodes, edges):
        g = CoxeterSymbol(nodes, edges)
        assert sorted(nodes, key=node_sort_key) != nodes
        for mask in range(1 << len(nodes)):
            chosen = [v for i, v in enumerate(nodes) if mask >> i & 1]
            assert mask_nodes(g, mask) == tuple(sorted(chosen, key=node_sort_key))

    @pytest.mark.parametrize("nodes,edges", SYMBOLS)
    def test_equivalence_classes(self, nodes, edges):
        classes = equivalence_classes(CoxeterSymbol(nodes, edges))
        for c in classes:
            assert all(m == tuple(sorted(m, key=node_sort_key)) for m in c.members)
            assert list(c.members) == sorted(c.members, key=self._key)
        assert list(classes) == sorted(classes, key=lambda c: (c.rank, self._key(c.canonical)))
        in_order = CoxeterSymbol(sorted(nodes, key=node_sort_key), edges)
        assert classes == equivalence_classes(in_order)
