import itertools
import math
import random
from fractions import Fraction

import pytest

from coxfree import (
    INF,
    CoxeterSymbol,
    SymbolError,
    bilinear_gram,
    classify_finite_type,
    connected_components,
    euler_characteristic,
    finite_order,
    induced_subsymbol,
    parse_symbol,
    serialize_symbol,
    signature,
    weyl_data,
)
from coxfree.symbols import component_shape, spherical_subsets
from oracles import closure, eigen_signs, eigenvalues, signed_generators


def path_symbol(labels):
    n = len(labels) + 1
    return CoxeterSymbol(range(1, n + 1), [(i, i + 1, m) for i, m in enumerate(labels, 1)])


class TestParse:
    def test_round_trip(self):
        g = parse_symbol('{"nodes":["1","2"],"edges":[["1","2",3]]}')
        assert g.order("1", "2") == 3
        assert parse_symbol(serialize_symbol(g)) == g

    def test_infinite_edge(self):
        g = parse_symbol({"nodes": ["1", "2"], "edges": [["1", "2", "inf"]]})
        assert g.order("1", "2") == INF
        assert serialize_symbol(g)["edges"] == [["1", "2", "inf"]]

    def test_m_equal_one_rejected(self):
        with pytest.raises(SymbolError):
            parse_symbol({"nodes": ["1", "2"], "edges": [["1", "2", 1]]})

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(SymbolError):
            parse_symbol({"nodes": ["1", "1"], "edges": []})

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(SymbolError):
            parse_symbol({"nodes": ["1"], "edges": [["1", "2", 3]]})

    def test_commuting_edges_dropped(self):
        g = parse_symbol({"nodes": ["a", "b"], "edges": [["a", "b", 2]]})
        assert g.edges() == []


class TestSubsymbols:
    def test_path_restriction(self):
        a3 = path_symbol([3, 3])
        sub = induced_subsymbol(a3, [1, 2])
        assert classify_finite_type(sub)[0].label() == "A2"

    def test_disconnecting_restriction(self):
        a3 = path_symbol([3, 3])
        sub = induced_subsymbol(a3, [1, 3])
        assert [t.label() for t in classify_finite_type(sub)] == ["A1", "A1"]

    def test_empty_subset(self):
        assert induced_subsymbol(path_symbol([3, 3]), []).rank == 0

    def test_unknown_node(self):
        with pytest.raises(SymbolError):
            induced_subsymbol(path_symbol([3]), [7])

    def test_components(self):
        g = CoxeterSymbol([1, 2, 3, 4], [(1, 2, 4), (3, 4, 3)])
        assert connected_components(g) == [(1, 2), (3, 4)]
        assert connected_components(path_symbol([3, 3])) == [(1, 2, 3)]


class TestClassification:
    def test_b5_order_against_signed_permutation_closure(self):
        # Independent oracle: breadth-first closure of the rank-5 signed
        # permutation generators.
        oracle_order = len(closure(signed_generators(5)))
        types = classify_finite_type(path_symbol([3, 3, 3, 4]))
        assert [t.label() for t in types] == ["B5"]
        assert types[0].order == oracle_order == 3840

    def test_affine_path_is_not_finite(self):
        assert classify_finite_type(path_symbol([4, 3, 3, 4])) is None

    def test_single_node(self):
        g = CoxeterSymbol(["s"], [])
        assert classify_finite_type(g)[0].label() == "A1"
        assert finite_order(g) == 2

    def test_exceptional_orders_match_exponents(self):
        for label in ("E6", "E7", "E8", "F4", "G2"):
            w = weyl_data(label)
            assert classify_finite_type(w.symbol)[0].order == w.order

    def test_product_order(self):
        g = CoxeterSymbol([1, 2, 3], [(1, 2, 3)])
        assert finite_order(g) == 12  # A2 x A1

    def test_h_and_i_types(self):
        assert classify_finite_type(path_symbol([5, 3]))[0].label() == "H3"
        assert classify_finite_type(path_symbol([5, 3, 3]))[0].label() == "H4"
        assert classify_finite_type(path_symbol([7]))[0].order == 14
        assert classify_finite_type(path_symbol([5, 3, 3, 3])) is None

    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for label, rank in [("A", 5), ("B", 4), ("D", 5), ("E6", None), ("F4", None)]:
            base = weyl_data(label, rank).symbol
            names = [f"n{i}" for i in range(base.rank)]
            rng.shuffle(names)
            relabel = dict(zip(base.nodes, names))
            shuffled_nodes = list(names)
            rng.shuffle(shuffled_nodes)
            g = CoxeterSymbol(
                shuffled_nodes,
                [(relabel[a], relabel[b], m) for a, b, m in base.edges()],
            )
            assert [t.label() for t in classify_finite_type(g)] == \
                [t.label() for t in classify_finite_type(base)]


class TestComponentShape:
    def test_path_walked_from_its_first_end(self):
        g = path_symbol([3, 4, INF])
        assert component_shape(g, (1, 2, 3, 4)) == (None, [[1, 2, 3, 4]])
        assert component_shape(g, (4, 3, 2, 1)) == (None, [[4, 3, 2, 1]])
        assert component_shape(g, (2,)) == (None, [[2]])

    def test_arms_walked_outward_longest_first(self):
        g = CoxeterSymbol("abcdef", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3),
                                     ("c", "e", 3), ("e", "f", 5)])
        assert component_shape(g, tuple("abcdef")) == ("c", [["b", "a"], ["e", "f"], ["d"]])
        assert component_shape(g, tuple("bcde")) == ("c", [["b"], ["d"], ["e"]])

    def test_anything_else_is_none(self):
        two_branches = CoxeterSymbol(range(6), [(0, 1, 3), (0, 2, 3), (0, 3, 3), (3, 4, 3),
                                               (3, 5, 3)])
        assert component_shape(two_branches, tuple(range(6))) is None
        assert component_shape(cycle_symbol([3, 3, 3]), (0, 1, 2)) is None
        # A triangle and a lone node have |E| = |V| - 1 but are no tree.
        assert component_shape(CoxeterSymbol(range(4), [(0, 1, 3), (1, 2, 3), (0, 2, 3)]),
                               (0, 1, 2, 3)) is None
        assert component_shape(path_symbol([3, 3]), (1, 3)) is None


class TestEuler:
    def test_single_node(self):
        assert euler_characteristic(CoxeterSymbol(["s"], [])) == Fraction(1, 2)

    def test_infinite_dihedral(self):
        g = CoxeterSymbol([1, 2], [(1, 2, INF)])
        assert euler_characteristic(g) == 0

    def test_reciprocal_order_for_finite_types(self):
        cases = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
        cases += [("D", r) for r in range(4, 7)] + [("G2", None), ("F4", None), ("E6", None)]
        for fam, rank in cases:
            w = weyl_data(fam, rank)
            assert euler_characteristic(w.symbol) * w.order == 1
        for labels in ([5, 3], [5, 3, 3], [5], [7]):
            g = path_symbol(labels)
            assert euler_characteristic(g) * finite_order(g) == 1


def brute_force_euler(g):
    """chi as the plain sum over all 2^n node subsets."""
    chi = Fraction(0)
    for r in range(g.rank + 1):
        for subset in itertools.combinations(g.nodes, r):
            types = classify_finite_type(induced_subsymbol(g, subset))
            if types is not None:
                chi += Fraction((-1) ** r, math.prod(t.order for t in types))
    return chi


def cycle_symbol(labels):
    n = len(labels)
    return CoxeterSymbol(range(n), [(i, (i + 1) % n, m) for i, m in enumerate(labels)])


class TestEulerWalk:
    AFFINE = {
        "~A3": cycle_symbol([3, 3, 3, 3]),
        "~B3": CoxeterSymbol(range(4), [(0, 2, 3), (1, 2, 3), (2, 3, 4)]),
        "~C3": path_symbol([4, 3, 4]),
        "~G2": path_symbol([3, 6]),
        "~D4": CoxeterSymbol(range(5), [(0, 4, 3), (1, 4, 3), (2, 4, 3), (3, 4, 3)]),
    }
    HYPERBOLIC = {
        "triangle(2,3,7)": path_symbol([3, 7]),
        "triangle(3,3,4)": cycle_symbol([3, 3, 4]),
        "triangle(inf,inf,inf)": cycle_symbol([INF, INF, INF]),
        "[5,3,5]": path_symbol([5, 3, 5]),
        "[4,3,5]": path_symbol([4, 3, 5]),
        "E8 pendant": CoxeterSymbol(list(range(1, 9)) + ["t"],
                                    weyl_data("E8").symbol.edges() + [(8, "t", 4)]),
    }

    @pytest.mark.parametrize("name", sorted(AFFINE))
    def test_affine_is_zero(self, name):
        g = self.AFFINE[name]
        assert euler_characteristic(g) == brute_force_euler(g) == 0

    @pytest.mark.parametrize("name", sorted(HYPERBOLIC))
    def test_hyperbolic_matches_brute_force(self, name):
        g = self.HYPERBOLIC[name]
        assert euler_characteristic(g) == brute_force_euler(g)

    def test_triangle_groups_closed_form(self):
        # chi = 1 - 3/2 + sum 1/(2 m) over the three pairs (whole triangle infinite).
        for p, q, r in ((2, 3, 7), (2, 4, 5), (3, 3, 4), (3, 3, 3)):
            g = CoxeterSymbol([1, 2, 3], [(1, 2, p), (2, 3, q), (1, 3, r)])
            assert euler_characteristic(g) == Fraction(-1, 2) + sum(
                Fraction(1, 2 * m) for m in (p, q, r))

    def test_walk_lists_exactly_the_spherical_subsets(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 7)
            nodes = list(range(n))
            edges = [(a, b, rng.choice([3, 3, 4, 5, 6, INF]))
                     for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.4]
            g = CoxeterSymbol(nodes, edges)
            walk = spherical_subsets(g)
            spherical = []
            for r in range(n + 1):
                for subset in itertools.combinations(nodes, r):
                    types = classify_finite_type(induced_subsymbol(g, subset))
                    mask = sum(1 << v for v in subset)
                    if types is None:
                        assert mask not in walk
                    else:
                        spherical.append(mask)
                        assert sorted(t.label() for _, t in walk[mask]) == \
                            sorted(t.label() for t in types)
            assert list(walk) == spherical  # size, then combinations order

    def test_weyl_symbols_are_spherical_throughout(self):
        assert len(spherical_subsets(weyl_data("E8").symbol)) == 2 ** 8


class TestBilinearForm:
    def test_a2_gram(self):
        mat = bilinear_gram(weyl_data("A", 2).symbol)
        assert mat[0][1] == pytest.approx(-0.5)

    def test_b2_gram(self):
        mat = bilinear_gram(weyl_data("B", 2).symbol)
        assert mat[0][1] == pytest.approx(-math.sqrt(2) / 2)

    def test_non_finite_inf_value_rejected(self):
        g = CoxeterSymbol([1, 2], [(1, 2, INF)])
        for value in (math.nan, -math.inf, -0.5):
            with pytest.raises(SymbolError):
                bilinear_gram(g, value)

    def test_infinite_edge_value(self):
        g = CoxeterSymbol([1, 2], [(1, 2, INF)])
        assert bilinear_gram(g, inf_value=-1.0)[0][1] == -1.0
        with pytest.raises(SymbolError):
            bilinear_gram(g, inf_value=-0.5)

    def test_signatures(self):
        assert signature(weyl_data("A", 2).symbol) == (2, 0, 0)
        affine = CoxeterSymbol([1, 2], [(1, 2, INF)])
        assert signature(affine, inf_value=-1.0) == (1, 0, 1)

    def test_positive_definite_iff_finite(self):
        rng = random.Random(20240)
        labels = [2, 3, 4, 5, 6, INF]
        for _ in range(50):
            n = rng.randint(1, 6)
            edges = []
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    m = rng.choice(labels)
                    if m != 2:
                        edges.append((i, j, m))
            g = CoxeterSymbol(range(1, n + 1), edges)
            finite = classify_finite_type(g) is not None
            n_plus, n_minus, n_zero = signature(g)
            assert (n_plus == n and n_minus == n_zero == 0) == finite
            assert n_plus + n_minus + n_zero == n


def random_symbol(rng):
    """A tree on 2-12 nodes plus up to two extra edges, labels 3, 4, 5, 6, INF."""
    n = rng.randint(2, 12)
    edges = {(rng.randint(1, i - 1), i): rng.choice([3, 4, 5, 6, INF]) for i in range(2, n + 1)}
    for _ in range(rng.randint(0, 2)):
        edges.setdefault(tuple(sorted(rng.sample(range(1, n + 1), 2))), rng.choice([3, 4, 5, 6, INF]))
    return CoxeterSymbol(range(1, n + 1), [(a, b, m) for (a, b), m in edges.items()])


# Affine symbols at inf_value -1: each has exactly one zero eigenvalue.
AFFINE = [
    CoxeterSymbol([1, 2], [(1, 2, INF)]),
    CoxeterSymbol([1, 2, 3], [(1, 2, 3), (2, 3, 3), (1, 3, 3)]),
    CoxeterSymbol(range(1, 6), [(i, i % 5 + 1, 3) for i in range(1, 6)]),
    path_symbol([4, 4]),
    path_symbol([6, 3]),
    path_symbol([4, 3, 3, 4]),
    path_symbol([3, 3, 4, 3]),
]


class TestSignatureSweep:
    def test_affine_symbols_have_one_zero(self):
        for g in AFFINE:
            assert signature(g) == (g.rank - 1, 0, 1), g

    def test_matches_eigenvalue_signs_on_random_symbols(self):
        # Every oracle eigenvalue is either rounding noise around zero or
        # clear of SIGNATURE_TOL by orders of magnitude, so the signs are
        # unambiguous and the exact elimination must reproduce them.
        rng = random.Random(104723)
        cases = [(random_symbol(rng), rng.choice([-1.0, -1.5, -2.0])) for _ in range(300)]
        cases += [(g, -1.0) for g in AFFINE]
        singular = 0
        for g, inf_value in cases:
            gram = bilinear_gram(g, inf_value)
            assert all(abs(x) <= 1e-12 or abs(x) >= 1e-5 for x in eigenvalues(gram)), g
            counts = signature(g, inf_value)
            assert counts == eigen_signs(gram), (g, inf_value)
            singular += counts[2] > 0
        assert len(cases) >= 300 and singular >= 5 + len(AFFINE)
