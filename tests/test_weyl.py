import random
from fractions import Fraction

import pytest

from coxfree import (
    WeylError,
    weyl_data,
    reflection_matrix,
    word_to_matrix,
    coxeter_element,
    longest_word,
)
from coxfree import weyl as wy
from coxfree.symbols import SymbolError, inertia
from coxfree.weyl import identity_matrix, mat_mul
from oracles import (eigen_signs, element_order, leibniz_det, minor_rank, preserves_gram,
                     row_reduce_fractions, signed_generators, symmetric_generators, verify_exponents, word_perm)

ALL_RANK_LE_8 = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)]
)

CLASSICAL_ORDERS = {"A": lambda n: _fact(n + 1), "B": lambda n: 2 ** n * _fact(n),
                    "D": lambda n: 2 ** (n - 1) * _fact(n)}


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class TestWeylData:
    def test_one_instance_per_type(self):
        # weyl_data builds each (family, rank) once, so identity is equality
        # and a memo keyed by a WeylData hashes its id.
        assert weyl_data("E", 8) is weyl_data("e8") is weyl_data("E8", 8)
        assert weyl_data("B", 4) is weyl_data("b", 4)
        assert wy.WeylData.__eq__ is object.__eq__
        assert wy.WeylData.__hash__ is object.__hash__

    def test_table_rows(self):
        e8 = weyl_data("E8")
        assert (e8.coxeter_number, e8.index_of_connection, e8.minus_one_type) == (30, 1, True)
        assert weyl_data("A", 1).minus_one_type
        assert not weyl_data("A", 2).minus_one_type
        assert not weyl_data("E6").minus_one_type
        assert weyl_data("D", 6).minus_one_type
        assert not weyl_data("D", 5).minus_one_type

    def test_orders(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            if fam in CLASSICAL_ORDERS:
                assert w.order == CLASSICAL_ORDERS[fam](rank)
        assert weyl_data("E6").order == 51840
        assert weyl_data("E8").order == 696729600

    def test_h_is_top_exponent_plus_one(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            assert w.coxeter_number == max(w.exponents) + 1

    def test_invalid_ranks(self):
        with pytest.raises(WeylError):
            weyl_data("D", 3)
        with pytest.raises(WeylError):
            weyl_data("B", 1)
        with pytest.raises(WeylError):
            weyl_data("Z", 9)

    def test_cartan_values(self):
        assert weyl_data("A", 2).cartan == ((2, -1), (-1, 2))
        g2 = weyl_data("G2").cartan
        assert g2[0][1] == -3 and g2[1][0] == -1
        b2 = weyl_data("B", 2).cartan
        assert b2[0][1] == -2 and b2[1][0] == -1

    def test_scaled_nodes(self):
        assert weyl_data("B", 5).scaled_nodes == frozenset({5})
        assert weyl_data("F4").scaled_nodes == frozenset({3, 4})
        assert weyl_data("G2").scaled_nodes == frozenset({2})
        assert weyl_data("E7").scaled_nodes == frozenset()


class TestReflections:
    def test_involutive(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            for i in w.symbol.nodes:
                m = reflection_matrix(w, i)
                assert mat_mul(m, m) == identity_matrix(w.rank)

    def test_a2_action(self):
        m = reflection_matrix(weyl_data("A", 2), 1)
        # column 2 is the image of x_2: it gains x_1
        assert [row[1] for row in m] == [1, 1]

    def test_b2_action(self):
        m = reflection_matrix(weyl_data("B", 2), 1)
        assert [row[1] for row in m] == [2, 1]

    def test_braid_relation(self):
        w = weyl_data("A", 2)
        assert word_to_matrix(w, [1, 2, 1]) == word_to_matrix(w, [2, 1, 2])

    def test_empty_and_square_words(self):
        w = weyl_data("B", 3)
        assert word_to_matrix(w, []) == identity_matrix(3)
        assert word_to_matrix(w, [1, 1]) == identity_matrix(3)

    def test_gram_preserved_on_random_words(self):
        rng = random.Random(5)
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            nodes = list(w.symbol.nodes)
            for _ in range(4):
                word = [rng.choice(nodes) for _ in range(rng.randint(0, 30))]
                assert preserves_gram(w, word_to_matrix(w, word))


class TestCoxeterElements:
    def test_orders_match_coxeter_numbers(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            assert element_order(coxeter_element(w), 64) == w.coxeter_number

    def test_visible_d5_inside_e6(self):
        w = weyl_data("E6")
        xi = coxeter_element(w, nodes=[2, 3, 4, 5, 6])
        assert element_order(xi, 64) == 8

    def test_disconnected_subset_rejected(self):
        with pytest.raises(WeylError):
            coxeter_element(weyl_data("A", 3), nodes=[1, 3])

    def test_unknown_or_empty_node_set_rejected(self):
        w = weyl_data("E6")
        with pytest.raises(WeylError, match="unknown nodes"):
            coxeter_element(w, nodes=[2, 3, 9])
        with pytest.raises(WeylError, match="connected"):
            coxeter_element(w, nodes=[])

    def test_element_order_basics(self):
        w = weyl_data("E8")
        assert element_order(identity_matrix(8)) == 1
        assert element_order(reflection_matrix(w, 3)) == 2
        with pytest.raises(ValueError, match="bound 10"):
            element_order(coxeter_element(w), 10)

    def test_exponent_eigenvalues(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            assert verify_exponents(coxeter_element(w), w.coxeter_number, w.exponents)


POSITIVE_ROOT_COUNTS = {
    ("A", 4): 10, ("A", 7): 28, ("B", 4): 16, ("B", 6): 36, ("D", 5): 20,
    ("G2", None): 6, ("F4", None): 24, ("E6", None): 36, ("E7", None): 63,
    ("E8", None): 120,
}


def _longest(w, delta=None):
    """The longest element of the visible subgroup on delta, with its length."""
    word = longest_word(w, delta)
    return word_to_matrix(w, word), len(word)


class TestLongestElements:
    def test_single_node(self):
        w = weyl_data("A", 3)
        m, length = _longest(w, [2])
        assert length == 1 and m == reflection_matrix(w, 2)

    def test_e8_is_minus_identity(self):
        m, length = _longest(weyl_data("E8"))
        assert length == 120
        assert m == tuple(tuple(-1 if i == j else 0 for j in range(8)) for i in range(8))

    def test_a2_against_brute_force(self):
        # Oracle: enumerate all 6 elements of the rank-2 symmetric-type group
        # with word lengths, via breadth-first search over reduced words.
        w = weyl_data("A", 2)
        seen = {identity_matrix(2): 0}
        frontier = [identity_matrix(2)]
        while frontier:
            nxt = []
            for m in frontier:
                for s in (1, 2):
                    prod = mat_mul(m, reflection_matrix(w, s))
                    if prod not in seen:
                        seen[prod] = seen[m] + 1
                        nxt.append(prod)
            frontier = nxt
        assert len(seen) == 6
        top = max(seen.values())
        oracle = [m for m, l in seen.items() if l == top]
        got, length = _longest(w)
        assert length == top == 3
        assert [got] == oracle
        assert mat_mul(got, got) == identity_matrix(2)

    def test_lengths_are_positive_root_counts(self):
        for (fam, rank), count in POSITIVE_ROOT_COUNTS.items():
            _, length = _longest(weyl_data(fam, rank))
            assert length == count

    def test_minus_one_exactly_on_minus_one_types(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            m, _ = _longest(w)
            minus = tuple(tuple(-1 if i == j else 0 for j in range(w.rank))
                          for i in range(w.rank))
            assert (m == minus) == w.minus_one_type

    def test_fixes_orthogonal_complement(self):
        from coxfree.modtwo import weight_vector

        def mat_vec(a, v):
            return tuple(sum(x * y for x, y in zip(row, v)) for row in a)

        w = weyl_data("E6")
        m, _ = _longest(w, [2, 3, 4])
        # Weight vectors at 1 and 6 are orthogonal to x_2, x_3, x_4, so the
        # subgroup's longest element must fix them pointwise.
        for node in (1, 6):
            u = weight_vector(w, node).coords
            assert mat_vec(m, u) == u
        # On its own roots it acts negatively.
        for s in (2, 3, 4):
            e_s = tuple(1 if i == s - 1 else 0 for i in range(6))
            assert all(c <= 0 for c in mat_vec(m, e_s))


def _perm_generators(family, rank):
    """The oracle's (signed) permutation generators in weyl_data's numbering."""
    return symmetric_generators(rank) if family == "A" else signed_generators(rank, family == "D")


class TestPermModel:
    def test_a2_three_cycle(self):
        assert word_perm(_perm_generators("A", 2), [1, 2]) == (2, 3, 1)

    def test_b2_sign_flip(self):
        assert word_perm(_perm_generators("B", 2), [2]) == (1, -2)

    def test_d4_fork_generator(self):
        assert word_perm(_perm_generators("D", 4), [4]) == (1, 2, -4, -3)

    def test_matches_matrix_equality(self):
        rng = random.Random(11)
        for fam, rank in [("A", 4), ("B", 4), ("D", 4)]:
            w = weyl_data(fam, rank)
            gens = _perm_generators(fam, rank)
            nodes = list(w.symbol.nodes)
            for _ in range(200):
                w1 = [rng.choice(nodes) for _ in range(rng.randint(0, 8))]
                w2 = [rng.choice(nodes) for _ in range(rng.randint(0, 8))]
                same_matrix = word_to_matrix(w, w1) == word_to_matrix(w, w2)
                same_perm = word_perm(gens, w1) == word_perm(gens, w2)
                assert same_matrix == same_perm


class TestNegativeExponents:
    def test_mat_pow_rejects_negative_exponent(self):
        xi = coxeter_element(weyl_data("B", 4))
        with pytest.raises(WeylError):
            wy.mat_pow(xi, -1)

    def test_mat_pow_zero_is_identity(self):
        xi = coxeter_element(weyl_data("B", 4))
        assert wy.mat_pow(xi, 0) == identity_matrix(4)

    def test_power_is_repeated_product(self):
        # Non-commutative words under concatenation show the product order.
        for k in range(9):
            assert wy.power("ab", k, lambda x, y: x + y, "") == "ab" * k


class TestSparseReflections:
    def test_reflect_rows_matches_dense_product(self):
        rng = random.Random(11)
        for fam, rank in [("A", 5), ("B", 4), ("D", 6), ("F4", None), ("G2", None), ("E8", None)]:
            w = weyl_data(fam, rank)
            for _ in range(20):
                word = [rng.choice(w.symbol.nodes) for _ in range(rng.randint(0, 25))]
                dense = identity_matrix(w.rank)
                for s in word:
                    dense = mat_mul(dense, reflection_matrix(w, s))
                assert word_to_matrix(w, word) == dense

    def test_unknown_nodes_rejected(self):
        w = weyl_data("A", 3)
        with pytest.raises(WeylError):
            word_to_matrix(w, [1, 0])
        with pytest.raises(WeylError):
            longest_word(w, [1, 4])


def _random_matrices(seed, count, square):
    """Seeded integer matrices up to 6 x 6; about half made singular by a
    zero row, a repeated row or a row that is the sum of two others."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if k % 2 and rows > 1:
            i, j = rng.sample(range(rows), 2)
            a[i] = rng.choice([[0] * cols, list(a[j]),
                               [x + y for x, y in zip(a[j], a[rng.randrange(rows)])]])
        out.append(tuple(map(tuple, a)))
    return out


class TestExactElimination:
    def test_determinant_against_leibniz(self):
        matrices = _random_matrices(21, 80, square=True)
        assert any(leibniz_det(a) == 0 for a in matrices)
        for a in matrices:
            assert wy.row_reduce(a)[2] == leibniz_det(a)

    def test_rank_against_minor_search(self):
        matrices = _random_matrices(22, 80, square=False)
        assert len({minor_rank(a) for a in matrices}) > 3
        for a in matrices:
            assert wy.rank_rational(a) == minor_rank(a)

    def test_inverse_times_matrix_is_identity(self):
        for a in _random_matrices(23, 80, square=True):
            if leibniz_det(a) == 0:
                with pytest.raises(WeylError):
                    wy.rational_inverse(a)
                continue
            inv = wy.rational_inverse(a)
            ident = identity_matrix(len(a))
            assert mat_mul(a, inv) == ident and mat_mul(inv, a) == ident

    def test_gram2_inverse(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            assert mat_mul(w.gram2, w.gram2_inverse) == identity_matrix(w.rank)

    def test_unimodular_inverse_is_integral(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            xi = coxeter_element(w)
            assert wy.rational_inverse(xi) == wy.mat_pow(xi, w.coxeter_number - 1)

    def test_fraction_free_against_fraction_elimination(self):
        # 3,000 seeded matrices up to 7 x 7, square, wide and tall, half of
        # them made singular; every fourth holds Fraction entries.
        rng = random.Random(24)
        for k in range(3000):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            if k % 2 and rows > 1:
                i, j = rng.sample(range(rows), 2)
                a[i] = rng.choice([[0] * cols, list(a[j]),
                                   [x - 2 * y for x, y in zip(a[j], a[rng.randrange(rows)])]])
            if k % 4 == 3:
                a = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in a]
            assert wy.row_reduce(a) == row_reduce_fractions(a), a
        assert wy.row_reduce([]) == row_reduce_fractions([]) == ((), (), 1)

    def test_singular_inverse_rejected(self):
        with pytest.raises(WeylError, match="singular"):
            wy.rational_inverse(((1, 2), (2, 4)))
        with pytest.raises(WeylError, match="not square"):
            wy.rational_inverse(((1, 2, 3), (4, 5, 6)))


def _random_symmetric(rng, n):
    """Symmetric n x n integer matrix with entries in [-2, 2], at times with
    an all-zero diagonal (so the 2x2 pivot runs) or two equal rows (so it is
    singular).  Its nonzero eigenvalues exceed 1/14^6 > 1e-7 in size, far
    above the oracle's zero tolerance: the product of all of them is a
    nonzero integer (a sum of principal minors), there are at most 7, and
    each has size at most the largest row sum 2n <= 14."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rng.randint(-2, 2)
    if rng.random() < 0.4:
        for i in range(n):
            a[i][i] = 0
    if n > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(n), 2)
        a[j] = list(a[i])
        for row in a:
            row[j] = row[i]
    return a


class TestInertia:
    def test_pins(self):
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
        assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
        assert inertia([]) == (0, 0, 0)
        assert inertia([[2, -1], [-1, 2]]) == (2, 0, 0)
        # Rational entries: det = -1/10 - 1/9 < 0.
        assert inertia([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1, 5)]]) == (1, 1, 0)

    def test_two_by_two_pivot_on_a_nonzero_diagonal(self):
        # The off-diagonal 4 is more than twice the diagonal 1, so the first
        # pivot is a 2x2 block; eigenvalues 5 and -3.
        assert inertia([[1, 4], [4, 1]]) == (1, 1, 0)
        # The same block spread over rows 0 and 2 of a 3x3; eigenvalues 5, -1, -3.
        assert inertia([[1, 0, 4], [0, -1, 0], [4, 0, 1]]) == (1, 2, 0)
        # Huge off-diagonal: eigenvalues near +-1e300 and one near 1.
        assert inertia([[1, -1e300, 0], [-1e300, 1, -0.5], [0, -0.5, 1]]) == (2, 1, 0)

    def test_tolerance(self):
        assert inertia([[1e-9, 0], [0, 1]]) == (2, 0, 0)
        assert inertia([[1e-9, 0], [0, 1]], tol=1e-8) == (1, 0, 1)
        assert inertia([[0, 1e-9], [1e-9, 0]]) == (1, 1, 0)
        assert inertia([[0, 1e-9], [1e-9, 0]], tol=1e-8) == (0, 0, 2)
        # The Schur complement of the first pivot is the exact 1e-12-ish
        # gap between the rounded entries.
        assert inertia([[1, 1], [1, 1 + 1e-12]]) == (2, 0, 0)
        assert inertia([[1, 1], [1, 1 + 1e-12]], tol=1e-8) == (1, 0, 1)
        # The largest diagonal entry in size is the first pivot.
        assert inertia([[-3, 0], [0, 2]], tol=2) == (0, 1, 1)

    def test_matches_float_eigenvalue_signs(self):
        rng = random.Random(7)
        zero_diagonal = singular = 0
        for _ in range(400):
            a = _random_symmetric(rng, rng.randint(1, 7))
            expected = eigen_signs(a)
            assert inertia(a) == expected, a
            zero_diagonal += len(a) > 1 and not any(a[i][i] for i in range(len(a))) and any(map(any, a))
            singular += expected[2] > 0
        assert zero_diagonal >= 50 and singular >= 50

    def test_rejects_non_symmetric(self):
        with pytest.raises(SymbolError):
            inertia([[1, 2], [3, 4]])
        with pytest.raises(SymbolError):
            inertia([[1, 2]])
