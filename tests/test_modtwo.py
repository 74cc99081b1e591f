import functools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from coxfree import (
    ModTwoError,
    admissible_nodes,
    alpha_map,
    coxeter_element,
    dpsi,
    find_target,
    involution_ker_im,
    lambda_dim,
    orbit_span,
    weight_vector,
    weyl_data,
    word_to_matrix,
)
from coxfree import modtwo as m2
from coxfree import weyl as wy
from coxfree.symbols import classify_finite_type, induced_subsymbol
from oracles import is_independent_for, tree_path, x_set

ALL_RANK_LE_8 = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)]
)
BD_UP_TO_12 = [("B", r) for r in range(9, 13)] + [("D", r) for r in range(9, 13)]


def mask(*coords):
    out = 0
    for i in coords:
        out |= 1 << (i - 1)
    return out


class TestWeightVectors:
    def test_type_a_end_node_golden(self):
        for n in range(2, 13):
            u = weight_vector(weyl_data("A", n), n)
            assert u.coords == tuple(range(1, n + 1))

    def test_type_d_trunk_end_golden(self):
        for n in range(4, 13):
            u = weight_vector(weyl_data("D", n), 1)
            assert u.coords == (2,) * (n - 2) + (1, 1)

    def test_b2_value(self):
        assert weight_vector(weyl_data("B", 2), 1).coords == (2, 1)

    def test_a4_interior_value(self):
        assert weight_vector(weyl_data("A", 4), 2).coords == (3, 6, 4, 2)

    def test_e6_multiset(self):
        w = weyl_data("E6")
        multisets = {s: sorted(weight_vector(w, s).coords) for s in w.symbol.nodes}
        assert [2, 3, 4, 4, 5, 6] in multisets.values()

    def test_invariants_everywhere(self):
        for fam, rank in ALL_RANK_LE_8 + BD_UP_TO_12:
            w = weyl_data(fam, rank)
            for s in w.symbol.nodes:
                u = weight_vector(w, s)
                g = 0
                for c in u.coords:
                    g = gcd(g, c)
                assert g == 1
                assert u.coords[s - 1] > 0
                assert u.mod2() != 0
                pairing = [sum(x * c for x, c in zip(row, u.coords)) for row in w.gram2]
                assert [i for i, v in enumerate(pairing, 1) if v != 0] == [s]

    def test_parallel_to_dual_basis_column(self):
        # Independent oracle: solve cartan c = e_s exactly and compare rays.
        # Row t of cartan is <x_j, x_t^v>, a positive multiple of (x_j, x_t),
        # so u is orthogonal to every x_t with t != s exactly when cartan u
        # is a multiple of e_s: u lies on column s of cartan^-1, the basis
        # dual to the coroots.  (Solving with cartan^T instead agrees only
        # when all roots have one length; on B2 it gives (1, 1), which is
        # orthogonal to x_1 rather than x_2, against test_b2_value.)
        for fam, rank in [("A", 5), ("B", 4), ("D", 5), ("G2", None), ("F4", None), ("E6", None)]:
            w = weyl_data(fam, rank)
            n = w.rank
            c = [[Fraction(w.cartan[i][j]) for j in range(n)] for i in range(n)]
            for s in w.symbol.nodes:
                u = weight_vector(w, s).coords
                col = _solve_fraction(c, s - 1)
                ratios = {Fraction(ui) / ci for ui, ci in zip(u, col) if ci != 0}
                assert len(ratios) == 1 and ratios.pop() > 0
                assert all((ci == 0) == (ui == 0) for ui, ci in zip(u, col))

    def test_no_elimination_after_first_call(self, monkeypatch):
        w = weyl_data("E7")
        first = weight_vector(w, 1)

        def no_elimination(a):
            raise AssertionError("weight_vector ran an elimination")

        monkeypatch.setattr(wy, "row_reduce", no_elimination)
        assert weight_vector(w, 1) == first
        assert all(weight_vector(w, s).node == s for s in w.symbol.nodes)


def _solve_fraction(mat, col_index):
    n = len(mat)
    work = [row[:] + [Fraction(1) if r == col_index else Fraction(0)]
            for r, row in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if work[r][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        pv = work[c][c]
        work[c] = [x / pv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [work[r][n] for r in range(n)]


class TestReduction:
    def test_vector(self):
        assert m2.vec_mod2((2, 2, 1, 1)) == mask(3, 4)
        assert m2.vec_mod2(tuple(range(1, 9))) == mask(1, 3, 5, 7)

    def test_matrix(self):
        ident = wy.identity_matrix(3)
        assert m2.mat_mod2(ident) == m2.f2_identity(3)


class TestNullspace:
    def test_matches_brute_force_kernel(self):
        # 300 seeded n x n matrices, n <= 8, sparse to dense, so most are
        # singular; the kernel is every v with M v = 0, found by trying all.
        rng = random.Random(2981)
        for _ in range(300):
            n = rng.randint(0, 8)
            density = rng.choice([0.1, 0.3, 0.5, 0.8])
            cols = tuple(sum(1 << i for i in range(n) if rng.random() < density)
                         for _ in range(n))
            kernel = [v for v in range(1 << n) if m2.f2_mat_vec(cols, v) == 0]
            basis = m2.f2_nullspace(cols, n)
            assert basis == m2.echelon_basis(kernel)
            assert 1 << len(basis) == len(kernel)


class TestOrbits:
    def test_identity_generator(self):
        orbit, sp = orbit_span([m2.f2_identity(3)], mask(1, 3), 3)
        assert orbit == frozenset({mask(1, 3)}) and sp.dim == 1

    def test_zero_start(self):
        orbit, sp = orbit_span([m2.f2_identity(3)], 0, 3)
        assert orbit == frozenset({0}) and sp.dim == 0

    def test_e6_admissible_orbit_spans_everything(self):
        w = weyl_data("E6")
        gens = [m2.mat_mod2(wy.reflection_matrix(w, i)) for i in w.symbol.nodes]
        _, sp = orbit_span(gens, weight_vector(w, 1).mod2(), 6)
        assert sp.dim == 6

    @pytest.mark.parametrize("args", [("A", r) for r in range(1, 10)]
                             + [("B", r) for r in range(2, 9)] + [("D", r) for r in range(4, 10)]
                             + [("E6",), ("E7",), ("E8",), ("F4",), ("G2",)],
                             ids=lambda args: "".join(map(str, args)))
    def test_orbit_dim_is_the_orbit_span(self, args):
        # orbit_dim reads the odd Cartan rows; the reference lists the whole
        # orbit of (parity, u) and spans it, for each parity and every u
        # up to rank 6, and each u_s above it.
        w = weyl_data(*args)
        n = w.rank
        gens = [cols + (1 << n,) for cols in m2.f2_generators(w).values()]
        vectors = range(1 << n) if n <= 6 else [weight_vector(w, s).mod2() for s in w.symbol.nodes]
        for u in vectors:
            for parity in (0, 1):
                assert m2.orbit_dim(w, u, parity) == \
                    orbit_span(gens, u | parity << n, n + 1)[1].dim, (u, parity)
        assert m2.orbit_dim(w, 0, 0) == 0 and m2.orbit_dim(w, 0, 1) == 1

    def test_bfs_closure_cap(self):
        # Z/7 under +1 and +3: the cap stops the closure one element past it.
        step = lambda x, g: (x + g) % 7
        assert m2.bfs_closure(0, [1, 3], step) == set(range(7))
        assert len(m2.bfs_closure(0, [1, 3], step, cap=4)) == 5
        assert m2.bfs_closure(0, [1, 3], step, cap=7) == set(range(7))


class TestTypeAPaths:
    def test_against_induced_subsymbol_type(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            for s in w.symbol.nodes:
                expected = []
                for t in w.symbol.nodes:
                    path = tree_path(w.symbol, s, t)
                    types = classify_finite_type(induced_subsymbol(w.symbol, path))
                    if [ft.family for ft in types] == ["A"]:
                        expected.append(path)
                assert [path for path, _, _ in m2.type_a_paths(w, s)] == expected

    def test_b4_from_the_short_end(self):
        paths = [path for path, _, _ in m2.type_a_paths(weyl_data("B", 4), 1)]
        assert paths == [(1,), (1, 2), (1, 2, 3)]

    def test_flag_is_independence_of_the_path(self):
        types = ([("A", r) for r in range(2, 10)] + [("B", r) for r in range(3, 9)]
                 + [("D", r) for r in range(4, 10)]
                 + [("E6", None), ("E7", None), ("E8", None), ("F4", None), ("G2", None)])
        from_admissible = 0
        for fam, rank in types:
            w = weyl_data(fam, rank)
            admissible = {s for s, _ in admissible_nodes(w)}
            for s in w.symbol.nodes:
                for path, faithful, total in m2.type_a_paths(w, s):
                    assert faithful == is_independent_for(w, s, {path[-1]}), (fam, rank, s, path)
                    # total is the sum of the path's x-set.
                    xs = x_set(w, s, path[-1])
                    assert total == functools.reduce(operator.xor, xs), (fam, rank, s, path)
                    from_admissible += s in admissible
        assert from_admissible == 447


class TestUnknownNodes:
    @pytest.mark.parametrize("call", [
        lambda w: weight_vector(w, 99),
        lambda w: m2.type_a_paths(w, 99),
        lambda w: m2._admissibility(w, 99),
        lambda w: lambda_dim(w, 99),
    ])
    def test_named_in_a_mod_two_error(self, call):
        with pytest.raises(ModTwoError, match="unknown node 99"):
            call(weyl_data("A", 3))


class TestXSets:
    def test_single_node_path(self):
        w = weyl_data("B", 2)
        xs = x_set(w, 1, 1)
        assert xs == [mask(2), mask(2)]

    def test_a3_all_images_coincide(self):
        xs = x_set(weyl_data("A", 3), 3, 1)
        assert len(xs) == 4
        assert set(xs) == {mask(1, 3)}

    def test_a4_distinct_images(self):
        xs = x_set(weyl_data("A", 4), 4, 1)
        assert len(xs) == 5 and len(set(xs)) == 5
        assert xs == [mask(1, 3), mask(1, 3, 4), mask(1, 4), mask(1, 2, 4), mask(2, 4)]


def _bd_trunk(w):
    if w.family == "B":
        return list(range(1, w.rank))
    return list(range(1, w.rank - 1))


class TestIndependenceData:
    def test_type_a_label_rules(self):
        for n in range(2, 13):
            w = weyl_data("A", n)
            for s in w.symbol.nodes:
                ell, k = s, n + 1 - s
                d = gcd(ell, k)
                lo, ko = (ell // d) % 2, (k // d) % 2
                if lo and ko:
                    for t in w.symbol.nodes:
                        assert not is_independent_for(w, s, {t})
                elif lo:
                    assert is_independent_for(w, s, {1, n - 1})
                else:
                    assert is_independent_for(w, s, {2, n})

    def test_type_b_label_rules(self):
        for n in range(2, 13):
            w = weyl_data("B", n)
            for ell in range(1, n):
                s = ell
                if ell % 2 == 1:
                    for t in w.symbol.nodes:
                        assert not is_independent_for(w, s, {t})
                elif ell % 4 == 0:
                    assert is_independent_for(w, s, {2, n})
                else:
                    assert is_independent_for(w, s, {1, 2, n - 1})
                    assert is_independent_for(w, s, {2, n - 1, n})
                    assert not is_independent_for(w, s, {1, 2, n - 1, n})
            if n % 2 == 1:
                for t in w.symbol.nodes:
                    assert not is_independent_for(w, n, {t})
            else:
                assert is_independent_for(w, n, {n})

    def test_type_d_label_rules(self):
        for n in range(4, 13):
            w = weyl_data("D", n)
            for ell in range(1, n - 1):
                s = ell
                if ell % 2 == 1:
                    for t in w.symbol.nodes:
                        assert not is_independent_for(w, s, {t})
                elif ell % 4 == 0:
                    assert is_independent_for(w, s, {2, n - 1, n})
                else:
                    for pair in ({1, n}, {1, n - 1}, {n - 1, n}):
                        assert is_independent_for(w, s, {2} | pair)
                    assert not is_independent_for(w, s, {1, n - 1, n})
            for fork in (n - 1, n):
                for t in w.symbol.nodes:
                    assert not is_independent_for(w, fork, {t})

    def test_spec_values(self):
        assert is_independent_for(weyl_data("B", 6), 2, {2, 5})
        assert not is_independent_for(weyl_data("B", 5), 1, {1})

    def test_subsets_of_independent_sets_are_independent(self):
        w = weyl_data("D", 8)
        full = {2, 1, 8}
        assert is_independent_for(w, 2, full)
        for t in full:
            assert is_independent_for(w, 2, {t})


def _tags(*args):
    """Admissible node -> specially-admissible flag, as admissible_nodes lists them."""
    return dict(admissible_nodes(weyl_data(*args)))


class TestAdmissibility:
    def test_type_a_two_part_congruence(self):
        for n in range(1, 13):
            tags = _tags("A", n)
            for s in range(1, n + 1):
                ell, k = s, n + 1 - s
                want = (ell & -ell) != (k & -k)
                assert (s in tags) == want

    def test_type_b_d_even_trunk_split(self):
        for fam, lo in (("B", 2), ("D", 4)):
            for n in range(lo, 13):
                w = weyl_data(fam, n)
                trunk = _bd_trunk(w)
                tags = _tags(fam, n)
                for s in w.symbol.nodes:
                    adm = s in tags
                    assert adm == (s in trunk and s % 2 == 0)
                    if adm:
                        assert tags[s] == (s % 4 == 2)

    def test_excluded_scaled_pairs(self):
        for args, s in [(("B", 5), 5), (("F4",), 3), (("F4",), 4), (("G2",), 2)]:
            assert s not in _tags(*args)

    def test_a4_interior_node(self):
        assert _tags("A", 4)[2] is False

    def test_simplex_core_attachments(self):
        assert {1, 5} <= set(_tags("E6"))
        assert 7 in _tags("E8")

    def test_special_implies_admissible(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            for s in w.symbol.nodes:
                admissible, special = m2._admissibility(w, s)
                assert admissible or not special


class TestLambdaDim:
    def test_full_dimension_for_admissible_pairs(self):
        for fam, rank in ALL_RANK_LE_8:
            w = weyl_data(fam, rank)
            for s, _ in admissible_nodes(w):
                assert lambda_dim(w, s) == w.rank

    def test_one_dimensional_inadmissible_witness(self):
        hits = [(n, s) for n in range(2, 7) for s in range(1, n + 1)
                if s not in _tags("B", n)
                and lambda_dim(weyl_data("B", n), s) == 1]
        assert (2, 1) in hits

    def test_b2_orbit(self):
        assert lambda_dim(weyl_data("B", 2), 1) == 1


D_TABLE = (
    [("A", 3, 1), ("A", 5, 1), ("A", 7, 1), ("G2", None, 2), ("F4", None, 4),
     ("E6", None, 2), ("E7", None, 7), ("E8", None, 8)]
    + [("B", n, n) for n in range(2, 11)]
    + [("D", n, n if n % 2 == 0 else n - 2) for n in range(4, 11)]
)


class TestInvolutionKerIm:
    def test_identity(self):
        ker, im, d = involution_ker_im(m2.f2_identity(4), 4)
        assert (ker.dim, im.dim, d) == (4, 0, 4)

    def test_non_involution_rejected(self):
        w = weyl_data("A", 3)
        with pytest.raises(ModTwoError):
            involution_ker_im(m2.mat_mod2(coxeter_element(w)), 3)

    def test_e6_half_turn_image(self):
        w = weyl_data("E6")
        g = m2.mat_mod2(wy.mat_pow(coxeter_element(w), 6))
        ker, im, d = involution_ker_im(g, 6)
        assert d == 2
        assert im == m2.span([mask(1, 4), mask(2, 5)], 6)
        assert ker.contains(mask(1, 2, 3)) and ker.contains(mask(6))

    def test_a5_half_turn_kernel(self):
        w = weyl_data("A", 5)
        g = m2.mat_mod2(wy.mat_pow(coxeter_element(w), 3))
        ker, im, d = involution_ker_im(g, 5)
        # In S6 with x_i = e_i - e_{i+1}, s_1...s_5 is the cycle (1 2 3 4 5 6)
        # and g = (14)(25)(36): x_1 <-> x_4, x_2 <-> x_5 and
        # x_3 -> -(x_1 + ... + x_5).  Mod 2, (g+1) sum a_i x_i =
        # (a_1+a_3+a_4)(x_1+x_4) + (a_2+a_3+a_5)(x_2+x_5), so
        # im = <x_1+x_4, x_2+x_5> and ker = im + <x_1+x_2+x_3>; x_3 is not in
        # ker (it is for w0 = (16)(25)(34), which maps x_i to x_{6-i} mod 2).
        assert d == 1
        assert ker.contains(mask(1, 2, 3)) and not im.contains(mask(1, 2, 3))
        assert m2.span(list(im.basis) + [mask(1, 2, 3)], 5) == ker

    def test_d_table(self):
        for fam, rank, want in D_TABLE:
            assert dpsi(weyl_data(fam, rank)) == want

    def test_image_inside_kernel_and_conjugation_invariance(self):
        rng = random.Random(3)
        for fam, rank in [("A", 5), ("B", 4), ("D", 5), ("E6", None)]:
            w = weyl_data(fam, rank)
            h = w.coxeter_number
            half = wy.mat_pow(coxeter_element(w), h // 2)
            ker, im, d = involution_ker_im(m2.mat_mod2(half), w.rank)
            assert im <= ker
            nodes = list(w.symbol.nodes)
            for _ in range(10):
                word = [rng.choice(nodes) for _ in range(rng.randint(1, 12))]
                c = word_to_matrix(w, word)
                conj = wy.mat_mul(wy.mat_mul(c, half), word_to_matrix(w, word[::-1]))
                _, _, d2 = involution_ker_im(m2.mat_mod2(conj), w.rank)
                assert d2 == d


class TestAlphaAndTargets:
    def test_p1_gives_identity(self):
        w = weyl_data("E8")
        assert alpha_map(w, coxeter_element(w), 15, 1) == m2.f2_identity(8)

    def test_b6_geometric_series(self):
        w = weyl_data("B", 6)  # h = 12 = 2^2 * 3, so alpha = 1 + xi^3
        a = alpha_map(w, coxeter_element(w), 3, 2)
        assert m2.f2_mat_vec(a, mask(1)) == mask(1, 4)

    def test_b4_q1_collapses(self):
        w = weyl_data("B", 4)  # h = 8 = 2^3
        a = alpha_map(w, coxeter_element(w), 1, 3)
        assert m2.f2_mat_vec(a, mask(1)) == mask(4)

    def test_e6_full_coxeter(self):
        w = weyl_data("E6")
        a = alpha_map(w, coxeter_element(w), 3, 2)
        assert m2.f2_mat_vec(a, mask(1)) == mask(2, 3, 4, 6)

    def test_e6_visible_d5(self):
        w = weyl_data("E6")
        xi = coxeter_element(w, nodes=[2, 3, 4, 5, 6])
        g = m2.f2_mat_pow(m2.mat_mod2(xi), 4)
        ker, im, d = involution_ker_im(g, 6)
        assert im == m2.span([mask(2, 3, 5), mask(2, 6)], 6)
        assert ker == m2.span([mask(2, 3, 5), mask(2, 6), mask(4), mask(5)], 6)
        a = alpha_map(w, xi, 1, 3)
        assert m2.f2_mat_vec(a, mask(1)) == mask(3, 4, 6)

    def test_d_odd_formula(self):
        # With x_i = e_i - e_{i+1} (i < n) and x_n = e_{n-1} + e_n, the
        # ascending xi maps e_1 -> e_2 -> ... -> e_{n-1} -> -e_1 and
        # e_n -> -e_n.  For q odd and K = 2^(p-1) >= 2 terms, the e_n parts
        # cancel and alpha(x_{n-1}) = e_{n-1} - sum_{k=1}^{K-1} e_{kq}, where
        # e_j = x_j + ... + x_{n-2} + (x_{n-1} + x_n)/2.  So x_{n-1} and x_n
        # both have coefficient 1 - K/2, odd only for p >= 3, and trunk x_j
        # has coefficient -k on the block kq <= j < (k+1)q.
        for n, q, p in ((5, 1, 3), (7, 3, 2)):
            w = weyl_data("D", n)
            a = alpha_map(w, coxeter_element(w), q, p)
            expected = mask(n - 1, n) if p >= 3 else 0
            for k in range(1, 2 ** (p - 1)):
                if k % 2:
                    for j in range(k * q, (k + 1) * q):
                        expected ^= 1 << (j - 1)
            got = m2.f2_mat_vec(a, mask(n - 1))
            assert got == expected
            g = m2.f2_mat_pow(m2.mat_mod2(coxeter_element(w)), 2 ** (p - 1) * q)
            ker, im, _ = involution_ker_im(g, n)
            assert ker.contains(got) and not im.contains(got)

    def test_find_target_hits(self):
        w = weyl_data("E6")
        u = find_target(w, coxeter_element(w), 3, 2)
        a = alpha_map(w, coxeter_element(w), 3, 2)
        g = m2.f2_mat_pow(m2.mat_mod2(coxeter_element(w)), 6)
        ker, im, _ = involution_ker_im(g, 6)
        img = m2.f2_mat_vec(a, u)
        assert ker.contains(img) and not im.contains(img)

    def test_find_target_a_odd(self):
        w = weyl_data("A", 5)
        u = find_target(w, coxeter_element(w), 3, 1)
        # p = 1, so alpha = 1 and the target is the first vector of
        # ker \ im in scan order (see test_a5_half_turn_kernel).  Every
        # vector supported on {x_3, x_4, x_5} comes before any other, and
        # the only nonzero kernel vector among them is x_3 + x_4 + x_5,
        # which is not in im.
        assert u == mask(3, 4, 5)

    def test_find_target_e8(self):
        w = weyl_data("E8")
        u = find_target(w, coxeter_element(w), 15, 1)
        assert u == mask(8)

    def test_find_target_exhaustion(self):
        # A xi whose power is not a half-turn is refused: with xi = 1 the
        # power g is 1, so every nonzero vector would count as a target.
        w = weyl_data("B", 2)
        with pytest.raises(ModTwoError):
            find_target(w, wy.identity_matrix(2), 1, 1)


class TestNegativeExponents:
    def test_f2_mat_pow_rejects_negative_exponent(self):
        xc = m2.mat_mod2(coxeter_element(weyl_data("B", 4)))
        with pytest.raises(ModTwoError):
            m2.f2_mat_pow(xc, -1)

    def test_alpha_map_rejects_q_below_one(self):
        # q = 0 would give the zero map (1 + 1 over F2), q = -1 looped.
        w = weyl_data("B", 4)
        for q in (0, -1):
            with pytest.raises(ModTwoError):
                alpha_map(w, coxeter_element(w), q, 1)

    def test_find_target_rejects_negative_q(self):
        w = weyl_data("B", 4)
        with pytest.raises(ModTwoError):
            find_target(w, coxeter_element(w), -1, 1)
