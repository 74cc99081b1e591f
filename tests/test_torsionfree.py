import copy
import dataclasses
import functools
import itertools
import operator
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from coxfree import (
    DaggerError,
    build_dagger,
    certify_torsion_free,
    cyclic_extension,
    phi,
    replay_certificate,
    weyl_data,
)
from coxfree import involutions as inv
from coxfree import modtwo as m2
from coxfree import torsionfree as tf
from coxfree import weyl as wy
from coxfree.symbols import spherical_subsets


def _generator_images(d, mode):
    """Each generator's image built from its definition: a Weyl node's
    reflection matrix; pendant t_i's translation by u_i mod 2 in slot i,
    with bit i of x set in hat mode for a plain attachment."""
    n, slots = d.psi.rank, d.m
    zero = (0,) * slots
    images = {s: tf.SemidirectElement(0, zero, wy.reflection_matrix(d.psi, s))
              for s in d.psi.symbol.nodes}
    for i, t in enumerate(d.pendants):
        x = 1 << i if mode == "hat" and i < d.ell else 0
        v = tuple(m2.vec_mod2(d.weights[i]) if j == i else 0 for j in range(slots))
        images[t] = tf.SemidirectElement(x, v, wy.identity_matrix(n))
    return images


def _fold(d, word, mode):
    """phi as the left fold of the generator images under the group product."""
    images = _generator_images(d, mode)
    acc = tf.identity_element(d.m, d.psi.rank)
    for s in word:
        acc = acc * images[s]
    return acc


def _product_closure(d, mode):
    """The image group as the breadth-first closure of the identity under
    the group product with the generator images: the reference for the
    closure enumerate_image runs by folding letters."""
    images = list(_generator_images(d, mode).values())
    return m2.bfs_closure(tf.identity_element(d.m, d.psi.rank), images, operator.mul)


class TestPhi:
    @pytest.mark.parametrize("args,nodes", [(["E6"], [1, 6]), (["E8"], [1, 8]),
                                            (["D", 8], [2, 6])])
    @pytest.mark.parametrize("mode", ["hat", "plain"])
    def test_matches_generator_fold(self, args, nodes, mode):
        d = build_dagger(weyl_data(*args), nodes)
        rng = random.Random(f"{args}{nodes}{mode}")
        gens = list(d.gamma.nodes)
        for _ in range(40):
            word = [rng.choice(gens) for _ in range(rng.randint(0, 80))]
            assert phi(d, word, mode) == _fold(d, word, mode)

    def test_relation_words_are_trivial(self):
        d = build_dagger(weyl_data("E8"), [1, 8])
        for a in d.gamma.nodes:
            for b in d.gamma.nodes:
                if a != b:
                    assert phi(d, [a, b] * d.gamma.order(a, b)).is_identity()

    def test_errors(self):
        d = build_dagger(weyl_data("E6"), [1])
        with pytest.raises(DaggerError):
            phi(d, [1, "t9"])
        with pytest.raises(DaggerError):
            phi(d, ["1"])
        with pytest.raises(DaggerError):
            phi(d, [1], mode="other")
        with pytest.raises(DaggerError):
            phi(d, [1] * (tf.WORD_CAP + 1))

    def test_negative_power_rejected(self):
        d = build_dagger(weyl_data("E6"), [1])
        with pytest.raises(DaggerError):
            phi(d, [1, 2]).power(-1)


@functools.lru_cache(maxsize=None)
def _dagger(args, nodes):
    return build_dagger(weyl_data(*args), nodes)


class TestPhiKillsConjugatedRelators:
    @pytest.mark.parametrize("args,nodes", [(("E6",), (1,)), (("D", 4), (2,))])
    @pytest.mark.parametrize("mode", ["hat", "plain"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_conjugates_are_trivial(self, args, nodes, mode, data):
        d = _dagger(args, nodes)
        gens = st.sampled_from(d.gamma.nodes)
        w = data.draw(st.lists(gens, max_size=40), label="w")
        a, b = data.draw(st.tuples(gens, gens), label="relator generators")
        # a == b gives the relator a a, since m(a, a) = 1.
        r = [a, b] * d.gamma.order(a, b)
        assert phi(d, w + r + w[::-1], mode).is_identity()


class TestRelations:
    def test_a_corrupted_weight_fails_exactly_its_relations(self):
        # u_1 replaced by x_1: s_2 maps x_1 to x_1 + x_2 mod 2, so the
        # commuting relation (2 t1)^2 fails; s_1 fixes x_1 mod 2, and no
        # other Weyl node moves it.
        d = build_dagger(weyl_data("E6"), [1])
        bad = dataclasses.replace(d, weights=((1, 0, 0, 0, 0, 0),))
        gens = bad.gamma.nodes
        pairs = [(a, a) for a in gens] + list(itertools.combinations(gens, 2))
        failed = {"generators": ["2", "t1"], "order": 2, "relation_word": ["2", "t1", "2", "t1"]}
        for mode in ("hat", "plain"):
            folded = [(a, b) for a, b in pairs
                      if not _fold(bad, [a, b] * bad.gamma.order(a, b), mode).is_identity()]
            assert folded == [(2, "t1")]
            assert tf.verify_relations(bad, mode) == tf.CertStep(
                "relations", {"checked": 28, "failed": [failed]}, False)
        cert = certify_torsion_free(bad)
        assert not cert.ok and cert.steps[0] == tf.verify_relations(bad)
        assert tf.verify_relations(d) == tf.CertStep("relations", {"checked": 28, "failed": []}, True)


class TestBuild:
    def test_unknown_node_rejected(self):
        with pytest.raises(DaggerError):
            build_dagger(weyl_data("E8"), [9])


class TestCertificates:
    def test_e8_certify_and_replay(self):
        d = build_dagger(weyl_data("E8"), [1, 7, 8])
        cert = certify_torsion_free(d)
        assert cert.ok
        assert replay_certificate(d, cert)
        structure = next(s for s in cert.steps if s.name == "finite-visible-structure")
        assert structure.objects == {"violations": []}


class TestTypeBRecords:
    """Each type-B record states its own path.  The oracle: the map is
    faithful on the visible type-B subgroup of a pendant at s and a type-A
    path from s exactly when the orbit of u_s mod 2 under the path's
    reflections spans len(path) + 1 dimensions."""

    @pytest.mark.parametrize("args", [("A", 4), ("A", 8), ("D", 8), ("E6",), ("E7",), ("E8",)])
    def test_faithful_is_the_orbit_span_of_its_path(self, args):
        w = weyl_data(*args)
        gens = m2.f2_generators(w)
        verdicts = set()
        for s, _ in m2.admissible_nodes(w):
            cert = certify_torsion_free(_dagger(args, (s,)))
            step = next(x for x in cert.steps if x.name == "type-B-faithfulness")
            entries = step.objects["subgroups"]
            assert [e["path"] for e in entries] == \
                [[str(v) for v in p] for p, _ in m2.type_a_paths(w, s)]
            u = m2.weight_vector(w, s).mod2()
            for entry in entries:
                path = [int(v) for v in entry["path"]]
                _, orbit = m2.orbit_span([gens[v] for v in path], u, w.rank)
                assert entry["faithful"] == (orbit.dim == len(path) + 1), (s, path)
                assert ("parity_compensated" in entry) == (not entry["faithful"]), (s, path)
                verdicts.add(entry["faithful"])
        assert verdicts == {True, False}


def _leaf_paths(obj, path=()):
    """Paths to every scalar in a nest of dicts and lists, in order."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [p for key, value in items for p in _leaf_paths(value, path + (key,))]


def _changed(x):
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    return x + "x"


def _tampered(cert, i, path=None):
    """cert with step i's ok flag flipped (path None) or one leaf changed."""
    steps = list(cert.steps)
    step = steps[i]
    if path is None:
        steps[i] = tf.CertStep(step.name, step.objects, not step.ok)
    else:
        objects = copy.deepcopy(step.objects)
        *head, last = path
        owner = functools.reduce(operator.getitem, head, objects)
        owner[last] = _changed(owner[last])
        steps[i] = tf.CertStep(step.name, objects, step.ok)
    return dataclasses.replace(cert, steps=tuple(steps))


class TestReplay:
    def test_untampered_certificates_replay(self):
        e6 = build_dagger(weyl_data("E6"), [1])
        assert replay_certificate(e6, cyclic_extension(e6).certificate) is True
        e8 = build_dagger(weyl_data("E8"), [1, 8])
        assert replay_certificate(e8, certify_torsion_free(e8)) is True

    def test_every_extend_tamper_is_rejected(self):
        d = build_dagger(weyl_data("E6"), [1])
        cert = cyclic_extension(d).certificate
        tampers = [_tampered(cert, i, path) for i, step in enumerate(cert.steps)
                   for path in [None] + _leaf_paths(step.objects)]
        assert len(tampers) == 194
        assert not any(replay_certificate(d, bad) for bad in tampers)

    def test_certify_tampers_are_rejected(self):
        d = build_dagger(weyl_data("E6"), [1])
        cert = certify_torsion_free(d)
        tampers = []
        for i, step in enumerate(cert.steps):
            paths = _leaf_paths(step.objects)
            tampers += [_tampered(cert, i, path) for path in {None, *paths[:1], *paths[-1:]}]
        assert not any(replay_certificate(d, bad) for bad in tampers)

    @pytest.mark.parametrize("mode", ["hat", "plain"])
    def test_relations_step_is_verify_relations(self, mode):
        d = build_dagger(weyl_data("D", 8), [2, 6])
        assert tf.verify_relations(d, mode) == certify_torsion_free(d, mode).steps[0]

    def test_relation_check_is_not_a_certificate_kind(self):
        # The relations check replays as certify's first step, not alone.
        d = build_dagger(weyl_data("E6"), [1])
        cert = tf.Certificate("homomorphism-check", "hat", (tf.verify_relations(d),))
        assert cert.ok and replay_certificate(d, cert) is False

    def test_underivable_certificates_are_rejected(self):
        d = build_dagger(weyl_data("E6"), [1])
        cert = certify_torsion_free(d)
        assert replay_certificate(d, dataclasses.replace(cert, kind="other")) is False
        # Node 1 of E6 is not specially admissible, so plain mode cannot certify.
        assert not d.special[0]
        assert replay_certificate(d, dataclasses.replace(cert, mode="plain")) is False
        assert replay_certificate(d, dataclasses.replace(cert, mode="other")) is False


def _count(monkeypatch, owner, name):
    """Record the positional arguments of every call of owner.name."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestClassTable:
    def test_words_are_built_once_per_class(self, monkeypatch):
        # The table, with each class's word, is built once per symbol, and
        # the walk of the pendant symbol runs once, in the structure check.
        built = _count(monkeypatch, tf, "_pendant_components")
        tf._class_table.cache_clear()
        inv._move_table.cache_clear()
        tf._build_free_classes.cache_clear()
        spherical_subsets.cache_clear()
        d = build_dagger(weyl_data("E6"), [1])
        cert = certify_torsion_free(d, "hat")
        # An equal symbol built afresh, as each pipeline stage may do, shares the table.
        assert replay_certificate(build_dagger(weyl_data("E6"), [1]), cert)
        assert cyclic_extension(d).certificate.ok
        assert built == [(d, 0)] and tf._class_table.cache_info().misses == 1
        # Two walks: the pendant symbol's and E6's own, from which the free
        # classes and maximal_rank_class read.
        assert spherical_subsets.cache_info().misses == 2
        assert spherical_subsets.cache_info().currsize == 2

    def test_both_modes_share_the_words(self, monkeypatch):
        built = _count(monkeypatch, tf, "_pendant_components")
        tf._class_table.cache_clear()
        d = build_dagger(weyl_data("D", 8), [2, 6])
        hat = certify_torsion_free(d, "hat")
        plain = certify_torsion_free(d, "plain")
        assert hat.ok and plain.ok
        assert built == [(d, 0), (d, 1)]  # one call per pendant, for the one table
        assert len(tf._class_table(d)) == len(inv.equivalence_classes(d.gamma)) == 199

    def test_one_weight_vector_per_attachment(self, monkeypatch):
        # build_dagger walked the type-A paths from each attachment; certify
        # and its replay read the memoized walk and compute no u_s again.
        d = build_dagger(weyl_data("E8"), [1, 8])
        weights = _count(monkeypatch, m2, "weight_vector")
        walks = _count(monkeypatch, m2, "_walk_from")
        cert = certify_torsion_free(d, "hat")
        assert cert.ok and replay_certificate(d, cert)
        assert weights == [] and walks == []

    def test_warm_table_trusts_nothing(self):
        d = build_dagger(weyl_data("E6"), [1])
        cold = []
        for derive in (certify_torsion_free, lambda d: cyclic_extension(d).certificate):
            tf._class_table.cache_clear()
            cold.append(derive(d).to_json())
        hits = tf._class_table.cache_info().hits
        cert = cyclic_extension(d).certificate
        assert [certify_torsion_free(d).to_json(), cert.to_json()] == cold
        assert tf._class_table.cache_info().hits == hits + 2
        tampers = [_tampered(cert, i, path) for i, step in enumerate(cert.steps)
                   for path in [None] + _leaf_paths(step.objects)]
        assert not any(replay_certificate(d, bad) for bad in tampers)
        table = tf._class_table(d)
        assert type(table) is tuple and len(table) == len(inv.equivalence_classes(d.gamma))
        for entry in table:
            cls, word, image = entry
            assert type(entry) is tuple and type(word) is tuple
            hash(entry)  # every part is an immutable value
            with pytest.raises(dataclasses.FrozenInstanceError):
                image.x = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                cls.rank = 0


class TestClassFold:
    """The table builds each class image from its pendant configuration
    and the w0 of its free part; phi evaluates the class word letter by
    letter, and _fold multiplies generator images."""

    @pytest.mark.parametrize("args,nodes", [(("A", 5), (2, 4)), (("B", 4), (2,)),
                                            (("D", 8), (2, 6)), (("E6",), (1, 3, 5)),
                                            (("E8",), (1, 8))])
    def test_images_match_phi(self, args, nodes):
        d = build_dagger(weyl_data(*args), nodes)
        tf._class_table.cache_clear()
        table = tf._class_table(d)
        for _, word, image in table:
            assert image == phi(d, word, "hat")
        for _, word, image in table[::8]:
            assert image == _fold(d, word, "hat")
        if args == ("A", 5):  # both pendants plain: class images toggle x
            assert any(image.x for _, _, image in table)

    def test_word_cap(self, monkeypatch):
        d = build_dagger(weyl_data("E8"), [1, 8])
        longest = max((word for _, word, _ in tf._class_table(d)), key=len)
        monkeypatch.setattr(tf, "WORD_CAP", len(longest) - 1)
        with pytest.raises(DaggerError, match="cap"):
            phi(d, longest)
        tf._class_table.cache_clear()
        with pytest.raises(DaggerError, match="cap"):
            tf._class_table(build_dagger(weyl_data("E8"), [1, 8]))


class TestMinusOneRank:
    """minus_one_rank reads an involution's minus-one eigenspace off its
    trace; the reference is the rank of g - 1 by exact elimination."""

    @pytest.mark.parametrize("args,nodes", [(["E8"], [1, 8]), (["E6"], [1, 5]),
                                            (["D", 8], [2, 6]), (["E7"], [1, 2]),
                                            (["E8"], [1, 7, 8])])
    def test_class_images_against_elimination(self, args, nodes):
        table = tf._class_table(build_dagger(weyl_data(*args), nodes))
        ranks = set()
        for _, _, image in table:
            g = image.g
            n = len(g)
            assert wy.mat_mul(g, g) == wy.identity_matrix(n)
            minus = tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(g))
            assert wy.minus_one_rank(g) == wy.rank_rational(minus)
            ranks.add(wy.minus_one_rank(g))
        assert len(ranks) > 2


class TestWorkCounters:
    """Deterministic counts of the work a cache saves, so a lost cache fails
    whatever the host's speed."""

    def test_half_turn_once_per_weyl_type(self, monkeypatch):
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        count(m2, "find_target")
        count(wy, "mat_pow")  # every Coxeter-element power
        count(wy, "coxeter_element")
        count(m2, "involution_ker_im")
        count(m2, "dpsi")
        tf._half_turn.cache_clear()
        assert cyclic_extension(build_dagger(weyl_data("E8"), [1])).certificate.ok
        assert "find_target" in calls and "mat_pow" in calls and "coxeter_element" in calls
        # One kernel and image for the half-turn, which find_target reads
        # too; the generic route's defect is read off the same one.
        assert calls.count("involution_ker_im") == 1 and "dpsi" not in calls
        calls.clear()
        assert cyclic_extension(build_dagger(weyl_data("E8"), [8])).certificate.ok
        assert calls == []

    def test_free_classes_once_per_free_mask(self):
        # Each (Weyl type, free mask) misses the memo once; masks met by an
        # earlier symbol are not rebuilt.
        tf._class_table.cache_clear()
        tf._build_free_classes.cache_clear()
        e6 = weyl_data("E6")
        seen = set()
        for nodes, count in (((1, 3, 5), 22), ((1, 3, 6), 6)):
            before = tf._build_free_classes.cache_info().misses
            d = build_dagger(e6, nodes)
            assert certify_torsion_free(d).ok
            assert tf._build_free_classes.cache_info().misses - before == count
            assert len(_free_masks(d) - seen) == count
            seen |= _free_masks(d)

    def test_closure_multiplies_nothing(self, monkeypatch):
        # The closure folds letters onto copies: it neither multiplies image
        # elements nor Weyl matrices, and no mod-2 memo serves it.
        muls = _count(monkeypatch, tf.SemidirectElement, "__mul__")
        mat_muls = _count(monkeypatch, wy, "mat_mul")
        closures = _count(monkeypatch, tf, "enumerate_image")
        d = build_dagger(weyl_data("D", 4), [2])
        assert tf.kernel_index(d, "hat") == tf.kernel_index(d, "plain") == 2 ** 4 * 192
        assert len(closures) == 2 and muls == [] and mat_muls == []
        assert not hasattr(tf, "_mod2_cols")

    def test_move_table_once_per_weyl_type(self):
        # certify, its replay, extend and maximal_rank_class all read the
        # one move table of each Weyl type; the pendant symbol needs none.
        for cache in (inv._move_table, inv.maximal_rank_class, tf._build_free_classes,
                      tf._class_table):
            cache.cache_clear()
        for args, nodes in ((("E6",), (1,)), (("E8",), (1, 8)), (("E6",), (1, 5))):
            d = build_dagger(weyl_data(*args), nodes)
            assert replay_certificate(d, certify_torsion_free(d))
            assert replay_certificate(d, cyclic_extension(d).certificate)
        assert inv._move_table.cache_info().misses == 2


def _free_masks(d):
    """The Weyl nodes each pendant configuration of d leaves free, read off
    the generic walk: for each antipodal subset, the Weyl nodes neither in
    nor next to its components through a pendant."""
    gamma = d.gamma
    index = {v: i for i, v in enumerate(gamma.nodes)}
    weyl = (1 << d.psi.rank) - 1
    out = set()
    for mask, comps in spherical_subsets(gamma).items():
        if not all(t.antipodal for _, t in comps):
            continue
        closed = 0
        for comp, _ in comps:
            if comp & ~weyl:
                nodes = [v for v in gamma.nodes if comp >> index[v] & 1]
                closed |= comp | sum(1 << index[w] for w in
                                     {w for v in nodes for w in gamma.neighbors(v)})
        out.add(weyl & ~closed)
    return out


class TestProductTable:
    """The class table built from pendant configurations against the
    generic closure: the same classes in the same order, each image phi of
    its word, and no pendant component that is not A1 or B_k."""

    @staticmethod
    def _check(args, nodes):
        d = build_dagger(weyl_data(*args), nodes)
        table = tf._class_table(d)
        assert tuple(cls for cls, _, _ in table) == inv.equivalence_classes(d.gamma), nodes
        for _, word, image in table:
            assert image == phi(d, word, "hat"), (nodes, word)
        assert tf._structure_violations(d) == []

    @pytest.mark.parametrize("args", [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
                             + [("D", r) for r in range(4, 7)] + [("E6",), ("F4",), ("G2",)],
                             ids=lambda args: "".join(map(str, args)))
    def test_every_set_of_at_most_three_pendants(self, args):
        admissible = [s for s, _ in m2.admissible_nodes(weyl_data(*args))]
        for k in range(4):
            for nodes in itertools.combinations(admissible, k):
                self._check(args, nodes)

    @pytest.mark.parametrize("args,nodes", [(("E7",), (1, 2)), (("E8",), (1, 8)),
                                            (("D", 8), (2, 6)), (("E6",), (1, 2, 3, 4, 5, 6))])
    def test_larger_symbols(self, args, nodes):
        self._check(args, nodes)


class TestExtensionIndex:
    def test_a3_without_pendants_is_an_exact_int(self):
        ext = cyclic_extension(build_dagger(weyl_data("A", 3), []))
        assert ext.index == 12 and type(ext.index) is int
        assert ext.certificate.to_json()["index"] == 12

    def test_e8_two_pendants_unchanged(self):
        ext = cyclic_extension(build_dagger(weyl_data("E8"), [1, 8]))
        # 2^(m n + ell - p) |W(E8)| with m = 2, n = 8, ell = 1, p = 1.
        assert ext.p == 1
        assert ext.index == 2 ** 16 * 696729600


class TestExtensionWithoutPendants:
    # With no pendant there is no slot, so no slot avoids the image and
    # target-avoidance fails: the kernel is trivial, the extension is
    # <zeta> itself, and <zeta> has torsion.  The trivial kernel is
    # torsion free.
    @pytest.mark.parametrize("args", [("E6",), ("E8",), ("D", 8), ("A", 5), ("B", 4)],
                             ids=lambda args: "".join(map(str, args)))
    def test_only_target_avoidance_fails(self, args):
        d = build_dagger(weyl_data(*args), [])
        steps = cyclic_extension(d).certificate.steps
        assert [s.name for s in steps if not s.ok] == ["target-avoidance"]
        assert certify_torsion_free(d).ok


class TestKernelIndexClosure:
    # 2^(m n + ell) |W| (hat) and 2^(m n) |W| (plain); only A2's node 1 is
    # not specially admissible, so ell = 1 there and 0 elsewhere.
    @pytest.mark.parametrize("args,nodes,hat,plain", [
        (["A", 2], [1], 2 ** 3 * 6, 2 ** 2 * 6),
        (["G2"], [1], 2 ** 2 * 12, 2 ** 2 * 12),
        (["D", 4], [2], 2 ** 4 * 192, 2 ** 4 * 192),
    ])
    def test_closure_matches_formula(self, monkeypatch, args, nodes, hat, plain):
        d = build_dagger(weyl_data(*args), nodes)
        closures = []

        def spy(dagger, mode, cap):
            closures.append(original(dagger, mode, cap))
            return closures[-1]

        original = tf.enumerate_image
        monkeypatch.setattr(tf, "enumerate_image", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tf.kernel_index(d, "hat", verify_cap=hat) == hat
            assert tf.kernel_index(d, "plain", verify_cap=plain) == plain
        assert closures == [hat, plain]

    @pytest.mark.parametrize("args,nodes,modes", [
        (["A", 2], [1], ("hat", "plain")),
        (["G2"], [1], ("hat", "plain")),
        (["D", 4], [2], ("hat",)),
    ])
    def test_fold_closure_reaches_the_product_closure(self, monkeypatch, args, nodes, modes):
        d = build_dagger(weyl_data(*args), nodes)
        references = [_product_closure(d, mode) for mode in modes]
        reached = []
        original = m2.bfs_closure

        def spy(*a):
            reached.append(original(*a))
            return reached[-1]

        monkeypatch.setattr(m2, "bfs_closure", spy)
        for mode, reference in zip(modes, references):
            assert tf.enumerate_image(d, mode, cap=len(reference)) == len(reference)
        assert reached == references

    def test_enumerate_image_rejects_an_unknown_mode(self):
        d = build_dagger(weyl_data("A", 2), [1])
        with pytest.raises(DaggerError, match="unknown mode 'bogus'"):
            tf.enumerate_image(d, "bogus", cap=48)

    @pytest.mark.parametrize("args", [["E8"], ["A", 2]])
    def test_unknown_mode_is_rejected(self, args):
        # E8 [1] is past the closure cap, A2 [1] within it: both reject first.
        d = build_dagger(weyl_data(*args), [1])
        with pytest.raises(DaggerError, match="unknown mode 'bogus'"):
            tf.kernel_index(d, "bogus")

    def test_closure_cap(self):
        d = build_dagger(weyl_data("A", 2), [1])
        with pytest.raises(DaggerError, match="closure exceeds cap 47"):
            tf.enumerate_image(d, "hat", cap=47)
        assert tf.enumerate_image(d, "hat", cap=48) == 48
