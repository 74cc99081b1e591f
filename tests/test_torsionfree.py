import copy
import dataclasses
import functools
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


def _fold(d, word, mode):
    """phi as the left fold of the generator images under the group product."""
    images = tf._generator_images(d, mode)
    acc = tf.identity_element(d.m, d.psi.rank)
    for s in word:
        acc = acc * images[s]
    return acc


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

    def test_relation_check_replays(self):
        d = build_dagger(weyl_data("E6"), [1])
        cert = tf.verify_relations(d)
        assert replay_certificate(d, cert) is True
        assert replay_certificate(d, _tampered(cert, 0)) is False

    def test_underivable_certificates_are_rejected(self):
        d = build_dagger(weyl_data("E6"), [1])
        cert = certify_torsion_free(d)
        assert replay_certificate(d, dataclasses.replace(cert, kind="other")) is False
        # Node 1 of E6 is not specially admissible, so plain mode cannot certify.
        assert not d.special[0]
        assert replay_certificate(d, dataclasses.replace(cert, mode="plain")) is False
        assert replay_certificate(d, dataclasses.replace(cert, mode="other")) is False


def _count_subset_parts(monkeypatch):
    calls = []
    original = tf._subset_parts

    def counting(d, subset):
        calls.append(subset)
        return original(d, subset)

    monkeypatch.setattr(tf, "_subset_parts", counting)
    tf._class_table.cache_clear()
    return calls


class TestClassTable:
    def test_words_are_built_once_per_class(self, monkeypatch):
        calls = _count_subset_parts(monkeypatch)
        d = build_dagger(weyl_data("E6"), [1])
        cert = certify_torsion_free(d, "hat")
        # An equal symbol built afresh, as each pipeline stage may do, shares the table.
        assert replay_certificate(build_dagger(weyl_data("E6"), [1]), cert)
        assert cyclic_extension(d).certificate.ok
        assert len(calls) == len(inv.equivalence_classes(d.gamma))

    def test_both_modes_share_the_words(self, monkeypatch):
        calls = _count_subset_parts(monkeypatch)
        d = build_dagger(weyl_data("D", 8), [2, 6])
        hat = certify_torsion_free(d, "hat")
        plain = certify_torsion_free(d, "plain")
        assert hat.ok and plain.ok
        assert len(calls) == len(inv.equivalence_classes(d.gamma)) == 199

    def test_one_weight_vector_per_attachment(self, monkeypatch):
        d = build_dagger(weyl_data("E8"), [1, 8])
        calls = []
        original = m2.weight_vector

        def counting(w, s):
            calls.append(s)
            return original(w, s)

        monkeypatch.setattr(m2, "weight_vector", counting)
        assert certify_torsion_free(d, "hat").ok
        assert sorted(calls) == [1, 8]

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
    """The table folds each class image over its components; phi evaluates
    the class word letter by letter, and _fold multiplies generator images."""

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
        # One kernel and image for the half-turn's own data and one inside
        # find_target; the generic route's defect is read off the first.
        assert calls.count("involution_ker_im") == 2 and "dpsi" not in calls
        calls.clear()
        assert cyclic_extension(build_dagger(weyl_data("E8"), [8])).certificate.ok
        assert calls == []

    def test_one_word_per_component_mask(self, monkeypatch):
        d = build_dagger(weyl_data("E6"), [1, 3, 5])
        built = []
        original = tf._component_longest_word

        def counting(d, comp):
            built.append(tuple(comp))
            return original(d, comp)

        monkeypatch.setattr(tf, "_component_longest_word", counting)
        tf._class_table.cache_clear()
        table = tf._class_table(d)
        walk = spherical_subsets(d.gamma)
        index = {v: i for i, v in enumerate(d.gamma.nodes)}
        masks = {comp for cls, _, _ in table
                 for comp, _ in walk[sum(1 << index[v] for v in cls.canonical)]}
        assert len(built) == len(set(built)) == len(masks)


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

    def test_closure_cap(self):
        d = build_dagger(weyl_data("A", 2), [1])
        with pytest.raises(DaggerError, match="closure exceeds cap 47"):
            tf.enumerate_image(d, "hat", cap=47)
        assert tf.enumerate_image(d, "hat", cap=48) == 48
