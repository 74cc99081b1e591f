import collections
import copy
import functools
import hashlib
import itertools
import json
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
    manifold_volume,
    phi,
    replay_certificate,
    weyl_data,
)
from coxfree import involutions as inv
from coxfree import modtwo as m2
from coxfree import torsionfree as tf
from coxfree import symbols as sym
from coxfree import weyl as wy
from coxfree.symbols import CoxeterSymbol, mask_nodes, spherical_subsets
from oracles import class_scan, class_table, pendant_growth, pendant_rows, relation_by_fold


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


def _rows(d):
    """The rows of each pendant's components, as certify and extend read
    them (_components)."""
    letters = tf._letters(d)
    return tuple(tf._components(d.psi, s, t, letters[t]) for s, t in zip(d.attachments, d.pendants))


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
        bad = d._replace(weights=((1, 0, 0, 0, 0, 0),))
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


class TestRelationsFollowGamma:
    def test_a_weyl_pair_is_judged_by_its_order_in_gamma(self):
        # E6 [1] with gamma's 1-2 edge set to order 4: (s1 s2)^4 is not the
        # identity in W(E6), where s1 s2 has order 3, so that relation fails.
        d = build_dagger(weyl_data("E6"), [1])
        edges = [(a, b, 4 if (a, b) == (1, 2) else m) for a, b, m in d.gamma.edges()]
        bad = d._replace(gamma=CoxeterSymbol(d.gamma.nodes, edges))
        assert not phi(bad, [1, 2] * 4).is_identity()
        gens = bad.gamma.nodes
        pairs = [(a, a) for a in gens] + list(itertools.combinations(gens, 2))
        for mode in ("hat", "plain"):
            step = tf.verify_relations(bad, mode)
            assert [f["generators"] for f in step.objects["failed"]] == \
                [[str(a)] if a == b else [str(a), str(b)] for a, b in pairs
                 if not _fold(bad, [a, b] * bad.gamma.order(a, b), mode).is_identity()] == [["1", "2"]]
            assert step.objects["failed"][0]["order"] == 4 and not step.ok
        # Step 3 names the edge that differs from the built symbol.  The
        # growth reads gamma, not Psi: {1, 2} is B2 there.
        cert = certify_torsion_free(bad)
        structure = next(s for s in cert.steps if s.name == "finite-visible-structure")
        assert structure.objects == {"violations": [{"edge": ["1", "2"], "order": 4, "expected": 3}]}
        assert _grown_violations(bad) == _walk_violations(bad)
        assert _grown(bad) == _through(bad)
        assert not cert.ok and replay_certificate(bad, cert)


def _with_edge(d, a, b, m):
    """d with gamma's a-b edge set to order m (2 removes it)."""
    edges = [e for e in d.gamma.edges() if {e[0], e[1]} != {a, b}]
    return d._replace(gamma=CoxeterSymbol(d.gamma.nodes, edges + ([(a, b, m)] if m != 2 else [])))


def _variants(d):
    """Hand-built twins of d: each single edge of gamma set to 2, 3, 4, 5,
    6 or INF; zeroed weights and e_1 weights; and, with two pendants or
    more, zeroed or built weights with an odd t1-t2 edge."""
    for a, b in itertools.combinations(d.gamma.nodes, 2):
        for m in (2, 3, 4, 5, 6, sym.INF):
            if m != d.gamma.order(a, b):
                yield _with_edge(d, a, b, m)
    n = d.psi.rank
    zeroed = d._replace(weights=tuple((0,) * n for _ in d.weights))
    yield zeroed
    yield d._replace(weights=tuple((1,) + (0,) * (n - 1) for _ in d.weights))
    if d.m >= 2:
        for base in (zeroed, d):
            for m in (3, 5):
                yield _with_edge(base, "t1", "t2", m)


class TestRelationRule:
    """verify_relations judges each pair by a closed form on the odd Cartan
    rows; the reference folds every relation word (oracles.relation_by_fold)."""

    @pytest.mark.parametrize("args", [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
                             + [("D", r) for r in range(4, 9)]
                             + [("E6",), ("E7",), ("E8",), ("F4",), ("G2",)],
                             ids=lambda args: "".join(map(str, args)))
    def test_every_built_symbol(self, args):
        w = weyl_data(*args)
        admissible = [s for s, _ in m2.admissible_nodes(w)]
        for k in (1, 2, 3):
            for nodes in itertools.combinations(admissible, k):
                d = build_dagger(w, nodes)
                for mode in ("hat", "plain"):
                    assert tf.verify_relations(d, mode) == relation_by_fold(d, mode), (nodes, mode)

    @pytest.mark.parametrize("args,nodes", [(("E6",), (1,)), (("E6",), (1, 5)), (("D", 4), (2,)),
                                            (("B", 4), (2,)), (("A", 4), (1, 3)), (("G2",), (1,)),
                                            (("F4",), (1, 2)), (("D", 6), (2, 4))],
                             ids=lambda x: "".join(map(str, x)))
    def test_hand_built_variants(self, args, nodes):
        verdicts, kinds = set(), set()
        for bad in _variants(build_dagger(weyl_data(*args), nodes)):
            for mode in ("hat", "plain"):
                step = tf.verify_relations(bad, mode)
                assert step == relation_by_fold(bad, mode), (bad.gamma.edges(), bad.weights, mode)
                verdicts.add(step.ok)
                kinds.update(sum(g in bad.pendants for g in f["generators"]) for f in step.objects["failed"])
        assert verdicts == {True, False}
        assert kinds == ({0, 1, 2} if len(nodes) > 1 else {0, 1})

    def test_an_odd_pendant_edge_on_zeroed_weights(self):
        # E6 [1 5], both attachments plain, with u_1 = u_2 = 0 and a t1-t2
        # edge of order 3: the translations vanish, so (t1 t2)^3 holds in
        # the plain map, but it keeps both parity bits in the augmented one.
        d = build_dagger(weyl_data("E6"), [1, 5])
        assert d.ell == 2
        bad = _with_edge(d._replace(weights=((0,) * 6, (0,) * 6)), "t1", "t2", 3)
        assert tf.verify_relations(bad, "hat").objects["failed"] == [
            {"generators": ["t1", "t2"], "order": 3, "relation_word": ["t1", "t2"] * 3}]
        assert tf.verify_relations(bad, "plain").ok
        assert not phi(bad, ["t1", "t2"] * 3, "hat").is_identity()
        assert phi(bad, ["t1", "t2"] * 3, "plain").is_identity()


class TestInfiniteEdges:
    @pytest.mark.parametrize("edge", [(1, 2), (1, "t1")], ids=["1-2", "1-t1"])
    def test_an_inf_edge_imposes_no_relation(self, edge):
        # E6 [1] with one edge set to INF: every relation holds, step 3
        # names the edge with its order written "inf", as in a serialized
        # symbol, and the certificate is JSON without NaN or Infinity.
        d = build_dagger(weyl_data("E6"), [1])
        bad = _with_edge(d, *edge, sym.INF)
        for mode in ("hat", "plain"):
            assert tf.verify_relations(bad, mode) == relation_by_fold(bad, mode)
            assert tf.verify_relations(bad, mode).ok
        cert = certify_torsion_free(bad)
        assert [s.name for s in cert.steps if not s.ok] == ["finite-visible-structure"]
        assert cert.steps[2].objects == {"violations": [
            {"edge": [str(v) for v in edge], "order": "inf", "expected": d.gamma.order(*edge)}]}
        json.dumps(cert.to_json(), allow_nan=False)
        assert replay_certificate(bad, cert) is True


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

    @pytest.mark.parametrize("orders", [(3, 6), (3, 3)], ids=["3-6", "3-3"])
    def test_a_failing_structure_step(self, orders):
        # E6 [1 5] with t1 joined to node 1 by an order-3 edge and t2 to
        # node 5 by an order orders[1] edge.  Step 3 names both edges.  In
        # the growth, with (3, 6), {1, t1} is A2 and {5, t2} is G2, and t1
        # grows into seven more finite sets, up to E7; with (3, 3) the two
        # pendants grow into sets whose growth order is not the walk's.
        # The relations through them fail too.
        d = build_dagger(weyl_data("E6"), [1, 5])
        edges = [e for e in d.gamma.edges() if e[1] not in d.pendants]
        edges += [(s, t, m) for s, t, m in zip(d.attachments, d.pendants, orders)]
        bad = d._replace(gamma=CoxeterSymbol(d.gamma.nodes, edges))
        cert = certify_torsion_free(bad)
        structure = next(s for s in cert.steps if s.name == "finite-visible-structure")
        assert structure.objects == {"violations": [
            {"edge": ["1", "t1"], "order": 3, "expected": 4},
            {"edge": ["5", "t2"], "order": orders[1], "expected": 4}]}
        assert _grown_violations(bad) == _walk_violations(bad)
        assert _grown(bad) == _through(bad)
        if orders == (3, 6):
            assert [(v["type"], len(v["nodes"])) for v in _grown_violations(bad)] == [
                ("A2", 2), ("G2", 2), ("A3", 3), ("A4", 4), ("A5", 5), ("A5", 5), ("A6", 6),
                ("D6", 6), ("E7", 7)]
        # Step 4 reads no gamma: both attachments are plain, so in hat mode
        # each unfaithful path (odd k) is compensated.
        faithfulness = next(s for s in cert.steps if s.name == "type-B-faithfulness")
        assert [e["parity_compensated"] for e in faithfulness.objects["subgroups"]
                if not e["faithful"]] == [True, True]
        assert [s.name for s in cert.steps if not s.ok] == ["relations", "finite-visible-structure"]
        assert replay_certificate(bad, cert)

    @pytest.mark.parametrize("args,nodes,order", [(("E6",), (1, 5), 3), (("E6",), (1, 3, 6), 3),
                                                  (("D", 8), (2, 6), 4), (("A", 5), (2, 4), 3)])
    def test_pendants_joined_to_each_other(self, args, nodes, order):
        # A t1-t2 edge: step 3 names it.  In the growth, sets through both
        # pendants are grown on gamma itself, from the single-pendant sets
        # next to the other pendant; with an order-3 edge {t1, t2} is A2 and
        # grows further.
        d = build_dagger(weyl_data(*args), nodes)
        bad = d._replace(gamma=CoxeterSymbol(d.gamma.nodes,
                                             d.gamma.edges() + [("t1", "t2", order)]))
        cert = certify_torsion_free(bad)
        structure = next(s for s in cert.steps if s.name == "finite-visible-structure")
        assert structure.objects == {"violations": [
            {"edge": ["t1", "t2"], "order": order, "expected": 2}]}
        assert _grown_violations(bad) == _walk_violations(bad)
        assert any(v["pendants"] == 2 for v in _grown_violations(bad))
        assert _grown(bad) == _through(bad)
        # The grown components are the rows read off the walk, those of the
        # symbol without the edge: the edge joins two pendants, and no
        # free mask holds a pendant.
        assert pendant_rows(bad) == _rows(bad) == _rows(d)
        assert not cert.ok and replay_certificate(bad, cert)

    def test_a_type_b_set_at_the_order_3_end_is_a_violation(self):
        # B4 [2] with t1 joined to node 2 by an order-3 edge: step 3 names
        # the edge.  In the growth {t1, 2, 3, 4} is B4 with t1 at its order-3
        # end, so it is no pendant component (a component's word is the
        # longest word for t1 at the order-4 end).
        d = build_dagger(weyl_data("B", 4), [2])
        edges = [(a, b, 3 if b == "t1" else m) for a, b, m in d.gamma.edges()]
        bad = d._replace(gamma=CoxeterSymbol(d.gamma.nodes, edges))
        components, violations = pendant_growth(bad)
        assert [c[5] for c in components[0]] == [()]  # t1 alone
        b4 = sum(1 << k for k, v in enumerate(bad.gamma.nodes) if v in (2, 3, 4, "t1"))
        assert (b4, sym.FiniteType("B", 4, 384), 1) in violations
        assert {"nodes": ["2", "3", "4", "t1"], "type": "B4", "pendants": 1} \
            in _grown_violations(bad)
        cert = certify_torsion_free(bad)
        structure = next(s for s in cert.steps if s.name == "finite-visible-structure")
        assert structure.objects == {"violations": [{"edge": ["2", "t1"], "order": 3, "expected": 4}]}
        assert not cert.ok and replay_certificate(bad, cert)


def _grown(d):
    """The masks of every set the growth from the pendants names."""
    components, violations = pendant_growth(d)
    return sorted([c[0] for comps in components for c in comps] + [v[0] for v in violations])


def _grown_violations(d):
    """The growth's finite sets through a pendant that are not pendant
    components, as _walk_violations lists them."""
    return [{"nodes": [str(v) for v in mask_nodes(d.gamma, mask)], "type": t.label(), "pendants": n}
            for mask, t, n in pendant_growth(d)[1]]


def _through(d):
    """The masks of the connected spherical subsets through a pendant, read
    off the spherical-subset walk of the whole pendant symbol."""
    pend = sum(1 << k for k, v in enumerate(d.gamma.nodes) if v in d.pendants)
    return sorted(mask for mask, comps in spherical_subsets(d.gamma).items()
                  if mask & pend and len(comps) == 1)


def _walk_violations(d):
    """The growth's violations read off the spherical-subset walk of the
    whole pendant symbol: every connected finite set through a pendant
    that is not A1 or B_k through exactly one pendant, in the walk's
    order."""
    gamma = d.gamma
    pend = sum(1 << k for k, v in enumerate(gamma.nodes) if v in d.pendants)
    out = []
    for mask, comps in spherical_subsets(gamma).items():
        if mask & pend and len(comps) == 1:
            t, n_pend = comps[0][1], (mask & pend).bit_count()
            if not (n_pend == 1 and (t.family == "B" or t.label() == "A1")):
                out.append({"nodes": [str(v) for v in mask_nodes(gamma, mask)],
                            "type": t.label(), "pendants": n_pend})
    return out


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
                [[str(v) for v in p] for p, _, _ in m2.type_a_paths(w, s)]
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
    return cert._replace(steps=tuple(steps))


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
        assert len(tampers) == 103
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
        assert replay_certificate(d, cert._replace(kind="other")) is False
        # Node 1 of E6 is not specially admissible, so plain mode cannot certify.
        assert not d.special[0]
        assert replay_certificate(d, cert._replace(mode="plain")) is False
        assert replay_certificate(d, cert._replace(mode="other")) is False
        # Step 3 builds the symbol afresh, so an attachment that is not
        # admissible (node 1 of D4) cannot be certified.
        d4 = build_dagger(weyl_data("D", 4), [2])
        bad = d4._replace(attachments=(1,))
        with pytest.raises(DaggerError, match="not admissible"):
            certify_torsion_free(bad)
        assert replay_certificate(bad, certify_torsion_free(d4)) is False

    def test_a_certificate_past_twelve_nodes_replays(self):
        # E8 with five pendants has 13 nodes, past the spherical-subset
        # walk's cap: certify walks no symbol, so it certifies there, its
        # certificate replays and a tampered one does not.
        d = build_dagger(weyl_data("E8"), [1, 2, 3, 4, 5])
        cert = certify_torsion_free(d)
        assert d.gamma.rank == 13 and cert.ok and replay_certificate(d, cert) is True
        tampers = [_tampered(cert, i, path) for i, step in enumerate(cert.steps)
                   for path in {None, *_leaf_paths(step.objects)[:1]}]
        assert not any(replay_certificate(d, bad) for bad in tampers)
        mislabelled = cyclic_extension(d).certificate._replace(kind="torsion-free")
        assert replay_certificate(d, mislabelled) is False


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
    def test_words_are_built_once_per_class(self):
        # Certify, its replay and extend read one row of pendant
        # components; no stage walks a symbol.  The reference table builds
        # one word per class.
        tf._components.cache_clear()
        spherical_subsets.cache_clear()
        d = build_dagger(weyl_data("E6"), [1])
        cert = certify_torsion_free(d, "hat")
        # An equal symbol built afresh, as each pipeline stage may do, shares the components.
        assert replay_certificate(build_dagger(weyl_data("E6"), [1]), cert)
        assert cyclic_extension(d).certificate.ok
        assert tf._components.cache_info().misses == 1
        assert spherical_subsets.cache_info().misses == 0
        assert len(class_table(d)) == len(inv.equivalence_classes(d.gamma))

    def test_both_modes_share_the_words(self):
        tf._components.cache_clear()
        d = build_dagger(weyl_data("D", 8), [2, 6])
        hat = certify_torsion_free(d, "hat")
        plain = certify_torsion_free(d, "plain")
        assert hat.ok and plain.ok
        # One row per pendant, read by both modes.
        assert tf._components.cache_info().misses == 2
        assert len(_rows(d)) == 2
        assert hat.steps[1] == plain.steps[1] == tf._involution_classes(d)
        assert len(class_table(d)) == len(inv.equivalence_classes(d.gamma)) == 199

    def test_one_weight_vector_per_attachment(self):
        # build_dagger walked the type-A paths from each attachment; certify
        # and its replay read the memoized walk and the memoized u_s, though
        # step 3 builds the symbol afresh, and walk and compute no u_s again.
        d = build_dagger(weyl_data("E8"), [1, 8])
        misses = m2.weight_vector.cache_info().misses, m2.type_a_paths.cache_info().misses
        cert = certify_torsion_free(d, "hat")
        assert cert.ok and replay_certificate(d, cert)
        assert (m2.weight_vector.cache_info().misses, m2.type_a_paths.cache_info().misses) == misses

    def test_warm_table_trusts_nothing(self):
        d = build_dagger(weyl_data("E6"), [1])
        cold = []
        for derive in (certify_torsion_free, lambda d: cyclic_extension(d).certificate):
            tf._components.cache_clear()
            cold.append(derive(d).to_json())
        hits = tf._components.cache_info().hits
        cert = cyclic_extension(d).certificate
        assert [certify_torsion_free(d).to_json(), cert.to_json()] == cold
        # Extend and certify's step 2 read the components once each.
        assert tf._components.cache_info().hits == hits + 2
        tampers = [_tampered(cert, i, path) for i, step in enumerate(cert.steps)
                   for path in [None] + _leaf_paths(step.objects)]
        assert not any(replay_certificate(d, bad) for bad in tampers)
        components = _rows(d)
        assert type(components) is tuple and all(type(part) is tuple for part in components)
        hash(components)  # immutable values all the way down


class TestClassFold:
    """The reference table builds each class image from its pendant
    configuration and the w0 of its free part; phi evaluates the class
    word letter by letter, and _fold multiplies generator images."""

    @pytest.mark.parametrize("args,nodes", [(("A", 5), (2, 4)), (("B", 4), (2,)),
                                            (("D", 8), (2, 6)), (("E6",), (1, 3, 5)),
                                            (("E8",), (1, 8))])
    def test_images_match_phi(self, args, nodes):
        d = build_dagger(weyl_data(*args), nodes)
        table = class_table(d)
        for _, word, image in table:
            assert image == phi(d, word, "hat")
        for _, word, image in table[::8]:
            assert image == _fold(d, word, "hat")
        if args == ("A", 5):  # both pendants plain: class images toggle x
            assert any(image.x for _, _, image in table)

    def test_word_cap(self, monkeypatch):
        d = build_dagger(weyl_data("E8"), [1, 8])
        longest = max((word for _, word, _ in class_table(d)), key=len)
        monkeypatch.setattr(tf, "WORD_CAP", len(longest) - 1)
        with pytest.raises(DaggerError, match="cap"):
            phi(d, longest)


class TestMinusOneRank:
    """minus_one_rank reads an involution's minus-one eigenspace off its
    trace; the reference is the rank of g - 1 by exact elimination."""

    @pytest.mark.parametrize("args,nodes", [(["E8"], [1, 8]), (["E6"], [1, 5]),
                                            (["D", 8], [2, 6]), (["E7"], [1, 2]),
                                            (["E8"], [1, 7, 8])])
    def test_class_images_against_elimination(self, args, nodes):
        table = class_table(build_dagger(weyl_data(*args), nodes))
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

    def test_closure_multiplies_nothing(self, monkeypatch):
        # The closure folds letters onto copies: it neither multiplies image
        # elements nor Weyl matrices, and no mod-2 memo serves it.
        muls = _count(monkeypatch, tf.SemidirectElement, "__mul__")
        mat_muls = _count(monkeypatch, wy, "mat_mul")
        closures = _count(monkeypatch, tf, "enumerate_image")
        d = build_dagger(weyl_data("D", 4), [2])
        assert (tf.kernel_index(d, "hat", verify_cap=3072)
                == tf.kernel_index(d, "plain", verify_cap=3072) == 2 ** 4 * 192)
        assert len(closures) == 2 and muls == [] and mat_muls == []
        assert not hasattr(tf, "_mod2_cols")

    def test_certify_closes_no_image(self, monkeypatch):
        # The index is proved by orbit spans alone: certify, its replay and
        # the dimension-4 volume run no closure, and the orbit memo misses
        # once per (Weyl type, vector, parity).  Here that is (A4, u_1, 1),
        # (B4, u_2, 0), (D4, u_2, 0) and, for the volume, (A4, u_2, 1).
        closures = _count(monkeypatch, tf, "enumerate_image")
        m2.orbit_dim.cache_clear()
        for args, nodes in ((("A", 4), [1]), (("B", 4), [2]), (("D", 4), [2])):
            d = build_dagger(weyl_data(*args), nodes)
            assert replay_certificate(d, certify_torsion_free(d))
        assert manifold_volume(4)[2] == 2 ** 5 * 120
        assert closures == [] and m2.orbit_dim.cache_info().misses == 4

    def test_no_stage_walks_the_pendant_symbol(self, monkeypatch):
        # Certify, its replay and extend walk no symbol, neither the pendant
        # symbol nor Psi: no subset walk, no move table and no class list.
        # Certify and its replay read the pendant components off the
        # type-A paths: they classify no node set and fold no component
        # word (_b_longest_word), and the relations are judged by closed
        # forms, so no stage folds a word at all.  The symbols, and so
        # their Weyl data, are built before the spies go in, and every memo
        # of the module is cold.
        symbols = [build_dagger(weyl_data("E8"), [1, 8]), build_dagger(weyl_data("D", 8), [2, 6]),
                   build_dagger(weyl_data("E8"), [1])]
        walks = [_count(monkeypatch, owner, "spherical_subsets") for owner in (sym, inv)]
        walks += [_count(monkeypatch, inv, name) for name in ("_move_table", "maximal_rank_class")]
        classified = [_count(monkeypatch, owner, "classify_component") for owner in (sym, tf)]
        folds = _count(monkeypatch, tf, "_fold")
        _clear_memos()
        unfaithful = 0
        for d in symbols:
            cert = certify_torsion_free(d)
            assert cert.ok and replay_certificate(d, cert)
            assert classified == [[], []]
            assert replay_certificate(d, cyclic_extension(d).certificate)
            step = next(s for s in cert.steps if s.name == "type-B-faithfulness")
            unfaithful += sum(not e["faithful"] for e in step.objects["subgroups"])
            for calls in classified:
                calls.clear()  # extend names free Weyl node sets (_free_antipodal_size)
        assert unfaithful > 0
        assert walks == [[]] * 4 and folds == []
        # One row per (Weyl type, attachment, pendant, letter): E8 [1] reads
        # the row of E8 [1 8]'s t1.
        assert tf._components.cache_info().misses == 4

    def test_structure_step_builds_no_symbol_on_a_hit(self, monkeypatch):
        # Step 3 reads the built symbol's fields off their memo
        # (_dagger_fields) and compares by value: a symbol built before costs
        # it no CoxeterSymbol, and build_dagger still returns a fresh record.
        d = build_dagger(weyl_data("E8"), [1, 8])
        made = _count(monkeypatch, tf, "CoxeterSymbol")
        again = build_dagger(weyl_data("E8"), [8, 1])
        assert again == d and again is not d
        assert tf._finite_visible_structure(d).ok and made == []
        tf._dagger_fields.cache_clear()
        assert tf._finite_visible_structure(d).ok and len(made) == 1

    def test_cold_replay_of_a_large_symbol_folds_nothing(self, monkeypatch):
        # B40 [2 6 ... 38] has 50 nodes and 1,275 relations, 455 of them
        # through a pendant.  Each verdict is a closed form, so certify and
        # its replay fold no word, with every memo of the module cold.
        d = build_dagger(weyl_data("B", 40), range(2, 40, 4))
        _clear_memos()
        folds = _count(monkeypatch, tf, "_fold")
        cert = certify_torsion_free(d)
        assert cert.ok and cert.steps[0].objects["checked"] == 1275
        assert replay_certificate(d, cert) and folds == []

    def test_no_orbit_is_listed(self, monkeypatch):
        # kernel_index closes a basis per slot (modtwo.orbit_dim): certify
        # and extend list no orbit, even with the orbit memo cold.
        spans = _count(monkeypatch, m2, "orbit_span")
        m2.orbit_dim.cache_clear()
        for args, nodes in ((("E8",), [1, 7, 8]), (("D", 8), [2, 6]), (("E6",), [1, 5])):
            d = build_dagger(weyl_data(*args), nodes)
            assert certify_torsion_free(d).ok and cyclic_extension(d).certificate.ok
        assert m2.orbit_dim.cache_info().misses > 0 and spans == []

    def test_move_table_once_per_weyl_type(self):
        # Certify, its replay and extend build no move table; the class list
        # of a Weyl type (maximal_rank_class) builds it once per type.
        for cache in (inv._move_table, inv.maximal_rank_class):
            cache.cache_clear()
        for args, nodes in ((("E6",), (1,)), (("E8",), (1, 8)), (("E6",), (1, 5))):
            d = build_dagger(weyl_data(*args), nodes)
            assert replay_certificate(d, certify_torsion_free(d))
            assert replay_certificate(d, cyclic_extension(d).certificate)
        assert inv._move_table.cache_info().misses == 0
        for _ in range(2):
            for args in (("E6",), ("E8",)):
                inv.maximal_rank_class(weyl_data(*args))
        assert inv._move_table.cache_info().misses == 2

    @pytest.mark.parametrize("args,nodes", [(("E8",), (1, 7, 8)), (("D", 8), (2, 6)),
                                            (("A", 5), (2, 4)), (("E6",), (1, 2, 3, 4, 5, 6))])
    def test_one_entry_per_component(self, args, nodes):
        # Step 2 has one entry per pendant component and the class exclusion
        # one per component with x = 0, so no per-class work comes back
        # unseen: the reference table has many more classes.
        d = build_dagger(weyl_data(*args), nodes)
        comps = tf._pendant_components(d)
        classes = certify_torsion_free(d).steps[1].objects["components"]
        steps = {s.name: s for s in cyclic_extension(d).certificate.steps}
        exclusions = steps["class-exclusion"].objects["components"]
        assert len(classes) == len(comps)
        assert len(exclusions) == sum(c[2] == 0 for c in comps) > 0
        assert len(class_table(d)) > 2 * len(comps)


class TestCertificateBytes:
    def test_every_sequence_of_at_most_three_attachments(self):
        # One sha256 over the certify and extend certificates (or the
        # extension's error) of every sequence of one to three distinct
        # admissible attachments, in every order, over eleven Weyl types:
        # 630 symbols.  The pin holds every certificate byte fixed while
        # the way certify and extend derive them changes.
        digest, count = hashlib.sha256(), 0
        for args in (("E6",), ("E7",), ("E8",), ("D", 8), ("D", 4), ("B", 4), ("A", 5),
                     ("F4",), ("G2",), ("B", 6), ("D", 6)):
            psi = weyl_data(*args)
            admissible = [s for s, _ in m2.admissible_nodes(psi)]
            for k in (1, 2, 3):
                for nodes in itertools.permutations(admissible, k):
                    d = build_dagger(psi, nodes)
                    try:
                        extension = cyclic_extension(d).certificate.to_json()
                    except DaggerError as exc:
                        extension = str(exc)
                    digest.update(json.dumps(certify_torsion_free(d).to_json(), sort_keys=True).encode())
                    digest.update(json.dumps(extension, sort_keys=True).encode())
                    count += 1
        assert count == 630
        assert digest.hexdigest() == "d81ca2256d363baa345c57bdc365b55c7d37fe18baccc313ed97eeabc614161f"


def _clear_memos():
    for value in vars(tf).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _derived(d):
    """What certify and extend derive for d, step by step; a step that
    raises gives its message."""
    out = []
    for derive in (lambda: tf.verify_relations(d, "hat"), lambda: tf.verify_relations(d, "plain"),
                   lambda: tf._involution_classes(d), lambda: tf._finite_visible_structure(d),
                   lambda: certify_torsion_free(d).to_json(),
                   lambda: cyclic_extension(d).certificate.to_json()):
        try:
            out.append(derive())
        except DaggerError as exc:
            out.append(str(exc))
    return out


class TestMemoKeys:
    """A hand-built twin of a built symbol, certified next to it in either
    order, gets what it gets with every memo of the module cleared: each
    memo's key holds everything its value reads."""

    @staticmethod
    def _twins(d, twin):
        _clear_memos()
        alone = [_derived(d)]
        _clear_memos()
        alone.append(_derived(twin))
        assert alone[0] != alone[1]
        for order in ((d, twin), (twin, d)):
            _clear_memos()
            together = [_derived(x) for x in order]
            assert together == (alone if order[0] is d else alone[::-1])

    def test_a_raised_weyl_edge(self):
        # As in TestRelationsFollowGamma: gamma's 1-2 edge raised to 4.
        d = build_dagger(weyl_data("E6"), [1])
        edges = [(a, b, 4 if (a, b) == (1, 2) else m) for a, b, m in d.gamma.edges()]
        self._twins(d, d._replace(gamma=CoxeterSymbol(d.gamma.nodes, edges)))

    def test_extension_reads_the_built_neighbours(self):
        # The rows read psi and the pendant alone, so extend's class
        # exclusion names the free nodes of the symbol build_dagger makes,
        # whatever extra edge a hand-built gamma has; certify's step 3
        # names that edge.
        # On D4 [2], gamma's neighbours would leave t1 alone two free nodes, not three.
        d = build_dagger(weyl_data("D", 4), [2])
        bad = d._replace(gamma=CoxeterSymbol(d.gamma.nodes, d.gamma.edges() + [(1, "t1", 3)]))
        steps = [{s.name: s for s in cyclic_extension(x).certificate.steps} for x in (d, bad)]
        assert steps[0]["class-exclusion"] == steps[1]["class-exclusion"]
        assert steps[0]["class-exclusion"].objects["components"][0] == {
            "nodes": ["t1"], "free_antipodal_size": 3}
        assert certify_torsion_free(bad).steps[2].objects == {
            "violations": [{"edge": ["1", "t1"], "order": 3, "expected": 2}]}

    @pytest.mark.parametrize("args,nodes", [(("D", 4), (2,)), (("E8",), (8,)), (("A", 5), (2,)),
                                            (("E8",), (1, 8))])
    def test_zeroed_weights(self, args, nodes):
        # As in TestProductTable::test_zeroed_weights_fail_step_2, whose
        # step 2 fails on the special attachments; certify raises at
        # kernel_index, and _derived reads the steps alone.
        d = build_dagger(weyl_data(*args), nodes)
        self._twins(d, d._replace(weights=tuple((0,) * d.psi.rank for _ in d.weights)))


class TestProductTable:
    """The reference class table, built from pendant configurations,
    against the generic closure: the same classes in the same order, each
    image phi of its word, and no pendant component that is not A1 or B_k.
    The verdicts certify and extend read off the pendant components equal
    the class-by-class scan of that table.  The growth from the pendants
    reaches exactly the connected spherical subsets through a pendant that
    the walk of the whole symbol lists, and its components are the rows
    certify reads off the type-A paths (_components)."""

    @staticmethod
    def _check(args, nodes):
        d = build_dagger(weyl_data(*args), nodes)
        table = class_table(d)
        assert tuple(cls for cls, _, _ in table) == inv.equivalence_classes(d.gamma), nodes
        for _, word, image in table:
            assert image == phi(d, word, "hat"), (nodes, word)
        max_rank = inv.maximal_rank_class(d.psi).rank
        assert (tf._involution_classes(d).ok, tf._class_exclusion(d, max_rank).ok) \
            == class_scan(d, max_rank), nodes
        components, violations = pendant_growth(d)
        assert violations == () and _walk_violations(d) == []
        assert _rows(d) == pendant_rows(d), nodes
        pend = sum(1 << k for k, v in enumerate(d.gamma.nodes) if v in d.pendants)
        through = [mask for mask, comps in spherical_subsets(d.gamma).items()
                   if mask & pend and len(comps) == 1]
        grown = [c[0] for comps in components for c in comps] + [v[0] for v in violations]
        assert sorted(grown) == sorted(through), nodes
        for comps, s in zip(components, d.attachments):
            paths = [()] + [path for path, _, _ in m2.type_a_paths(d.psi, s)]
            assert sorted(c[5] for c in comps) == sorted(paths), (nodes, s)

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

    @pytest.mark.parametrize("args,nodes", [(("E8",), (1, 8)), (("D", 8), (2, 6)),
                                            (("E6",), (1, 5)), (("A", 5), (2, 4)),
                                            (("B", 4), (2,))])
    def test_every_target_rank(self, args, nodes):
        # Every symbol here passes the class exclusion, so the verdict is
        # also checked with the target rank set to each of 1..n in place of
        # the maximal class rank: the one-pick rule must still equal the scan.
        d = build_dagger(weyl_data(*args), nodes)
        verdicts = [tf._class_exclusion(d, r).ok for r in range(1, d.psi.rank + 1)]
        assert verdicts == [class_scan(d, r)[1] for r in range(1, d.psi.rank + 1)]
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("args,nodes", [(("D", 4), (2,)), (("E8",), (8,)), (("A", 5), (2,))])
    def test_zeroed_weights_fail_step_2(self, args, nodes):
        # With u_i = 0 some pendant component maps to the identity (t_i alone
        # for a special attachment, an even-k B_k for a plain one), so a class
        # dies.  Step 2 reads t_i alone off its letter, so it sees the first;
        # it reads a B_k's image off the walk from s_i, which step 3 ties to
        # the symbol: step 3 names the pendant whose u_i mod 2 differs.
        # Certify raises at kernel_index here, so the steps are read alone.
        d = build_dagger(weyl_data(*args), nodes)
        bad = d._replace(weights=tuple((0,) * d.psi.rank for _ in d.weights))
        assert tf._involution_classes(bad).ok is (not d.special[0])
        u = m2.weight_vector(d.psi, nodes[0]).mod2()
        assert u and tf._finite_visible_structure(bad).objects == {
            "violations": [{"pendant": "t1", "u_mod2": 0, "expected": u}]}
        assert class_scan(bad, inv.maximal_rank_class(d.psi).rank)[0] is False
        with pytest.raises(DaggerError, match="orbit span"):
            certify_torsion_free(bad)


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
    # Every (symbol, mode) with one or two pendants over A2-A5, B3, B4, D4,
    # G2 and F4 whose formula is at most 6,144: 2^(m n + ell) |W| (hat) and
    # 2^(m n) |W| (plain), ell counting the plain attachments.  Every
    # admissible node of A2 and A4 is plain; A3 and A5 have no admissible
    # node, and every F4 formula passes 6,144.
    @pytest.mark.parametrize("args,nodes,hat,plain", [
        (["A", 2], [1], 2 ** 3 * 6, 2 ** 2 * 6),
        (["G2"], [1], 2 ** 2 * 12, 2 ** 2 * 12),
        (["D", 4], [2], 2 ** 4 * 192, 2 ** 4 * 192),
        (["A", 2], [2], 2 ** 3 * 6, 2 ** 2 * 6),
        (["A", 2], [1, 2], 2 ** 6 * 6, 2 ** 4 * 6),
        (["A", 4], [1], 2 ** 5 * 120, 2 ** 4 * 120),
        (["A", 4], [2], 2 ** 5 * 120, 2 ** 4 * 120),
        (["A", 4], [3], 2 ** 5 * 120, 2 ** 4 * 120),
        (["A", 4], [4], 2 ** 5 * 120, 2 ** 4 * 120),
        (["B", 3], [2], 2 ** 3 * 48, 2 ** 3 * 48),
        (["B", 4], [2], 2 ** 4 * 384, 2 ** 4 * 384),
    ])
    def test_closure_matches_formula(self, monkeypatch, args, nodes, hat, plain):
        # The orbit spans (no cap) and the closure (verify_cap) agree.
        d = build_dagger(weyl_data(*args), nodes)
        closures = []

        def spy(dagger, mode, cap):
            closures.append(original(dagger, mode, cap))
            return closures[-1]

        original = tf.enumerate_image
        monkeypatch.setattr(tf, "enumerate_image", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tf.kernel_index(d, "hat") == tf.kernel_index(d, "hat", verify_cap=hat) == hat
            assert (tf.kernel_index(d, "plain")
                    == tf.kernel_index(d, "plain", verify_cap=plain) == plain)
        assert closures == [hat, plain]

    def test_a_slot_short_of_its_span_is_rejected(self):
        # u_1 of D4 spans one dimension under W, not four: put in the slot
        # of the pendant at node 2, it must fail the proof, and the closure
        # finds the smaller image, 2^1 |W(D4)|.
        d = build_dagger(weyl_data("D", 4), [2])
        bad = d._replace(weights=(m2.weight_vector(d.psi, 1).coords,))
        with pytest.raises(DaggerError, match=r"slot 0 \(t1 at node 2\).* dimension 1, not 4"):
            tf.kernel_index(bad, "hat")
        assert tf.enumerate_image(bad, "hat", cap=3072) == 2 * 192

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
        # Both reject the mode before any orbit span is read.
        d = build_dagger(weyl_data(*args), [1])
        with pytest.raises(DaggerError, match="unknown mode 'bogus'"):
            tf.kernel_index(d, "bogus")

    def test_closure_cap(self):
        d = build_dagger(weyl_data("A", 2), [1])
        with pytest.raises(DaggerError, match="closure exceeds cap 47"):
            tf.enumerate_image(d, "hat", cap=47)
        assert tf.enumerate_image(d, "hat", cap=48) == 48
