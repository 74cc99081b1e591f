"""Torsion-free subgroups of Coxeter groups with pendant-node symbols.

Starting from an irreducible Weyl symbol Psi, attach pendant nodes t_i by
order-4 edges at admissible nodes s_i.  The resulting Coxeter group maps
onto a finite group

    Z/2^ell  x  (prod_i Lambda_i/2  ><  W(Psi)),

by sending s in Psi to itself, t_i to the translation by the weight
vector u_i (its slot of the product), and, in the parity-augmented map,
t_i for a non-special attachment also to the i-th standard bit.  The
kernel of the augmented map is torsion free; this module verifies the
defining relations, certifies torsion-freeness class by class, and
extends the kernel by a cyclic 2-group built from a Coxeter element.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import involutions as inv
from . import modtwo as m2
from . import weyl as wy
from .symbols import CoxeterSymbol, component_shape, mask_nodes, mask_sort_key, spherical_subsets
from .weyl import Matrix, WeylData

WORD_CAP = 10_000
CLOSURE_CAP = 10_000_000
DEFAULT_VERIFY_CAP = 20_000


class DaggerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The symbol

@dataclass(frozen=True)
class DaggerSymbol:
    """Weyl symbol with pendant nodes on admissible attachment points.

    Attachments are reordered so the plain (admissible but not specially
    admissible) ones come first; ell counts them.  Pendant t_i is joined
    to attachment node i by an order-4 edge and commutes with everything
    else.

    Two per-symbol memos hang off the instance, derived from its fields
    alone and dropped with it: the letter table of each mode (_letters)
    and, per component mask of a spherical subset, that component's
    sort key, longest word and fold actions (_parts).
    """

    psi: WeylData
    attachments: Tuple[int, ...]
    special: Tuple[bool, ...]
    pendants: Tuple[str, ...]
    gamma: CoxeterSymbol
    weights: Tuple[Tuple[int, ...], ...]
    ell: int

    @property
    def m(self) -> int:
        return len(self.attachments)

    @cached_property
    def _letters(self) -> Mapping[str, Mapping[object, "Action"]]:
        """Per mode, each generator's fold action: a Weyl node reflects;
        pendant t_i is the translation by u_i mod 2 in slot i, toggling bit
        i of x in the augmented map for a plain attachment."""
        tables = {}
        for mode in ("plain", "hat"):
            letters: Dict[object, Action] = {s: (s, None) for s in self.psi.symbol.nodes}
            for i, t in enumerate(self.pendants):
                x = 1 << i if mode == "hat" and i < self.ell else 0
                letters[t] = (t, (x, ((i, _bits(m2.vec_mod2(self.weights[i]))),)))
            tables[mode] = MappingProxyType(letters)
        return MappingProxyType(tables)

    @cached_property
    def _parts(self) -> Dict[int, "Part"]:
        return {}


def build_dagger(psi: WeylData, nodes: Sequence[int]) -> DaggerSymbol:
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise DaggerError("attachment nodes must be distinct")
    tagged = []
    for s in nodes:
        if s not in psi.symbol.nodes:
            raise DaggerError(f"{psi.label()} has no node {s!r}")
        admissible, special = m2._admissibility(psi, s)
        if not admissible:
            raise DaggerError(f"node {s} of {psi.label()} is not admissible")
        tagged.append((s, special))
    ordered = [p for p in tagged if not p[1]] + [p for p in tagged if p[1]]
    attachments = tuple(s for s, _ in ordered)
    special = tuple(sp for _, sp in ordered)
    pendants = tuple(f"t{i + 1}" for i in range(len(ordered)))
    edges = list(psi.symbol.edges())
    edges += [(attachments[i], pendants[i], 4) for i in range(len(ordered))]
    gamma = CoxeterSymbol(list(psi.symbol.nodes) + list(pendants), edges)
    weights = tuple(m2.weight_vector(psi, s).coords for s in attachments)
    return DaggerSymbol(psi, attachments, special, pendants, gamma, weights,
                        sum(1 for sp in special if not sp))


# ---------------------------------------------------------------------------
# Image-group elements

_mod2_cols = lru_cache(maxsize=1 << 14)(m2.mat_mod2)


@dataclass(frozen=True)
class SemidirectElement:
    """Element (x, v, g) of Z/2^ell x (prod_i L/2 >< W(Psi)).

    x is a parity bitset, v holds one L/2 vector per pendant slot, and g
    is an exact Weyl matrix.  The product twists the translation part by
    the mod-2 action of g.
    """

    x: int
    v: Tuple[int, ...]
    g: Matrix

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        cols = _mod2_cols(self.g)
        return SemidirectElement(
            self.x ^ other.x,
            tuple(a ^ m2.f2_mat_vec(cols, b) for a, b in zip(self.v, other.v)),
            wy.mat_mul(self.g, other.g),
        )

    def power(self, k: int) -> "SemidirectElement":
        if k < 0:
            raise DaggerError(f"negative exponent {k}")
        return wy.power(self, k, operator.mul, identity_element(len(self.v), len(self.g)))

    def is_identity(self) -> bool:
        return self.x == 0 and all(b == 0 for b in self.v) and self.g == wy.identity_matrix(len(self.g))


def identity_element(slots: int, n: int) -> SemidirectElement:
    return SemidirectElement(0, tuple(0 for _ in range(slots)), wy.identity_matrix(n))


def _generator_images(d: DaggerSymbol, mode: str) -> Dict[object, SemidirectElement]:
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
    n = d.psi.rank
    slots = d.m
    images: Dict[object, SemidirectElement] = {}
    zero = tuple(0 for _ in range(slots))
    for s in d.psi.symbol.nodes:
        images[s] = SemidirectElement(0, zero, wy.reflection_matrix(d.psi, s))
    for i, t in enumerate(d.pendants):
        x = (1 << i) if (mode == "hat" and i < d.ell) else 0
        v = tuple(m2.vec_mod2(d.weights[i]) if j == i else 0 for j in range(slots))
        images[t] = SemidirectElement(x, v, wy.identity_matrix(n))
    return images


# A fold action: (s, None) is the reflection of Weyl node s; (t, (x_T,
# slots)) is a translation (x_T, v_T, 1), slots listing (j, the odd
# coordinates of v_T[j]) for each nonzero slot j.
Action = Tuple[object, Optional[Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]]]
# A component's part: its mask_sort_key, its longest word, its fold actions.
Part = Tuple[Tuple[int, ...], Tuple, Tuple[Action, ...]]


def _bits(v: int) -> Tuple[int, ...]:
    return tuple(j for j in range(v.bit_length()) if v >> j & 1)


class _Fold:
    """Mutable state (x, v, g), right-multiplied in place by fold actions.

    A reflection s right-multiplies g by s_s.  A translation enters by the
    semidirect law (x, v, g)(x_T, v_T, 1) = (x + x_T, v + (g mod 2) v_T, g).
    """

    __slots__ = ("psi", "x", "v", "g")

    def __init__(self, d: DaggerSymbol):
        self.psi = d.psi
        self.x = 0
        self.v = [0] * d.m
        self.g = [list(r) for r in wy.identity_matrix(d.psi.rank)]

    def apply(self, actions: Iterable[Action]) -> None:
        psi, v, g = self.psi, self.v, self.g
        for s, shift in actions:
            if shift is None:
                wy.reflect_rows(psi, g, s)
                continue
            x, slots = shift
            self.x ^= x
            for j, cols in slots:
                for r, row in enumerate(g):
                    if sum([row[c] for c in cols]) & 1:
                        v[j] ^= 1 << r

    def element(self) -> SemidirectElement:
        return SemidirectElement(self.x, tuple(self.v), tuple(map(tuple, self.g)))


def phi(d: DaggerSymbol, word: Sequence, mode: str = "hat") -> SemidirectElement:
    """Image of a word in the generators of the pendant symbol.

    The word is folded into mutable state through the symbol's letter
    table of the mode: a Weyl letter s right-multiplies g by s_s in place;
    a pendant letter t_i toggles bit i of x (augmented map, plain pendants
    only) and adds g u_i mod 2 to slot i of v.
    """
    if len(word) > WORD_CAP:
        raise DaggerError(f"word longer than the {WORD_CAP} cap")
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
    letters = d._letters[mode]
    try:
        actions = [letters[s] for s in word]
    except KeyError as exc:
        raise DaggerError(f"unknown generator {exc.args[0]!r}") from None
    fold = _Fold(d)
    fold.apply(actions)
    return fold.element()


# ---------------------------------------------------------------------------
# Certificates

@dataclass(frozen=True)
class CertStep:
    name: str
    objects: dict
    ok: bool


@dataclass(frozen=True)
class Certificate:
    kind: str
    mode: str
    steps: Tuple[CertStep, ...]
    index: Optional[int] = None
    p: Optional[int] = None

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "ok": self.ok,
            "index": self.index,
            "p": self.p,
            "steps": [
                {"name": s.name, "objects": s.objects, "ok": s.ok} for s in self.steps
            ],
        }


def verify_relations(d: DaggerSymbol, mode: str = "hat") -> Certificate:
    """Check every defining relation of the pendant symbol in the image,
    each word folded through the symbol's letter table of the mode."""
    steps = []
    gens = list(d.gamma.nodes)
    for a in gens:
        word = [a, a]
        ok = phi(d, word, mode).is_identity()
        steps.append(CertStep("relation", {"generators": [str(a)], "order": 1,
                                           "relation_word": [str(x) for x in word]}, ok))
    for a, b in itertools.combinations(gens, 2):
        m = d.gamma.order(a, b)
        word = [a, b] * m
        ok = phi(d, word, mode).is_identity()
        steps.append(CertStep("relation", {"generators": [str(a), str(b)], "order": m,
                                           "relation_word": [str(x) for x in word]}, ok))
    return Certificate("homomorphism-check", mode, tuple(steps))


def enumerate_image(d: DaggerSymbol, mode: str = "hat", cap: int = CLOSURE_CAP) -> int:
    """Order of the image subgroup by breadth-first closure of the
    generator images.  Raises when the closure exceeds cap."""
    images = _generator_images(d, mode)
    gens = [images[s] for s in d.gamma.nodes]
    seen = m2.bfs_closure(identity_element(d.m, d.psi.rank), gens, operator.mul, cap)
    if len(seen) > cap:
        raise DaggerError(f"closure exceeds cap {cap}")
    return len(seen)


def kernel_index(d: DaggerSymbol, mode: str = "hat",
                 verify_cap: Optional[int] = None) -> int:
    """Index of the kernel, i.e. the order of the image group.

    The formula is 2^(m n + ell) |W(Psi)| for the augmented map and
    2^(m n) |W(Psi)| for the plain one.  When the value is at most
    verify_cap the order is re-derived by generator closure.
    """
    cap = DEFAULT_VERIFY_CAP if verify_cap is None else verify_cap
    n = d.psi.rank
    value = (2 ** (d.m * n + (d.ell if mode == "hat" else 0))) * d.psi.order
    if mode == "plain" and not all(d.special):
        warnings.warn("plain-mode kernel is not torsion free: "
                      "some attachment is not specially admissible")
    if value <= cap:
        actual = enumerate_image(d, mode, cap=value + 1)
        if actual != value:
            raise DaggerError(f"image order {actual} != formula {value}")
    return value


# ---------------------------------------------------------------------------
# Torsion-free certification

def _b_longest_word(pendant, path: Sequence[int]) -> List:
    """Reduced word for the longest element of the visible type-B subgroup
    {pendant} + path, the pendant sitting at the order-4 end.  Built from
    nested palindromes around the pendant; each palindrome cancels to the
    identity once the pendant is erased."""
    local = list(reversed(path)) + [pendant]
    k = len(local)
    word: List = []
    for j in range(1, k):
        word += local[j - 1:k] + local[j - 1:k - 1][::-1]
    word.append(pendant)
    return word


def _component_longest_word(d: DaggerSymbol, comp: Sequence) -> List:
    psi_nodes = set(d.psi.symbol.nodes)
    comp = list(comp)
    pend = [v for v in comp if v not in psi_nodes]
    if not pend:
        return list(wy.longest_word(d.psi, comp))
    if len(pend) != 1:
        raise DaggerError("component with two pendants is never finite")
    t = pend[0]
    shape = component_shape(d.gamma, comp)
    if shape is None or shape[0] is not None:
        raise DaggerError("pendant component is not a path")
    path = shape[1][0]
    if path[0] != t:
        path = path[::-1]
    return _b_longest_word(t, path[1:])


def _component_part(d: DaggerSymbol, comp: int) -> "Part":
    """(sort key, longest word, fold actions) of one component mask of a
    spherical subset, memoized in d._parts.  A component of the Weyl part
    acts by the letters of its word.  A component through a pendant acts
    by one translation: its word's image under phi (augmented map), which
    must fix the Weyl part, since its word cancels once the pendant is
    erased.
    """
    part = d._parts.get(comp)
    if part is None:
        nodes = mask_nodes(d.gamma, comp)
        word = tuple(_component_longest_word(d, nodes))
        if set(nodes) <= set(d.psi.symbol.nodes):
            letters = d._letters["hat"]
            actions = tuple(letters[s] for s in word)
        else:
            image = phi(d, word, "hat")
            if image.g != wy.identity_matrix(d.psi.rank):
                raise DaggerError("pendant component image moves the Weyl part")
            slots = tuple((j, _bits(vj)) for j, vj in enumerate(image.v) if vj)
            actions = ((None, (image.x, slots)),)
        part = d._parts[comp] = (mask_sort_key(d.gamma, comp), word, actions)
    return part


def _subset_parts(d: DaggerSymbol, subset: Sequence) -> List["Part"]:
    """The parts of the components of a spherical subset, ordered by least
    node (components are disjoint, so their sort keys differ there)."""
    gamma = d.gamma
    chosen = set(subset)
    mask = sum(1 << i for i, v in enumerate(gamma.nodes) if v in chosen)
    return sorted(_component_part(d, comp) for comp, _ in spherical_subsets(gamma)[mask])


@lru_cache(maxsize=2)
def _class_table(d: DaggerSymbol
                 ) -> Tuple[Tuple[inv.EquivalenceClass, Tuple, SemidirectElement], ...]:
    """(class, word, image) for every involution class of the pendant
    symbol: the longest word of its canonical antipodal subsymbol and that
    word's image under the augmented map.

    The image is a fold over the components in least-node order: a Weyl
    component applies its letters to g in place, as phi does, and a
    pendant component enters as its own image (x_P, v_P, 1) by the
    semidirect law, the arithmetic phi does letter by letter.  Its caches:
    the table itself, per symbol (memoized by value for the last two
    symbols, so that certify, the certify a replay re-derives, and the
    class exclusions of the cyclic extension share it); the letter table,
    per symbol and mode (d._letters); each component's word and actions,
    per component mask of the symbol (d._parts); and the reduced words of
    Weyl components, per Weyl type and node set (weyl.longest_word).  All
    are derived from d alone, none is ever filled from a certificate, and
    every entry is immutable, so a caller cannot change what the next one
    reads.

    One table serves both modes.  Plain mode is certified only when every
    attachment is special; then ell = 0 and the two maps agree on every
    generator.
    """
    out = []
    for cls in inv.equivalence_classes(d.gamma):
        parts = _subset_parts(d, cls.canonical)
        word = tuple(s for _, part_word, _ in parts for s in part_word)
        if len(word) > WORD_CAP:
            raise DaggerError(f"word longer than the {WORD_CAP} cap")
        fold = _Fold(d)
        for _, _, actions in parts:
            fold.apply(actions)
        out.append((cls, word, fold.element()))
    return tuple(out)


def _structure_violations(d: DaggerSymbol) -> List[dict]:
    """Connected finite visibles through a pendant that are not type B with
    exactly one pendant, in the walk's order: by size, then by position."""
    gamma = d.gamma
    pendants = set(d.pendants)
    pend = sum(1 << i for i, v in enumerate(gamma.nodes) if v in pendants)
    violations = []
    for mask, comps in spherical_subsets(gamma).items():
        if not mask & pend or len(comps) != 1:
            continue
        t = comps[0][1]
        n_pend = (mask & pend).bit_count()
        if not (n_pend == 1 and (t.family == "B" or (t.family == "A" and t.rank == 1))):
            violations.append({"nodes": [str(v) for v in mask_nodes(gamma, mask)],
                               "type": t.label(), "pendants": n_pend})
    return violations


_TRUSTED_REDUCTIONS = (
    "finite-order elements are conjugate into finite visible subgroups "
    "(Bourbaki Lie IV-VI V.4.2 exercises; Brink-Howlett 1993 Prop. 1.3)",
    "odd-prime torsion of a rank-k type-B group is conjugate into its "
    "visible type-A subgroup of rank k-1 (Carter 1972 par. 7)",
    "involution conjugacy classes biject with move-classes of antipodal "
    "subsymbols (Richardson 1982 Theorem A)",
    "the reflection representation of a Weyl group is faithful",
    "a map faithful on two disjoint visibles with trivially intersecting "
    "images is faithful on their union",
)


def certify_torsion_free(d: DaggerSymbol, mode: str = "hat") -> Certificate:
    """Torsion-freeness certificate for the kernel.

    Steps: (1) every defining relation holds in the image; (2) every
    involution class of the pendant-symbol group has nontrivial image;
    (3) every connected finite visible subgroup not inside the Weyl part
    is type B through exactly one pendant, which discharges odd torsion
    through the named trusted reductions; (4) for each type-A path from
    each attachment, whether the map is faithful on the visible type-B
    subgroup of its pendant and that path, the flag modtwo.type_a_paths
    gives it (the check admissibility ran); one that is not faithful
    must be parity compensated: hat mode, a non-special attachment, odd
    rank, and a longest element that survives the map.

    The class words and images of step (2) are read from _class_table, a
    same-process cache per symbol derived from d alone, as are its letter
    and per-component caches; none holds anything taken from a certificate.
    """
    if mode == "plain" and not all(d.special):
        raise DaggerError("plain-mode certification needs specially admissible attachments")
    steps: List[CertStep] = []

    rel = verify_relations(d, mode)
    steps.append(CertStep("relations",
                          {"checked": len(rel.steps),
                           "failed": [s.objects for s in rel.steps if not s.ok]},
                          rel.ok))

    for cls, word, image in _class_table(d):
        nontrivial = not image.is_identity()
        steps.append(CertStep("involution-class",
                              {"members": [[str(v) for v in mm] for mm in cls.members],
                               "rank": cls.rank,
                               "word": [str(v) for v in word],
                               "nontrivial": nontrivial},
                              nontrivial))

    violations = _structure_violations(d)
    steps.append(CertStep("finite-visible-structure",
                          {"violations": violations}, not violations))
    steps.append(CertStep("odd-torsion-reduction",
                          {"trusted": list(_TRUSTED_REDUCTIONS)}, True))

    entries = []
    ok4 = True
    for i in range(d.m):
        for path, faithful in m2.type_a_paths(d.psi, d.attachments[i]):
            k = len(path) + 1
            entry = {"pendant": d.pendants[i], "k": k,
                     "path": [str(v) for v in path], "faithful": faithful}
            if not faithful:
                word = _b_longest_word(d.pendants[i], path)
                compensated = (mode == "hat" and i < d.ell and k % 2 == 1
                               and not phi(d, word, mode).is_identity())
                entry["parity_compensated"] = compensated
                if not compensated:
                    ok4 = False
            entries.append(entry)
    steps.append(CertStep("type-B-faithfulness", {"subgroups": entries}, ok4))

    return Certificate("torsion-free", mode, tuple(steps), index=kernel_index(d, mode))


# ---------------------------------------------------------------------------
# Cyclic extensions

@dataclass(frozen=True)
class CyclicExtension:
    zeta: SemidirectElement
    p: int
    index: int
    certificate: Certificate


def _two_adic(n: int) -> Tuple[int, int]:
    p = 0
    while n % 2 == 0:
        n //= 2
        p += 1
    return p, n


@lru_cache(maxsize=16)
def _half_turn(psi: WeylData) -> Tuple[str, int, Matrix, int, m2.F2Subspace, m2.F2Subspace]:
    """What the extension of every pendant symbol over one Weyl type
    shares, computed once per type from psi alone: the route, p (zeta has
    order 2^p), xi^q for the Weyl part of zeta, the target u, and the
    kernel and image of g + 1 mod 2 for the half-turn g = xi^(2^(p-1) q).
    The routes are those of cyclic_extension.  The generic route needs a
    kernel/image defect above one, read off that kernel and image before
    the target is sought.  It stands as the route's precondition: the
    defect is at least 2 on B_n, D_n, E7, E8, F4 and G2."""
    if psi.family == "A" and psi.rank % 2 == 0:
        raise DaggerError(f"Coxeter number {psi.coxeter_number} is odd; no 2-group extension")
    if psi.family == "A":
        xi = wy.coxeter_element(psi)
        p, q = 1, psi.coxeter_number // 2
        route = "half-turn"
    elif psi.family == "E6":
        xi = wy.coxeter_element(psi, nodes=range(2, 7))
        p, q = 3, 1
        route = "visible-D5"
    else:
        p, q = _two_adic(psi.coxeter_number)
        xi = wy.coxeter_element(psi)
        route = "generic"
    xi_q = wy.mat_pow(xi, q)
    half = wy.mat_pow(xi_q, 2 ** (p - 1))
    ker, im, defect = m2.involution_ker_im(m2.mat_mod2(half), psi.rank)
    if route == "generic" and defect <= 1:
        raise DaggerError("kernel/image defect is too small for the generic route")
    u = m2.find_target(psi, xi, q, p)
    return route, p, xi_q, u, ker, im


def cyclic_extension(d: DaggerSymbol) -> CyclicExtension:
    """Extend the kernel by a cyclic 2-group inside the image.

    Generic route: for even Coxeter number h = 2^p q with kernel/image
    defect above one, the element zeta = (0, (u,..,u), xi^q) generates a
    copy of Z/2^p avoiding every involution class in the image of the
    group.  Odd-rank type A uses the Coxeter half-turn directly (p = 1);
    E6 does better through a Coxeter element of its visible D5, giving
    p = 3 instead of the generic p = 2.

    Its caches: the route, xi^q, the target u and the half-turn's kernel
    and image, per Weyl type (_half_turn); the class table, per
    symbol, with its letter and per-component caches (_class_table).  All
    are derived from d alone and none is ever filled from a certificate.
    Everything that depends on the pendants (zeta, its powers, the slot
    checks, the class exclusions) is computed afresh on each call.
    """
    psi = d.psi
    n = psi.rank
    route, p, xi_q, u, ker, im = _half_turn(psi)
    zeta = SemidirectElement(0, tuple(u for _ in range(d.m)), xi_q)
    steps: List[CertStep] = []

    half = zeta.power(2 ** (p - 1))
    order_ok = (half * half).is_identity() and not half.is_identity()
    steps.append(CertStep("cyclic-order",
                          {"route": route, "p": p, "order": 2 ** p,
                           "zeta": _element_json(zeta)}, order_ok))

    g = half.g
    eig_dim = wy.minus_one_rank(g)
    max_rank = inv.maximal_rank_class(psi).rank
    steps.append(CertStep("half-power-involution",
                          {"eigen_dim": eig_dim, "max_class_rank": max_rank,
                           "g": [list(r) for r in g]},
                          wy.mat_mul(g, g) == wy.identity_matrix(n) and half.x == 0
                          and eig_dim == max_rank))

    slot_checks = [{"slot": j, "in_kernel": ker.contains(v), "in_image": im.contains(v)}
                   for j, v in enumerate(half.v)]
    avoid_ok = all(c["in_kernel"] for c in slot_checks) and \
        any(not c["in_image"] for c in slot_checks)
    steps.append(CertStep("target-avoidance", {"slots": slot_checks}, avoid_ok))

    exclusions = []
    ok_ex = True
    psi_nodes = set(psi.symbol.nodes)
    for cls, _, image in _class_table(d):
        if image.x != 0:
            reason = "x-parity"
        elif all(v in psi_nodes for v in cls.canonical):
            reason = "inside-weyl-part"
        elif wy.minus_one_rank(image.g) != max_rank:
            reason = "rank-mismatch"
        else:
            reason = "unresolved"
            ok_ex = False
        exclusions.append({"members": [str(v) for v in cls.canonical], "reason": reason})
    steps.append(CertStep("class-exclusion",
                          {"classes": exclusions,
                           "trusted": ["2-torsion in the preimage of a cyclic 2-group "
                                       "maps onto its unique involution"]}, ok_ex))

    image_order = 2 ** (d.m * n + d.ell) * psi.order
    if image_order % 2 ** p:
        raise DaggerError(f"2^{p} does not divide the image order {image_order}")
    index = image_order // 2 ** p
    cert = Certificate("cyclic-extension", "hat", tuple(steps), index=index, p=p)
    return CyclicExtension(zeta, p, index, cert)


def _element_json(e: SemidirectElement) -> dict:
    return {"x": e.x, "v": list(e.v), "g": [list(r) for r in e.g]}


# ---------------------------------------------------------------------------
# Certificate replay

def replay_certificate(d: DaggerSymbol, cert: Certificate) -> bool:
    """Re-derive the certificate of cert.kind from d and compare.

    Nothing recorded is trusted: every verdict and every object is
    recomputed by the same code that certify and extend run, so a
    certificate replays only when it equals the fresh one field for
    field.  An unknown kind, or one that cannot be re-derived for d (a
    DaggerError, such as plain mode on a non-special attachment or an
    unknown mode), does not replay.

    The same-process caches it reads are derived from d alone, never from
    the objects cert records: the class table, per symbol, with its letter
    table per symbol and mode and its component words and actions per
    component mask (_class_table); and the extension's half-turn data, per
    Weyl type (_half_turn).  A replay in a fresh process recomputes them;
    in the process that certified, it compares cert with a certificate
    freshly derived from the same caches.
    """
    derive = {
        "torsion-free": lambda: certify_torsion_free(d, cert.mode),
        "cyclic-extension": lambda: cyclic_extension(d).certificate,
        "homomorphism-check": lambda: verify_relations(d, cert.mode),
    }.get(cert.kind)
    if derive is None:
        return False
    try:
        fresh = derive()
    except DaggerError:
        return False
    return fresh.to_json() == cert.to_json()
