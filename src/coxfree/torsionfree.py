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

The involution classes of a pendant symbol form a product: pendant
configurations times the classes of the Weyl nodes each leaves free
(_class_table).  Two facts make it one: a finite component through a
pendant is A1 or B_k, so no exchange move touches it or a neighbour of
it; and adding a fixed disjoint set keeps the order of sets of one size.

Its caches are derived from their arguments alone, never from a
certificate, and every value a caller reads is immutable.  Per Weyl
type: the Weyl relation verdicts (_weyl_relations), the extension's
half-turn data (_half_turn) and, per free mask, the free classes with
their w0 (_build_free_classes).  Per symbol: the class table
(_class_table, the last two symbols) and the letter table of the
augmented map (DaggerSymbol._letters).
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Tuple

from . import involutions as inv
from . import modtwo as m2
from . import weyl as wy
from .symbols import CoxeterSymbol, mask_nodes, mask_sort_key, spherical_subsets
from .weyl import Matrix, WeylData

WORD_CAP = 10_000
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
    else.  The letter table of the augmented map (_letters) is memoized
    on it.
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
    def _letters(self) -> Mapping[object, Optional[Tuple[int, int, Tuple[int, ...]]]]:
        """Each generator's action under the augmented map.  A Weyl node
        maps to None: reflect by it.  Pendant t_i maps to its translation
        (x_T, i, cols): x_T is bit i for a plain attachment and 0 for a
        special one, and the one nonzero slot i holds u_i mod 2, whose odd
        coordinates are cols."""
        letters = dict.fromkeys(self.psi.symbol.nodes)
        for i, t in enumerate(self.pendants):
            letters[t] = (1 << i if i < self.ell else 0, i,
                          tuple(j for j, c in enumerate(self.weights[i]) if c & 1))
        return MappingProxyType(letters)


def build_dagger(psi: WeylData, nodes: Sequence[int]) -> DaggerSymbol:
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise DaggerError("attachment nodes must be distinct")
    admissible = dict(m2.admissible_nodes(psi))
    tagged = []
    for s in nodes:
        if s not in psi.symbol.nodes:
            raise DaggerError(f"{psi.label()} has no node {s!r}")
        if s not in admissible:
            raise DaggerError(f"node {s} of {psi.label()} is not admissible")
        tagged.append((s, admissible[s]))
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
        cols = m2.mat_mod2(self.g)
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

    def to_json(self) -> dict:
        return {"x": self.x, "v": list(self.v), "g": [list(r) for r in self.g]}


def identity_element(slots: int, n: int) -> SemidirectElement:
    return SemidirectElement(0, tuple(0 for _ in range(slots)), wy.identity_matrix(n))


def _fold(d: DaggerSymbol, word: Sequence, x: int, v: List[int], g: List[List[int]]) -> int:
    """Right-multiply the caller's mutable state (x, v, g) in place by word
    through the symbol's letter table, and return the new x.  A Weyl letter
    s right-multiplies g by s_s; a pendant letter is its translation, and
    (x, v, g)(x_T, v_T, 1) = (x + x_T, v + (g mod 2) v_T, g) toggles bit i
    of x (plain pendants only) and adds g u_i mod 2 to slot i of v."""
    letters = d._letters
    for s in word:
        shift = letters[s]
        if shift is None:
            wy.reflect_rows(d.psi, g, s)
            continue
        dx, j, cols = shift
        x ^= dx
        for r, row in enumerate(g):
            if sum([row[c] for c in cols]) & 1:
                v[j] ^= 1 << r
    return x


def phi(d: DaggerSymbol, word: Sequence, mode: str = "hat") -> SemidirectElement:
    """Image of a word in the generators of the pendant symbol: the word
    folded into the identity state (_fold).  The plain map is the same fold
    with x set to 0: x counts the plain-pendant letters mod 2, whatever v
    and g are."""
    if len(word) > WORD_CAP:
        raise DaggerError(f"word longer than the {WORD_CAP} cap")
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
    v, g = [0] * d.m, [list(r) for r in wy.identity_matrix(d.psi.rank)]
    try:
        x = _fold(d, word, 0, v, g)
    except KeyError as exc:
        raise DaggerError(f"unknown generator {exc.args[0]!r}") from None
    return SemidirectElement(x if mode == "hat" else 0, tuple(v), tuple(map(tuple, g)))


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


@lru_cache(maxsize=16)
def _weyl_relations(psi: WeylData) -> Mapping[Tuple[int, int], bool]:
    """Whether each relation between two Weyl letters holds: its word's
    product of reflections is the identity.  The verdict depends on psi
    alone, so it is computed once per Weyl type."""
    g = psi.symbol
    one = wy.identity_matrix(psi.rank)
    pairs = [(a, a) for a in g.nodes] + list(itertools.combinations(g.nodes, 2))
    return MappingProxyType({(a, b): wy.word_to_matrix(psi, [a, b] * g.order(a, b)) == one
                             for a, b in pairs})


def verify_relations(d: DaggerSymbol, mode: str = "hat") -> CertStep:
    """Certify's relations step: every defining relation (a b)^m of the
    pendant symbol holds in the image of the mode's map.  A relation
    between two Weyl letters is judged by its per-type verdict
    (_weyl_relations), every other by folding its word through phi.  The
    step records how many relations were checked and, for each that
    fails, its generators, order and relation word."""
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
    weyl = _weyl_relations(d.psi)
    gens = d.gamma.nodes
    pairs = [(a, a) for a in gens] + list(itertools.combinations(gens, 2))
    failed = []
    for a, b in pairs:
        m = d.gamma.order(a, b)
        ok = weyl.get((a, b))
        if ok is None:
            ok = phi(d, [a, b] * m, mode).is_identity()
        if not ok:
            failed.append({"generators": [str(a)] if a == b else [str(a), str(b)],
                           "order": m,
                           "relation_word": [str(a), str(b)] * m})
    return CertStep("relations", {"checked": len(pairs), "failed": failed}, not failed)


def enumerate_image(d: DaggerSymbol, mode: str, cap: int) -> int:
    """Order of the image subgroup by breadth-first closure of the identity
    under the generators, each applied by folding its letter onto a copy of
    the element (_fold).  Raises when the closure exceeds cap."""
    def step(e: SemidirectElement, s) -> SemidirectElement:
        v, g = list(e.v), [list(r) for r in e.g]
        x = _fold(d, (s,), e.x, v, g)
        return SemidirectElement(x if mode == "hat" else 0, tuple(v), tuple(map(tuple, g)))

    seen = m2.bfs_closure(phi(d, (), mode), d.gamma.nodes, step, cap)
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
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
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


@lru_cache(maxsize=512)
def _build_free_classes(psi: WeylData, free: int) -> Tuple[Tuple, ...]:
    """The classes of the subdiagram of psi on the node mask free
    (inv.move_classes).  Each is (member masks, (sort key, longest word)
    of each component of the least member, w0 of the least member).

    Memoized per (Weyl type, free mask).  One pipeline pass (seed 104729)
    meets 138 such keys, and every set of 1-4 pendants of at most 12
    nodes over E6, E7, E8 and D8 meets 373, so the bound of 512 evicts
    nothing in either."""
    g = psi.symbol
    walk = spherical_subsets(g)
    out = []
    for members in inv.move_classes(g, free):
        parts = tuple((mask_sort_key(g, comp), wy.longest_word(psi, mask_nodes(g, comp)))
                      for comp, _ in walk[members[0]])
        w0 = wy.word_to_matrix(psi, [s for _, word in parts for s in word])
        out.append((tuple(members), parts, w0))
    return tuple(out)


def _pendant_components(d: DaggerSymbol, i: int) -> List[Tuple]:
    """The finite components through pendant t_i: t_i alone (A1), and t_i
    with each type-A path from s_i (B_k).  Each is (mask, mask with its
    neighbours, (sort key, longest word), x, v_i), where (x, v, 1) is the
    word's image under the augmented map and v_i its slot i, the only one
    it moves.  The image must fix the Weyl part, since the word cancels
    once the pendant is erased."""
    gamma = d.gamma
    bit = {v: 1 << k for k, v in enumerate(gamma.nodes)}
    t = d.pendants[i]
    out = []
    for path in [()] + [path for path, _ in m2.type_a_paths(d.psi, d.attachments[i])]:
        nodes = (t,) + path
        mask = sum(bit[v] for v in nodes)
        around = mask | sum(bit[w] for w in {w for v in nodes for w in gamma.neighbors(v)})
        word = tuple(_b_longest_word(t, path))
        image = phi(d, word, "hat")
        if image.g != wy.identity_matrix(d.psi.rank):
            raise DaggerError("pendant component image moves the Weyl part")
        out.append((mask, around, (mask_sort_key(gamma, mask), word), image.x, image.v[i]))
    return out


@lru_cache(maxsize=2)
def _class_table(d: DaggerSymbol
                 ) -> Tuple[Tuple[inv.EquivalenceClass, Tuple, SemidirectElement], ...]:
    """(class, word, image) for every involution class of the pendant
    symbol: the longest word of its canonical antipodal subsymbol and that
    word's image under the augmented map.

    The table is a product, by two facts.  (a) A finite component through
    a pendant t_i is t_i alone (A1) or t_i with a type-A path from s_i
    (B_k); both are antipodal, so no exchange move adds or removes a node
    of a pendant component, or a neighbour of one.  A configuration U
    picks, for each pendant, none or one of these, its picks disjoint and
    not adjacent.  With F the Weyl nodes neither in U nor next to it, the
    classes through U are {U + A : A in C} for each class C of F, and {U}
    when U is not empty.  (b) Adding a fixed disjoint set keeps the
    mask_sort_key order of sets of one size: the least node where two
    such sets differ stays the same.  So each class keeps the member
    order of C, and U + (least member of C) is its canonical member.
    Classes are ordered by (rank, least member), as equivalence_classes
    orders them; the tests take that generic closure as the reference.

    The word lists the components' longest words in least-node order.  The
    components commute and phi is a homomorphism (certify's step 1), so
    the image is (x_U, v_U, w0): the product of U's pendant translations,
    with the w0 of the least member of C.  One table serves both modes:
    plain mode is certified only when every attachment is special, and
    then the two maps agree on every generator.
    """
    gamma = d.gamma
    weyl = (1 << d.psi.rank) - 1
    one = wy.identity_matrix(d.psi.rank)
    rows = []

    def add(members, parts, image):
        word = tuple(s for _, part in sorted(parts) for s in part)
        if len(word) > WORD_CAP:
            raise DaggerError(f"word longer than the {WORD_CAP} cap")
        key = mask_sort_key(gamma, members[0])
        rows.append(((len(key), key), members, word, image))

    # (pendant mask, closed mask, x, pick per pendant so far), extended one
    # pendant at a time by the picks disjoint from and not next to the rest.
    configs = [(0, 0, 0, ())]
    for i in range(d.m):
        options = [None] + _pendant_components(d, i)
        configs = [(pend | c[0], closed | c[1], x ^ c[3], picks + (c,)) if c
                   else (pend, closed, x, picks + (None,))
                   for pend, closed, x, picks in configs
                   for c in options if not (c and c[0] & closed)]
    for pend, closed, x, picks in configs:
        parts = [c[2] for c in picks if c]
        v = tuple(c[4] if c else 0 for c in picks)
        if pend:
            add((pend,), parts, SemidirectElement(x, v, one))
        for members, free_parts, w0 in _build_free_classes(d.psi, weyl & ~closed):
            add(tuple(pend | m for m in members), parts + list(free_parts),
                SemidirectElement(x, v, w0))
    rows.sort(key=operator.itemgetter(0))
    return tuple((inv.EquivalenceClass(tuple(mask_nodes(gamma, m) for m in members), rank),
                  word, image)
                 for (rank, _), members, word, image in rows)


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

    Steps: (1) every defining relation holds in the image (verify_relations);
    (2) every involution class of the pendant-symbol group has nontrivial
    image; (3) every connected finite visible subgroup not inside the Weyl
    part is type B through exactly one pendant, which discharges odd
    torsion through the named trusted reductions; (4) for each type-A path
    from each attachment, whether the map is faithful on the visible
    type-B subgroup of its pendant and that path, the flag
    modtwo.type_a_paths gives it (the check admissibility ran); one that
    is not faithful must be parity compensated: hat mode, a non-special
    attachment, odd rank, and a longest element that survives the map.
    Steps (1) and (2) read the module's caches (_weyl_relations,
    _class_table).
    """
    if mode == "plain" and not all(d.special):
        raise DaggerError("plain-mode certification needs specially admissible attachments")
    steps: List[CertStep] = []

    steps.append(verify_relations(d, mode))

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
        h = psi.coxeter_number
        p = (h & -h).bit_length() - 1  # h = 2^p q with q odd
        q = h >> p
        xi = wy.coxeter_element(psi)
        route = "generic"
    xi_q = wy.mat_pow(xi, q)
    ker, im, defect = half_turn = m2.half_turn_ker_im(xi_q, 2 ** (p - 1))
    if route == "generic" and defect <= 1:
        raise DaggerError("kernel/image defect is too small for the generic route")
    u = m2.find_target(psi, xi, q, p, half_turn)
    return route, p, xi_q, u, ker, im


def cyclic_extension(d: DaggerSymbol) -> CyclicExtension:
    """Extend the kernel by a cyclic 2-group inside the image.

    Generic route: for even Coxeter number h = 2^p q with kernel/image
    defect above one, the element zeta = (0, (u,..,u), xi^q) generates a
    copy of Z/2^p avoiding every involution class in the image of the
    group.  Odd-rank type A uses the Coxeter half-turn directly (p = 1);
    E6 does better through a Coxeter element of its visible D5, giving
    p = 3 instead of the generic p = 2.  It reads _half_turn and
    _class_table; everything that depends on the pendants (zeta, its
    powers, the slot checks, the class exclusions) is computed afresh.
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
                           "zeta": zeta.to_json()}, order_ok))

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


# ---------------------------------------------------------------------------
# Certificate replay

def replay_certificate(d: DaggerSymbol, cert: Certificate) -> bool:
    """Re-derive the certificate of cert.kind from d and compare.

    There are two kinds: "torsion-free" (certify_torsion_free, whose
    first step is the relations check) and "cyclic-extension"
    (cyclic_extension).  Nothing recorded is trusted: every verdict and
    every object is recomputed by the same code that certify and extend
    run, so a certificate replays only when it equals the fresh one field
    for field.  Any other kind, or one that cannot be re-derived for d (a
    DaggerError, such as plain mode on a non-special attachment or an
    unknown mode), does not replay.  The module's caches it reads hold
    nothing taken from cert.
    """
    derive = {
        "torsion-free": lambda: certify_torsion_free(d, cert.mode),
        "cyclic-extension": lambda: cyclic_extension(d).certificate,
    }.get(cert.kind)
    if derive is None:
        return False
    try:
        fresh = derive()
    except DaggerError:
        return False
    return fresh.to_json() == cert.to_json()
