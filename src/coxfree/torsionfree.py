"""Torsion-free subgroups of Coxeter groups with pendant-node symbols.

Starting from an irreducible Weyl symbol Psi, attach pendant nodes t_i by
order-4 edges at admissible nodes s_i.  The resulting Coxeter group maps
onto a finite group

    Z/2^ell  x  (prod_i Lambda_i/2  ><  W(Psi)),

by sending s in Psi to itself, t_i to the translation by the weight
vector u_i (its slot of the product), and, in the parity-augmented map,
t_i for a non-special attachment also to the i-th standard bit.  The
kernel of the augmented map is torsion free; this module verifies the
defining relations, certifies torsion-freeness one pendant component at
a time, and extends the kernel by a cyclic 2-group built from a Coxeter
element.

The lemma.  On a symbol built by build_dagger, the connected finite
visibles through pendant t_i are exactly {t_i} and {t_i} + P for each
type-A path P from s_i (modtwo.type_a_paths): t_i is a leaf on an
order-4 edge, a connected finite diagram has at most one edge of order
4 or more, and only B_k has such an edge at a leaf.  So no such set
holds two pendants.  These are the pendant components (_components),
read off the one walk admissibility ran, with no set grown or
classified.  The image of {t_i} + P is (x, v_i, 1): x is |P| + 1 mod 2
for a plain pendant and 0 for a special one, and v_i is the sum of P's
x-set, because w0(B_k) is the product of the k commuting conjugates
w_j t_i w_j^-1, w_j = s_(p_j) ... s_(p_1), each mapping to the
translation by w_j u_i.  Certify's structure step checks that the
symbol is the one build_dagger makes, so the lemma holds for whatever
it certifies.

The relations.  A reflection moves one coordinate of L/2 (modtwo.odd_rows),
so each defining relation is judged by a closed form in psi's Coxeter
orders and the pendants' u_i mod 2 (verify_relations), with no word
folded.  The fold (_fold) serves phi and the image closure alone.

An involution class picks a set U of pendant components, disjoint and
not adjacent, and a class C of the Weyl nodes U leaves free: a component
is A1 or B_k, both antipodal, so no exchange move touches it or a
neighbour of it.  Certify and extend judge the classes through the
components alone and never list them (_involution_classes,
_class_exclusion); the tests keep the class product as their reference.

Its caches are derived from their arguments alone, never from a
certificate, and every value a caller reads is immutable.  What depends
on one pendant, or on none, is keyed by what it depends on, so symbols
over one Weyl type share it.  Per Weyl type and: nothing more, the
admissible nodes (_admissible), the half-turn data (_half_turn) and, in
modtwo, the odd Cartan rows (modtwo.odd_rows); an attachment, its
pendant and the pendant's letter, the rows of its pendant components,
which certify's step 2 and extend's class exclusion read (_components);
an attachment and whether its pendant can be parity compensated, the
step-4 rows (_faithfulness); a tuple of attachments, the rest of the
built symbol, which step 3 compares with (_dagger_fields); a free node
mask, its largest antipodal size (_free_antipodal_size); a slot count,
zeta and its half power (_zeta); in modtwo, a node, its weight vector
and its type-A paths with their x-set sums (modtwo.weight_vector,
modtwo.type_a_paths), and a vector and a parity, the orbit span
dimension that proves a slot of kernel_index (modtwo.orbit_dim).  Per
symbol, for the last two symbols: the letter table of the augmented map
(_letters); the records are NamedTuples, and a DaggerSymbol is a value,
so it is keyed by its fields.  No memo holds a certificate or a verdict
about one symbol, and none holds a relation:
certify, replay and extend build every step afresh from the rows.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from functools import lru_cache
from types import MappingProxyType
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import modtwo as m2
from . import weyl as wy
from .symbols import INF, CoxeterSymbol, classify_component, mask_nodes
from .weyl import Matrix, WeylData

WORD_CAP = 10_000


class DaggerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The symbol

class DaggerSymbol(NamedTuple):
    """Weyl symbol with pendant nodes on admissible attachment points.

    Attachments are reordered so the plain (admissible but not specially
    admissible) ones come first; ell counts them.  Pendant t_i is joined
    to attachment node i by an order-4 edge and commutes with everything
    else.  Its letter table (_letters) is memoized per symbol.
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


@lru_cache(maxsize=2)
def _letters(d: DaggerSymbol) -> Mapping[object, object]:
    """Each generator's action under the augmented map.  A Weyl node acts
    as itself: reflect by it.  Pendant t_i acts as its translation (x_T, i,
    cols): x_T is bit i for a plain attachment and 0 for a special one, and
    the one nonzero slot i holds u_i mod 2, whose odd coordinates are cols.
    Memoized per symbol."""
    letters = {s: s for s in d.psi.symbol.nodes}
    for i, t in enumerate(d.pendants):
        letters[t] = (1 << i if i < d.ell else 0, i,
                      tuple(j for j, c in enumerate(d.weights[i]) if c & 1))
    return MappingProxyType(letters)


@lru_cache(maxsize=32)
def _admissible(psi: WeylData) -> Mapping[int, bool]:
    """Each admissible node of psi with its specially-admissible flag
    (modtwo.admissible_nodes), once per Weyl type."""
    return MappingProxyType(dict(m2.admissible_nodes(psi)))


@lru_cache(maxsize=16)
def _dagger_fields(psi: WeylData, attachments: Tuple[int, ...]) -> Tuple:
    """The fields after psi and attachments of the symbol build_dagger makes
    on these admissible attachments, plain ones first.  Memoized per (Weyl
    type, attachments), so certify's step 3 builds no CoxeterSymbol for a
    symbol it has built before."""
    special = tuple(_admissible(psi)[s] for s in attachments)
    pendants = tuple(f"t{i + 1}" for i in range(len(attachments)))
    edges = psi.symbol.edges() + [(s, t, 4) for s, t in zip(attachments, pendants)]
    gamma = CoxeterSymbol(psi.symbol.nodes + pendants, edges)
    weights = tuple(m2.weight_vector(psi, s).coords for s in attachments)
    return special, pendants, gamma, weights, special.count(False)


def build_dagger(psi: WeylData, nodes: Sequence[int]) -> DaggerSymbol:
    """The pendant symbol on the given attachment nodes, a fresh record on
    every call: the nodes are checked and ordered, plain ones first, each
    time, and the fields that follow come from _dagger_fields."""
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise DaggerError("attachment nodes must be distinct")
    admissible = _admissible(psi)
    for s in nodes:
        if s not in psi.symbol.nodes:
            raise DaggerError(f"{psi.label()} has no node {s!r}")
        if s not in admissible:
            raise DaggerError(f"node {s} of {psi.label()} is not admissible")
    attachments = tuple([s for s in nodes if not admissible[s]] + [s for s in nodes if admissible[s]])
    return DaggerSymbol(psi, attachments, *_dagger_fields(psi, attachments))


# ---------------------------------------------------------------------------
# Image-group elements

class SemidirectElement(NamedTuple):
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


def _fold(psi: WeylData, actions: Sequence, x: int, v: List[int], g: List[List[int]]) -> int:
    """Right-multiply the caller's mutable state (x, v, g) in place by the
    word whose letter actions (_letters) are given, and return the new x.
    A Weyl letter s right-multiplies g by s_s; a pendant letter is its
    translation, and (x, v, g)(x_T, v_T, 1) = (x + x_T, v + (g mod 2) v_T, g)
    toggles x_T in x and adds g u_i mod 2 to slot i of v."""
    for a in actions:
        if type(a) is not tuple:
            wy.reflect_rows(psi, g, a)
            continue
        dx, j, cols = a
        x ^= dx
        for r, row in enumerate(g):
            odd = 0
            for c in cols:
                odd += row[c]
            if odd & 1:
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
    try:
        actions = [_letters(d)[s] for s in word]
    except KeyError as exc:
        raise DaggerError(f"unknown generator {exc.args[0]!r}") from None
    v, g = [0] * d.m, [list(r) for r in wy.identity_matrix(d.psi.rank)]
    x = _fold(d.psi, actions, 0, v, g)
    return SemidirectElement(x if mode == "hat" else 0, tuple(v), tuple(map(tuple, g)))


# ---------------------------------------------------------------------------
# Certificates

class CertStep(NamedTuple):
    name: str
    objects: dict
    ok: bool


class Certificate(NamedTuple):
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


def verify_relations(d: DaggerSymbol, mode: str = "hat") -> CertStep:
    """Certify's relations step: every defining relation (a b)^m of the
    pendant symbol, m its order in gamma, holds in the image of the mode's
    map.  The relations are (a a)^1 for each generator a, which always
    holds (each image is an involution), and (a b)^m for each pair a
    before b in gamma's node order, judged by a closed form; an INF edge
    imposes nothing.
    - Weyl nodes a, b: s_a s_b has order m_ab, its order in psi, in W(psi)
      (Humphreys, Reflection Groups and Coxeter Groups, 5.3), so the
      relation holds iff m_ab divides m.
    - A pendant t with u mod 2 in its slot, and a Weyl node s: (t s)^2 is
      the translation by c_s(u) e_s (modtwo.moving) with x = 0, and t s
      moves the Weyl part, so it holds iff m is even and either 4 | m or
      c_s(u) = 0.
    - Two pendants: their translations commute and sit in separate slots
      and bits, so it holds iff m is even or both u are 0 mod 2 and, in
      hat mode, neither carries a parity bit.
    The step records how many relations were checked and, for each that
    fails, its generators, order and relation word."""
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
    psi, gamma = d.psi, d.gamma
    # Per pendant: the Weyl nodes that move u mod 2, and whether its image
    # is nontrivial in this mode (u != 0 mod 2, or a parity bit in hat).
    moved, nontrivial = {}, {}
    for i, (t, weight) in enumerate(zip(d.pendants, d.weights)):
        u = m2.vec_mod2(weight)
        moved[t] = m2.moving(psi, u)
        nontrivial[t] = u != 0 or mode == "hat" and i < d.ell
    failed = []
    for a, b in itertools.combinations(gamma.nodes, 2):
        m = gamma.order(a, b)
        if m == INF:
            continue
        if a in moved and b in moved:
            holds = m % 2 == 0 or not (nontrivial[a] or nontrivial[b])
        elif a in moved or b in moved:
            s, t = (b, a) if a in moved else (a, b)
            holds = m % 4 == 0 or m % 2 == 0 and not moved[t] >> s - 1 & 1
        else:
            holds = m % psi.symbol.order(a, b) == 0
        if not holds:
            failed.append({"generators": [str(a), str(b)], "order": m,
                           "relation_word": [str(a), str(b)] * m})
    n = gamma.rank
    return CertStep("relations", {"checked": n * (n + 1) // 2, "failed": failed}, not failed)


def enumerate_image(d: DaggerSymbol, mode: str, cap: int) -> int:
    """Order of the image subgroup by breadth-first closure of the identity
    under the generators, each applied by folding its letter onto a copy of
    the element (_fold).  Raises when the closure exceeds cap."""
    letters = _letters(d)

    def step(e: SemidirectElement, s) -> SemidirectElement:
        v, g = list(e.v), [list(r) for r in e.g]
        x = _fold(d.psi, (letters[s],), e.x, v, g)
        return SemidirectElement(x if mode == "hat" else 0, tuple(v), tuple(map(tuple, g)))

    seen = m2.bfs_closure(phi(d, (), mode), d.gamma.nodes, step, cap)
    if len(seen) > cap:
        raise DaggerError(f"closure exceeds cap {cap}")
    return len(seen)


def kernel_index(d: DaggerSymbol, mode: str = "hat",
                 verify_cap: Optional[int] = None) -> int:
    """Index of the kernel, i.e. the order of the image group: the formula
    2^(m n + ell) |W(Psi)| for the augmented map and 2^(m n) |W(Psi)| for
    the plain one, proved for every symbol as follows.

    The Weyl letters generate W(Psi) inside the image, and W(Psi)
    normalizes the translations, so the image is N >< W(Psi), with N
    spanned by the W-conjugates of the pendant translations.  Conjugating
    t_i's translation (_letters) by w gives (eps_i, w u_i mod 2): parity
    bit i and slot i, where eps_i is 1 only for a plain pendant in hat
    mode.  Bits and slots are separate per pendant, so |N| is the product
    of 2^d_i, with d_i the dimension of the orbit span of (eps_i, u_i)
    (modtwo.orbit_dim), and the formula holds iff d_i = n + eps_i for
    every slot.  A slot that falls short raises DaggerError.

    verify_cap is a cross-check only: when the formula is at most
    verify_cap, the order is also re-derived by the image closure
    (enumerate_image), which must agree.
    """
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
    n = d.psi.rank
    if mode == "plain" and not all(d.special):
        warnings.warn("plain-mode kernel is not torsion free: "
                      "some attachment is not specially admissible")
    for t in d.pendants:
        dx, i, cols = _letters(d)[t]
        eps = int(mode == "hat" and dx != 0)
        dim = m2.orbit_dim(d.psi, sum(1 << c for c in cols), eps)
        if dim != n + eps:
            raise DaggerError(f"slot {i} ({t} at node {d.attachments[i]}): orbit span "
                              f"has dimension {dim}, not {n + eps}")
    value = (2 ** (d.m * n + (d.ell if mode == "hat" else 0))) * d.psi.order
    if verify_cap is not None and value <= verify_cap:
        actual = enumerate_image(d, mode, cap=value + 1)
        if actual != value:
            raise DaggerError(f"image order {actual} != formula {value}")
    return value


# ---------------------------------------------------------------------------
# Torsion-free certification

def _b_longest_word(pendant, path: Sequence[int]) -> Tuple:
    """Reduced word for the longest element of the visible type-B subgroup
    {pendant} + path, the pendant sitting at the order-4 end.  Built from
    nested palindromes around the pendant; each palindrome cancels to the
    identity once the pendant is erased."""
    local = tuple(reversed(path)) + (pendant,)
    word: List = []
    for j in range(len(path)):
        word += local[j:]
        word += local[j:-1][::-1]
    word.append(pendant)
    return tuple(word)


@lru_cache(maxsize=256)
def _components(psi: WeylData, s: int, t: str, letter: Tuple) -> Tuple[Tuple, ...]:
    """The pendant components of pendant t at node s of psi, whose letter
    (_letters) is (x_T, i, cols), by the lemma in the module docstring: t
    alone, then t with each type-A path from s, by path length and then by
    the positions of the path's nodes, the order a breadth-first growth
    from t meets them.  Each row is (nodes, longest word (_b_longest_word),
    x, v_i, free): nodes and word as strings, the nodes in mask_nodes
    order; the word's image is (x, v, 1), v_i its one nonzero slot, and t
    alone maps to its letter; free is the mask of psi's nodes neither in
    the component nor next to it.  psi's nodes are the integers 1..n, node
    v on bit v - 1, and a pendant's name sorts after them.  A row reads
    psi, s, t and the letter alone: the nodes, positions and neighbours it
    reads are those of gamma on a symbol build_dagger makes.  Memoized per
    (Weyl type, attachment, pendant, letter), so symbols over one Weyl
    type share it."""
    dx, _, cols = letter
    alone = ((), None, sum(1 << c for c in cols))  # t alone: its own letter
    rows = []
    for path, _, total in sorted([alone, *m2.type_a_paths(psi, s)], key=lambda p: (len(p[0]), p[0])):
        around = 1 << s - 1  # t's one neighbour
        for v in path:
            for w in (v, *psi.symbol.neighbors(v)):
                around |= 1 << w - 1
        rows.append((tuple(map(str, sorted(path))) + (str(t),),
                     _b_longest_word(str(t), tuple(map(str, path))),
                     0 if len(path) % 2 else dx, total, (1 << psi.rank) - 1 & ~around))
    return tuple(rows)


def _pendant_components(d: DaggerSymbol) -> List[Tuple]:
    """The rows of every pendant component of d (_components), pendant by
    pendant."""
    letters = _letters(d)
    return [c for s, t in zip(d.attachments, d.pendants)
            for c in _components(d.psi, s, t, letters[t])]


@lru_cache(maxsize=256)
def _faithfulness(psi: WeylData, s: int, compensable: bool) -> Tuple[Tuple, ...]:
    """Certify's step-4 rows for a pendant at node s: (k, path as strings,
    faithful, parity_compensated) for each type-A path from s, the flag
    modtwo.type_a_paths gives it, k = len(path) + 1.  An unfaithful path is
    compensated when compensable (hat mode and a plain attachment) and k is
    odd; a faithful one records None.  Memoized per (Weyl type, attachment,
    compensable)."""
    return tuple((len(path) + 1, tuple(map(str, path)), faithful,
                  None if faithful else compensable and len(path) % 2 == 0)
                 for path, faithful, _ in m2.type_a_paths(psi, s))


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


def _involution_classes(d: DaggerSymbol) -> CertStep:
    """Certify's step 2: every involution class has nontrivial image,
    judged one pendant component at a time.  A class (U, C) (see the
    module docstring) has image (x_U, v_U, w0_C): the components commute
    and phi is a homomorphism (step 1).  A pick through t_i sets only bit i
    of x and only slot i of v, and w0_C = 1 only when C's member is empty,
    the reflection representation being faithful.  So a class image is
    trivial iff the class is {U} and each pick's (x, v_i) is zero, and
    some class is trivial iff some component is.  One entry per component
    records its nodes, its longest word and that word's image.  The images
    are the augmented map's: plain mode is certified only when every
    attachment is special, and then the two maps agree."""
    entries = [{"nodes": list(c[0]), "word": list(c[1]), "x": c[2], "v": c[3],
                "nontrivial": bool(c[2] or c[3])} for c in _pendant_components(d)]
    return CertStep("involution-classes",
                    {"components": entries, "trusted": [_TRUSTED_REDUCTIONS[3]]},
                    all(e["nontrivial"] for e in entries))


def _finite_visible_structure(d: DaggerSymbol) -> CertStep:
    """Certify's step 3: d is the symbol build_dagger(d.psi, d.attachments)
    makes, so by the lemma in the module docstring every connected finite
    visible subgroup not inside the Weyl part is a pendant component.  It
    compares d with that symbol by value and, only when they differ, lists
    each pair of gamma's nodes whose order differs (edge, order, expected)
    and each pendant whose u_i mod 2 differs (pendant, u_mod2, expected)."""
    built = build_dagger(d.psi, d.attachments)
    found = []
    if d != built:
        have, want = d.gamma, built.gamma
        # An INF order is written "inf", as symbols.serialize_symbol
        # writes it, so that the certificate is valid JSON.
        found = [{"edge": [str(a), str(b)],
                  "order": "inf" if have.order(a, b) == INF else have.order(a, b),
                  "expected": want.order(a, b)}
                 for a, b in itertools.combinations(want.nodes, 2)
                 if have.order(a, b) != want.order(a, b)]
        found += [{"pendant": t, "u_mod2": m2.vec_mod2(u), "expected": m2.vec_mod2(e)}
                  for t, u, e in zip(built.pendants, d.weights, built.weights)
                  if m2.vec_mod2(u) != m2.vec_mod2(e)]
    return CertStep("finite-visible-structure", {"violations": found}, not found)


def certify_torsion_free(d: DaggerSymbol, mode: str = "hat") -> Certificate:
    """Torsion-freeness certificate for the kernel, for a pendant symbol
    of any size.

    Steps: (1) every defining relation holds in the image (verify_relations);
    (2) every involution class of the pendant-symbol group has nontrivial
    image, judged on the pendant components (_involution_classes); (3)
    every connected finite visible subgroup not inside the Weyl part is
    A1 or type B through exactly one pendant, which discharges odd
    torsion through the named trusted reductions: d is the symbol
    build_dagger makes (_finite_visible_structure); (4) for each type-A
    path from each attachment, whether the map is faithful on the visible
    type-B subgroup of its pendant and that path, the flag
    modtwo.type_a_paths gives it (the check admissibility ran); one that
    is not faithful must be parity compensated: hat mode, a non-special
    attachment and odd rank k, so that the longest element, with k letters
    t_i, keeps t_i's parity bit and survives the map.  Steps (1)-(4) read
    the module's caches (_components, _dagger_fields, _faithfulness) and
    modtwo's (odd_rows, type_a_paths, orbit_dim for the index).
    """
    if mode == "plain" and not all(d.special):
        raise DaggerError("plain-mode certification needs specially admissible attachments")
    steps: List[CertStep] = []

    steps.append(verify_relations(d, mode))
    steps.append(_involution_classes(d))
    steps.append(_finite_visible_structure(d))
    steps.append(CertStep("odd-torsion-reduction",
                          {"trusted": list(_TRUSTED_REDUCTIONS)}, True))

    entries = []
    for i, (s, t) in enumerate(zip(d.attachments, d.pendants)):
        for k, path, faithful, compensated in _faithfulness(d.psi, s, mode == "hat" and i < d.ell):
            entry = {"pendant": t, "k": k, "path": list(path), "faithful": faithful}
            if not faithful:
                entry["parity_compensated"] = compensated
            entries.append(entry)
    steps.append(CertStep("type-B-faithfulness", {"subgroups": entries},
                          all(e.get("parity_compensated", True) for e in entries)))

    return Certificate("torsion-free", mode, tuple(steps), index=kernel_index(d, mode))


# ---------------------------------------------------------------------------
# Cyclic extensions

class CyclicExtension(NamedTuple):
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


@lru_cache(maxsize=128)
def _free_antipodal_size(psi: WeylData, free: int) -> int:
    """Largest size of an antipodal subset of psi's nodes on the mask free:
    FiniteType.antipodal_size summed over its connected components, each
    named by classify_component on psi's symbol, with no induced subsymbol
    built.  Memoized per (Weyl type, mask)."""
    g = psi.symbol
    left, size = set(mask_nodes(g, free)), 0
    while left:
        comp = [left.pop()]
        for v in comp:
            near = left.intersection(g.neighbors(v))
            left -= near
            comp += near
        size += classify_component(g, comp).antipodal_size
    return size


def _class_exclusion(d: DaggerSymbol, max_rank: int) -> CertStep:
    """Extend's class-exclusion step: no involution class outside the Weyl
    part maps onto the involution of <zeta>, whose minus-one rank is
    max_rank.  A class (U, C) (see the module docstring) is excluded when
    x_U != 0 (zeta has x = 0), when U is empty (inside the Weyl part), or
    when the minus-one rank of w0_C, the size of C's member, is not
    max_rank.  x_U = 0 iff every pick has x = 0, the bits being distinct
    per pendant; more picks only leave fewer free nodes, and the antipodal
    subsets of a node set take every size up to the largest.  So some class
    is unresolved iff a component with x = 0 leaves free Weyl nodes (those
    outside it and its neighbours) with an antipodal subset of max_rank
    nodes.  One entry per such component records the largest size
    (_free_antipodal_size).  The components and their neighbours are read
    off the rows (_components), so they are those of the symbol
    build_dagger makes."""
    entries = [{"nodes": list(c[0]), "free_antipodal_size": _free_antipodal_size(d.psi, c[4])}
               for c in _pendant_components(d) if c[2] == 0]
    return CertStep("class-exclusion",
                    {"max_class_rank": max_rank, "components": entries,
                     "trusted": ["2-torsion in the preimage of a cyclic 2-group "
                                 "maps onto its unique involution"]},
                    all(e["free_antipodal_size"] < max_rank for e in entries))


@lru_cache(maxsize=64)
def _zeta(psi: WeylData, slots: int) -> Tuple[SemidirectElement, ...]:
    """zeta = (0, (u,..,u), xi^q) over the given number of pendant slots
    (_half_turn's xi^q and u), its half power zeta^(2^(p-1)) and the
    square of that.  zeta depends on psi and the slot count alone, so the
    three are computed once per pair."""
    _, p, xi_q, u, _, _ = _half_turn(psi)
    zeta = SemidirectElement(0, (u,) * slots, xi_q)
    half = zeta.power(2 ** (p - 1))
    return zeta, half, half * half


def cyclic_extension(d: DaggerSymbol) -> CyclicExtension:
    """Extend the kernel by a cyclic 2-group inside the image.

    Generic route: for even Coxeter number h = 2^p q with kernel/image
    defect above one, the element zeta = (0, (u,..,u), xi^q) generates a
    copy of Z/2^p avoiding every involution class in the image of the
    group.  Odd-rank type A uses the Coxeter half-turn directly (p = 1);
    E6 does better through a Coxeter element of its visible D5, giving
    p = 3 instead of the generic p = 2.  It reads _half_turn, _zeta and
    _components; everything else that depends on the pendants (the
    slot checks, the class exclusions) is computed afresh.
    max_rank, the minus-one rank the half-turn must reach, is the largest
    antipodal size of Psi, the rank of its unique maximal involution class.
    """
    psi = d.psi
    n = psi.rank
    route, p, _, _, ker, im = _half_turn(psi)
    zeta, half, square = _zeta(psi, d.m)
    steps: List[CertStep] = []

    steps.append(CertStep("cyclic-order",
                          {"route": route, "p": p, "order": 2 ** p,
                           "zeta": zeta.to_json()},
                          square.is_identity() and not half.is_identity()))

    g = half.g
    eig_dim = wy.minus_one_rank(g)
    max_rank = _free_antipodal_size(psi, (1 << n) - 1)
    steps.append(CertStep("half-power-involution",
                          {"eigen_dim": eig_dim, "max_class_rank": max_rank,
                           "g": [list(r) for r in g]},
                          square.g == wy.identity_matrix(n) and half.x == 0
                          and eig_dim == max_rank))

    slot_checks = [{"slot": j, "in_kernel": ker.contains(v), "in_image": im.contains(v)}
                   for j, v in enumerate(half.v)]
    avoid_ok = all(c["in_kernel"] for c in slot_checks) and \
        any(not c["in_image"] for c in slot_checks)
    steps.append(CertStep("target-avoidance", {"slots": slot_checks}, avoid_ok))

    steps.append(_class_exclusion(d, max_rank))

    image_order = kernel_index(d, "hat")
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
    DaggerError, such as plain mode on a non-special attachment, an
    unknown mode or an attachment that is not admissible), does not
    replay.  The module's caches it reads hold nothing taken from cert.
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
