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

The connected finite visibles through the pendants are grown one
neighbour at a time (_grow): those through one pendant once per Weyl
type and pendant edges (_local_growth), those through several from them
on the pendant symbol (_pendant_growth); no stage walks the spherical
subsets of a pendant symbol.  The A1 sets among them, and the
B_k sets whose pendant sits at the order-4 end, are the pendant
components; every other one fails certify's structure step.  When none
does, an involution class picks a set U of pendant components, disjoint
and not adjacent, and a class C of the Weyl nodes U leaves free: a
component is A1 or B_k, both antipodal, so no exchange move touches it
or a neighbour of it.  Certify and extend judge the classes through the
components alone and never list them (_involution_classes,
_class_exclusion); the tests keep the class product as their reference.

Its caches are derived from their arguments alone, never from a
certificate, and every value a caller reads is immutable.  What depends
on one pendant, or on none, is keyed by what it depends on, so symbols
over one Weyl type share it.  Per Weyl type and: a word's localized
letter actions, its image, read by every relation verdict and pendant
component (_image); a pendant's edges into Psi, the finite sets through
it alone (_local_growth, keyed by gamma's Weyl part, which is Psi's
symbol on every built symbol); a free node mask, its largest antipodal
size (_free_antipodal_size); nothing more, the half-turn data
(_half_turn); a slot count, zeta and its half power (_zeta); in modtwo,
a vector and a parity, the orbit span dimension that proves a slot of
kernel_index (modtwo.orbit_dim).  Per symbol, each for the last two
symbols: the letter table of the augmented map (_letters) and the
growth from the pendants (_pendant_growth), which itself grows only the
sets through two or more pendants.  The records are NamedTuples; a DaggerSymbol is a value,
so those two are keyed by its fields.
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
from .symbols import (MAX_NODES, CoxeterSymbol, SymbolError, classify_component,
                      induced_subsymbol, mask_nodes)
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
    else.  Its letter table (_letters) is memoized per symbol, like
    _pendant_growth.
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
    Memoized per symbol, like _pendant_growth."""
    letters = {s: s for s in d.psi.symbol.nodes}
    for i, t in enumerate(d.pendants):
        letters[t] = (1 << i if i < d.ell else 0, i,
                      tuple(j for j, c in enumerate(d.weights[i]) if c & 1))
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
    try:
        actions = [_letters(d)[s] for s in word]
    except KeyError as exc:
        raise DaggerError(f"unknown generator {exc.args[0]!r}") from None
    v, g = [0] * d.m, [list(r) for r in wy.identity_matrix(d.psi.rank)]
    x = _fold(d.psi, actions, 0, v, g)
    return SemidirectElement(x if mode == "hat" else 0, tuple(v), tuple(map(tuple, g)))


def _localized(letters: Mapping, word: Sequence) -> Tuple:
    """The word's letter actions (letters, from _letters) with its pendant
    slots renumbered 0, 1, ... in order of first appearance, and a plain
    pendant's parity bit with its slot: what the word's image depends on
    besides psi."""
    slots: List[int] = []
    actions = []
    for s in word:
        a = letters[s]
        if type(a) is tuple:
            dx, i, cols = a
            if i not in slots:
                slots.append(i)
            k = slots.index(i)
            a = (dx and 1 << k, k, cols)
        actions.append(a)
    return tuple(actions)


@lru_cache(maxsize=1024)
def _image(psi: WeylData, actions: Tuple) -> Tuple[int, Tuple[int, ...], bool]:
    """Image of a word under the augmented map, given by its localized
    letter actions (_localized): (x, v, whether it fixes the Weyl part),
    x and v over the renumbered slots.  A relation's verdict and a pendant
    component's image depend on psi and these actions alone, so each is
    folded (_fold) once per Weyl type, whichever symbol asks."""
    slots = 1 + max((a[1] for a in actions if type(a) is tuple), default=-1)
    v, g = [0] * slots, [list(r) for r in wy.identity_matrix(psi.rank)]
    x = _fold(psi, actions, 0, v, g)
    return x, tuple(v), tuple(map(tuple, g)) == wy.identity_matrix(psi.rank)


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
    map.  Each verdict is read off the image of the relation word's
    localized letter actions (_image), so it is folded once per Weyl type
    and pair of actions.  The step records how many relations were checked
    and, for each that fails, its generators, order and relation word."""
    if mode not in ("plain", "hat"):
        raise DaggerError(f"unknown mode {mode!r}")
    letters = _letters(d)
    gens = d.gamma.nodes
    pairs = [(a, a) for a in gens] + list(itertools.combinations(gens, 2))
    failed = []
    for a, b in pairs:
        m = d.gamma.order(a, b)
        x, v, fixed = _image(d.psi, _localized(letters, (a, b)) * m)
        if not fixed or any(v) or x and mode == "hat":
            failed.append({"generators": [str(a)] if a == b else [str(a), str(b)],
                           "order": m,
                           "relation_word": [str(a), str(b)] * m})
    return CertStep("relations", {"checked": len(pairs), "failed": failed}, not failed)


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
    return sum((local[j:] + local[j:-1][::-1] for j in range(len(path))), ()) + (pendant,)


def _neighbour_masks(g: CoxeterSymbol) -> Mapping[object, int]:
    """Each node's neighbours in g as a mask (bit k is g.nodes[k])."""
    bit = {v: 1 << k for k, v in enumerate(g.nodes)}
    return {v: sum(bit[w] for w in g.neighbors(v)) for v in g.nodes}


def _grow(g: CoxeterSymbol, near: Mapping[object, int], queue: List[Tuple[int, Tuple]]):
    """Grow connected node sets of g from the queued (mask, its nodes in
    growth order) one neighbour at a time, breadth first, and yield each
    finite one as (mask, nodes, type named by classify_component, mask
    with its neighbours), by size: each set is one node larger than the
    set it grew from.  Growth through finite sets reaches every connected
    finite set that holds a queued one, since dropping a leaf keeps a set
    connected and finite.  near holds the neighbour masks of g."""
    seen = {mask for mask, _ in queue}
    for mask, nodes in queue:
        ftype = classify_component(g, mask_nodes(g, mask))
        if ftype is None:
            continue
        around = mask
        for v in nodes:
            around |= near[v]
        yield mask, nodes, ftype, around
        for k, w in enumerate(g.nodes):
            if around >> k & 1 and mask | 1 << k not in seen:
                seen.add(mask | 1 << k)
                queue.append((mask | 1 << k, nodes + (w,)))


@lru_cache(maxsize=64)
def _local_growth(weyl: CoxeterSymbol, edges: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple, ...]:
    """The connected finite sets through one pendant t joined to the nodes
    of weyl, gamma's Weyl part, by edges ((node, order), ...), grown from t
    on weyl plus t (_grow): each (its Weyl nodes as a mask of weyl's bits,
    those nodes in growth order, its type), in growth order.  They depend
    on weyl and edges alone, so they are grown once per Weyl type and
    pendant edges."""
    g = CoxeterSymbol(weyl.nodes + ("t",), weyl.edges() + [(s, "t", m) for s, m in edges])
    grown = _grow(g, _neighbour_masks(g), [(1 << weyl.rank, ("t",))])
    return tuple((mask & ~(1 << weyl.rank), nodes[1:], ftype) for mask, nodes, ftype, _ in grown)


@lru_cache(maxsize=2)
def _pendant_growth(d: DaggerSymbol) -> Tuple[Tuple[Tuple[Tuple, ...], ...], Tuple[Tuple, ...]]:
    """The connected finite visibles through the pendants, named by
    classify_component.

    Returns (components, violations).  components[i] holds the sets through
    t_i and no other pendant that are A1, or B_k with t_i's own edge (to
    s_i) of order 4: t_i and a type-A path from s_i, grown in path order.
    Each is (mask, mask with its neighbours, longest word, x, v_i, path),
    where (x, v, 1) is the word's image under the augmented map and v_i
    its slot i, the only one it moves (_image).  The image must fix the
    Weyl part, since the word cancels once the pendant is erased.  Every
    other set is a violation, (mask, type, pendant count), listed as
    spherical_subsets lists sets: by size, then by position.

    The sets through one pendant are read off its _local_growth on gamma's
    Weyl part (its first psi.rank nodes, on the same bits), in growth
    order; from those next to another pendant grow the sets through two or
    more on gamma (_grow).  Memoized per symbol, like _letters.
    """
    gamma = d.gamma
    near = _neighbour_masks(gamma)
    node = {1 << k: v for k, v in enumerate(gamma.nodes)}
    bit = {v: b for b, v in node.items()}
    slot = {bit[t]: i for i, t in enumerate(d.pendants)}
    pend = sum(slot)
    letters = _letters(d)
    components: Tuple[List[Tuple], ...] = tuple([] for _ in d.pendants)
    violations = []

    def record(mask: int, nodes: Tuple, ftype, around: int) -> None:
        i = slot.get(mask & pend)  # the slot of the set's pendant, if it has just one
        if i is not None and (ftype.rank == 1 or ftype.family == "B"
                              and gamma.order(nodes[0], d.attachments[i]) == 4):
            word = _b_longest_word(nodes[0], nodes[1:])
            x, v, fixed = _image(d.psi, _localized(letters, word))
            if not fixed:
                raise DaggerError("pendant component image moves the Weyl part")
            components[i].append((mask, around, word, x << i, v[0], nodes[1:]))
        else:
            violations.append((mask, ftype, (mask & pend).bit_count()))

    weyl = induced_subsymbol(gamma, gamma.nodes[:d.psi.rank])
    inside = set(weyl.nodes)
    seeds: dict = {}
    for t in d.pendants:
        edges = tuple((w, gamma.order(t, w)) for w in gamma.neighbors(t) if w in inside)
        for wmask, path, ftype in _local_growth(weyl, edges):
            mask, nodes = wmask | bit[t], (t,) + path
            around = mask
            for v in nodes:
                around |= near[v]
            record(mask, nodes, ftype, around)
            others = around & pend & ~bit[t]
            while others:
                b = others & -others
                others ^= b
                seeds.setdefault(mask | b, nodes + (node[b],))
    for grown in _grow(gamma, near, list(seeds.items())):
        record(*grown)
    violations.sort(key=lambda f: (f[0].bit_count(),
                                   [k for k in range(gamma.rank) if f[0] >> k & 1]))
    return tuple(map(tuple, components)), tuple(violations)


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
    entries = [{"nodes": [str(v) for v in mask_nodes(d.gamma, c[0])],
                "word": [str(v) for v in c[2]], "x": c[3], "v": c[4],
                "nontrivial": bool(c[3] or c[4])}
               for comps in _pendant_growth(d)[0] for c in comps]
    return CertStep("involution-classes",
                    {"components": entries, "trusted": [_TRUSTED_REDUCTIONS[3]]},
                    all(e["nontrivial"] for e in entries))


def certify_torsion_free(d: DaggerSymbol, mode: str = "hat") -> Certificate:
    """Torsion-freeness certificate for the kernel.

    Steps: (1) every defining relation holds in the image (verify_relations);
    (2) every involution class of the pendant-symbol group has nontrivial
    image, judged on the pendant components (_involution_classes); (3)
    every connected finite visible subgroup not inside the Weyl part is
    A1 or type B through exactly one pendant, which discharges odd
    torsion through the named trusted reductions; the growth from the
    pendants lists every other one; (4) for each type-A path from each
    attachment, whether the map is faithful on the visible type-B subgroup
    of its pendant and that path, the flag modtwo.type_a_paths gives it
    (the check admissibility ran); one that is not faithful must be parity
    compensated: hat mode, a non-special attachment, odd rank, and a
    longest element that survives the map, read off the image of the
    path's component in the growth.  A path with no component (its set is
    not B_k, which step 3 reports) is not compensated.  Steps (1)-(4) read
    the module's caches (_image, _pendant_growth).

    Certify takes pendant symbols of at most symbols.MAX_NODES nodes and
    raises SymbolError past that.
    """
    if mode == "plain" and not all(d.special):
        raise DaggerError("plain-mode certification needs specially admissible attachments")
    steps: List[CertStep] = []

    steps.append(verify_relations(d, mode))
    if d.gamma.rank > MAX_NODES:
        raise SymbolError(f"certify is capped at {MAX_NODES} nodes, not {d.gamma.rank}")

    steps.append(_involution_classes(d))
    components, violations = _pendant_growth(d)
    found = [{"nodes": [str(v) for v in mask_nodes(d.gamma, mask)],
              "type": t.label(), "pendants": n} for mask, t, n in violations]
    steps.append(CertStep("finite-visible-structure", {"violations": found}, not found))
    steps.append(CertStep("odd-torsion-reduction",
                          {"trusted": list(_TRUSTED_REDUCTIONS)}, True))

    entries = []
    for i in range(d.m):
        images = {c[5]: c[3:5] for c in components[i]}  # path -> (x, v_i)
        for path, faithful in m2.type_a_paths(d.psi, d.attachments[i]):
            k = len(path) + 1
            entry = {"pendant": d.pendants[i], "k": k,
                     "path": [str(v) for v in path], "faithful": faithful}
            if not faithful:
                # A path whose set is not B_k in gamma (step 3 lists it) has no image.
                entry["parity_compensated"] = (mode == "hat" and i < d.ell and k % 2 == 1
                                               and any(images.get(path, ())))
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
    (_free_antipodal_size)."""
    weyl = (1 << d.psi.rank) - 1
    entries = [{"nodes": [str(v) for v in mask_nodes(d.gamma, c[0])],
                "free_antipodal_size": _free_antipodal_size(d.psi, weyl & ~c[1])}
               for comps in _pendant_growth(d)[0] for c in comps if c[3] == 0]
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
    _pendant_growth; everything else that depends on the pendants (the
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
    DaggerError, such as plain mode on a non-special attachment or an
    unknown mode, or a SymbolError, such as a torsion-free certificate for
    a pendant symbol past symbols.MAX_NODES), does not replay.  The
    module's caches it reads hold nothing taken from cert.
    """
    derive = {
        "torsion-free": lambda: certify_torsion_free(d, cert.mode),
        "cyclic-extension": lambda: cyclic_extension(d).certificate,
    }.get(cert.kind)
    if derive is None:
        return False
    try:
        fresh = derive()
    except (DaggerError, SymbolError):
        return False
    return fresh.to_json() == cert.to_json()
