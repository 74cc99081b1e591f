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

The connected finite visibles through the pendants are grown from each
pendant one neighbour at a time (_pendant_growth); no stage walks the
spherical subsets of a pendant symbol.  The A1 sets among them, and the
B_k sets whose pendant sits at the order-4 end, are the pendant
components; every other one fails certify's structure step.  When none
does, an involution class picks a set U of pendant components, disjoint
and not adjacent, and a class C of the Weyl nodes U leaves free: a
component is A1 or B_k, both antipodal, so no exchange move touches it
or a neighbour of it.  Certify and extend judge the classes through the
components alone and never list them (_involution_classes,
_class_exclusion); the tests keep the class product as their reference.

Its caches are derived from their arguments alone, never from a
certificate, and every value a caller reads is immutable.  Per Weyl
type: the Weyl relation verdicts (_weyl_relations) and the extension's
half-turn data (_half_turn); kernel_index reads one more, in modtwo: per
(Weyl type, vector, parity), the dimension of the orbit span that proves
each slot of the index (modtwo.orbit_dim).  Per symbol, each for the
last two symbols: the letter table of the augmented map (_letters) and
the growth from the pendants (_pendant_growth).  The records are
NamedTuples; a DaggerSymbol is a value, so those two are keyed by its
fields.
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
from .symbols import MAX_NODES, CoxeterSymbol, SymbolError, classify_component, mask_nodes
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
def _letters(d: DaggerSymbol) -> Mapping[object, Optional[Tuple[int, int, Tuple[int, ...]]]]:
    """Each generator's action under the augmented map.  A Weyl node maps
    to None: reflect by it.  Pendant t_i maps to its translation (x_T, i,
    cols): x_T is bit i for a plain attachment and 0 for a special one, and
    the one nonzero slot i holds u_i mod 2, whose odd coordinates are cols.
    Memoized per symbol, like _pendant_growth."""
    letters = dict.fromkeys(d.psi.symbol.nodes)
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


def _fold(d: DaggerSymbol, word: Sequence, x: int, v: List[int], g: List[List[int]]) -> int:
    """Right-multiply the caller's mutable state (x, v, g) in place by word
    through the symbol's letter table, and return the new x.  A Weyl letter
    s right-multiplies g by s_s; a pendant letter is its translation, and
    (x, v, g)(x_T, v_T, 1) = (x + x_T, v + (g mod 2) v_T, g) toggles bit i
    of x (plain pendants only) and adds g u_i mod 2 to slot i of v."""
    letters = _letters(d)
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


@lru_cache(maxsize=2)
def _pendant_growth(d: DaggerSymbol) -> Tuple[Tuple[Tuple[Tuple, ...], ...], Tuple[Tuple, ...]]:
    """The connected finite visibles through the pendants, grown from each
    pendant one neighbour at a time and named by classify_component.
    Growth through finite sets reaches every one, since dropping a leaf
    other than the pendant keeps a set connected and finite.

    Returns (components, violations).  components[i] holds the sets through
    t_i and no other pendant that are A1, or B_k with t_i's own edge (to
    s_i) of order 4: t_i and a type-A path from s_i, grown in path order.
    Each is (mask, mask with its neighbours, longest word, x, v_i, path),
    where (x, v, 1) is the word's image under the augmented map and v_i
    its slot i, the only one it moves.  The image must fix the Weyl part,
    since the word cancels once the pendant is erased.  Every
    other set is a violation, (mask, type, pendant count), listed as
    spherical_subsets lists sets: by size, then by position.  Memoized per
    symbol, like _letters.
    """
    gamma = d.gamma
    bit = {v: 1 << k for k, v in enumerate(gamma.nodes)}
    slot = {bit[t]: i for i, t in enumerate(d.pendants)}
    pend = sum(slot)
    components: Tuple[List[Tuple], ...] = tuple([] for _ in d.pendants)
    violations = []
    # (mask, its nodes in growth order), read while it grows: by size, as
    # each set is one node larger than the set it grew from.
    queue = [(bit[t], (t,)) for t in d.pendants]
    seen = {mask for mask, _ in queue}
    for mask, nodes in queue:
        ftype = classify_component(gamma, mask_nodes(gamma, mask))
        if ftype is None:
            continue
        around = mask | sum({bit[w] for v in nodes for w in gamma.neighbors(v)})
        i = slot.get(mask & pend)  # the slot of the set's pendant, if it has just one
        if i is not None and (ftype.rank == 1 or ftype.family == "B"
                              and gamma.order(nodes[0], d.attachments[i]) == 4):
            word = _b_longest_word(nodes[0], nodes[1:])
            image = phi(d, word, "hat")
            if image.g != wy.identity_matrix(d.psi.rank):
                raise DaggerError("pendant component image moves the Weyl part")
            components[i].append((mask, around, word, image.x, image.v[i], nodes[1:]))
        else:
            violations.append((mask, ftype, (mask & pend).bit_count()))
        for w in gamma.nodes:
            if bit[w] & around and mask | bit[w] not in seen:
                seen.add(mask | bit[w])
                queue.append((mask | bit[w], nodes + (w,)))
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
    the module's caches (_weyl_relations, _pendant_growth).

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


def _antipodal_size(g: CoxeterSymbol, nodes: Sequence) -> int:
    """Largest size of an antipodal subset of the finite node set nodes
    of g: FiniteType.antipodal_size summed over its connected components,
    each named by classify_component on g itself, with no induced
    subsymbol built."""
    left, size = set(nodes), 0
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
    nodes.  One entry per such component records the largest size."""
    weyl = (1 << d.psi.rank) - 1
    entries = [{"nodes": [str(v) for v in mask_nodes(d.gamma, c[0])],
                "free_antipodal_size": _antipodal_size(d.psi.symbol,
                                                       mask_nodes(d.gamma, weyl & ~c[1]))}
               for comps in _pendant_growth(d)[0] for c in comps if c[3] == 0]
    return CertStep("class-exclusion",
                    {"max_class_rank": max_rank, "components": entries,
                     "trusted": ["2-torsion in the preimage of a cyclic 2-group "
                                 "maps onto its unique involution"]},
                    all(e["free_antipodal_size"] < max_rank for e in entries))


def cyclic_extension(d: DaggerSymbol) -> CyclicExtension:
    """Extend the kernel by a cyclic 2-group inside the image.

    Generic route: for even Coxeter number h = 2^p q with kernel/image
    defect above one, the element zeta = (0, (u,..,u), xi^q) generates a
    copy of Z/2^p avoiding every involution class in the image of the
    group.  Odd-rank type A uses the Coxeter half-turn directly (p = 1);
    E6 does better through a Coxeter element of its visible D5, giving
    p = 3 instead of the generic p = 2.  It reads _half_turn and
    _pendant_growth; everything else that depends on the pendants (zeta,
    its powers, the slot checks, the class exclusions) is computed afresh.
    max_rank, the minus-one rank the half-turn must reach, is the largest
    antipodal size of Psi, the rank of its unique maximal involution class.
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
    max_rank = _antipodal_size(psi.symbol, psi.symbol.nodes)
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
