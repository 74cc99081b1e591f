"""Independent brute-force oracles for the test suite.

Everything here is built from first principles (signed permutations as
tuples, breadth-first closures, conjugacy by exhaustive multiplication,
Leibniz determinants, minor searches, elimination over Fraction, floating-point eigenvalues, integer
reflections along breadth-first tree paths) so that the values frozen
into the tests do not depend on the code paths they are checking.

pendant_growth grows the connected finite visibles of a pendant symbol
from its pendants, one neighbour at a time, and names each set by
classify_component: the reference for the pendant components that
torsionfree reads off the type-A paths.  class_table lists every
involution class of a pendant symbol with its word and image, as the
product of pendant configurations (from the growth) and the generic
closure (equivalence_classes) of the Weyl nodes each leaves free.  It is
the reference for the verdicts certify and extend read off the pendant
components alone (class_scan).  relation_by_fold evaluates every defining
relation word of a pendant symbol by folding it: the reference for the
closed forms that torsionfree.verify_relations judges the relations by.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from coxfree.involutions import EquivalenceClass, equivalence_classes
from coxfree.modtwo import weight_vector
from coxfree import torsionfree as tf
from coxfree.symbols import (CoxeterSymbol, classify_component, connected_components,
                             induced_subsymbol, mask_nodes, mask_sort_key)
from coxfree.torsionfree import SemidirectElement
from coxfree.weyl import identity_matrix, longest_word, minus_one_rank, word_to_matrix

Perm = Tuple[int, ...]  # entry i-1 is the signed image of +i


def papply(p: Perm, point: int) -> int:
    return p[point - 1] if point > 0 else -p[-point - 1]


def pmul(p: Perm, q: Perm) -> Perm:
    return tuple(papply(p, q[i]) for i in range(len(p)))


def pidentity(degree: int) -> Perm:
    return tuple(range(1, degree + 1))


def symmetric_generators(n: int) -> List[Perm]:
    """Adjacent transpositions of an (n+1)-point set: Coxeter type A_n."""
    gens = []
    for i in range(1, n + 1):
        p = list(range(1, n + 2))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens.append(tuple(p))
    return gens


def signed_generators(n: int, even: bool = False) -> List[Perm]:
    """Signed permutation generators: type B_n, or D_n when even=True."""
    gens = []
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens.append(tuple(p))
    last = list(range(1, n + 1))
    if even:
        last[n - 2], last[n - 1] = -n, -(n - 1)
    else:
        last[n - 1] = -n
    gens.append(tuple(last))
    return gens


def word_perm(gens: Sequence[Perm], word: Sequence[int]) -> Perm:
    """Image of a word in generators numbered from 1, composed left to right."""
    acc = pidentity(len(gens[0]))
    for s in word:
        acc = pmul(acc, gens[s - 1])
    return acc


def closure(gens: Sequence[Perm]) -> Set[Perm]:
    degree = len(gens[0])
    seen = {pidentity(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = pmul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def involution_class_count(group: Set[Perm]) -> int:
    """Number of conjugacy classes of nontrivial involutions."""
    degree = len(next(iter(group)))
    ident = pidentity(degree)
    invs = {p for p in group if p != ident and pmul(p, p) == ident}
    elements = list(group)
    inv_of = {}
    for p in elements:
        for q in elements:
            if pmul(p, q) == ident:
                inv_of[p] = q
                break
    classes = 0
    remaining = set(invs)
    while remaining:
        rep = remaining.pop()
        orbit = {pmul(pmul(g, rep), inv_of[g]) for g in elements}
        remaining -= orbit
        classes += 1
    return classes


def leibniz_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant as the signed sum over all permutations."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def row_reduce_fractions(a: Sequence[Sequence]) -> Tuple[Tuple[Tuple[Fraction, ...], ...],
                                                          Tuple[int, ...], Fraction]:
    """Gauss-Jordan elimination over Fraction, row by row: the reference
    for weyl.row_reduce's fraction-free elimination, with the same three
    return values (reduced rows, pivot columns, determinant of the leading
    square block)."""
    rows = [[Fraction(x) for x in row] for row in a]
    n_rows = len(rows)
    pivots: List[int] = []
    det = Fraction(1)
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            det = -det
        pv = rows[top][col]
        det *= pv
        rows[top] = [x / pv for x in rows[top]]
        for r in range(n_rows):
            f = rows[r][col]
            if r != top and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
        if len(pivots) == n_rows:
            break
    if pivots[:n_rows] != list(range(n_rows)):
        det = Fraction(0)
    return tuple(map(tuple, rows)), tuple(pivots), det


def minor_rank(a: Sequence[Sequence[int]]) -> int:
    """Largest k with a nonzero k x k minor."""
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if leibniz_det([[a[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def verify_exponents(xi: Sequence[Sequence[int]], h: int, exponents: Sequence[int],
                     tol: float = 1e-6) -> bool:
    """Numeric check that a Coxeter element xi has eigenvalues zeta^{m_k},
    zeta = exp(2 pi i / h), comparing characteristic polynomials."""
    actual = np.poly(np.array(xi, dtype=float))
    zeta = np.exp(2j * np.pi / h)
    expected = np.poly([zeta ** m for m in exponents])
    return bool(np.allclose(actual, expected, atol=tol))


def eigenvalues(a: Sequence[Sequence]) -> List[float]:
    """Float eigenvalues of a symmetric matrix, ascending."""
    return [float(x) for x in np.linalg.eigvalsh(np.array(a, dtype=float))]


def cosine_form(gram: Sequence[Sequence[int]]) -> List[List[float]]:
    """G[a][b] / sqrt(N_a N_b), with N the diagonal of the root Gram matrix
    G: the cosine form of the roots, whatever their norms."""
    n = len(gram)
    return [[gram[a][b] / math.sqrt(gram[a][a] * gram[b][b]) for b in range(n)]
            for a in range(n)]


def eigen_signs(a: Sequence[Sequence], tol: float = 1e-9) -> Tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric matrix from the signs of its
    float eigenvalues; |lambda| < tol counts as zero."""
    eig = eigenvalues(a)
    n_plus, n_minus = sum(x > tol for x in eig), sum(x < -tol for x in eig)
    return n_plus, n_minus, len(eig) - n_plus - n_minus


def tree_path(symbol, s, t) -> Tuple:
    """The minimal path s..t in a tree symbol, by breadth-first search."""
    prev = {s: None}
    queue = [s]
    while queue:
        v = queue.pop(0)
        if v == t:
            path = [t]
            while path[-1] != s:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for u in symbol.neighbors(v):
            if u not in prev:
                prev[u] = v
                queue.append(u)
    raise ValueError(f"nodes {s!r} and {t!r} are not connected")


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def element_order(m: Sequence[Sequence[int]], bound: int = 64) -> int:
    """Least k >= 1 with m^k = 1, by repeated multiplication; ValueError
    when there is none up to bound."""
    n = len(m)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    acc = tuple(map(tuple, m))
    for k in range(1, bound + 1):
        if acc == ident:
            return k
        acc = _mat_mul(acc, m)
    raise ValueError(f"element order exceeds bound {bound}")


def preserves_gram(w, m: Sequence[Sequence[int]]) -> bool:
    """m^T G m == G for the Weyl group's integer form G = w.gram2."""
    mt = tuple(zip(*m))
    return _mat_mul(_mat_mul(mt, w.gram2), m) == w.gram2


def _reflect(w, i: int, v: Sequence[int]) -> List[int]:
    """s_i(v) = v - <v, x_i^v> x_i in root coordinates: only coordinate i
    moves, by the pairing of v with Cartan row i."""
    out = list(v)
    out[i - 1] -= sum(c * x for c, x in zip(w.cartan[i - 1], v))
    return out


def _bits(v: Sequence[int]) -> int:
    return sum(1 << j for j, c in enumerate(v) if c % 2)


def x_set(w, s, t) -> List[int]:
    """u_s, then its successive images under the reflections of the nodes
    on the tree path s..t, each reduced mod 2 to a bitset: k + 1 entries
    for a k-node path.  The images are integer vectors until the end; u_s
    is coxfree's weight vector, which its own tests check against a solve
    of the Cartan system."""
    v = list(weight_vector(w, s).coords)
    out = [_bits(v)]
    for node in tree_path(w.symbol, s, t):
        v = _reflect(w, node, v)
        out.append(_bits(v))
    return out


def f2_rank(vectors) -> int:
    """Rank over F2 of bitset vectors, eliminating on the highest bit."""
    basis: Dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def is_independent_for(w, s, t_set) -> bool:
    """True when the x-sets of the paths from s to the nodes of t_set span
    one more dimension than the number of nodes on those paths.  For one
    path, whether the pendant map is faithful on the visible type-B
    subgroup of a pendant at s and that path."""
    targets = sorted(set(t_set))
    if not targets:
        raise ValueError("t_set must be nonempty")
    vectors: List[int] = []
    nodes: Set = set()
    for t in targets:
        vectors += x_set(w, s, t)
        nodes.update(tree_path(w.symbol, s, t))
    return f2_rank(vectors) == len(nodes) + 1


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


@functools.lru_cache(maxsize=64)
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


@functools.lru_cache(maxsize=2)
def pendant_growth(d) -> Tuple[Tuple[Tuple[Tuple, ...], ...], Tuple[Tuple, ...]]:
    """The connected finite visibles through the pendants, named by
    classify_component.

    Returns (components, violations).  components[i] holds the sets through
    t_i and no other pendant that are A1, or B_k with t_i's own edge (to
    s_i) of order 4: t_i and a type-A path from s_i, grown in path order.
    Each is (mask, mask with its neighbours, longest word, x, v_i, path),
    where (x, v, 1) is the word's image under the augmented map (phi) and
    v_i its slot i, the only one it moves.  The image must fix the Weyl
    part, since the word cancels once the pendant is erased.  Every
    other set is a violation, (mask, type, pendant count), listed as
    spherical_subsets lists sets: by size, then by position.

    The sets through one pendant are read off its _local_growth on gamma's
    Weyl part (its first psi.rank nodes, on the same bits), in growth
    order; from those next to another pendant grow the sets through two or
    more on gamma (_grow).  This is the reference for
    torsionfree._components, which reads components[i] off the type-A
    paths from s_i (pendant_rows gives them in its row layout), and for
    the lemma behind it: on a symbol from build_dagger, violations is
    empty.
    """
    gamma = d.gamma
    near = _neighbour_masks(gamma)
    node = {1 << k: v for k, v in enumerate(gamma.nodes)}
    bit = {v: b for b, v in node.items()}
    slot = {bit[t]: i for i, t in enumerate(d.pendants)}
    pend = sum(slot)
    components: Tuple[List[Tuple], ...] = tuple([] for _ in d.pendants)
    violations = []

    def record(mask: int, nodes: Tuple, ftype, around: int) -> None:
        i = slot.get(mask & pend)  # the slot of the set's pendant, if it has just one
        if i is not None and (ftype.rank == 1 or ftype.family == "B"
                              and gamma.order(nodes[0], d.attachments[i]) == 4):
            word = tf._b_longest_word(nodes[0], nodes[1:])
            image = tf.phi(d, word, "hat")
            if image.g != identity_matrix(d.psi.rank):
                raise tf.DaggerError("pendant component image moves the Weyl part")
            components[i].append((mask, around, word, image.x, image.v[i], nodes[1:]))
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


def pendant_rows(d) -> Tuple[Tuple[Tuple, ...], ...]:
    """The grown components of each pendant (pendant_growth) in the row
    layout of torsionfree._components: (nodes, longest word, x, v_i, free),
    nodes and word as strings, the nodes in mask_nodes order, and free the
    mask of the Weyl nodes neither in the component nor next to it in
    gamma."""
    gamma = d.gamma
    weyl = (1 << d.psi.rank) - 1
    return tuple(tuple((tuple(map(str, mask_nodes(gamma, mask))), tuple(map(str, word)), x, v,
                        weyl & ~around)
                       for mask, around, word, x, v, _ in comps)
                 for comps in pendant_growth(d)[0])


@functools.lru_cache(maxsize=None)
def free_classes(psi, free: int) -> Tuple[Tuple, ...]:
    """The involution classes of the subdiagram of psi on the node mask
    free, by the generic closure of that subdiagram.  Each is (member
    masks of psi, (sort key, longest word) of each component of the least
    member, w0 of the least member)."""
    g = psi.symbol
    bit = {v: 1 << i for i, v in enumerate(g.nodes)}
    out = []
    for cls in equivalence_classes(induced_subsymbol(g, mask_nodes(g, free))):
        least = induced_subsymbol(g, cls.canonical)
        parts = tuple((mask_sort_key(g, sum(bit[v] for v in comp)), longest_word(psi, comp))
                      for comp in connected_components(least))
        w0 = word_to_matrix(psi, [s for _, word in parts for s in word])
        out.append((tuple(sum(bit[v] for v in m) for m in cls.members), parts, w0))
    return tuple(out)


def class_table(d) -> Tuple[Tuple[EquivalenceClass, Tuple, SemidirectElement], ...]:
    """(class, word, image) for every involution class of the pendant
    symbol d.gamma: the longest word of its canonical antipodal subsymbol
    and that word's image under the augmented map, built as a product.

    (a) A finite component through a pendant t_i is t_i alone (A1) or t_i
    with a type-A path from s_i (B_k); both are antipodal, so no exchange
    move adds or removes a node of a pendant component, or a neighbour of
    one.  A configuration U picks, for each pendant, none or one of these
    (pendant_growth), its picks disjoint and not adjacent.
    With F the Weyl nodes neither in U nor next to it, the classes through
    U are {U + A : A in C} for each class C of F (free_classes), and {U}
    when U is not empty.  (b) Adding a fixed disjoint set keeps the
    mask_sort_key order of sets of one size, so U + (least member of C) is
    the canonical member.  Classes are ordered by (rank, least member), as
    equivalence_classes orders them.  The word lists the components'
    longest words in least-node order, and the image is (x_U, v_U, w0):
    the product of U's pendant translations, with the w0 of C's least
    member."""
    gamma = d.gamma
    weyl = (1 << d.psi.rank) - 1
    one = identity_matrix(d.psi.rank)
    rows = []

    def add(members, parts, image):
        word = tuple(s for _, part in sorted(parts) for s in part)
        key = mask_sort_key(gamma, members[0])
        rows.append(((len(key), key), members, word, image))

    # (pendant mask, closed mask, x, pick per pendant so far), extended one
    # pendant at a time by the picks disjoint from and not next to the rest.
    configs = [(0, 0, 0, ())]
    for comps in pendant_growth(d)[0]:
        configs = [(pend | c[0], closed | c[1], x ^ c[3], picks + (c,)) if c
                   else (pend, closed, x, picks + (None,))
                   for pend, closed, x, picks in configs
                   for c in (None,) + comps if not (c and c[0] & closed)]
    for pend, closed, x, picks in configs:
        parts = [(mask_sort_key(gamma, c[0]), c[2]) for c in picks if c]
        v = tuple(c[4] if c else 0 for c in picks)
        if pend:
            add((pend,), parts, SemidirectElement(x, v, one))
        for members, free_parts, w0 in free_classes(d.psi, weyl & ~closed):
            add(tuple(pend | m for m in members), parts + list(free_parts),
                SemidirectElement(x, v, w0))
    rows.sort(key=operator.itemgetter(0))
    return tuple((EquivalenceClass(tuple(mask_nodes(gamma, m) for m in members), rank),
                  word, image)
                 for (rank, _), members, word, image in rows)


def class_scan(d, target: int) -> Tuple[bool, bool]:
    """Certify's step 2 and extend's class exclusion, class by class over
    class_table: (every class image is nontrivial, no class outside the
    Weyl part with x = 0 has an image of minus-one rank target).  The
    extension passes target = its maximal involution class rank."""
    weyl_nodes = set(d.psi.symbol.nodes)
    table = class_table(d)
    nontrivial = all(not image.is_identity() for _, _, image in table)
    excluded = all(image.x != 0 or set(cls.canonical) <= weyl_nodes
                   or minus_one_rank(image.g) != target for cls, _, image in table)
    return nontrivial, excluded


def relation_by_fold(d, mode: str):
    """Certify's relations step with every relation word (a b)^m, m the
    order of a and b in gamma, evaluated by phi, which folds it letter by
    letter into the image of the mode's map.  An INF edge imposes no
    relation."""
    gamma = d.gamma
    pairs = [(a, a) for a in gamma.nodes] + list(itertools.combinations(gamma.nodes, 2))
    failed = []
    for a, b in pairs:
        m = gamma.order(a, b)
        if m != math.inf and not tf.phi(d, [a, b] * m, mode).is_identity():
            failed.append({"generators": [str(a)] if a == b else [str(a), str(b)], "order": m,
                           "relation_word": [str(a), str(b)] * m})
    return tf.CertStep("relations", {"checked": len(pairs), "failed": failed}, not failed)
