"""Independent brute-force oracles for the test suite.

Everything here is built from first principles (signed permutations as
tuples, breadth-first closures, conjugacy by exhaustive multiplication,
Leibniz determinants, minor searches, floating-point eigenvalues, integer
reflections along breadth-first tree paths) so that the values frozen
into the tests do not depend on the code paths they are checking.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from coxfree.modtwo import weight_vector

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
