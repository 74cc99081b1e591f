"""Weyl root lattices over the two-element field.

Vectors in L/2 are int bitsets (bit i-1 is the coordinate of the basis
root x_i); operators are tuples of column bitsets.  Everything here is
exact, and a vector of any dimension is one Python int.

The heart of the module is the weight vector u_s orthogonal to every
simple root but x_s, its orbit under subsets of reflections, and the
linear independence data these orbits produce: admissibility of a node,
the dimension of the orbit span, the kernel/image invariant of a Coxeter
half-turn, and the geometric-series operator used to hit its targets.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import (Callable, Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from . import weyl as wy
from .weyl import Matrix, WeylData

F2Matrix = Tuple[int, ...]  # column bitsets


class ModTwoError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bitset linear algebra

def vec_mod2(coords: Sequence[int]) -> int:
    mask = 0
    for i, c in enumerate(coords):
        if c & 1:
            mask |= 1 << i
    return mask


def mat_mod2(rows: Matrix) -> F2Matrix:
    """Column bitsets of an integer matrix reduced mod 2."""
    n = len(rows)
    return tuple(
        sum(((rows[i][j] & 1) << i) for i in range(n)) for j in range(n)
    )


def f2_identity(n: int) -> F2Matrix:
    return tuple(1 << j for j in range(n))


def f2_mat_vec(cols: F2Matrix, v: int) -> int:
    out = 0
    j = 0
    while v:
        if v & 1:
            out ^= cols[j]
        v >>= 1
        j += 1
    return out


def f2_mat_mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    return tuple(f2_mat_vec(a, col) for col in b)


def f2_mat_add(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    return tuple(x ^ y for x, y in zip(a, b))


def f2_mat_pow(a: F2Matrix, k: int) -> F2Matrix:
    if k < 0:
        raise ModTwoError(f"negative exponent {k}")
    return wy.power(a, k, f2_mat_mul, f2_identity(len(a)))


def echelon_basis(vectors: Iterable[int]) -> Tuple[int, ...]:
    """Reduced echelon basis (canonical per subspace), pivots from bit 0 up."""
    basis: List[int] = []
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(key=lambda x: x & -x)
    # Back-eliminate so each pivot bit appears in exactly one basis vector.
    for i, b in enumerate(basis):
        low = b & -b
        for j in range(len(basis)):
            if j != i and basis[j] & low:
                basis[j] ^= b
    return tuple(sorted(basis, key=lambda x: x & -x))


class F2Subspace(NamedTuple):
    """Subspace of F2^ambient held as a reduced echelon basis."""

    basis: Tuple[int, ...]
    ambient: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        for b in self.basis:
            if v & (b & -b):
                v ^= b
        return v == 0

    def __le__(self, other: "F2Subspace") -> bool:
        """Inclusion.  >= is its mirror; < and > are tuple order."""
        return all(other.contains(b) for b in self.basis)

    def __ge__(self, other: "F2Subspace") -> bool:
        return other <= self


def span(vectors: Iterable[int], ambient: int) -> F2Subspace:
    return F2Subspace(echelon_basis(vectors), ambient)


def f2_rank(vectors: Iterable[int]) -> int:
    return len(echelon_basis(vectors))


def f2_nullspace(cols: F2Matrix, n: int) -> Tuple[int, ...]:
    """Basis of {v : M v = 0} for the operator with the given columns.

    Echelons the columns augmented by the unit vectors, cols[j] | e_(n+j).
    A reduced basis vector with no bit below n is a combination of columns
    that sums to zero, and shifted down by n those vectors span the kernel.
    """
    low = (1 << n) - 1
    aug = echelon_basis(cols[j] | 1 << (n + j) for j in range(n))
    return echelon_basis(b >> n for b in aug if not b & low)


# ---------------------------------------------------------------------------
# Weight vectors

class WeightVector(NamedTuple):
    """Primitive lattice vector orthogonal to every simple root but x_s."""

    coords: Tuple[int, ...]
    node: int

    def mod2(self) -> int:
        return vec_mod2(self.coords)


@lru_cache(maxsize=256)
def weight_vector(w: WeylData, s: int) -> WeightVector:
    """Column s of the cached gram2 inverse, normalized to a primitive
    integer vector with positive coordinate at s.  Memoized per (Weyl
    type, node): build_dagger, the walks and certify's structure step
    all read it.

    gram2 u = c e_s says exactly that u is orthogonal to every x_t, t != s.
    """
    if s not in set(w.symbol.nodes):
        raise ModTwoError(f"unknown node {s!r}")
    col = [row[s - 1] for row in w.gram2_inverse]
    mult = lcm(*(x.denominator for x in col))
    ints = [int(x * mult) for x in col]
    g = gcd(*ints)
    if ints[s - 1] < 0:
        g = -g
    if ints[s - 1] == 0:
        raise ModTwoError("weight vector vanishes at its node")  # pragma: no cover
    return WeightVector(tuple(x // g for x in ints), s)


# ---------------------------------------------------------------------------
# Orbits and independence data

@lru_cache(maxsize=32)
def f2_generators(w: WeylData) -> Mapping[int, F2Matrix]:
    """Read-only map node -> reflection mod 2, built once per Weyl group."""
    return MappingProxyType({i: mat_mod2(wy.reflection_matrix(w, i)) for i in w.symbol.nodes})


def bfs_closure(start: Hashable, gens: Sequence, act: Callable, cap: Optional[int] = None) -> Set:
    """Closure of start under x -> act(x, g) for g in gens, breadth first in
    generator order.  With a cap it stops as soon as it holds more than cap
    elements, so the caller can tell an overflow by the size."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if cap is not None and len(seen) > cap:
                        return seen
        frontier = nxt
    return seen


def orbit_span(gens: Sequence[F2Matrix], start: int, ambient: int) -> Tuple[frozenset, F2Subspace]:
    """Orbit of start under the generators, with the span of the orbit.
    Nothing in the package calls it: orbit_dim closes a basis instead.
    The tests keep it as orbit_dim's reference, and perfbench's tracer
    looks it up by name."""
    orbit = bfs_closure(start, gens, lambda v, g: f2_mat_vec(g, v))
    return frozenset(orbit), span(sorted(orbit), ambient)


def _walk_from(w: WeylData, s: int) -> Dict[int, Tuple[Tuple[int, ...], List[int]]]:
    """One walk of the Weyl tree from s: each node t maps to the minimal
    path s..t and its x-set, the successive reflection images of u_s mod 2
    along that path.  An x-set has k+1 entries for a k-node path and keeps
    duplicates; the set of distinct values may be smaller."""
    gens = f2_generators(w)
    u = weight_vector(w, s).mod2()
    walk = {s: ((s,), [u, f2_mat_vec(gens[s], u)])}
    stack = [s]
    while stack:
        v = stack.pop()
        path, xs = walk[v]
        for t in w.symbol.neighbors(v):
            if t not in walk:
                walk[t] = (path + (t,), xs + [f2_mat_vec(gens[t], xs[-1])])
                stack.append(t)
    return walk


@lru_cache(maxsize=128)
def type_a_paths(w: WeylData, s: int) -> Tuple[Tuple[Tuple[int, ...], bool, int], ...]:
    """(path, faithful, total) for each minimal path from s whose edges all
    have order 3, so that it induces a type-A subsymbol, in node order of
    the far end; the one-node path (s,) is among them.  faithful says
    whether the x-set of the path spans len(path) + 1 dimensions: for one
    type-A path, whether the pendant map is faithful on the visible type-B
    subgroup of a pendant at s and that path.  total is the sum (XOR) of
    the x-set, the translation of that subgroup's longest element.
    Memoized per (Weyl type, node), from w alone, so admissibility and
    certify share one walk; the result is an immutable tuple."""
    walk = _walk_from(w, s)
    out = []
    for t in w.symbol.nodes:
        path, xs = walk[t]
        if all(w.symbol.order(a, b) == 3 for a, b in zip(path, path[1:])):
            total = 0
            for x in xs:
                total ^= x
            out.append((path, f2_rank(xs) == len(path) + 1, total))
    return tuple(out)


def _admissibility(w: WeylData, s: int) -> Tuple[bool, bool]:
    """(admissible, specially admissible): every odd-length type-A path from
    s is faithful, respectively every type-A path."""
    if s in w.scaled_nodes:
        return False, False
    paths = type_a_paths(w, s)
    return (all(ok for path, ok, _ in paths if len(path) % 2),
            all(ok for _, ok, _ in paths))


def admissible_nodes(w: WeylData) -> List[Tuple[int, bool]]:
    """Admissible nodes with their specially-admissible flag."""
    out = []
    for s in w.symbol.nodes:
        admissible, special = _admissibility(w, s)
        if admissible:
            out.append((s, special))
    return out


@lru_cache(maxsize=256)
def orbit_dim(w: WeylData, u: int, parity: int) -> int:
    """Dimension of the span of the reflection-group orbit of (parity, u) in
    F2 x L/2, the parity bit sitting above the n coordinates of u; every
    reflection fixes it.  The span is the least subspace that holds the
    vector and is mapped into itself by every generator, so it is closed
    from the vector one basis element at a time: each new element's images
    under the generators join the basis unless they reduce to zero.  That
    is at most n + 1 elements times the rank in products, with no orbit
    listed.  Memoized per (Weyl type, vector, parity): every kernel_index
    slot and lambda_dim read it."""
    n = w.rank
    gens = [cols + (1 << n,) for cols in f2_generators(w).values()]
    start = u | parity << n
    basis = {start & -start: start} if start else {}  # lowest set bit -> basis vector
    queue = list(basis.values())
    for v in queue:
        for g in gens:
            y = f2_mat_vec(g, v)
            while y and y & -y in basis:
                y ^= basis[y & -y]
            if y:
                basis[y & -y] = y
                queue.append(y)
    return len(basis)


def lambda_dim(w: WeylData, s: int) -> int:
    """Dimension of the span of the full reflection-group orbit of u_s mod 2."""
    return orbit_dim(w, weight_vector(w, s).mod2(), 0)


# ---------------------------------------------------------------------------
# Involution kernel/image data and the geometric-series operator

def involution_ker_im(g: F2Matrix, n: int) -> Tuple[F2Subspace, F2Subspace, int]:
    """Kernel and image of g + 1 for an involution g, with d = dim ker - dim im.

    The image always sits inside the kernel since (g + 1)^2 = 0 over F2.
    """
    if f2_mat_mul(g, g) != f2_identity(n):
        raise ModTwoError("operator is not an involution mod 2")
    a = f2_mat_add(g, f2_identity(n))
    im = span(a, n)
    ker = F2Subspace(f2_nullspace(a, n), n)
    if not (im <= ker):
        raise ModTwoError("image not inside kernel")  # pragma: no cover
    return ker, im, ker.dim - im.dim


def dpsi(w: WeylData) -> int:
    """Kernel/image defect of the Coxeter half-turn acting on L/2."""
    h = w.coxeter_number
    if h % 2 != 0:
        raise ModTwoError(f"Coxeter number {h} is odd")
    return half_turn_ker_im(wy.coxeter_element(w), h // 2)[2]


def alpha_map(w: WeylData, xi: Matrix, q: int, p: int) -> F2Matrix:
    """1 + xi^q + xi^(2q) + ... + xi^((2^(p-1)-1) q) over F2."""
    if p < 1:
        raise ModTwoError("p must be >= 1")
    if q < 1:
        raise ModTwoError("q must be >= 1")
    xc = mat_mod2(xi)
    step = f2_mat_pow(xc, q)
    acc = tuple(0 for _ in range(w.rank))
    cur = f2_identity(w.rank)
    for _ in range(2 ** (p - 1)):
        acc = f2_mat_add(acc, cur)
        cur = f2_mat_mul(cur, step)
    return acc


def half_turn_ker_im(xi: Matrix, k: int) -> Tuple[F2Subspace, F2Subspace, int]:
    """involution_ker_im of the half-turn g = xi^k mod 2, which must be a
    nontrivial involution over Z (g = -1, the identity mod 2, is allowed)."""
    half = wy.mat_pow(xi, k)
    ident = wy.identity_matrix(len(xi))
    if half == ident or wy.mat_mul(half, half) != ident:
        raise ModTwoError(f"xi^{k} is not a half-turn")
    return involution_ker_im(mat_mod2(half), len(xi))


def find_target(w: WeylData, xi: Matrix, q: int, p: int,
                half_turn: Optional[Tuple[F2Subspace, F2Subspace, int]] = None) -> int:
    """First vector u (lexicographic scan of L/2, coordinate 1 most
    significant) whose alpha image lies in ker(g+1) minus im(g+1), where
    g is the half-turn xi^(2^(p-1) q) mod 2.  half_turn is
    half_turn_ker_im(xi, 2^(p-1) q), computed here unless the caller holds it.
    """
    n = w.rank
    alpha = alpha_map(w, xi, q, p)
    ker, im, _ = half_turn or half_turn_ker_im(xi, (2 ** (p - 1)) * q)
    for val in range(1, 1 << n):
        mask = 0
        for i in range(n):
            if (val >> (n - 1 - i)) & 1:
                mask |= 1 << i
        img = f2_mat_vec(alpha, mask)
        if ker.contains(img) and not im.contains(img):
            return mask
    raise ModTwoError("no vector hits the kernel-minus-image target")
