"""Exact reflection representations of the irreducible Weyl groups.

Each group acts on the root lattice basis {x_i} by unimodular integer
matrices.  The basis scales the simple roots so that all pairings stay
integral: x_i = v_i except for the doubled nodes of B_n / F4 and the
tripled node of G2, where v_i are the unit Tits basis vectors.

Node numbering is fixed once and inherited everywhere: A_n and B_n are
paths 1..n with the 4-edge of B at node n; D_n has trunk 1..n-2 (node 1
at the free end) and fork nodes n-1, n on node n-2; E_n has top row
1..n-1 with node n below node 3; F4 is the path 1-2-3-4 with the 4-edge
between 2 and 3; G2 is 1-2 with a 6-edge.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .symbols import CoxeterSymbol, classify_finite_type, component_shape, root_gram

Matrix = Tuple[Tuple[int, ...], ...]
RationalMatrix = Tuple[Tuple[Fraction, ...], ...]

_EXCEPTIONAL_RANKS = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


class WeylError(ValueError):
    pass


class WeylData:
    """Static data of one irreducible Weyl group in the scaled root basis.

    weyl_data builds one instance per (family, rank), so identity is
    equality: a memo keyed by a WeylData hashes its id.  It is immutable:
    the constructor takes the annotated fields in order and nothing can be
    set after it; the two cached_property memos are filled on first read.
    """

    family: str
    rank: int
    symbol: CoxeterSymbol
    cartan: Matrix
    gram2: Matrix
    exponents: Tuple[int, ...]
    coxeter_number: int
    index_of_connection: int
    minus_one_type: bool
    scaled_nodes: frozenset

    def __init__(self, *fields) -> None:
        names = WeylData.__annotations__
        if len(fields) != len(names):
            raise TypeError(f"WeylData takes {len(names)} fields, not {len(fields)}")
        self.__dict__.update(zip(names, fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"WeylData is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in WeylData.__annotations__)
        return f"WeylData({fields})"

    @property
    def order(self) -> int:
        n = 1
        for m in self.exponents:
            n *= m + 1
        return n

    def label(self) -> str:
        if self.family in ("A", "B", "D"):
            return f"{self.family}{self.rank}"
        return self.family

    @cached_property
    def reflection_supports(self) -> Mapping[int, Tuple[int, Tuple[Tuple[int, int], ...]]]:
        """Read-only map node i -> (i - 1, the (column, entry) pairs of
        Cartan row i - 1 with a nonzero entry): the only columns s_i changes."""
        return MappingProxyType({
            i: (i - 1, tuple((c, m) for c, m in enumerate(self.cartan[i - 1]) if m))
            for i in self.symbol.nodes})

    @cached_property
    def gram2_inverse(self) -> RationalMatrix:
        """Exact inverse of gram2.  Column s is parallel to the fundamental
        weight of node s, the vector orthogonal to every x_t with t != s."""
        return rational_inverse(self.gram2)


def _family_symbol(family: str, rank: int) -> Tuple[CoxeterSymbol, Mapping[int, int]]:
    """The family's symbol and the norm of each basis root x_i: 1, except
    2 or 3 at the scaled nodes.  gram2 is root_gram at twice these norms."""
    nodes = list(range(1, rank + 1))
    scaled = {}
    if family == "A":
        edges = [(i, i + 1, 3) for i in range(1, rank)]
    elif family == "B":
        edges = [(i, i + 1, 3) for i in range(1, rank - 1)] + [(rank - 1, rank, 4)]
        scaled = {rank: 2}
    elif family == "D":
        edges = [(i, i + 1, 3) for i in range(1, rank - 2)]
        edges += [(rank - 2, rank - 1, 3), (rank - 2, rank, 3)]
    elif family == "G2":
        edges = [(1, 2, 6)]
        scaled = {2: 3}
    elif family == "F4":
        edges = [(1, 2, 3), (2, 3, 4), (3, 4, 3)]
        scaled = {3: 2, 4: 2}
    else:  # E6, E7, E8
        edges = [(i, i + 1, 3) for i in range(1, rank - 1)] + [(3, rank, 3)]
    return CoxeterSymbol(nodes, edges), {v: scaled.get(v, 1) for v in nodes}


def _exponents(family: str, rank: int) -> Tuple[int, ...]:
    if family == "A":
        return tuple(range(1, rank + 1))
    if family == "B":
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1]))
    return {
        "G2": (1, 5),
        "F4": (1, 5, 7, 11),
        "E6": (1, 4, 5, 7, 8, 11),
        "E7": (1, 5, 7, 9, 11, 13, 17),
        "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    }[family]


def weyl_data(family: str, rank: Optional[int] = None) -> WeylData:
    """Data record for one irreducible Weyl group, e.g. weyl_data("B", 4)."""
    family = family.upper()
    if family in _EXCEPTIONAL_RANKS:
        expected = _EXCEPTIONAL_RANKS[family]
        if rank not in (None, expected):
            raise WeylError(f"{family} has rank {expected}")
        rank = expected
    elif family in ("E", "F", "G") and rank is not None:
        return weyl_data(f"{family}{rank}")
    elif family == "A":
        if rank is None or rank < 1:
            raise WeylError("A_n needs rank n >= 1")
    elif family == "B":
        if rank is None or rank < 2:
            raise WeylError("B_n needs rank n >= 2")
    elif family == "D":
        if rank is None or rank < 4:
            raise WeylError("D_n needs rank n >= 4")
    else:
        raise WeylError(f"unknown family {family!r}")
    return _build_weyl(family, rank)


@lru_cache(maxsize=None)
def _build_weyl(family: str, rank: int) -> WeylData:
    """The one WeylData of a validated, normalized (family, rank)."""
    symbol, norms = _family_symbol(family, rank)
    gram2 = root_gram(symbol, {v: 2 * norm for v, norm in norms.items()})
    cartan = tuple(
        tuple(2 * gram2[i][j] // gram2[i][i] for j in range(rank)) for i in range(rank)
    )
    exponents = _exponents(family, rank)
    h = max(exponents) + 1
    index_conn = {"A": rank + 1, "B": 2, "D": 4, "G2": 1, "F4": 1,
                  "E6": 3, "E7": 2, "E8": 1}[family]
    return WeylData(family, rank, symbol, cartan, gram2, exponents, h,
                    index_conn, classify_finite_type(symbol)[0].antipodal,
                    frozenset(v for v, norm in norms.items() if norm > 1))


# ---------------------------------------------------------------------------
# Integer matrices (tuples of row tuples)

@lru_cache(maxsize=16)
def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def power(x, k: int, mul: Callable, one):
    """x^k for k >= 0 by square-and-multiply under the associative product
    mul with identity one; each caller rejects a negative k itself."""
    result = one
    while k:
        if k & 1:
            result = mul(result, x)
        x = mul(x, x)
        k >>= 1
    return result


def mat_pow(a: Matrix, k: int) -> Matrix:
    if k < 0:
        raise WeylError(f"negative exponent {k}")
    return power(a, k, mat_mul, identity_matrix(len(a)))


def row_reduce(a: Sequence[Sequence]) -> Tuple[RationalMatrix, Tuple[int, ...], Fraction]:
    """Exact Gauss-Jordan elimination over Q.

    Returns the reduced row echelon rows (zero rows last), the pivot
    columns, and the determinant of the leading square block: the first
    len(a) columns, which are the whole matrix when a is square.  That
    determinant is 0 when the block is singular or a is taller than wide.
    """
    rows = [[Fraction(x) for x in row] for row in a]
    n_rows = len(rows)
    pivots: List[int] = []
    num = den = 1  # the determinant as a plain int ratio: cheaper than Fraction products
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            num = -num
        pv = rows[top][col]
        num *= pv.numerator
        den *= pv.denominator
        rows[top] = [x / pv for x in rows[top]]
        for r in range(n_rows):
            f = rows[r][col]
            if r != top and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
        if len(pivots) == n_rows:
            break
    if pivots[:n_rows] != list(range(n_rows)):
        num = 0
    return tuple(map(tuple, rows)), tuple(pivots), Fraction(num, den)


def rational_inverse(a: Sequence[Sequence[int]]) -> RationalMatrix:
    """Exact inverse over Q of a square matrix; WeylError when it is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise WeylError("matrix is not square")
    rows, _, det = row_reduce([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(a)])
    if not det:
        raise WeylError("matrix is singular")
    return tuple(row[n:] for row in rows)


def rank_rational(a: Matrix) -> int:
    """Rank over the rationals via exact Gaussian elimination.  No code in
    the package calls it: the tests rank with it as the reference for
    minus_one_rank, and perfbench's tracer looks it up by name."""
    return len(row_reduce(a)[1])


def minus_one_rank(g: Matrix) -> int:
    """Dimension of the minus-one eigenspace of an integer involution g,
    read off its trace as (n - tr g) / 2.  Exact for any integer g with
    g^2 = 1: such a g is diagonalizable over Q with eigenvalues +1 and -1,
    so tr g = n - 2 r where r is that dimension, the rank of g - 1.  The
    caller must pass an involution; on any other matrix the value means
    nothing."""
    return (len(g) - sum(row[i] for i, row in enumerate(g))) // 2


# ---------------------------------------------------------------------------
# Group elements

def reflection_matrix(w: WeylData, i: int) -> Matrix:
    """s_i(x_j) = x_j - <x_j, x_i^v> x_i; an involutive integer matrix."""
    if i not in set(w.symbol.nodes):
        raise WeylError(f"unknown node {i!r}")
    n = w.rank
    row_i = i - 1
    return tuple(
        tuple((1 if r == c else 0) - (w.cartan[row_i][c] if r == row_i else 0)
              for c in range(n))
        for r in range(n)
    )


def reflect_rows(w: WeylData, rows: List[List[int]], i: int) -> None:
    """Right-multiply the mutable integer rows in place by the reflection s_i.

    s_i differs from the identity only in row k = i - 1, so g s_i differs
    from g only in the columns c with cartan[k][c] != 0:
    (g s_i)[r][c] = g[r][c] - g[r][k] cartan[k][c].
    """
    support = w.reflection_supports.get(i)
    if support is None:
        raise WeylError(f"unknown node {i!r}")
    k, entries = support
    for row in rows:
        a = row[k]
        if a:
            for c, m in entries:
                row[c] -= a * m


def word_to_matrix(w: WeylData, word: Sequence[int]) -> Matrix:
    rows = [list(r) for r in identity_matrix(w.rank)]
    for s in word:
        reflect_rows(w, rows, s)
    return tuple(map(tuple, rows))


def coxeter_element(w: WeylData, nodes: Optional[Iterable[int]] = None) -> Matrix:
    """Product of the reflections over nodes in ascending numbering.

    For even h its (h/2)-th power is conjugate to the longest element w0,
    since all Coxeter elements of a tree diagram are conjugate and the
    bipartite one has h/2 power w0; in general it is not equal to w0.
    On A5 it is the permutation (14)(25)(36) of S6, while w0 = (16)(25)(34).
    """
    if nodes is None:
        chosen = list(w.symbol.nodes)
    else:
        chosen = sorted(set(nodes))
        unknown = set(chosen) - set(w.symbol.nodes)
        if unknown:
            raise WeylError(f"unknown nodes {sorted(unknown)!r}")
        # A Weyl diagram is a tree with at most one branch node, so a node
        # subset is connected exactly when component_shape can walk it.
        if component_shape(w.symbol, chosen) is None:
            raise WeylError("Coxeter element needs a connected node set")
    return word_to_matrix(w, chosen)


def longest_word(w: WeylData, delta: Optional[Iterable[int]] = None) -> Tuple[int, ...]:
    """Reduced word for the longest element of the visible subgroup on delta.

    Greedy ascent: starting from the identity, repeatedly right-multiply by
    the smallest s in delta whose root image is still a nonnegative vector.
    The step count equals the number of positive roots of the subgroup.
    """
    nodes = sorted(set(w.symbol.nodes if delta is None else delta))
    unknown = set(nodes) - set(w.symbol.nodes)
    if unknown:
        raise WeylError(f"unknown nodes {sorted(unknown)!r}")
    return _longest_word(w, tuple(nodes))


@lru_cache(maxsize=1024)
def _longest_word(w: WeylData, nodes: Tuple[int, ...]) -> Tuple[int, ...]:
    rows = [list(r) for r in identity_matrix(w.rank)]
    word: List[int] = []
    while True:
        for s in nodes:
            if all(row[s - 1] >= 0 for row in rows):
                reflect_rows(w, rows, s)
                word.append(s)
                break
        else:
            return tuple(word)
