"""Conjugacy classes of involutions via subsymbol combinatorics.

An involution class of a Coxeter group corresponds to an equivalence
class of antipodal subsymbols (those whose longest element acts as minus
the identity), with two subsymbols equivalent when a chain of one-node
exchange moves connects them (Richardson, J. Algebra 1982).  A move
adds a node s and removes its image under the opposition involution
s -> w0 s w0 of the finite component through s (Bourbaki, Lie IV-VI).  On
the diagram that image is read off symbols.component_shape: the identity
on an antipodal type, the path reversed for A_n and I2(odd), the two
equal arms at the branch node swapped for D_odd and E6.  This module
enumerates the subsymbols from the spherical-subset walk, closes them
under the moves, and picks out the unique class of maximal rank of an
irreducible Weyl group.  The moves are built once per symbol, in
_move_table; move_classes closes the masks under them, and
elementary_moves reads them.  equivalence_classes formats move_classes:
the `involutions classes` verb, maximal_rank_class and the tests'
oracles call it.  Certify and extend list no class: torsionfree judges
the classes of a pendant symbol through its pendant components, and
reads the largest antipodal size off symbols.FiniteType.antipodal_size.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .symbols import (
    CoxeterSymbol,
    FiniteType,
    SymbolError,
    classify_finite_type,
    component_shape,
    induced_subsymbol,
    mask_nodes,
    mask_sort_key,
    node_sort_key,
    spherical_subsets,
)
from .weyl import WeylData


class InvolutionError(ValueError):
    pass


def is_minus_one_type(g: CoxeterSymbol, t_nodes) -> bool:
    """True when every component of the induced subsymbol has a central
    longest element acting as minus one."""
    nodes = list(t_nodes)
    if not nodes:
        return False
    sub = induced_subsymbol(g, nodes)
    types = classify_finite_type(sub)
    if types is None:
        return False
    return all(t.antipodal for t in types)


def _opposition(g: CoxeterSymbol, comp: Sequence, t: FiniteType) -> Dict:
    """Image of each node of the connected finite component comp, of type
    t, under s -> w0 s w0: the identity on an antipodal type; otherwise the
    path reversed (A_n, I2(odd)), or the two equal arms at the branch node
    swapped (D_odd, E6)."""
    pi = {v: v for v in comp}
    if t.antipodal:
        return pi
    branch, arms = component_shape(g, comp)
    if branch is None:
        pi.update(zip(arms[0], reversed(arms[0])))
    else:
        x, y = arms[:2] if len(arms[0]) == len(arms[1]) else arms[1:]
        pi.update(zip(x, y))
        pi.update(zip(y, x))
    return pi


@lru_cache(maxsize=16)
def _move_table(g: CoxeterSymbol) -> Mapping[int, Tuple[int, ...]]:
    """Each antipodal mask of g's walk, mapped to the masks one exchange
    move away (elementary_moves says what a move is).  Built once per
    symbol, memoizing the opposition of each component mask on the way."""
    walk = spherical_subsets(g)
    full = (1 << g.rank) - 1
    partners: Dict[int, Dict[int, int]] = {}
    table = {}
    for mask, comps in walk.items():
        if not mask or not all(t.antipodal for _, t in comps):
            continue
        moves = []
        rest = full & ~mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            grown = walk.get(mask | bit)
            if grown is None:
                continue
            for comp, t in grown:
                if comp & bit:
                    break
            if t.antipodal:
                continue
            if comp not in partners:
                bit_of = {v: 1 << i for i, v in enumerate(g.nodes) if comp >> i & 1}
                partners[comp] = {bit_of[a]: bit_of[b] for a, b in
                                  _opposition(g, mask_nodes(g, comp), t).items()}
            moves.append((mask | bit) & ~partners[comp][bit])
        table[mask] = tuple(moves)
    return MappingProxyType(table)


def elementary_moves(g: CoxeterSymbol, t_nodes) -> List[Tuple]:
    """One-node exchange moves from an antipodal subsymbol.

    For a node s outside the subsymbol T such that the component of T + s
    through s is finite but not antipodal, the move adds s and removes the
    image of s under that component's opposition involution (s itself
    when s lies on its axis of symmetry).  Whether T is antipodal and the
    moves are both read off g's move table, whose walk raises SymbolError
    past MAX_NODES, as it does for a node not in g.
    """
    t_set = set(t_nodes)
    unknown = t_set - set(g.nodes)
    if unknown:
        raise SymbolError(f"unknown nodes {sorted(unknown, key=node_sort_key)!r}")
    table = _move_table(g)
    mask = sum(1 << i for i, v in enumerate(g.nodes) if v in t_set)
    if mask not in table:
        raise InvolutionError("moves are defined on antipodal subsymbols only")
    return [mask_nodes(g, m) for m in table[mask]]


class EquivalenceClass(NamedTuple):
    """One involution class: all mutually reachable antipodal node sets."""

    members: Tuple[Tuple, ...]
    rank: int

    @property
    def canonical(self) -> Tuple:
        return self.members[0]


def move_classes(g: CoxeterSymbol) -> List[List[int]]:
    """The move-closures of g's antipodal masks under g's move table.  Each
    closure's masks are sorted by mask_sort_key, and the closures by (rank,
    least member)."""
    table = _move_table(g)
    parent = {m: m for m in table}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sub in table:
        for moved in table[sub]:
            ra, rb = find(sub), find(moved)
            if ra != rb:
                parent[ra] = rb
    groups: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
    for sub in table:
        groups.setdefault(find(sub), []).append((mask_sort_key(g, sub), sub))
    classes = sorted((sorted(members) for members in groups.values()),
                     key=lambda c: (len(c[0][0]), c[0][0]))
    return [[m for _, m in members] for members in classes]


def equivalence_classes(g: CoxeterSymbol) -> Tuple[EquivalenceClass, ...]:
    """All involution classes of the group, one per move-closure of
    antipodal subsymbols.  Deterministic: members sorted, classes ordered
    by (rank, least member).  The closure, the moves and the sorts run on
    bitmasks (move_classes); masks become node tuples once, for the
    output.  Only the move table is memoized: maximal_rank_class caches
    its own result."""
    return tuple(EquivalenceClass(tuple(mask_nodes(g, m) for m in members),
                                  members[0].bit_count())
                 for members in move_classes(g))


@lru_cache(maxsize=16)
def maximal_rank_class(w: WeylData) -> EquivalenceClass:
    """The unique class of maximal rank of an irreducible Weyl group."""
    classes = equivalence_classes(w.symbol)
    top = max(c.rank for c in classes)
    winners = [c for c in classes if c.rank == top]
    if len(winners) != 1:
        raise InvolutionError("maximal rank class is not unique")  # pragma: no cover
    return winners[0]
