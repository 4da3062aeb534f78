"""Hypothesis strategies and small constructors shared by the test
modules."""

from functools import cache

from hypothesis import strategies as st

from mfc.complexes import TypedComplex, _face_closure
from mfc.diagram import (EMPTY_DIAGRAM, Diagram, _irreducible_ids, _row_key,
                         classify, diagram_of)
from mfc.group import _relations


def check_relations(d: Diagram, perms: list[list[int]]) -> bool:
    """True when the permutations (one per generator, acting on the right)
    satisfy every defining relation of d at every point."""
    points = list(range(len(perms[0]))) if perms else []

    def image(word):
        img = points
        for i in word:
            img = list(map(perms[i].__getitem__, img))
        return img

    return all(image(lhs) == image(rhs) for lhs, rhs in _relations(d))


def mul(t, a: int, b: int) -> int:
    """The product a * b in table t, through the stored word of b."""
    for letter in t.word(b):
        a = t.right[letter][a]
    return a


def from_facets(vertex_types, facets) -> TypedComplex:
    """The complex the facets generate, on vertices with these types."""
    return TypedComplex(vertex_types,
                        _face_closure((tuple(sorted(f)), 0) for f in facets))


def canonical_key(d: Diagram) -> tuple:
    """Canonical encoding of an admissible diagram up to vertex
    relabeling: its components' row keys, sorted.  Raises NotAdmissible
    for a diagram that is not admissible."""
    return tuple(sorted(_row_key(gid) for gid in classify(d)))


def relabeled(d: Diagram, perm) -> Diagram:
    """d with its vertices relabeled old -> new, given as perm[new] = old."""
    pos = {old: new for new, old in enumerate(perm)}
    return Diagram(
        tuple(d.orders[old] for old in perm),
        tuple((min(pos[i], pos[j]), max(pos[i], pos[j]), m)
              for (i, j, m) in d.edges))


@cache
def _rows(rank: int, max_order: int) -> tuple:
    """The irreducible rows that ``enumerate_admissible`` builds its
    diagrams from, of this rank and order at most max_order, as
    (order, diagram) pairs in increasing order, one tuple per family."""
    by_family: dict[str, list] = {}
    for order in range(2, max_order + 1):
        for gid in _irreducible_ids(rank, order):
            by_family.setdefault(gid.family, []).append(
                (order, diagram_of(gid)))
    return tuple(map(tuple, by_family.values()))


@st.composite
def admissible_unions(draw, max_rank: int = 3, max_order: int = 2000):
    """A disjoint union of ``enumerate_admissible``'s rows, of rank 1 to
    max_rank and group order at most max_order.

    Each row is drawn by its rank, then its family, then its parameters,
    so the few exceptional and monomial rows come up as often as the
    many cyclic and dihedral ones.  The union stops early when no row of
    the drawn rank fits the order left."""
    d, order = EMPTY_DIAGRAM, 1
    rank_left = draw(st.integers(1, max_rank))
    while rank_left:
        rank = draw(st.integers(1, rank_left))
        budget = max_order // order
        fits = [[row for row in family if row[0] <= budget]
                for family in _rows(rank, max_order)]
        fits = [family for family in fits if family]
        if not fits:
            break
        row_order, row = draw(st.sampled_from(draw(st.sampled_from(fits))))
        d, order = d + row, order * row_order
        rank_left -= rank
    return d
