"""Typed chamber complexes: the coset model, joins, flag models.

A TypedComplex stores every simplex explicitly (the empty simplex is
implicit) as a sorted tuple of vertex ids; each vertex carries a type
label and the type of a simplex is the set of types of its vertices.
A coset complex numbers its vertices by type, then by coset block, so
identical builds produce identical complexes; a vertex is named by its
id alone.  A subcomplex on fresh ids (``_reindexed``, a wall) keeps the
order of the old ones, and the flag model's identity flag E_k is its
first vertex of type k.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, product
from math import gcd

from .diagram import (Diagram, components_with_indices, group_order,
                      parse_symbol)
from .group import CapExceeded, GroupTable, parabolic_cosets

DEFAULT_SIMPLEX_CAP = 2_000_000


class SimplexCapExceeded(CapExceeded):
    """A complex would hold more simplices than the simplex cap."""


class TypedComplex:
    def __init__(self, vertex_types, simplices_by_dim):
        self.vertex_types = tuple(vertex_types)
        self.by_dim = {k: tuple(sorted(v)) for k, v in simplices_by_dim.items() if v}
        self._sets = None
        self._counts = None
        self._panels = None

    # -- basic queries -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_types)

    @property
    def dim(self) -> int:
        """Dimension; -1 when only the empty simplex is present."""
        return max(self.by_dim, default=-1)

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_dim); empty simplex excluded."""
        return tuple(len(self.by_dim.get(k, ())) for k in range(self.dim + 1))

    def n_simplices(self) -> int:
        """Number of nonempty simplices."""
        return sum(len(v) for v in self.by_dim.values())

    def simplices(self, k: int) -> tuple:
        return self.by_dim.get(k, ())

    def _simplex_sets(self):
        if self._sets is None:
            self._sets = {k: set(v) for k, v in self.by_dim.items()}
        return self._sets

    def incidence_counts(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its incident simplices in each dimension 0, ...,
        dim: entry 0 is 1, and entry k + 1 is f_k of the vertex's link.
        Computed once."""
        if self._counts is None:
            n = self.n_vertices
            cols = [list(map(Counter(chain.from_iterable(self.simplices(k)))
                             .__getitem__, range(n)))
                    for k in range(self.dim + 1)]
            self._counts = tuple(zip(*cols)) if cols else ((),) * n
        return self._counts

    def panels(self) -> dict[tuple, list[int]]:
        """Each panel, a face of a top-dimensional simplex with one vertex
        fewer, mapped to the vertices that complete it to a top-dimensional
        simplex.  Computed once."""
        if self._panels is None:
            panels: dict[tuple, list[int]] = {}
            for s in self.simplices(self.dim):
                for i, x in enumerate(s):
                    panels.setdefault(s[:i] + s[i + 1:], []).append(x)
            self._panels = panels
        return self._panels

    def chambers(self) -> tuple:
        """Maximal simplices (any dimension)."""
        out = []
        strict_faces = set()
        for k in sorted(self.by_dim, reverse=True):
            for s in self.by_dim[k]:
                if s not in strict_faces:
                    out.append(s)
                for v in s:
                    strict_faces.add(tuple(x for x in s if x != v))
        return tuple(sorted(out, key=lambda s: (len(s), s)))


def _reindexed(by_dim, vertex_types) -> TypedComplex:
    """The complex of the simplices by_dim, given in the ids of a complex
    with these vertex types, on fresh ids 0, 1, ... in the order of the
    old ones: its vertex k is the k-th smallest old id among its
    vertices."""
    # the remap preserves vertex order, so sorted tuples stay sorted
    old_ids = sorted(s[0] for s in by_dim.get(0, ()))
    new_id = dict(zip(old_ids, range(len(old_ids)))).__getitem__
    return TypedComplex([vertex_types[v] for v in old_ids],
                        {k: [tuple(map(new_id, s)) for s in ss]
                         for k, ss in by_dim.items()})


def _face_closure(simplices) -> dict[int, dict]:
    """Every nonempty face of the given (simplex, mask) pairs, simplices
    as sorted vertex tuples, by dimension, each with the OR of the masks
    of the given simplices it lies in: each dimension's codimension-1
    faces, top down."""
    by_dim: dict[int, dict] = {}
    for s, mask in simplices:
        if s:
            top = by_dim.setdefault(len(s) - 1, {})
            top[s] = top.get(s, 0) | mask
    for k in range(max(by_dim, default=0), 0, -1):
        faces = by_dim.setdefault(k - 1, {})
        for s, mask in by_dim.get(k, {}).items():
            for face in combinations(s, k):
                faces[face] = faces.get(face, 0) | mask
    return by_dim


class ChamberSystem:
    """The chambers of the coset complex of t's group, one per element,
    and the group's left-translation action on them.

    ``chamber[r][x]`` is the type-r vertex of element x's chamber, the
    coset x<R - {r}>, as a vertex id; the ids of type r follow those of
    the types below r, block by block of ``parabolic_cosets``, so a
    chamber restricted to some types, read in type order, is a sorted
    vertex tuple.

    Of the rest of the complex only the members of each G_{R - {r}} are
    kept, as ``parabolic_cosets`` walked them.  The simplex of a coset
    x<R - I> is x's chamber restricted to the types in I, and two elements
    x, y restrict to the same simplex iff x^-1 y lies in
    K_I = ∩_{r in I} G_{R - {r}}, the elements whose chamber shares the
    identity chamber's type-r vertex for every r in I.  So the simplices
    of type I are the left cosets of K_I, and there are |G| / |K_I| of
    them (``f_vector``), whether or not K_I is the parabolic G_{R - I}.

    ``vertex_reps[v]`` is the smallest element of the coset v, so g maps
    a type-r vertex v to the type-r vertex of the chamber of
    g * vertex_reps[v]; ``vertex_perm(g)`` reads that off the table's
    left translation by g.  The vertices an element fixes, the name of
    its wall, are remembered for every generator of its cyclic subgroup
    (``fixed_vertices``).
    """

    def __init__(self, t: GroupTable):
        self.table = t
        n = t.ngens
        R = range(n)
        self.chamber: list[list[int]] = []
        self._members: list[list[int]] = []     # of each G_{R - {r}}
        types: list[int] = []
        reps: list[int] = []
        for r in R:
            part = parabolic_cosets(t, [x for x in R if x != r])
            # one int object per vertex id, shared by the chambers
            ids = list(range(len(types), len(types) + part.n_blocks))
            col = list(map(ids.__getitem__, part.block_of))
            self.chamber.append(col)
            self._members.append(part.members)
            types.extend([r] * part.n_blocks)
            reps.extend(part.reps)
        self.vertex_types = tuple(types)
        self.vertex_reps = reps
        self._fixed: dict[int, tuple[int, ...]] = {}   # element -> its wall

    def vertex_perm(self, g: int) -> list[int]:
        """g's permutation of the vertex ids: the type-r vertex v goes to
        the type-r vertex of g * vertex_reps[v]'s chamber (one pass over
        the elements, whatever the length of g's word)."""
        return self._permutation(self.table.left_translation(g))

    def _permutation(self, left: list[int]) -> list[int]:
        """The vertex permutation of the element whose left translation
        is ``left``."""
        chamber = self.chamber
        return [chamber[r][left[h]]
                for r, h in zip(self.vertex_types, self.vertex_reps)]

    def fixed_vertices(self, g: int) -> tuple[int, ...]:
        """The ids of the vertices g fixes, ascending, read off g's
        vertex permutation.  They name g's wall, the full subcomplex on
        them, which g shares with every element that fixes the same
        vertices (its powers, say).  Each power g^k with k prime to
        ord(g) generates <g>, so g and g^k are powers of each other and
        fix the same vertices: one left translation by g answers for all
        of them, and its powers are read off it, g^(k+1) = g * g^k, up
        to the identity.  At rank 1 the vertices are the chambers, the
        cosets of the trivial group, and an element g != 1 moves every
        one of them, so none is read."""
        if g and self.table.ngens == 1:
            return ()
        if g not in self._fixed:
            left = self.table.left_translation(g)
            fixed = tuple(v for v, w in enumerate(self._permutation(left))
                          if v == w)
            powers = [g]                    # g^1, ..., g^ord(g) = 1
            while powers[-1]:
                powers.append(left[powers[-1]])
            order = len(powers)
            for k, x in enumerate(powers, 1):
                if gcd(k, order) == 1:
                    self._fixed[x] = fixed
        return self._fixed[g]

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_{n-1}) of the complex, without building it: f_k is
        the sum of |G| / |K_I| over the type sets I with k + 1 types."""
        n = self.table.ngens
        # the types r whose vertex each element's chamber shares with the
        # identity chamber: x shares the type-r vertex iff x lies in
        # G_{R - {r}}, so only the members of these are read
        shared: dict[int, int] = {}
        for r, members in enumerate(self._members):
            for x in members:
                shared[x] = shared.get(x, 0) | 1 << r
        by_mask = Counter(shared.values())
        fv = [0] * n
        for types in range(1, 1 << n):
            k_order = sum(c for m, c in by_mask.items() if m & types == types)
            fv[bin(types).count("1") - 1] += self.table.order // k_order
        return tuple(fv)


@lru_cache(maxsize=4096)
def order_f_vector(d: Diagram) -> tuple[int, ...]:
    """(f_0, ..., f_{n-1}) of d's Milnor fiber complex from group orders
    alone: the simplices of type I are the cosets of G_{R-I}, so f_k is
    the sum of |G| / |G_{R-I}| over the type sets I with k + 1 types.  A
    union's complex is the join of its components', so its f-polynomial
    (with f_{-1} = 1) is the product of theirs.  Memoized per diagram:
    recognition asks for the same candidates again and again."""
    comps = components_with_indices(d)
    if len(comps) > 1:
        poly = [1]
        for c, _idx in comps:
            factor = (1,) + order_f_vector(c)
            prod = [0] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    prod[i + j] += a * b
            poly = prod
        return tuple(poly[1:])
    n = d.rank
    order = group_order(d)
    fv = [0] * n
    for mask in range(1, 1 << n):
        rest = d.induced(r for r in range(n) if not mask >> r & 1)
        fv[bin(mask).count("1") - 1] += order // group_order(rest)
    return tuple(fv)


@lru_cache(maxsize=4096)
def order_vertex_profile(d: Diagram) -> tuple:
    """``vertex_profile`` of d's Milnor fiber complex from group orders
    alone: there are |G| / |G_{R-{r}}| vertices of type r, and the link
    of each is the complex of G_{R-{r}}, so each has 1 + f_k of that
    complex incident simplices of dimension k + 1.  Memoized per
    diagram."""
    n = d.rank
    order = group_order(d)
    profile: Counter = Counter()
    for r in range(n):
        rest = d.induced(x for x in range(n) if x != r)
        profile[(1,) + order_f_vector(rest)] += order // group_order(rest)
    return tuple(sorted(profile.items()))


def vertex_profile(c: TypedComplex) -> tuple:
    """The multiset of c's vertices' ``incidence_counts``, as sorted
    (counts, number of vertices) pairs.  An isomorphism preserves it."""
    return tuple(sorted(Counter(c.incidence_counts()).items()))


def simplex_count(d: Diagram, simplex_cap: int) -> int:
    """The number of nonempty simplices of d's Milnor fiber complex, the
    sum of ``order_f_vector(d)``.  Raises SimplexCapExceeded when that is
    over simplex_cap."""
    total = sum(order_f_vector(d))
    if total > simplex_cap:
        raise SimplexCapExceeded(
            "complex would exceed %d simplices" % simplex_cap)
    return total


def milnor_fiber_complex(t: GroupTable,
                         chambers: ChamberSystem | None = None
                         ) -> tuple[TypedComplex, ChamberSystem]:
    """Coset complex of all proper standard parabolics of t's group, and
    its chamber system (``chambers``, or a new one when None).  Raises
    SimplexCapExceeded, before anything is built, when the complex would
    hold more than DEFAULT_SIMPLEX_CAP simplices.

    Vertices of type r are cosets g<R - {r}>; the simplex of a coset
    g<R - I> is its vertex set {g<R - {r}> : r in I}; chambers biject
    with group elements.  The action is left translation.  Every vertex
    lies in a chamber, so the 0-simplices are the vertex ids, and only
    the type sets I of two or more types are read off the chambers.  The
    coset in block b of type r's ``parabolic_cosets`` has id b plus the
    number of vertices of the types below r.
    """
    simplex_count(t.diagram, DEFAULT_SIMPLEX_CAP)
    if chambers is None:
        chambers = ChamberSystem(t)
    n = t.ngens
    by_dim: dict[int, list] = {0: [(v,) for v in
                                   range(len(chambers.vertex_types))]}
    # the simplices of type I are the chambers restricted to the types in I
    for mask in range(1, 1 << n):
        if mask & (mask - 1):       # two or more types
            simplices = set(zip(*(col for r, col in enumerate(chambers.chamber)
                                  if mask >> r & 1)))
            by_dim.setdefault(bin(mask).count("1") - 1, []).extend(simplices)
    return TypedComplex(chambers.vertex_types, by_dim), chambers


def join(*factors: TypedComplex) -> TypedComplex:
    """Join of any number of complexes; factor i's vertex type t is
    tagged (i, t) to keep the factors' types apart."""
    types, parts, off = [], [], 0
    for i, c in enumerate(factors):
        types += [(i, t) for t in c.vertex_types]
        # a factor's vertices follow the earlier factors', so each join
        # of one simplex per factor, in factor order, is sorted
        parts.append([()] + [tuple(v + off for v in s)
                             for k in sorted(c.by_dim) for s in c.by_dim[k]])
        off += c.n_vertices
    by_dim: dict[int, list] = {}
    for pieces in product(*parts):
        s = sum(pieces, ())
        if s:
            by_dim.setdefault(len(s) - 1, []).append(s)
    return TypedComplex(types, by_dim)


def monomial_flag_complex(m: int,
                          n: int) -> tuple[TypedComplex, list[list[int]]]:
    """Flag complex of root-of-unity labeled coordinate subsets.

    Vertices are sets {(coord, label)} with distinct coords, sizes
    1..n; type of a size-k set is k-1 (matching generator indexing of
    the 2[3]...2[4]m chain).  The ids follow the sets by size, then as
    sorted lists, so the identity flag E_k = {(0, 0), ..., (k, 0)} is
    the first vertex of type k.  Simplices are chains under inclusion.
    Returns the complex and the vertex permutations of the n standard
    monomial generators (adjacent transpositions; last one rotates the
    label on the last coordinate).  It has the f-vector of G(m,1,n)'s
    coset complex, so ``simplex_count`` of that diagram raises
    SimplexCapExceeded, before anything is built, when it would hold
    more than DEFAULT_SIMPLEX_CAP simplices.  Each set's strict
    supersets are read off the subsets of every larger set u: 2^|u|
    steps per u, not a test of every pair of sets.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2, n >= 1")
    # this cap bounds the build only while the flag complex has the coset
    # complex's f-vector: an edit to the superset reading below must keep
    # passing the all-pairs reference test in tests/test_complexes.py
    simplex_count(parse_symbol("G(%d,1,%d)" % (m, n)), DEFAULT_SIMPLEX_CAP)
    verts = []
    for k in range(1, n + 1):
        for coords in combinations(range(n), k):
            for labels in product(range(m), repeat=k):
                verts.append(frozenset(zip(coords, labels)))
    verts.sort(key=lambda s: (len(s), sorted(s)))
    vid = {s: i for i, s in enumerate(verts)}
    types = [len(s) - 1 for s in verts]

    # chains under strict inclusion, built by extending from each set
    # upward; larger sets have larger ids, so every chain is sorted
    supersets = [[] for _ in verts]
    for j, u in enumerate(verts):
        for k in range(1, len(u)):
            for sub in combinations(u, k):
                supersets[vid[frozenset(sub)]].append(j)
    by_dim: dict[int, list] = {}
    stack = [(i,) for i in range(len(verts))]
    while stack:
        chain = stack.pop()
        by_dim.setdefault(len(chain) - 1, []).append(chain)
        for j in supersets[chain[-1]]:
            stack.append(chain + (j,))
    cx = TypedComplex(types, by_dim)

    def act(gen: int, s: frozenset) -> frozenset:
        out = []
        for (c, a) in s:
            if gen < n - 1:
                if c == gen:
                    c = gen + 1
                elif c == gen + 1:
                    c = gen
            else:
                if c == n - 1:
                    a = (a + 1) % m
            out.append((c, a))
        return frozenset(out)

    perms = []
    for gen in range(n):
        perms.append([vid[act(gen, s)] for s in verts])
    return cx, perms


# ---------------------------------------------------------------------------
# MFC-COMPLEX facet export
# ---------------------------------------------------------------------------

def _type_token(t) -> str:
    if isinstance(t, tuple):
        return ".".join(_type_token(x) for x in t)
    return str(t)


def export_complex(c: TypedComplex, path: str) -> None:
    facets = c.chambers()
    with open(path, "w") as fh:
        fh.write("MFC-COMPLEX v1 %d %d\n" % (c.n_vertices, len(facets)))
        for v in range(c.n_vertices):
            fh.write("v: %d %s\n" % (v, _type_token(c.vertex_types[v])))
        for f in facets:
            fh.write("f: %s\n" % " ".join(map(str, f)))
