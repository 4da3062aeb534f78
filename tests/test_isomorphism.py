import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from mfc.complexes import (TypedComplex, join, milnor_fiber_complex,
                           monomial_flag_complex)
from mfc.diagram import parse_symbol
from mfc.group import enumerate_group
from mfc.isomorphism import (_adjacency, _incidence, _initial_colors, _refine,
                             _vertex_order, find_isomorphism,
                             verify_isomorphism)


def build(sym):
    return milnor_fiber_complex(enumerate_group(parse_symbol(sym)))[0]


def test_identity():
    a = build("A3")
    iso = find_isomorphism(a, a)
    assert iso is not None
    assert verify_isomorphism(a, a, iso)


def test_relabeled_copy():
    a = build("G(3,1,2)")
    n = a.n_vertices
    perm = [(7 * v + 3) % n for v in range(n)]
    assert sorted(perm) == list(range(n))
    types = [None] * n
    for v in range(n):
        types[perm[v]] = a.vertex_types[v]
    by_dim = {k: [tuple(sorted(perm[v] for v in s)) for s in a.simplices(k)]
              for k in range(a.dim + 1)}
    b = TypedComplex(types, by_dim)
    iso = find_isomorphism(a, b)
    assert iso is not None and verify_isomorphism(a, b, iso)


def _rescan_order(adj, class_size):
    """Reference search order: rescan every unordered vertex for the most
    ordered neighbours, then the smallest class, then the smallest id."""
    n = len(adj)
    mapped = [0] * n
    order = []
    rest = set(range(n))
    while rest:
        v = max(rest, key=lambda u: (mapped[u], -class_size[u], -u))
        order.append(v)
        rest.discard(v)
        for u in adj[v]:
            mapped[u] += 1
    return order


def test_vertex_order_matches_rescan():
    # connected complexes, a join, a disjoint union (two components) and
    # a vertex-only complex; class sizes from the refined colors
    b3, h3 = build("B3"), build("H3")
    two = TypedComplex(b3.vertex_types + h3.vertex_types,
                       {k: b3.simplices(k) + tuple(
                           tuple(v + b3.n_vertices for v in s)
                           for s in h3.simplices(k)) for k in (0, 1, 2)})
    points = TypedComplex([0] * 5, {0: [(v,) for v in range(5)]})
    for c in (b3, h3, build("G(3,1,2)"), build("G25"),
              join(build("I2(5)"), build("Z3")), two, points):
        inc = _incidence(c)
        colors, _ = _refine(*_initial_colors(c, c), inc, inc)
        size = [colors.count(col) for col in colors]
        adj = _adjacency(c)
        order = _vertex_order(adj, size)
        assert order == _rescan_order(adj, size), c.f_vector()
        assert sorted(order) == list(range(c.n_vertices))


def test_eight_cycle_vs_b2():
    fc, _ = monomial_flag_complex(2, 2)
    assert find_isomorphism(fc, build("G(2,1,2)")) is not None


def test_g5_vs_g612_not_isomorphic():
    # same chamber count (72) but 3-regular vs degrees {6, 2}
    assert find_isomorphism(build("3[4]3"), build("2[4]6")) is None


def test_same_f_vector_non_isomorphic():
    hexagon = TypedComplex.from_facets(
        [0] * 6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = TypedComplex.from_facets(
        [0] * 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert hexagon.f_vector() == two_triangles.f_vector() == (6, 6)
    assert find_isomorphism(hexagon, two_triangles) is None


def test_respect_types_needs_consistent_bijection():
    # the type map sends join tags to the union's generator indices
    u = build("2[3]2 + 3")
    j = join(build("A2"), build("Z3"))
    type_map = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
    iso = find_isomorphism(j, u, type_map)
    assert iso is not None
    assert verify_isomorphism(j, u, iso, type_map)
    assert all(type_map[j.vertex_types[v]] == u.vertex_types[w]
               for v, w in iso.items())


def test_wrong_type_map_finds_nothing():
    # 2[3]2 + 2: A2's types have 3 vertices each, Z2's type 2 vertices, so
    # sending Z2's type to an A2 generator admits no vertex map
    u = build("2[3]2 + 2")
    j = join(build("A2"), build("Z2"))
    right = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
    assert find_isomorphism(j, u, right) is not None
    assert find_isomorphism(j, u, {(0, 0): 0, (0, 1): 2, (1, 0): 1}) is None


def test_typed_vs_untyped():
    # a 4-cycle with alternating types vs uniform types: untyped match
    # exists, typed match needs matching class sizes
    alt = TypedComplex.from_facets([0, 1, 0, 1],
                                   [(0, 1), (1, 2), (2, 3), (0, 3)])
    uni = TypedComplex.from_facets([0, 0, 0, 0],
                                   [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert find_isomorphism(alt, uni) is not None
    assert find_isomorphism(alt, uni, {0: 0, 1: 1}) is None
    assert find_isomorphism(uni, alt, {0: 0}) is None
    # a typed match that swaps the two types: a rotation by one
    swap = find_isomorphism(alt, alt, {0: 1, 1: 0})
    assert swap is not None
    assert verify_isomorphism(alt, alt, swap, {0: 1, 1: 0})
    assert not verify_isomorphism(alt, alt, swap, {0: 0, 1: 1})


def test_verify_rejects_wrong_map():
    a = build("A2")
    b = build("A3")
    assert not verify_isomorphism(a, b, {v: v for v in range(a.n_vertices)})
    assert not verify_isomorphism(a, a, {v: 0 for v in range(a.n_vertices)})
    # vertex order: types 0,0,0 then 1,1,1; swapping across types breaks edges
    swap = {v: v for v in range(a.n_vertices)}
    swap[0], swap[3] = 3, 0
    assert not verify_isomorphism(a, a, swap, {0: 0, 1: 1})


def test_empty_complexes():
    t = build("1")
    iso = find_isomorphism(t, t)
    assert iso is not None and iso == {}


def test_long_cycle_needs_no_recursion():
    # the search is one loop with an explicit stack: a 3,000-vertex cycle
    # is matched without touching the interpreter's recursion limit
    n = 3000
    a = TypedComplex.from_facets([0] * n, [(v, (v + 1) % n) for v in range(n)])
    b = TypedComplex.from_facets(
        [0] * n, [((7 * v + 3) % n, (7 * v + 10) % n) for v in range(n)])
    limit = sys.getrecursionlimit()
    iso = find_isomorphism(a, b)
    assert sys.getrecursionlimit() == limit
    assert iso is not None and verify_isomorphism(a, b, iso)


@st.composite
def _relabeled_pairs(draw):
    """A random complex (the closure of up to six facets on 1-7 vertices
    with types in {0, 1, 2}, every vertex a facet) and a copy of it under
    a random vertex relabeling, with the types carried along."""
    n = draw(st.integers(1, 7))
    types = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=4), max_size=6))
    a = TypedComplex.from_facets(
        types, [(v,) for v in range(n)] + [tuple(f) for f in facets])
    perm = draw(st.permutations(range(n)))
    moved = [None] * n
    for v in range(n):
        moved[perm[v]] = types[v]
    b = TypedComplex(moved, {k: [tuple(sorted(perm[v] for v in s))
                                 for s in a.simplices(k)]
                             for k in range(a.dim + 1)})
    return a, b


@settings(max_examples=200, deadline=None)
@given(_relabeled_pairs())
def test_isomorphism_survives_relabeling(pair):
    a, b = pair
    iso = find_isomorphism(a, b)
    assert iso is not None
    assert verify_isomorphism(a, b, iso)
    same = {t: t for t in a.vertex_types}
    typed = find_isomorphism(a, b, same)
    assert typed is not None
    assert verify_isomorphism(a, b, typed, same)
