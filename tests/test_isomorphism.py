import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from mfc.complexes import (TypedComplex, join, milnor_fiber_complex,
                           monomial_flag_complex)
from mfc.diagram import parse_symbol
from mfc.group import enumerate_group
from mfc.isomorphism import (_initial_colors, _refine, find_isomorphism,
                             verify_isomorphism)
from general_search import general_isomorphism, incidence
from strategies import admissible_unions, from_facets
from test_homology import _random_complexes


def build(sym):
    return milnor_fiber_complex(enumerate_group(parse_symbol(sym)))[0]


def _relabeled(c, perm):
    """The copy of c with each vertex v renamed perm[v], types carried
    along."""
    types = [None] * c.n_vertices
    for v, w in enumerate(perm):
        types[w] = c.vertex_types[v]
    return TypedComplex(types, {k: [tuple(sorted(perm[v] for v in s))
                                    for s in c.simplices(k)]
                                for k in range(c.dim + 1)})


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
    b = _relabeled(a, perm)
    iso = find_isomorphism(b, a)
    assert iso is not None and verify_isomorphism(b, a, iso)


def test_eight_cycle_vs_b2():
    fc, _ = monomial_flag_complex(2, 2)
    assert find_isomorphism(fc, build("G(2,1,2)")) is not None


def test_g5_vs_g612_not_isomorphic():
    # same chamber count (72) but 3-regular vs degrees {6, 2}
    assert find_isomorphism(build("3[4]3"), build("2[4]6")) is None


def test_same_f_vector_non_isomorphic():
    hexagon = from_facets(
        [0] * 6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = from_facets(
        [0] * 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert hexagon.f_vector() == two_triangles.f_vector() == (6, 6)
    assert general_isomorphism(hexagon, two_triangles) is None


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
    # 2 + 2's model is a 4-cycle, types 0, 0, 1, 1; the same cycle with
    # alternating types matches it, and with one type only untyped
    square = build("2 + 2")
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    alt = from_facets([0, 1, 0, 1], edges)
    uni = from_facets([0, 0, 0, 0], edges)
    assert find_isomorphism(uni, square) is not None
    assert find_isomorphism(uni, square, {0: 0}) is None
    assert find_isomorphism(alt, square, {0: 0, 1: 0}) is None
    same = find_isomorphism(alt, square, {0: 0, 1: 1})
    assert same is not None
    assert verify_isomorphism(alt, square, same, {0: 0, 1: 1})
    # a typed match that swaps the two types
    swap = find_isomorphism(alt, square, {0: 1, 1: 0})
    assert swap is not None
    assert verify_isomorphism(alt, square, swap, {0: 1, 1: 0})
    assert not verify_isomorphism(alt, square, swap, {0: 0, 1: 1})


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
    # the search is a loop with explicit stacks: a 3,000-vertex cycle is
    # matched onto I2(1500)'s model under a recursion limit just above
    # the caller's stack depth
    n = 3000
    b = from_facets(
        [0] * n, [((7 * v + 3) % n, (7 * v + 10) % n) for v in range(n)])
    model = build("I2(1500)")
    limit = sys.getrecursionlimit()
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(depth + 50)
    try:
        onto_model = find_isomorphism(b, model)
        assert sys.getrecursionlimit() == depth + 50
    finally:
        sys.setrecursionlimit(limit)
    assert onto_model is not None and \
        verify_isomorphism(b, model, onto_model)


@st.composite
def _relabeled_pairs(draw):
    """A random complex (the closure of up to six facets on 1-7 vertices
    with types in {0, 1, 2}, every vertex a facet) and a copy of it under
    a random vertex relabeling, with the types carried along."""
    n = draw(st.integers(1, 7))
    types = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=4), max_size=6))
    a = from_facets(
        types, [(v,) for v in range(n)] + [tuple(f) for f in facets])
    return a, _relabeled(a, draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(_relabeled_pairs())
def test_isomorphism_survives_relabeling(pair):
    # the reference search, on complexes of any shape
    a, b = pair
    iso = general_isomorphism(a, b)
    assert iso is not None
    assert verify_isomorphism(a, b, iso)
    same = {t: t for t in a.vertex_types}
    typed = general_isomorphism(a, b, same)
    assert typed is not None
    assert verify_isomorphism(a, b, typed, same)


def _refine_per_vertex(colors_a, colors_b, inc_a, inc_b):
    """Reference refinement: a vertex's signature is its color with, per
    incident simplex, the dimension and the sorted colors of the simplex's
    other vertices, re-sorted for every vertex of every simplex."""
    while True:
        interned: dict = {}

        def recolor(colors, inc):
            out = []
            for v in range(len(colors)):
                sig = (colors[v], tuple(sorted(
                    (len(s), tuple(sorted(colors[u] for u in s if u != v)))
                    for s in inc[v])))
                out.append(interned.setdefault(sig, len(interned)))
            return out

        before = len(set(colors_a) | set(colors_b))
        colors_a = recolor(colors_a, inc_a)
        colors_b = recolor(colors_b, inc_b)
        if len(set(colors_a) | set(colors_b)) == before:
            return colors_a, colors_b


def _assert_refine_matches_reference(a, b, tmap=None):
    start = _initial_colors(a, b, tmap)
    assert _refine(*start, a, b) == \
        _refine_per_vertex(*start, incidence(a), incidence(b))


@settings(max_examples=200, deadline=None)
@given(_random_complexes(), _relabeled_pairs())
def test_refine_matches_per_vertex_signatures(c, pair):
    _assert_refine_matches_reference(c, c)
    a, b = pair
    _assert_refine_matches_reference(a, b)
    _assert_refine_matches_reference(a, b, {t: t for t in a.vertex_types})
    _assert_refine_matches_reference(c, a)


def test_refine_matches_per_vertex_signatures_on_models_and_walls():
    from mfc.diagram import enumerate_admissible
    from mfc.homology import reduced_betti
    from mfc.verify import GroupContext
    from mfc.walls import _model_complex, predicted_bouquet_count
    for sym in ("G(3,1,2)", "B3", "G25"):
        a = build(sym)
        n = a.n_vertices
        perm = list(range(n))
        random.Random(n).shuffle(perm)
        _assert_refine_matches_reference(a, _relabeled(a, perm))
    # each wall against the model of every candidate its bouquet admits
    for sym in ("D4", "F4", "G26"):
        ctx = GroupContext(parse_symbol(sym))
        for rep in ctx.refl_classes:
            w = ctx.fixed_of(rep)
            rank = ctx.table.ngens - 1
            bouquet = reduced_betti(w).concentrated_value(rank - 1)
            for d in enumerate_admissible(rank, len(w.simplices(rank - 1))):
                if predicted_bouquet_count(d) == bouquet:
                    _assert_refine_matches_reference(w, _model_complex(d))


# ---------------------------------------------------------------------------
# the search onto a model, anchored at its identity chamber
# ---------------------------------------------------------------------------

def test_model_search_fixed_cases():
    # the hexagon is A2's model; two triangles have its f-vector but are
    # not gallery connected
    a2 = build("A2")
    hexagon = from_facets(
        [0] * 6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = from_facets(
        [0] * 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert hexagon.f_vector() == two_triangles.f_vector() == a2.f_vector()
    assert find_isomorphism(two_triangles, a2) is None
    iso = find_isomorphism(hexagon, a2)
    assert iso is not None and verify_isomorphism(hexagon, a2, iso)
    # 0-dimensional: any bijection, and a wrong vertex count fails
    points = TypedComplex([0] * 5, {0: [(v,) for v in range(5)]})
    iso = find_isomorphism(points, build("Z5"))
    assert iso is not None and verify_isomorphism(points, build("Z5"), iso)
    assert find_isomorphism(points, build("Z4")) is None
    # the empty complex
    assert find_isomorphism(build("1"), build("1")) == {}
    # equal f-vectors (72 chambers), not isomorphic
    assert find_isomorphism(build("3[4]3"), build("2[4]6")) is None
    # two graphs with equal f-vectors, not isomorphic: a chamber is
    # completed before it is read, and only its completion check rejects
    # the map that the extension builds
    a = from_facets([0] * 6, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3),
        (2, 5), (3, 5)])
    b = from_facets([0] * 6, [
        (0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 5),
        (3, 4), (4, 5)])
    assert general_isomorphism(a, b) is None
    assert find_isomorphism(a, b) is None


def test_typed_search_on_points():
    # a two-type point set onto Z5's model, whose five vertices have type
    # 0: a bijection only when both types go to 0
    z5 = build("Z5")
    points = TypedComplex([0, 0, 1, 1, 1], {0: [(v,) for v in range(5)]})
    both = {0: 0, 1: 0}
    iso = find_isomorphism(points, z5, both)
    assert iso is not None and verify_isomorphism(points, z5, iso, both)
    assert find_isomorphism(points, z5, {0: 0, 1: 1}) is None
    assert find_isomorphism(points, z5, {0: 0}) is None


@settings(max_examples=30, deadline=None)
@given(admissible_unions(), st.randoms(use_true_random=False))
def test_model_search_finds_relabeled_models(d, rnd):
    model = milnor_fiber_complex(enumerate_group(d))[0]
    # the model's first chamber is its identity chamber: its type-r
    # vertex is the first id of type r
    assert list(model.simplices(model.dim)[0]) \
        == [model.vertex_types.index(r) for r in range(d.rank)]
    perm = list(range(model.n_vertices))
    rnd.shuffle(perm)
    copy = _relabeled(model, perm)
    iso = find_isomorphism(copy, model)
    assert iso is not None and verify_isomorphism(copy, model, iso)
    same = {r: r for r in range(d.rank)}
    iso = find_isomorphism(copy, model, same)
    assert iso is not None and verify_isomorphism(copy, model, iso, same)
    if copy.dim == 1:
        # a switch of two edges keeps every degree, so the f-vector and
        # the colors, and mostly breaks the isomorphism; any map found
        # must still verify
        (a1, b1), (a2, b2) = (sorted(e, key=copy.vertex_types.__getitem__)
                              for e in rnd.sample(copy.simplices(1), 2))
        edges = set(copy.simplices(1)) - {tuple(sorted((a1, b1))),
                                          tuple(sorted((a2, b2)))}
        edges |= {tuple(sorted((a1, b2))), tuple(sorted((a2, b1)))}
        if len(edges) == len(copy.simplices(1)):
            switched = TypedComplex(copy.vertex_types,
                                    {0: copy.simplices(0), 1: edges})
            iso = find_isomorphism(switched, model)
            assert iso is None or verify_isomorphism(switched, model, iso)


def test_model_search_restarts_from_refined_colors(monkeypatch):
    # G17's model (2[6]5, 840 vertices) is thick with long cycles: the
    # plain extension runs over its budget, and the search starts again
    # from colors refined around the pinned chamber
    import mfc.isomorphism
    model = build("G17")
    perm = list(range(model.n_vertices))
    random.Random(1).shuffle(perm)
    copy = _relabeled(model, perm)
    real = mfc.isomorphism._refine
    refined = []

    def spy(*args):
        refined.append(args)
        return real(*args)

    monkeypatch.setattr(mfc.isomorphism, "_refine", spy)
    iso = find_isomorphism(copy, model)
    assert refined
    assert iso is not None and verify_isomorphism(copy, model, iso)
