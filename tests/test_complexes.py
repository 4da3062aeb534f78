import time
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfc.complexes import (DEFAULT_SIMPLEX_CAP, ChamberSystem,
                           SimplexCapExceeded, TypedComplex, _face_closure,
                           _reindexed, export_complex, join,
                           milnor_fiber_complex, monomial_flag_complex,
                           order_f_vector, order_vertex_profile,
                           simplex_count, vertex_profile)
from mfc.diagram import (basic_degrees, diagram_name, enumerate_admissible,
                         group_order, parse_symbol)
from mfc.group import _subgroup_tree, enumerate_group, parabolic_cosets
from mfc.homology import reduced_betti
from mfc.isomorphism import find_isomorphism, verify_isomorphism
from mfc.walls import predicted_bouquet_count
from strategies import admissible_unions, from_facets, mul, relabeled


def build(sym, **kw):
    t = enumerate_group(parse_symbol(sym))
    return (t,) + milnor_fiber_complex(t, **kw)


@pytest.fixture(scope="module")
def a3():
    return build("A3")


def test_a3_f_vector(a3):
    _t, cx, _cs = a3
    assert cx.f_vector() == (14, 36, 24)
    assert sum((-1) ** k * f for k, f in enumerate(cx.f_vector())) == 2


def test_g312_shape():
    _t, cx, _cs = build("G(3,1,2)")
    assert cx.f_vector() == (15, 18)
    assert [cx.vertex_types.count(k) for k in (0, 1)] == [6, 9]


def test_rank1_complex():
    _t, cx, _cs = build("Z5")
    assert cx.f_vector() == (5,)
    assert cx.dim == 0


def test_trivial_group_complex():
    _t, cx, _cs = build("1")
    assert cx.dim == -1 and cx.f_vector() == ()


def test_chambers_biject_with_group():
    for sym in ("A3", "G(3,1,2)", "H3", "2[3]2 + 4", "G25"):
        t, cx, _cs = build(sym)
        assert len(cx.simplices(cx.dim)) == t.order == group_order(t.diagram)


def test_chamber_adjacency_connected():
    # consecutive chambers sharing a codimension-1 face connect everything
    for sym in ("A3", "G(3,1,2)", "2[3]2 + 4"):
        _t, cx, _cs = build(sym)
        top = cx.simplices(cx.dim)
        index = {s: i for i, s in enumerate(top)}
        panels = {}
        for s in top:
            for v in s:
                panels.setdefault(tuple(x for x in s if x != v), []).append(index[s])
        parent = list(range(len(top)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for members in panels.values():
            for other in members[1:]:
                parent[find(other)] = find(members[0])
        assert len({find(i) for i in range(len(top))}) == 1, sym


def test_action_type_preserving_and_simply_transitive():
    for sym in ("A3", "G(3,1,2)", "3[3]3"):
        t, cx, cs = build(sym)
        chambers = set(cx.simplices(cx.dim))

        def image(perm, s):
            return tuple(sorted(perm[v] for v in s))

        for g in t.gen_elements:
            perm = cs.vertex_perm(g)
            for v in range(cx.n_vertices):
                assert cx.vertex_types[perm[v]] == cx.vertex_types[v]
            assert {image(perm, s) for s in chambers} == chambers
        # nonidentity elements move every chamber (simple transitivity)
        for g in range(1, min(t.order, 8)):
            perm = cs.vertex_perm(g)
            assert all(image(perm, s) != s for s in chambers), (sym, g)


def test_left_translation_is_left_multiplication():
    # one pass along the parent links gives g * x for every x, and the
    # chamber of g * x is g's image of the chamber of x
    for sym in ("A3", "G(3,1,2)", "2[3]2 + 4", "Z5", "1"):
        t, _cx, cs = build(sym)
        for g in (0, t.order - 1, t.order // 2):
            left = t.left_translation(g)
            assert left == [mul(t, g, x) for x in range(t.order)], (sym, g)
        for g in t.gen_elements:
            left = t.left_translation(g)
            perm = cs.vertex_perm(g)
            for col in cs.chamber:
                assert [col[y] for y in left] == [perm[v] for v in col]


def test_vertex_perm_is_word_composition():
    # the identity fixes every vertex, every element preserves types, and
    # g's permutation is the generators' composed along g's word
    for sym in ("A3", "G(3,1,2)", "3[3]3", "I2(5)"):
        t, _cx, cs = build(sym)
        types = cs.vertex_types
        ident = list(range(len(types)))
        assert cs.vertex_perm(0) == ident, sym
        gens = [cs.vertex_perm(g) for g in t.gen_elements]
        for g in range(t.order):
            perm = cs.vertex_perm(g)
            assert [types[w] for w in perm] == list(types), (sym, g)
            want = ident
            for letter in reversed(t.word(g)):
                want = [gens[letter][v] for v in want]
            assert perm == want, (sym, g)


def test_rank1_fixed_vertices_match_vertex_perm():
    # at rank 1 fixed_vertices answers without a translation; it must
    # agree with the vertices that vertex_perm leaves in place
    for m in range(2, 41):
        t = enumerate_group(parse_symbol("Z%d" % m))
        cs = ChamberSystem(t)
        for g in range(m):
            assert cs.fixed_vertices(g) == tuple(
                v for v, w in enumerate(cs.vertex_perm(g)) if v == w), (m, g)


def test_join_with_trivial_is_identity():
    _t, cx, _cs = build("2[3]2")
    _t2, triv, _cs2 = build("1")
    j = join(cx, triv)
    assert j.f_vector() == cx.f_vector()
    assert find_isomorphism(j, cx) is not None


def test_join_square():
    _t, a1, _ = build("A1")
    assert join(a1, a1).f_vector() == (4, 4)


def test_join_matches_union_diagram():
    u = build("2[3]2 + 3")[1]
    j = join(build("A2")[1], build("Z3")[1])
    # the join tags A2's types (0, t) and Z3's (1, t); in the union A2 has
    # generators 0, 1 and Z3 generator 2
    type_map = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
    iso = find_isomorphism(j, u, type_map)
    assert iso is not None
    assert verify_isomorphism(j, u, iso, type_map)


def test_link_of_vertex_is_parabolic_complex():
    # link of a type-r vertex is the complex of the
    # parabolic on the remaining generators, type-respectingly
    for sym in ("A3", "G(3,1,2)", "G26"):
        d = parse_symbol(sym)
        t, cx, _cs = build(sym)
        for r in range(d.rank):
            v = cx.vertex_types.index(r)
            sub = d.induced([x for x in range(d.rank) if x != r])
            model = milnor_fiber_complex(enumerate_group(sub))[0]
            # the link of v: each simplex through v with v removed
            link = _reindexed(_face_closure(
                (tuple(x for x in s if x != v), 0)
                for k in range(1, cx.dim + 1) for s in cx.simplices(k)
                if v in s), cx.vertex_types)
            # the link's types R - {r}, ascending, are the parabolic's
            type_map = {x: i for i, x in
                        enumerate(x for x in range(d.rank) if x != r)}
            iso = find_isomorphism(link, model, type_map)
            assert iso is not None, (sym, r)


def test_monomial_flag_examples():
    fc, _p = monomial_flag_complex(3, 2)
    cx = build("G(3,1,2)")[1]
    # the sets of size k + 1 are the cosets of type k
    assert find_isomorphism(fc, cx, {0: 0, 1: 1}) is not None
    fc, _p = monomial_flag_complex(2, 2)
    assert fc.f_vector() == (8, 8)
    fc, _p = monomial_flag_complex(5, 1)
    assert fc.f_vector() == (5,)
    with pytest.raises(ValueError):
        monomial_flag_complex(1, 2)


def _all_pairs_flag_complex(m, n):
    """The flag complex and generator permutations of G(m,1,n) as first
    written, and its sets in id order: every pair of sets is tested for
    strict inclusion."""
    verts = sorted((frozenset(zip(coords, labels))
                    for k in range(1, n + 1)
                    for coords in combinations(range(n), k)
                    for labels in product(range(m), repeat=k)),
                   key=lambda s: (len(s), sorted(s)))
    vid = {s: i for i, s in enumerate(verts)}
    supersets = [[j for j, u in enumerate(verts) if s < u] for s in verts]
    by_dim, stack = {}, [(i,) for i in range(len(verts))]
    while stack:
        chain = stack.pop()
        by_dim.setdefault(len(chain) - 1, []).append(tuple(sorted(chain)))
        stack.extend(chain + (j,) for j in supersets[chain[-1]])

    def act(gen, s):
        if gen < n - 1:
            swap = {gen: gen + 1, gen + 1: gen}
            return frozenset((swap.get(c, c), a) for c, a in s)
        return frozenset((c, (a + 1) % m if c == n - 1 else a) for c, a in s)

    perms = [[vid[act(gen, s)] for s in verts] for gen in range(n)]
    return TypedComplex([len(s) - 1 for s in verts], by_dim), perms, verts


def test_monomial_flag_complex_matches_all_pairs_reference():
    for m, n in ((2, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)):
        fc, perms = monomial_flag_complex(m, n)
        want, want_perms, _verts = _all_pairs_flag_complex(m, n)
        assert fc.by_dim == want.by_dim, (m, n)
        assert fc.vertex_types == want.vertex_types, (m, n)
        assert perms == want_perms, (m, n)


def test_identity_flag_is_first_vertex_of_its_type():
    # the sets run by size, then as sorted lists, so E_k = {(0, 0), ...,
    # (k, 0)} is the first set of size k + 1; every generator but the
    # k-th fixes it, as the identity chamber's stabilizers fix its
    # type-k vertex
    for m in range(2, 6):
        for n in range(1, 4):
            fc, perms = monomial_flag_complex(m, n)
            _want, _perms, verts = _all_pairs_flag_complex(m, n)
            for k in range(n):
                e_k = fc.vertex_types.index(k)
                assert verts[e_k] == frozenset((i, 0) for i in range(k + 1))
                assert [perms[j][e_k] == e_k for j in range(n)] == \
                    [j != k for j in range(n)], (m, n, k)


def test_flag_cap_checked_before_build():
    # G(9,1,5)'s complex has about 3.5e7 simplices; the cap is read off
    # its group orders before any of its 99,999 sets is built
    t0 = time.monotonic()
    with pytest.raises(SimplexCapExceeded):
        monomial_flag_complex(9, 5)
    assert time.monotonic() - t0 < 5


def _per_coset_complex(t):
    """The coset complex built type subset by type subset: one coset
    partition of G_{R - I} per nonempty I, each coset's vertices read off
    its representative."""
    n = t.ngens
    R = list(range(n))
    vmaps = [parabolic_cosets(t, [x for x in R if x != r]) for r in R]
    offsets = [sum(p.n_blocks for p in vmaps[:r]) for r in R]
    by_dim = {}
    for mask in range(1, 1 << n):
        I = [r for r in R if mask >> r & 1]
        part = parabolic_cosets(t, [r for r in R if not mask >> r & 1])
        cols = [[offsets[r] + vmaps[r].block_of[g] for g in part.reps]
                for r in I]
        by_dim.setdefault(len(I) - 1, []).extend(zip(*cols))
    types = [r for r in R for _b in range(vmaps[r].n_blocks)]
    perms = []
    for i in range(n):
        perm = [0] * len(types)
        for r in R:
            bl = vmaps[r].block_of
            for g in vmaps[r].reps:
                perm[offsets[r] + bl[g]] = \
                    offsets[r] + bl[mul(t, t.gen_elements[i], g)]
        perms.append(perm)
    return TypedComplex(types, by_dim), perms


def test_complex_matches_per_coset_construction():
    # the walls tests' property groups, plus F4, a product, rank 1 and 0
    for sym in ("B3", "H3", "G25", "G(3,1,3)", "I2(7)", "F4", "2[3]2 + 4",
                "Z5", "1"):
        t, cx, cs = build(sym)
        want, perms = _per_coset_complex(t)
        assert cx.by_dim == want.by_dim, sym
        assert cx.vertex_types == want.vertex_types, sym
        # the coset in block b of type r is the vertex id offsets[r] + b
        # in both
        assert [cs.vertex_perm(g) for g in t.gen_elements] == perms, sym


def test_complex_matches_restriction_of_every_type_set():
    # the complex reads its vertices as the ids 0..V-1 and restricts the
    # chambers only to type sets of two or more types: the same complex
    # as restricting them to all 2^n - 1 type sets, ranks 1 to 4
    for sym in ("Z5", "I2(7)", "G8", "2[3]2 + 4", "A3", "G(3,1,3)", "A4",
                "D4", "G(3,1,4)"):
        t, cx, cs = build(sym)
        by_dim = {}
        for mask in range(1, 1 << t.ngens):
            by_dim.setdefault(bin(mask).count("1") - 1, []).extend(
                set(zip(*(col for r, col in enumerate(cs.chamber)
                          if mask >> r & 1))))
        assert cx.by_dim == TypedComplex(cs.vertex_types, by_dim).by_dim, sym
        assert cx.vertex_types == cs.vertex_types, sym


def test_simplex_cap(monkeypatch):
    # both complexes read the module's cap when they are built, and both
    # check their simplex count before building (the flag model G(m,1,n)'s)
    import mfc.complexes
    t = enumerate_group(parse_symbol("H3"))
    total = simplex_count(t.diagram, DEFAULT_SIMPLEX_CAP)
    monkeypatch.setattr(mfc.complexes, "DEFAULT_SIMPLEX_CAP", total)
    assert milnor_fiber_complex(t)[0].n_simplices() == total
    monkeypatch.setattr(mfc.complexes, "DEFAULT_SIMPLEX_CAP", total - 1)
    with pytest.raises(SimplexCapExceeded):
        milnor_fiber_complex(t)
    flag_total = monomial_flag_complex(2, 2)[0].n_simplices()
    monkeypatch.setattr(mfc.complexes, "DEFAULT_SIMPLEX_CAP", flag_total)
    assert monomial_flag_complex(2, 2)[0].n_simplices() == flag_total
    monkeypatch.setattr(mfc.complexes, "DEFAULT_SIMPLEX_CAP", flag_total - 1)
    with pytest.raises(SimplexCapExceeded):
        monomial_flag_complex(2, 2)


def test_simplex_count_matches_complex():
    # the count from group orders alone is the built complex's
    for sym in ("B3", "H3", "G25", "G26", "D4", "F4", "G(3,1,3)", "I2(7)",
                "Z5", "2[3]2 + 4", "1"):
        t, cx, _cs = build(sym)
        assert simplex_count(t.diagram, DEFAULT_SIMPLEX_CAP) == \
            cx.n_simplices(), sym
    with pytest.raises(SimplexCapExceeded):
        simplex_count(parse_symbol("H3"), 100)


def _suite_symbols(deep=False):
    from mfc.verify import default_suite
    return [e["symbol"] for e in default_suite(deep)["entries"]
            if "symbol" in e]


# every default-suite group of rank >= 3, and a spread of rank <= 2
SPREAD = [s for s in _suite_symbols() if parse_symbol(s).rank >= 3] + [
    "1", "Z2", "Z3", "Z97", "Z1000", "I2(3)", "I2(8)", "I2(31)", "I2(500)",
    "G(2,1,2)", "G(5,1,2)", "G(12,1,2)", "G(31,1,2)", "G4", "G8", "G21"]


def test_chamber_f_vector_matches_complex():
    # |G| / |K_I| summed by the size of I is the built complex's f-vector
    for sym in SPREAD:
        _t, cx, cs = build(sym)
        assert cs.f_vector() == cx.f_vector(), sym


@pytest.mark.deep
def test_chamber_f_vector_matches_complex_default_suite():
    for sym in _suite_symbols():
        _t, cx, cs = build(sym)
        assert cs.f_vector() == cx.f_vector(), sym


def _assert_k_is_parabolic(sym):
    """K_{R - J}, the elements whose chamber shares the identity
    chamber's vertex of every type outside J, is the parabolic G_J, for
    every proper J: the cosets ParabolicData counts are the ones the
    chambers, fixed subcomplexes and f-vector read."""
    t = enumerate_group(parse_symbol(sym))
    cs = ChamberSystem(t)
    n = t.ngens
    for mask in range((1 << n) - 1):
        J = [i for i in range(n) if mask >> i & 1]
        k = [x for x in range(t.order)
             if all(cs.chamber[r][x] == cs.chamber[r][0]
                    for r in range(n) if r not in J)]
        members, _tree = _subgroup_tree(t, J)
        assert k == sorted(members), (sym, J)


def test_k_is_parabolic():
    for sym in SPREAD:
        _assert_k_is_parabolic(sym)


@pytest.mark.deep
def test_k_is_parabolic_deep_suite():
    for sym in _suite_symbols(deep=True):
        _assert_k_is_parabolic(sym)


def _exported_lines(cx, path):
    """The header, the v: lines split into fields and the f: lines as
    vertex tuples of the MFC-COMPLEX file written for cx."""
    export_complex(cx, path)
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    verts = [ln.split() for ln in lines if ln.startswith("v: ")]
    facets = [tuple(int(x) for x in ln.split()[1:])
              for ln in lines if ln.startswith("f: ")]
    assert len(verts) + len(facets) == len(lines)
    return header, verts, facets


def test_export_import_roundtrip(tmp_path, a3):
    # the written vertex types and facets read back as the complex's own
    _t, cx, _cs = a3
    header, verts, facets = _exported_lines(cx, str(tmp_path / "a3.mfc"))
    assert header == "MFC-COMPLEX v1 14 24"
    assert verts == [["v:", str(v), str(r)]
                     for v, r in enumerate(cx.vertex_types)]
    assert tuple(facets) == cx.chambers()
    assert from_facets(cx.vertex_types, facets).by_dim == cx.by_dim


def test_export_import_tagged_types(tmp_path):
    # a join tags each type with its factor: (0, r) is written "0.r"
    j = join(build("A1")[1], build("Z3")[1])
    _h, verts, facets = _exported_lines(j, str(tmp_path / "join.mfc"))
    assert [tok for _v, _id, tok in verts] == \
        ["%d.%d" % ty for ty in j.vertex_types]
    assert tuple(facets) == j.chambers()
    # a join of joins nests the tags, and each type is still one token
    jj = join(j, build("A1")[1])
    _h, verts, _f = _exported_lines(jj, str(tmp_path / "join2.mfc"))
    assert [tok for _v, _id, tok in verts] == \
        ["0.%d.%d" % t for _i, t in jj.vertex_types[:j.n_vertices]] + \
        ["1.%d" % t for _i, t in jj.vertex_types[j.n_vertices:]]


def test_from_facets_closes_faces():
    c = from_facets([0, 1, 2], [(0, 1, 2)])
    assert c.f_vector() == (3, 3, 1)
    assert c.chambers() == ((0, 1, 2),)


def _dfs_closure(simplices) -> set:
    """Every nonempty face, by a depth-first walk dropping one vertex at
    a time."""
    seen = {tuple(sorted(s)) for s in simplices if s}
    stack = list(seen)
    while stack:
        s = stack.pop()
        for v in s:
            f = tuple(x for x in s if x != v)
            if f and f not in seen:
                seen.add(f)
                stack.append(f)
    return seen


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5),
                max_size=6),
       st.data())
def test_face_closure_matches_dfs(facets, data):
    c = from_facets([v % 3 for v in range(8)], facets)
    closed = _dfs_closure(facets)
    assert {s for ss in c.by_dim.values() for s in ss} == closed
    assert all(len(s) == k + 1 for k, ss in c.by_dim.items() for s in ss)
    # a subfamily's closure, renumbered in the order of the old vertex ids
    family = data.draw(st.lists(st.sampled_from(sorted(closed)), max_size=5)
                       if closed else st.just([]))
    sub = _reindexed(_face_closure((s, 0) for s in family), c.vertex_types)
    want = _dfs_closure(family)
    # vertex k of sub is the k-th smallest old id among its vertices
    old_ids = sorted({v for s in want for v in s})
    assert sub.vertex_types == tuple(v % 3 for v in old_ids)
    assert {tuple(old_ids[v] for v in s)
            for ss in sub.by_dim.values() for s in ss} == want


def _assert_order_invariants_match(d):
    cx = milnor_fiber_complex(enumerate_group(d))[0]
    assert order_f_vector(d) == cx.f_vector(), diagram_name(d)
    assert order_vertex_profile(d) == vertex_profile(cx), diagram_name(d)


def test_order_invariants_match_built_models():
    # the f-vector and vertex profile from group orders assume K_I =
    # G_{R-I}; every admissible diagram of rank <= 3 and order <= 500,
    # against its built model
    for rank in range(4):
        for order in range(1, 501):
            for d in enumerate_admissible(rank, order):
                _assert_order_invariants_match(d)


@settings(max_examples=100, deadline=None)
@given(admissible_unions(), st.randoms(use_true_random=False))
def test_order_level_oracle_on_random_diagrams(d, rnd):
    # on random unions of admissible rows, each relabeled at random (the
    # order-level memos key on the diagram's value): the f-vector and
    # vertex profile from group orders, the chamber count from the
    # degrees and the bouquet count all match the built complex
    perm = list(range(d.rank))
    rnd.shuffle(perm)
    d = relabeled(d, perm)
    name = diagram_name(d)
    cx = milnor_fiber_complex(enumerate_group(d))[0]
    assert order_f_vector(d) == cx.f_vector(), name
    assert order_vertex_profile(d) == vertex_profile(cx), name
    assert cx.f_vector()[-1] == prod(basic_degrees(d)), name
    assert reduced_betti(cx).concentrated_value(d.rank - 1) \
        == predicted_bouquet_count(d), name


@pytest.mark.deep
def test_order_invariants_match_built_models_rank4():
    # every admissible diagram of rank 4 and order <= 2000 (about 9,500)
    for order in range(1, 2001):
        for d in enumerate_admissible(4, order):
            _assert_order_invariants_match(d)
