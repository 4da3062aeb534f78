from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfc.complexes import (ChamberSystem, TypedComplex, _face_closure,
                           milnor_fiber_complex)
from mfc.diagram import (basic_degrees, components_with_indices, diagram_name,
                         enumerate_admissible, group_order, parse_symbol)
from mfc.group import (_subgroup_tree, conjugacy_classes, enumerate_group,
                       parabolic_cosets, reflection_classes)
from mfc.homology import reduced_betti
from mfc.isomorphism import verify_isomorphism
from mfc.verify import GroupContext
from mfc.walls import (ParabolicData, RecognitionVerdict,
                       _model_complex, _reindexed, _type_families,
                       chamber_count_check, fixed_subcomplex,
                       milnor_wall_search, predicted_bouquet_count,
                       recognize_milnor_fiber)
from general_search import general_isomorphism
from strategies import admissible_unions, from_facets, mul

# groups for the property tests of walls and parabolic data: real,
# complex, monomial and dihedral, ranks 2 and 3
PROPERTY_GROUPS = ("B3", "H3", "G25", "G(3,1,3)", "I2(7)")


def setup(sym):
    t = enumerate_group(parse_symbol(sym))
    cx, cs = milnor_fiber_complex(t)
    return t, cx, cs


def generated(c, simplices):
    """The closure of some simplices of c, on fresh vertex ids in the
    order of the old ones."""
    return _reindexed(_face_closure((s, 0) for s in simplices),
                      c.vertex_types)


def wall_of(cs, g):
    """The wall of element g: the full subcomplex on its fixed vertices."""
    return fixed_subcomplex(cs, cs.fixed_vertices(g))


def ambient(w, fixed):
    """The simplices of the wall w on the vertices ``fixed``, in the ids
    of the built complex: the wall's vertex k is fixed[k]."""
    return {tuple(map(fixed.__getitem__, s))
            for k in range(w.dim + 1) for s in w.simplices(k)}


def simplices_within(cx, keep):
    """The simplices of cx whose vertices all lie in keep."""
    return {s for k in range(cx.dim + 1) for s in cx.simplices(k)
            if keep.issuperset(s)}


def euler(c):
    return sum((-1) ** k * len(v) for k, v in c.by_dim.items())


@pytest.fixture(scope="module")
def g25():
    return setup("G25")


@pytest.fixture(scope="module")
def g26():
    return setup("G26")


def test_fixed_subcomplex_identity_and_reflection():
    t, cx, cs = setup("2[3]2")
    assert wall_of(cs, 0).f_vector() == cx.f_vector()
    w = wall_of(cs, t.gen_elements[0])
    assert w.f_vector() == (2,)


def test_fixed_setwise_implies_pointwise():
    # every simplex fixed setwise has all its
    # vertices fixed
    for sym in ("A3", "G(3,1,2)", "3[3]3", "B3"):
        t, cx, cs = setup(sym)
        for g in range(1, min(t.order, 30)):
            perm = cs.vertex_perm(g)
            for k in range(cx.dim + 1):
                for s in cx.simplices(k):
                    if tuple(sorted(perm[v] for v in s)) == s:
                        assert all(perm[v] == v for v in s), (sym, g, s)


def test_g25_wall_counts_and_betti(g25):
    t, cx, cs = g25
    for rep in reflection_classes(t).reps:
        w = wall_of(cs, rep)
        assert w.f_vector()[1] == 54
        assert reduced_betti(w).concentrated_value(1) == 25


def test_walls_of_conjugate_reflections_isomorphic():
    t, cx, cs = setup("G(3,1,2)")
    class_of = conjugacy_classes(t).class_of
    for rep in reflection_classes(t).reps:
        members = [x for x in range(t.order) if class_of[x] == class_of[rep]]
        w0 = wall_of(cs, rep)
        for other in members[:2]:
            w1 = wall_of(cs, other)
            assert general_isomorphism(w0, w1) is not None


def test_conjugate_wall_is_translated_wall():
    # the fixed simplices of h r h^{-1} are exactly h applied to those of r
    t, cx, cs = setup("3[3]3")

    def ambient_simplices(g):
        fixed = cs.fixed_vertices(g)
        return ambient(fixed_subcomplex(cs, fixed), fixed)

    for rep in reflection_classes(t).reps:
        w_r = ambient_simplices(rep)
        for h in (t.gen_elements[0], t.gen_elements[1], 5):
            h_inv = next(y for y in range(t.order) if mul(t, h, y) == 0)
            conj = mul(t, mul(t, h, rep), h_inv)
            perm = cs.vertex_perm(h)
            translated = {tuple(sorted(perm[v] for v in s)) for s in w_r}
            assert translated == ambient_simplices(conj)


def test_fixed_space_dim(g25):
    # dim V^g is the dimension of the fixed subcomplex plus one
    def fixed_space_dim(cs, g):
        return wall_of(cs, g).dim + 1

    t, cx, cs = g25
    assert fixed_space_dim(cs, 0) == 3
    rep = reflection_classes(t).reps[0]
    assert fixed_space_dim(cs, rep) == 2
    # H3 central -1 fixes only the empty simplex
    t, cx, cs = setup("H3")
    cls = conjugacy_classes(t)
    central = [cls.reps[c] for c in range(cls.n_classes)
               if cls.sizes[c] == 1 and cls.reps[c] != 0]
    assert len(central) == 1
    assert fixed_space_dim(cs, central[0]) == 0


def test_fixed_subcomplex_matches_setwise_filter():
    # the old construction: keep every simplex whose image, sorted, is
    # itself, and renumber its vertices in increasing order
    for sym in PROPERTY_GROUPS:
        t, cx, cs = setup(sym)
        for g in range(t.order):
            perm = cs.vertex_perm(g)
            fixed = [s for k in range(cx.dim + 1) for s in cx.simplices(k)
                     if tuple(sorted(perm[v] for v in s)) == s]
            old_ids = sorted(s[0] for s in fixed if len(s) == 1)
            new_id = {v: i for i, v in enumerate(old_ids)}
            want = {}
            for s in fixed:
                want.setdefault(len(s) - 1, []).append(
                    tuple(sorted(new_id[v] for v in s)))
            sub = wall_of(cs, g)
            assert sub.by_dim == {k: tuple(sorted(v))
                                  for k, v in want.items()}, (sym, g)
            assert sub.vertex_types == tuple(cx.vertex_types[v]
                                             for v in old_ids)
            assert cs.fixed_vertices(g) == tuple(old_ids), (sym, g)


def _assert_induced_on_fixed_vertices(cx, cs, g, label):
    """wall_of(cs, g) is the full subcomplex of cx on the vertices that
    g's permutation fixes, with cx's types, its vertex k the k-th."""
    perm = cs.vertex_perm(g)
    keep = {v for v, w in enumerate(perm) if v == w}
    fixed = cs.fixed_vertices(g)
    assert fixed == tuple(sorted(keep)), (label, g)
    got = wall_of(cs, g)
    assert ambient(got, fixed) == simplices_within(cx, keep), (label, g)
    assert got.vertex_types == tuple(cx.vertex_types[v] for v in fixed), \
        (label, g)
    return got


def test_fixed_subcomplex_matches_induced_on_fixed_vertices():
    # the chamber route equals the full subcomplex of the built complex on
    # the vertices that g's word-composed permutation fixes, for one
    # element of every conjugacy class.  At rank <= 2 an element g != 1
    # fixes points or nothing; in I2(17), G8 and G20 some g fixes a vertex
    # of each type
    for sym in ("B3", "H3", "G25", "G26", "D4", "F4", "G(3,1,3)", "I2(7)",
                "Z5", "2[3]2 + 4", "1", "I2(17)", "G8", "G20", "Z7"):
        t, cx, cs = setup(sym)
        both_types = False
        for g in conjugacy_classes(t).reps:
            got = _assert_induced_on_fixed_vertices(cx, cs, g, sym)
            if g and t.ngens <= 2:
                assert got.dim <= 0, (sym, g)
                both_types |= len(set(got.vertex_types)) == 2
        if sym in ("I2(17)", "G8", "G20"):
            assert both_types, sym


@settings(max_examples=25, deadline=None)
@given(admissible_unions(), st.data())
def test_fixed_subcomplex_is_induced_on_random_diagrams(d, data):
    # the same identity for a few class representatives of each drawn
    # union of admissible rows of rank <= 3
    t = enumerate_group(d)
    cx, cs = milnor_fiber_complex(t)
    reps = data.draw(st.lists(st.sampled_from(conjugacy_classes(t).reps),
                              min_size=1, max_size=3, unique=True))
    for g in reps:
        _assert_induced_on_fixed_vertices(cx, cs, g, diagram_name(d))


@settings(max_examples=25, deadline=None)
@given(admissible_unions(max_order=700))
def test_reflections_fixing_the_same_vertices_share_their_wall(d):
    # why a wall may be named by its fixed vertices: two reflections that
    # fix the same vertices (in a Shephard group, r and its powers, often
    # in other classes) fix the same simplices, so the wall built from
    # those vertices is, by the definition, the wall of each of them, and
    # each gets the same verdict
    t = enumerate_group(d)
    cx, cs = milnor_fiber_complex(t)
    classes = conjugacy_classes(t)
    refl = {classes.class_of[r] for r in reflection_classes(t, classes).reps}
    sharing = {}
    for g in range(t.order):
        if classes.class_of[g] in refl:
            sharing.setdefault(cs.fixed_vertices(g), []).append(g)
    for fixed, rs in sharing.items():
        if len(rs) < 2:
            continue
        w = fixed_subcomplex(cs, fixed)
        verdicts = set()
        for r in rs:
            perm = cs.vertex_perm(r)
            fixed_setwise = [s for k in range(cx.dim + 1)
                             for s in cx.simplices(k)
                             if tuple(sorted(map(perm.__getitem__, s))) == s]
            assert set(fixed_setwise) == ambient(w, fixed), \
                (diagram_name(d), r)
            verdicts.add(repr(recognize_milnor_fiber(
                generated(cx, fixed_setwise), d.rank - 1).to_jsonable()))
        assert len(verdicts) == 1, (diagram_name(d), fixed)


@settings(max_examples=40, deadline=None)
@given(admissible_unions(), st.data())
def test_coset_oracle_on_random_diagrams(d, data):
    # K_I, the elements whose chamber shares the identity chamber's
    # type-r vertex for every r in I, is the parabolic G_{R - I}; on an
    # irreducible draw, the wall of each of a few reflection classes,
    # built from the chambers, has the parabolic coset counts as its
    # f-vector, and d_1...d_{n-1} chambers (Eq. (8))
    name, n = diagram_name(d), d.rank
    t = enumerate_group(d)
    cs = ChamberSystem(t)
    shared = Counter(sum(1 << r for r in range(n)
                         if cs.chamber[r][x] == cs.chamber[r][0])
                     for x in range(t.order))
    for mask in range(1, 1 << n):
        k_order = sum(c for m, c in shared.items() if m & mask == mask)
        rest = d.induced(r for r in range(n) if not mask >> r & 1)
        assert k_order == group_order(rest), (name, mask)
    if len(components_with_indices(d)) > 1:
        return
    classes = conjugacy_classes(t)
    pdata = ParabolicData(t, classes)
    wall_chambers = prod(basic_degrees(d)[:-1])
    reps = data.draw(st.lists(
        st.sampled_from(reflection_classes(t, classes).reps),
        min_size=1, max_size=3, unique=True))
    for rep in reps:
        fv = wall_of(cs, rep).f_vector()
        counts = (1,) + fv + (0,) * (n - len(fv))
        assert counts == pdata.fixed_counts(classes.class_of[rep]), name
        assert counts[n - 1] == wall_chambers, name


def test_fixed_subcomplex_reads_no_chambers_without_a_fixed_edge(
        monkeypatch):
    # an element g != 1 moves every chamber, so at rank <= 2, or with
    # fewer than two fixed vertices, it fixes no edge: the fixed
    # subcomplex is its fixed vertices, and no face pass runs
    import mfc.walls
    cases = []
    for sym in ("Z7", "I2(17)", "G8", "G(20,1,2)", "H3"):
        t, cx, cs = setup(sym)
        for g in range(1, t.order):
            fixed = cs.fixed_vertices(g)
            if t.ngens <= 2 or len(fixed) < 2:
                cases.append((cs, fixed, simplices_within(cx, set(fixed))))
    assert any(len(fixed) == 2 for _cs, fixed, _want in cases)

    def chamber_pass(*args):
        raise AssertionError("the chambers were read")

    monkeypatch.setattr(mfc.walls, "_face_closure", chamber_pass)
    monkeypatch.setattr(mfc.walls, "_reindexed", chamber_pass)
    for cs, fixed, want in cases:
        w = fixed_subcomplex(cs, fixed)
        assert w.by_dim == ({0: tuple((i,) for i in range(len(fixed)))}
                            if fixed else {})
        assert w.vertex_types == tuple(cs.vertex_types[v] for v in fixed)
        # vertex k is fixed[k], and the fixed vertices span no edge
        assert ambient(w, fixed) == want


def _dense_fixed_counts(t, classes, cid):
    """f_{-1}, ..., f_{n-1} of the fixed subcomplex of class cid: the sum
    over every proper G_J of |C_G(g)| * |cls ∩ G_J| / |G_J|, with G_J
    read as the block of the identity in its coset partition."""
    n = t.ngens
    full = (1 << n) - 1
    dense = [1] + [0] * n
    for mask_i in range(1, 1 << n):
        J = [i for i in range(n) if not mask_i >> i & 1]
        block = [e for e, b in enumerate(parabolic_cosets(t, J).block_of)
                 if b == 0]
        met = sum(1 for e in block if classes.class_of[e] == cid)
        num = t.order // classes.sizes[cid] * met
        assert num % len(block) == 0, (cid, full ^ mask_i)
        dense[bin(mask_i).count("1")] += num // len(block)
    return dense


def test_parabolic_data_is_block_zero_of_cosets():
    # the subgroups ParabolicData walks are the blocks of the identity in
    # the coset partitions, so its counts are the sums over those blocks
    for sym in PROPERTY_GROUPS:
        t, _cx, _act = setup(sym)
        n = t.ngens
        for mask in range((1 << n) - 1):
            J = [i for i in range(n) if mask >> i & 1]
            members, _tree = _subgroup_tree(t, J)
            assert sorted(members) == [
                e for e, b in enumerate(parabolic_cosets(t, J).block_of)
                if b == 0], (sym, mask)
        classes = conjugacy_classes(t)
        pdata = ParabolicData(t, classes)
        for cid in range(classes.n_classes):
            dense = _dense_fixed_counts(t, classes, cid)
            assert list(pdata.fixed_counts(cid)) == dense, (sym, cid)
            assert (cid in pdata.nontrivial_counts) == any(dense[1:]), \
                (sym, cid)


def test_count_formula_matches_explicit_subcomplexes():
    # the per-group sparse counts equal the dense sum over every proper
    # G_J of |C_G(g)| * |cls ∩ G_J| / |G_J|, and the f-vector of the
    # explicitly built fixed subcomplex
    seen_empty = False
    for sym in ("Z6", "I2(5)", "I2(6)", "G(3,1,2)", "G4", "A3", "B3",
                "2[3]2 + 4"):
        t, cx, cs = setup(sym)
        classes = conjugacy_classes(t)
        pdata = ParabolicData(t, classes)
        for cid in range(classes.n_classes):
            dense = _dense_fixed_counts(t, classes, cid)
            assert list(pdata.fixed_counts(cid)) == dense, (sym, cid)
            assert (cid in pdata.nontrivial_counts) == any(dense[1:]), \
                (sym, cid)
            rep = classes.reps[cid]
            sub = wall_of(cs, rep)
            explicit = {k: v for k, v in enumerate(sub.f_vector())}
            counted = {k - 1: v for k, v in enumerate(pdata.fixed_counts(cid))
                       if k and v}
            assert explicit == counted, (sym, rep)
            if sym == "I2(6)" and cid not in pdata.nontrivial_counts:
                assert sub.dim == -1
                seen_empty = True
    assert seen_empty  # a rotation of I2(6) fixes only the empty simplex


def test_generated_subcomplex():
    # the face closure of a family of simplices
    _t, cx, _act = setup("2[3]2")
    assert generated(cx, cx.simplices(1)).f_vector() == cx.f_vector()
    assert generated(cx, []).dim == -1
    edge = cx.simplices(1)[0]
    path = generated(cx, [edge])
    assert path.f_vector() == (2, 1)


def test_recognize_g25_wall(g25):
    t, cx, cs = g25
    rep = reflection_classes(t).reps[0]
    v = recognize_milnor_fiber(wall_of(cs, rep), 2)
    assert v.outcome == "not-mfc"
    assert v.reason == "betti-mismatch-all"
    assert sorted(c.name for c in v.candidates) == \
        sorted(["Z2+Z27", "Z3+Z18", "Z6+Z9", "I2(27)"])


def test_recognize_g26_order3_wall(g26):
    # the order-3 generator wall: survivors after count+Betti are exactly
    # G5 and G(6,1,2), both eliminated by isomorphism (degree-4 vertex)
    t, cx, cs = g26
    rep = t.gen_elements[0]
    w = wall_of(cs, rep)
    v = recognize_milnor_fiber(w, 2)
    assert v.outcome == "not-mfc" and v.reason == "isomorphism-failed-all"
    survivors = sorted(c.name for c in v.candidates
                       if c.status != "betti-mismatch")
    assert survivors == sorted(["G5", "G(6,1,2)"])
    assert all(c.status == "isomorphism-failed" for c in v.candidates
               if c.name in ("G5", "G(6,1,2)"))
    degrees = {}
    for (a, b) in w.simplices(1):
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    assert 4 in degrees.values()


def _components(c):
    """The vertex sets of c's connected components."""
    adj = {v: set() for v in range(c.n_vertices)}
    for a, b in c.simplices(1):
        adj[a].add(b)
        adj[b].add(a)
    comps, seen = [], set()
    for v in adj:
        if v not in seen:
            comp, stack = {v}, [v]
            while stack:
                for u in adj[stack.pop()] - comp:
                    comp.add(u)
                    stack.append(u)
            seen |= comp
            comps.append(comp)
    return comps


def test_g26_order3_wall_families(g26):
    # the README's account of the order-3 walls: 72 edges, 36 of each
    # of two types; the family missing type 0 is three 12-cycles, and the
    # family missing type 1 is two disjoint G(3,1,2) complexes
    t, cx, cs = g26
    order3 = [r for r in reflection_classes(t).reps if t.element_order(r) == 3]
    assert len(order3) == 2
    for rep in order3:
        w = wall_of(cs, rep)
        assert w.f_vector() == (48, 72)
        by_type = Counter(frozenset(w.vertex_types[v] for v in e)
                          for e in w.simplices(1))
        assert by_type == {frozenset({1, 2}): 36, frozenset({0, 2}): 36}

        cycles = generated(w, family_facets(w, 3, [0]))
        assert cycles.f_vector() == (36, 36)
        assert [len(c) for c in _components(cycles)] == [12, 12, 12]
        assert all(sum(v in e for e in cycles.simplices(1)) == 2
                   for v in range(cycles.n_vertices))

        split = generated(w, family_facets(w, 3, [1]))
        assert split.f_vector() == (30, 36)
        comps = _components(split)
        assert len(comps) == 2
        for comp in comps:
            piece = generated(split, [e for e in split.simplices(1)
                                      if comp.issuperset(e)])
            assert piece.f_vector() == (15, 18)
            v = recognize_milnor_fiber(piece, 2)
            assert v.recognized and diagram_name(v.diagram) == "G(3,1,2)"


def test_recognize_g26_order2_wall(g26):
    # machine-verified: the order-2 class wall IS a Milnor fiber complex,
    # the one of G5 (3-regular of girth 8); see the notes about the
    # G(6,1,2) naming in the sources this build follows
    t, cx, cs = g26
    rep = [r for r in reflection_classes(t).reps if t.element_order(r) == 2][0]
    w = wall_of(cs, rep)
    v = recognize_milnor_fiber(w, 2)
    assert v.recognized and diagram_name(v.diagram) == "G5"
    assert verify_isomorphism(w, _model_complex(v.diagram), v.certificate)


def test_recognize_monomial_wall_recursion():
    t, cx, cs = setup("G(3,1,3)")
    for rep in reflection_classes(t).reps:
        w = wall_of(cs, rep)
        v = recognize_milnor_fiber(w, 2)
        assert v.recognized and diagram_name(v.diagram) == "G(3,1,2)"
        assert verify_isomorphism(w, _model_complex(v.diagram),
                                  v.certificate)


def test_recognition_dimension_mismatch_is_count_reason():
    # a 0-dimensional complex offered at rank 2 has no 1-chambers
    pts = from_facets([0, 0], [(0,), (1,)])
    v = recognize_milnor_fiber(pts, 2)
    assert v.outcome == "not-mfc"
    assert v.reason == "no-admissible-factorization"


def test_candidates_named_only_when_read(monkeypatch):
    import mfc.walls
    named = []
    real = mfc.walls.diagram_name
    monkeypatch.setattr(mfc.walls, "diagram_name",
                        lambda d: named.append(d) or real(d))
    t, cx, cs = setup("B3")
    w = wall_of(cs, reflection_classes(t).reps[0])
    v = recognize_milnor_fiber(w, 2)
    assert v.recognized and len(v.candidates) > 1 and named == []
    assert [c.name for c in v.candidates] == \
        [real(c.diagram) for c in v.candidates]


def test_recognition_rank0():
    empty = TypedComplex([], {})
    v = recognize_milnor_fiber(empty, 0)
    assert v.recognized and v.diagram.rank == 0
    assert v.certificate == {}
    assert verify_isomorphism(empty, _model_complex(v.diagram), {})


def test_candidates_in_enumeration_order():
    # each candidate is reported where enumerate_admissible puts it,
    # whichever filter decided it, on every reason a verdict can carry
    def names(v):
        return [cr.name for cr in v.candidates]

    def enumerated(v):
        return [diagram_name(d)
                for d in enumerate_admissible(v.rank, v.chambers)]

    reasons = set()
    for sym in ("G26", "G25", "D4", "H3"):
        ctx = GroupContext(parse_symbol(sym))
        for rep in ctx.refl_classes:
            v = ctx.verdict_of(rep)
            assert names(v) == enumerated(v), (sym, rep)
            reasons.add(v.reason)
    assert reasons == {None, "betti-mismatch-all", "isomorphism-failed-all"}
    # four disjoint edges: the disconnected early return
    v = recognize_milnor_fiber(from_facets(
        [0, 1] * 4, [(0, 1), (2, 3), (4, 5), (6, 7)]), 2)
    assert v.reason == "betti-mismatch-all" and v.betti == {0: 3}
    assert names(v) == enumerated(v) == ["Z2+Z2"]


def test_milnor_wall_search_g25():
    ctx = GroupContext(parse_symbol("G25"))
    rep = ctx.refl_classes[0]
    cert = ctx.certificate_of(rep)
    assert cert is not None
    assert diagram_name(cert.diagram) == "G(3,1,2)"
    assert cert.proper
    assert len(cert.missing_types) == 1
    # the certificate maps the complex of the family onto the model
    w = ctx.fixed_of(rep)
    family = generated(w, family_facets(w, 3, cert.missing_types))
    assert verify_isomorphism(family, _model_complex(cert.diagram),
                              cert.verdict.certificate)


def test_milnor_wall_search_rank1():
    # walls of a rank-1 complex are {empty}; the singleton family selects
    # the empty simplex, a complex of the trivial group at dimension -1
    ctx = GroupContext(parse_symbol("Z5"))
    cert = ctx.certificate_of(1)
    assert cert is not None
    assert cert.diagram.rank == 0
    assert not cert.proper


def test_milnor_wall_search_d4_none():
    ctx = GroupContext(parse_symbol("D4"))
    for rep in ctx.refl_classes:
        assert ctx.certificate_of(rep) is None


def test_milnor_wall_search_coxeter_nonproper():
    # Coxeter groups only have non-proper certificates (their walls are spheres)
    for sym in ("A3", "B3", "H3", "A4"):
        ctx = GroupContext(parse_symbol(sym))
        for rep in ctx.refl_classes:
            cert = ctx.certificate_of(rep)
            assert cert is not None and not cert.proper, sym


def family_facets(w, n, missing):
    """The wall's (n-2)-simplices of type R - {s} for some s in missing."""
    return [f for f in w.simplices(n - 2)
            if set(range(n)) - {w.vertex_types[v] for v in f}
            <= set(missing)]


def test_walls_are_their_full_family_subcomplex():
    # every wall is pure: its codimension-1 simplices of the full type
    # family generate all of it, so the search's first family is the wall
    for sym in PROPERTY_GROUPS + ("D4", "F4"):
        t, cx, cs = setup(sym)
        n = t.ngens
        for rep in reflection_classes(t).reps:
            w = wall_of(cs, rep)
            full = generated(w, family_facets(w, n, range(n)))
            assert full.by_dim == w.by_dim, (sym, rep)
            assert full.vertex_types == w.vertex_types, (sym, rep)


def test_type_families_are_subcomplexes_of_their_facets():
    # the faces whose mask meets a family's types are the closure of the
    # family's facets: same simplices and vertex types, and the
    # f-vector read off the mask histograms
    from itertools import combinations
    for sym in PROPERTY_GROUPS + ("D4", "F4", "G26"):
        t, cx, cs = setup(sym)
        n = t.ngens
        order = [m for size in range(n, 0, -1)
                 for m in combinations(range(n), size)]
        for rep in reflection_classes(t).reps:
            w = wall_of(cs, rep)
            families = list(_type_families(w, n))
            assert [m for m, _fv, _faces in families] == order, (sym, rep)
            for missing, fv, faces in families:
                want = generated(w, family_facets(w, n, missing))
                got = _reindexed(faces(), w.vertex_types)
                assert fv == tuple(len(want.simplices(k))
                                   for k in range(n - 1)), (sym, rep, missing)
                assert got.by_dim == want.by_dim, (sym, rep, missing)
                assert got.vertex_types == want.vertex_types, \
                    (sym, rep, missing)


def test_milnor_wall_search_impure_wall():
    # a family that misses part of the wall is recognized on its own,
    # not given the wall's verdict: an isolated vertex added to a B3 wall
    # makes the wall disconnected, and the full family still certifies
    t, cx, cs = setup("B3")
    rep = reflection_classes(t).reps[0]
    w = wall_of(cs, rep)
    impure = TypedComplex(w.vertex_types + (0,),
                          {0: w.simplices(0) + ((w.n_vertices,),),
                           1: w.simplices(1)})
    wall_verdict = recognize_milnor_fiber(impure, 2)
    assert not wall_verdict.recognized
    cert = milnor_wall_search(impure, 3, wall_verdict)
    assert cert is not None and not cert.proper
    assert cert.verdict is not wall_verdict and cert.verdict.recognized
    family = generated(impure, family_facets(impure, 3, cert.missing_types))
    assert verify_isomorphism(family, _model_complex(cert.diagram),
                              cert.verdict.certificate)


def test_family_filter_is_exact(monkeypatch):
    # the wall search builds a family other than the whole wall only when
    # its f-vector is some candidate's model f-vector; recognition must
    # fail on every family it skips.  With every verdict unrecognized the
    # search visits all families, and the ones it builds are recorded
    from itertools import combinations
    import mfc.walls
    built = []
    unrecognized = RecognitionVerdict(0, 0, None)

    def spy(s, rank):
        built.append(s.by_dim)
        return unrecognized

    monkeypatch.setattr(mfc.walls, "recognize_milnor_fiber", spy)
    euler_kept = Counter()
    for sym in ("B3", "H3", "G25", "G26", "A4", "B4", "D4", "F4", "H4",
                "G(3,1,4)"):
        t, cx, cs = setup(sym)
        n = t.ngens
        for rep in reflection_classes(t).reps:
            w = wall_of(cs, rep)
            built.clear()
            assert milnor_wall_search(w, n, unrecognized) is None
            for size in range(1, n + 1):
                for missing in combinations(range(n), size):
                    sub = generated(w, family_facets(w, n, missing))
                    if (sub.dim != n - 2 or sub.by_dim == w.by_dim
                            or sub.by_dim in built):
                        continue
                    v = recognize_milnor_fiber(sub, n - 1)
                    assert not v.recognized, (sym, rep, missing)
                    # the Euler characteristic alone would not skip it:
                    # the reduced one is (-1)^(n-2) times a bouquet count
                    want = (euler(sub) - 1) * (-1) ** n
                    if any(predicted_bouquet_count(d) == want
                           for d in enumerate_admissible(
                               n - 1, len(sub.simplices(n - 2)))):
                        euler_kept[sym] += 1
    assert euler_kept["D4"] > 0, euler_kept


def test_chamber_count_check_examples():
    def check(sym):
        ctx = GroupContext(parse_symbol(sym))
        return ctx.table, chamber_count_check(ctx.pdata, ctx.diagram,
                                              ctx.refl_classes)

    t, rpt = check("3[3]3")
    row = [r for r in rpt.rows if r["rep"] == t.gen_elements[0]][0]
    assert row["f"]["0"] == 4  # fixed vertex count = d_1 = 4
    assert rpt.item_i and rpt.item_ii and rpt.item_iii and rpt.eq8_holds

    _t, rpt = check("D4")
    assert not rpt.item_i and not rpt.item_ii and not rpt.item_iii
    assert any(r["p"] == 2 and r["f"].get("1", 0) != 8 for r in rpt.rows)

    _t, rpt = check("G(3,1,3)")
    assert rpt.item_i and rpt.item_ii and rpt.item_iii


def test_wall_join_reduction():
    # walls of a product: the factor's wall joined with the other factors
    from mfc.complexes import join
    t, cx, cs = setup("2[3]2 + 2")
    ta, ca, csa = setup("2[3]2")
    tb, cb, csb = setup("2")
    rep = ta.gen_elements[0]
    g_union = t.right[0][0]  # same generator embeds as index 0
    w_union = wall_of(cs, g_union)
    expected = join(wall_of(csa, rep), cb)
    # joined types (0, t) and (1, 0) are the union's generators t and 2
    type_map = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
    assert general_isomorphism(expected, w_union, type_map) is not None


# every rank >= 3 group of the default suite; D4, F4, H4, G25 and G26
# among them
RANK345_SUITE = ("A3", "A4", "B3", "B4", "H3", "G25", "G26", "G(3,1,3)",
                 "D4", "F4", "H4")


def _wall_outcomes(symbols):
    """Each wall's verdict, certificate map and Milnor-wall certificate,
    per group and reflection class, from fresh group contexts."""
    out = {}
    for sym in symbols:
        ctx = GroupContext(parse_symbol(sym))
        for rep in ctx.refl_classes:
            v, cert = ctx.verdict_of(rep), ctx.certificate_of(rep)
            out[sym, rep] = (v.to_jsonable(), v.certificate,
                             None if cert is None else
                             (cert.to_jsonable(), cert.verdict.certificate))
    return out


def test_order_filter_never_rejects_a_match(monkeypatch):
    # every candidate the order-level filter rejects has no isomorphism,
    # and every verdict and certificate, on the walls and on the type
    # families the wall search recognizes, is the one of the full search
    import mfc.walls
    real = mfc.walls._may_match
    rejected = []

    def spy(s, d, profile):
        ok = real(s, d, profile)
        if not ok:
            rejected.append((s, d))
        return ok

    monkeypatch.setattr(mfc.walls, "_may_match", spy)
    filtered = _wall_outcomes(RANK345_SUITE)
    names = {diagram_name(d) for _s, d in rejected}
    # the walls of D4, F4 and H4, and the order-3 walls of G26
    assert {"Z2+I2(8)", "Z2+I2(24)", "Z2+I2(120)", "G5", "G(6,1,2)"} <= names
    for s, d in rejected:
        assert general_isomorphism(s, _model_complex(d)) is None, \
            diagram_name(d)
    monkeypatch.setattr(mfc.walls, "_may_match", lambda s, d, profile: True)
    assert _wall_outcomes(RANK345_SUITE) == filtered


def test_model_search_agrees_with_general_search(monkeypatch):
    # with the order-level filter bypassed, every candidate whose bouquet
    # count fits a wall or a type family reaches the anchored search; the
    # general search must agree on each, and every map found must verify
    import mfc.walls
    real = mfc.walls.find_isomorphism
    found = []

    def both(a, model):
        iso = real(a, model)
        assert (iso is None) == (general_isomorphism(a, model) is None)
        assert iso is None or verify_isomorphism(a, model, iso)
        found.append(iso is not None)
        return iso

    monkeypatch.setattr(mfc.walls, "_may_match", lambda s, d, profile: True)
    monkeypatch.setattr(mfc.walls, "find_isomorphism", both)
    _wall_outcomes(RANK345_SUITE)
    assert True in found and False in found
