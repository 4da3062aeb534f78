import pytest

from mfc.complexes import TypedComplex, _face_closure, milnor_fiber_complex
from mfc.diagram import diagram_name, enumerate_admissible, parse_symbol
from mfc.group import (conjugacy_classes, enumerate_group, parabolic_cosets,
                       reflection_classes)
from mfc.homology import reduced_betti
from mfc.verify import GroupContext
from mfc.walls import (ParabolicData, _chamber_count, _euler_excludes,
                       _reindexed, _type_families, chamber_count_check,
                       fixed_subcomplex, milnor_wall_search,
                       recognize_milnor_fiber)

# groups for the property tests of walls and parabolic data: real,
# complex, monomial and dihedral, ranks 2 and 3
PROPERTY_GROUPS = ("B3", "H3", "G25", "G(3,1,3)", "I2(7)")


def setup(sym):
    t = enumerate_group(parse_symbol(sym))
    cx, cs = milnor_fiber_complex(t)
    return t, cx, cs


def generated(c, simplices):
    """The closure of some simplices of c, on fresh vertex ids in the
    order of the old ones; vertex_names record c's names (or ids)."""
    return _reindexed(_face_closure(simplices), c.vertex_types,
                      c.vertex_names)


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
    assert fixed_subcomplex(cs, 0).f_vector() == cx.f_vector()
    w = fixed_subcomplex(cs, t.gen_elements[0])
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
    for rep in reflection_classes(t):
        w = fixed_subcomplex(cs, rep)
        assert w.f_vector()[1] == 54
        assert reduced_betti(w).concentrated_value(1) == 25


def test_walls_of_conjugate_reflections_isomorphic():
    from mfc.isomorphism import find_isomorphism
    t, cx, cs = setup("G(3,1,2)")
    class_of = conjugacy_classes(t).class_of
    for rep in reflection_classes(t):
        members = [x for x in range(t.order) if class_of[x] == class_of[rep]]
        w0 = fixed_subcomplex(cs, rep)
        for other in members[:2]:
            w1 = fixed_subcomplex(cs, other)
            assert find_isomorphism(w0, w1) is not None


def test_conjugate_wall_is_translated_wall():
    # the fixed simplices of h r h^{-1} are exactly h applied to those of r
    t, cx, cs = setup("3[3]3")
    ambient_id = {nm: i for i, nm in enumerate(cx.vertex_names)}

    def ambient_simplices(w):
        return {tuple(sorted(ambient_id[w.vertex_names[v]] for v in s))
                for k in range(w.dim + 1) for s in w.simplices(k)}

    for rep in reflection_classes(t):
        w_r = ambient_simplices(fixed_subcomplex(cs, rep))
        for h in (t.gen_elements[0], t.gen_elements[1], 5):
            h_inv = next(y for y in range(t.order) if t.mul(h, y) == 0)
            conj = t.mul(t.mul(h, rep), h_inv)
            perm = cs.vertex_perm(h)
            translated = {tuple(sorted(perm[v] for v in s)) for s in w_r}
            assert translated == ambient_simplices(fixed_subcomplex(cs, conj))


def test_fixed_space_dim(g25):
    # dim V^g is the dimension of the fixed subcomplex plus one
    def fixed_space_dim(cs, g):
        return fixed_subcomplex(cs, g).dim + 1

    t, cx, cs = g25
    assert fixed_space_dim(cs, 0) == 3
    rep = reflection_classes(t)[0]
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
            sub = fixed_subcomplex(cs, g)
            assert sub.by_dim == {k: tuple(sorted(v))
                                  for k, v in want.items()}, (sym, g)
            assert sub.vertex_types == tuple(cx.vertex_types[v]
                                             for v in old_ids)
            assert sub.vertex_names == tuple(cx.vertex_names[v]
                                             for v in old_ids)


def test_fixed_subcomplex_matches_induced_on_fixed_vertices():
    # the chamber route equals the full subcomplex of the built complex on
    # the vertices that g's word-composed permutation fixes, for one
    # element of every conjugacy class
    for sym in ("B3", "H3", "G25", "G26", "D4", "F4", "G(3,1,3)", "I2(7)",
                "Z5", "2[3]2 + 4", "1"):
        t, cx, cs = setup(sym)
        for g in conjugacy_classes(t).reps:
            perm = cs.vertex_perm(g)
            keep = {v for v, w in enumerate(perm) if v == w}
            want = generated(cx, (s for k in range(cx.dim + 1)
                                  for s in cx.simplices(k)
                                  if keep.issuperset(s)))
            got = fixed_subcomplex(cs, g)
            assert got.by_dim == want.by_dim, (sym, g)
            assert got.vertex_types == want.vertex_types, (sym, g)
            assert got.vertex_names == want.vertex_names, (sym, g)


def test_parabolic_data_is_block_zero_of_cosets():
    # |G_J| and |cls ∩ G_J| are the size and class counts of the block of
    # the identity in the coset partition of G_J
    for sym in PROPERTY_GROUPS:
        t, _cx, _act = setup(sym)
        pdata = ParabolicData(t)
        n = t.ngens
        proper = [m for m in range(1 << n) if m != (1 << n) - 1]
        assert sorted(pdata.subgroup_orders) == proper
        assert sorted(pdata.intersections) == proper
        for mask in proper:
            part = parabolic_cosets(t, [i for i in range(n) if mask >> i & 1])
            counts = [0] * pdata.classes.n_classes
            for e in range(t.order):
                if part.block_of[e] == 0:
                    counts[pdata.classes.class_of[e]] += 1
            assert pdata.subgroup_orders[mask] == sum(counts), (sym, mask)
            assert pdata.intersections[mask] == \
                {cid: c for cid, c in enumerate(counts) if c}, (sym, mask)


def test_count_formula_matches_explicit_subcomplexes():
    # the per-group sparse counts equal the dense sum over every proper
    # G_J of |C_G(g)| * |cls ∩ G_J| / |G_J|, and the f-vector of the
    # explicitly built fixed subcomplex
    seen_empty = False
    for sym in ("Z6", "I2(5)", "I2(6)", "G(3,1,2)", "G4", "A3", "B3",
                "2[3]2 + 4"):
        t, cx, cs = setup(sym)
        pdata = ParabolicData(t)
        n = t.ngens
        full = (1 << n) - 1
        for cid in range(pdata.classes.n_classes):
            dense = [1] + [0] * n
            for mask_i in range(1, 1 << n):
                num = (t.order // pdata.classes.sizes[cid]
                       * pdata.intersections[full ^ mask_i].get(cid, 0))
                order = pdata.subgroup_orders[full ^ mask_i]
                assert num % order == 0, (sym, cid, mask_i)
                dense[bin(mask_i).count("1")] += num // order
            assert list(pdata.fixed_counts(cid)) == dense, (sym, cid)
            assert (cid in pdata.nontrivial_counts) == any(dense[1:]), \
                (sym, cid)
            rep = pdata.classes.reps[cid]
            sub = fixed_subcomplex(cs, rep)
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
    rep = reflection_classes(t)[0]
    v = recognize_milnor_fiber(fixed_subcomplex(cs, rep), 2)
    assert v.outcome == "not-mfc"
    assert v.reason == "betti-mismatch-all"
    assert sorted(c.name for c in v.candidates) == \
        sorted(["Z2+Z27", "Z3+Z18", "Z6+Z9", "I2(27)"])


def test_recognize_g26_order3_wall(g26):
    # the order-3 generator wall: survivors after count+Betti are exactly
    # G5 and G(6,1,2), both eliminated by isomorphism (degree-4 vertex)
    t, cx, cs = g26
    rep = t.gen_elements[0]
    w = fixed_subcomplex(cs, rep)
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
    order3 = [r for r in reflection_classes(t) if t.element_order(r) == 3]
    assert len(order3) == 2
    for rep in order3:
        w = fixed_subcomplex(cs, rep)
        assert w.f_vector() == (48, 72)
        by_type = {}
        for e in w.simplices(1):
            by_type[w.type_of(e)] = by_type.get(w.type_of(e), 0) + 1
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
    rep = [r for r in reflection_classes(t) if t.element_order(r) == 2][0]
    v = recognize_milnor_fiber(fixed_subcomplex(cs, rep), 2)
    assert v.recognized and diagram_name(v.diagram) == "G5"
    assert v.recheck()


def test_recognize_monomial_wall_recursion():
    t, cx, cs = setup("G(3,1,3)")
    for rep in reflection_classes(t):
        v = recognize_milnor_fiber(fixed_subcomplex(cs, rep), 2)
        assert v.recognized and diagram_name(v.diagram) == "G(3,1,2)"
        assert v.recheck()


def test_recognition_dimension_mismatch_is_count_reason():
    # a 0-dimensional complex offered at rank 2 has no 1-chambers
    pts = TypedComplex.from_facets([0, 0], [(0,), (1,)])
    v = recognize_milnor_fiber(pts, 2)
    assert v.outcome == "not-mfc"
    assert v.reason == "no-admissible-factorization"


def test_recognition_rank0():
    v = recognize_milnor_fiber(TypedComplex([], {}), 0)
    assert v.recognized and v.diagram.rank == 0
    assert v.certificate == {} and v.recheck()


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
    v = recognize_milnor_fiber(TypedComplex.from_facets(
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
    assert cert.recheck()


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
            if set(range(n)) - w.type_of(f) <= set(missing)]


def test_walls_are_their_full_family_subcomplex():
    # every wall is pure: its codimension-1 simplices of the full type
    # family generate all of it, so the search's first family is the wall
    for sym in PROPERTY_GROUPS + ("D4", "F4"):
        t, cx, cs = setup(sym)
        n = t.ngens
        for rep in reflection_classes(t):
            w = fixed_subcomplex(cs, rep)
            full = generated(w, family_facets(w, n, range(n)))
            assert full.by_dim == w.by_dim, (sym, rep)
            assert full.vertex_types == w.vertex_types, (sym, rep)


def test_type_families_are_subcomplexes_of_their_facets():
    # the union of the per-type closures is the closure of the family's
    # facets: same simplices, vertex types and names, Euler characteristic
    from itertools import combinations
    for sym in PROPERTY_GROUPS + ("D4", "F4", "G26"):
        t, cx, cs = setup(sym)
        n = t.ngens
        order = [m for size in range(n, 0, -1)
                 for m in combinations(range(n), size)]
        for rep in reflection_classes(t):
            w = fixed_subcomplex(cs, rep)
            families = list(_type_families(w, n))
            assert [m for m, _faces in families] == order, (sym, rep)
            for missing, faces in families:
                want = generated(w, family_facets(w, n, missing))
                got = _reindexed(faces, w.vertex_types, w.vertex_names)
                assert got.by_dim == want.by_dim, (sym, rep, missing)
                assert got.vertex_types == want.vertex_types, \
                    (sym, rep, missing)
                assert got.vertex_names == want.vertex_names, \
                    (sym, rep, missing)
                chi = sum((-1) ** k * len(v) for k, v in faces.items())
                assert chi == euler(want), (sym, rep, missing)


def test_milnor_wall_search_impure_wall():
    # a family that misses part of the wall is recognized on its own,
    # not given the wall's verdict: an isolated vertex added to a B3 wall
    # makes the wall disconnected, and the full family still certifies
    t, cx, cs = setup("B3")
    rep = reflection_classes(t)[0]
    w = fixed_subcomplex(cs, rep)
    impure = TypedComplex(w.vertex_types + (0,),
                          {0: w.simplices(0) + ((w.n_vertices,),),
                           1: w.simplices(1)})
    wall_verdict = recognize_milnor_fiber(impure, 2)
    assert not wall_verdict.recognized
    cert = milnor_wall_search(impure, 3, rep, wall_verdict)
    assert cert is not None and not cert.proper
    assert cert.verdict is not wall_verdict and cert.verdict.recognized
    assert cert.recheck()


def test_euler_prefilter_is_exact():
    # the wall search skips a family when the Euler characteristic rules
    # out every candidate; recognition must then fail on that family too
    from itertools import combinations
    excluded = 0
    for sym in ("B3", "H3", "G25", "G26", "D4"):
        t, cx, cs = setup(sym)
        n = t.ngens
        for rep in reflection_classes(t):
            w = fixed_subcomplex(cs, rep)
            for size in range(1, n + 1):
                for missing in combinations(range(n), size):
                    sub = generated(w, family_facets(w, n, missing))
                    if sub.dim != n - 2:
                        continue
                    cands = enumerate_admissible(n - 1,
                                                 _chamber_count(sub, n - 1))
                    if _euler_excludes(euler(sub), n - 1, cands):
                        excluded += 1
                        v = recognize_milnor_fiber(sub, n - 1)
                        assert v.reason in ("no-admissible-factorization",
                                            "betti-mismatch-all"), \
                            (sym, rep, missing)
    assert excluded > 0


def test_chamber_count_check_examples():
    def check(sym):
        ctx = GroupContext(parse_symbol(sym))
        return ctx.table, chamber_count_check(ctx.pdata, ctx.diagram,
                                              ctx.refl_classes)

    t, rpt = check("3[3]3")
    row = [r for r in rpt.rows if r.class_rep == t.gen_elements[0]][0]
    assert row.f_vector[0] == 4  # fixed vertex count = d_1 = 4
    assert rpt.item_i and rpt.item_ii and rpt.item_iii and rpt.eq8_holds

    _t, rpt = check("D4")
    assert not rpt.item_i and not rpt.item_ii and not rpt.item_iii
    assert any(r.p == 2 and r.f_vector.get(1, 0) != 8 for r in rpt.rows)

    _t, rpt = check("G(3,1,3)")
    assert rpt.item_i and rpt.item_ii and rpt.item_iii


def test_wall_join_reduction():
    # walls of a product: the factor's wall joined with the other factors
    from mfc.complexes import join
    from mfc.isomorphism import find_isomorphism
    t, cx, cs = setup("2[3]2 + 2")
    ta, ca, csa = setup("2[3]2")
    tb, cb, csb = setup("2")
    rep = ta.gen_elements[0]
    g_union = t.right[0][0]  # same generator embeds as index 0
    w_union = fixed_subcomplex(cs, g_union)
    expected = join(fixed_subcomplex(csa, rep), cb)
    # joined types (0, t) and (1, 0) are the union's generators t and 2
    type_map = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
    assert find_isomorphism(expected, w_union, type_map) is not None
