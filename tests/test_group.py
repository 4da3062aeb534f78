import hashlib
import random
from math import gcd

import pytest
from hypothesis import given, settings

from mfc.diagram import (_irreducible_ids, basic_degrees,
                         components_with_indices, diagram_of,
                         enumerate_admissible, group_order, parse_symbol)
from mfc.group import (DEFAULT_CAP, CapExceeded, GroupTable,
                       ReflectionClasses, _induced_right, _invert,
                       _subgroup_tree, conjugacy_classes, enumerate_group,
                       parabolic_cosets, reflection_classes, todd_coxeter)
from strategies import admissible_unions, check_relations, mul

FIXTURES = ["1", "2", "Z6", "2[3]2", "I2(5)", "I2(8)", "3[3]3", "2[4]3",
            "A3", "B3", "H3", "G25", "3[4]3", "2[4]6", "2[3]2 + 4", "D4"]


@pytest.fixture(scope="module")
def tables():
    return {sym: enumerate_group(parse_symbol(sym)) for sym in FIXTURES}


def test_orders_match_degree_products(tables):
    for sym, t in tables.items():
        expected = 1
        for x in basic_degrees(parse_symbol(sym)):
            expected *= x
        assert t.order == expected, sym


def test_relations_hold(tables):
    for sym, t in tables.items():
        assert check_relations(t.diagram, t.right), sym


def test_relations_reject_a_wrong_flag_action():
    # the flag model's monomial generators satisfy G(3,1,2)'s relations;
    # with two images of one generator swapped they do not (a power
    # relation breaks), nor with the generator conjugated by a point
    # transposition (its order is kept, so a braid relation breaks)
    from mfc.complexes import monomial_flag_complex
    d = parse_symbol("G(3,1,2)")
    _fc, perms = monomial_flag_complex(3, 2)
    assert check_relations(d, perms)
    swap = list(range(len(perms[0])))
    swap[0], swap[-1] = swap[-1], 0  # a point and a 2-set
    for i in range(len(perms)):
        bad = [list(p) for p in perms]
        bad[i][0], bad[i][1] = bad[i][1], bad[i][0]
        assert not check_relations(d, bad), i
        bad[i] = [swap[perms[i][swap[x]]] for x in range(len(swap))]
        assert not check_relations(d, bad), i
        assert check_relations(d.induced([i]), [bad[i]]), i


def test_regular_action_is_faithful(tables):
    # only the identity fixes any element id
    for sym in ("2[3]2", "3[3]3", "Z6", "I2(5)"):
        t = tables[sym]
        for g in range(1, t.order):
            assert all(mul(t, g, x) != x for x in range(t.order)), (sym, g)


def test_enumerate_examples():
    assert enumerate_group(parse_symbol("3[3]3")).order == 24
    assert enumerate_group(parse_symbol("1")).order == 1
    assert enumerate_group(parse_symbol("H3")).order == 120


def test_cap_exceeded():
    with pytest.raises(CapExceeded, match="group order 2903040 exceeds cap"):
        enumerate_group(parse_symbol("E7"))
    with pytest.raises(CapExceeded):
        enumerate_group(parse_symbol("H3"), cap=100)


def test_rank_over_cap_needs_no_classification(monkeypatch):
    # |G| >= 2^rank: A18 (2^18 = 262,144 > 200,000) is over the default
    # cap before its order is computed; A17 is classified, then rejected
    import mfc.group

    def no_order(d):
        raise AssertionError("group order computed")

    monkeypatch.setattr(mfc.group, "group_order", no_order)
    with pytest.raises(CapExceeded,
                       match=r"at least 2\^18 exceeds cap 200000"):
        enumerate_group(parse_symbol("A18"))
    with pytest.raises(AssertionError, match="group order computed"):
        enumerate_group(parse_symbol("A17"))


def test_parabolic_cosets(tables):
    t = tables["3[3]3"]
    assert parabolic_cosets(t, []).n_blocks == t.order
    assert parabolic_cosets(t, [0, 1]).n_blocks == 1
    cp = parabolic_cosets(t, [0])
    assert (cp.n_blocks, cp.block_of.count(0)) == (8, 3)
    assert cp.reps[0] == 0  # block of the identity is the subgroup itself
    for sym, t in tables.items():
        n = t.ngens
        for mask in range(1 << n):
            I = [i for i in range(n) if mask >> i & 1]
            cp = parabolic_cosets(t, I)
            assert cp.n_blocks * cp.block_of.count(0) == t.order, (sym, I)


def _orbit_cosets(t, I):
    """Reference: the left coset s<I> of the smallest unassigned s as the
    orbit of s under right multiplication by I's generators."""
    block_of = [-1] * t.order
    reps = []
    for s in range(t.order):
        if block_of[s] >= 0:
            continue
        reps.append(s)
        block_of[s] = len(reps) - 1
        stack = [s]
        while stack:
            x = stack.pop()
            for i in I:
                y = t.right[i][x]
                if block_of[y] < 0:
                    block_of[y] = len(reps) - 1
                    stack.append(y)
    return block_of, reps


def test_parabolic_cosets_match_orbit_definition(tables):
    groups = dict(tables)
    for sym in ("I2(97)", "G(7,1,2)", "Z12", "D4 + 2"):
        groups[sym] = enumerate_group(parse_symbol(sym))
    for sym, t in groups.items():
        n = t.ngens
        for mask in range(1 << n):
            I = [i for i in range(n) if mask >> i & 1]
            block_of, reps = _orbit_cosets(t, I)
            sizes = [block_of.count(b) for b in range(len(reps))]
            assert len(set(sizes)) == 1, (sym, I)
            cp = parabolic_cosets(t, I)
            assert cp.block_of == block_of, (sym, I)
            assert cp.reps == reps, (sym, I)
            # |G_I| as ParabolicData reads it, from its walk of G_I
            assert len(_subgroup_tree(t, I)[0]) == sizes[0], (sym, I)


def n_reflections(t):
    return sum(reflection_classes(t, conjugacy_classes(t)).sizes)


def test_reflection_counts(tables):
    # |reflections| = sum of (d_i - 1): independent check on the enumeration
    for sym, t in tables.items():
        degs = basic_degrees(parse_symbol(sym))
        assert n_reflections(t) == sum(x - 1 for x in degs), sym


def _closure_reflection_classes(t, classes):
    """Reference: the generators' non-identity powers closed under
    conjugation by each generator, grouped by conjugacy class."""
    # r_i x r_i^-1: left translation by r_i after inverse right action
    conj = [(t.left_translation(g), _invert(col))
            for g, col in zip(t.gen_elements, t.right)]
    seen = [False] * t.order
    stack = []
    for i in range(t.ngens):
        x = t.gen_elements[i]
        while x != 0:
            seen[x] = True
            stack.append(x)
            x = t.right[i][x]
    while stack:
        x = stack.pop()
        for left, right_inv in conj:
            y = left[right_inv[x]]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    by_class = {}
    for x in range(t.order):
        if seen[x]:
            by_class.setdefault(classes.class_of[x], []).append(x)
    return [(classes.reps[cid], by_class[cid])
            for cid in sorted(by_class, key=classes.reps.__getitem__)]


def test_reflection_classes_match_conjugation_closure():
    from mfc.verify import default_suite
    symbols = [e["symbol"] for e in default_suite()["entries"]
               if "symbol" in e]
    diagrams = [d for d in map(parse_symbol, symbols)
                if group_order(d) <= 2000]
    assert len(diagrams) > 3000
    for d in diagrams + [parse_symbol("E6")]:
        t = enumerate_group(d)
        classes = conjugacy_classes(t)
        members = {}
        for x, cid in enumerate(classes.class_of):
            members.setdefault(cid, []).append(x)
        got = [(rep, members[classes.class_of[rep]])
               for rep in reflection_classes(t, classes).reps]
        assert got == _closure_reflection_classes(t, classes), d


# every group of a test or benchmark fixture of order <= 20,000, ranks 0-5,
# products included
WALK_FIXTURES = FIXTURES + [
    "Z1000", "I2(997)", "2 + 2", "3 + 4 + 2", "G4", "G5", "G6", "G8", "G9",
    "G10", "G14", "G16", "G17", "G18", "G20", "G21", "G(31,1,2)", "A4", "B4",
    "F4", "H4", "G26", "G(3,1,3)", "G(4,1,3)", "G(3,1,4)", "G(5,1,3)", "A5",
    "B5", "D5", "2[3]2 + 3", "3 + 2[4]3", "2[3]2[3]2 + 3", "3[3]3 + 2[3]2"]


def _assert_walk_reads_the_classes(t, name):
    assert reflection_classes(t) == \
        reflection_classes(t, conjugacy_classes(t)), name


def test_reflection_walk_matches_conjugacy_classes(tables):
    ranks = set()
    for sym in WALK_FIXTURES:
        t = tables.get(sym) or enumerate_group(parse_symbol(sym))
        assert t.order <= 20_000, sym
        ranks.add(t.ngens)
        _assert_walk_reads_the_classes(t, sym)
    assert ranks == set(range(6))


@settings(max_examples=50, deadline=None)
@given(admissible_unions())
def test_reflection_walk_matches_conjugacy_classes_on_unions(d):
    _assert_walk_reads_the_classes(enumerate_group(d), d)


@pytest.mark.deep
@pytest.mark.parametrize("sym", ["E6", "G32"])
def test_reflection_walk_matches_conjugacy_classes_deep(sym):
    _assert_walk_reads_the_classes(enumerate_group(parse_symbol(sym)), sym)


def test_element_order_of_cyclic_group():
    m = 1000
    t = enumerate_group(parse_symbol("Z%d" % m))
    assert [t.element_order(x) for x in range(m)] == \
        [m // gcd(m, x) for x in range(m)]


def test_element_order_matches_repeated_products(tables):
    for sym, t in tables.items():
        for g in range(t.order):
            k, x = 1, g
            while x != 0:
                x = mul(t, x, g)
                k += 1
            assert t.element_order(g) == k, (sym, g)


def test_reflection_class_examples(tables):
    assert len(reflection_classes(tables["2[4]3"]).reps) == 3  # G(3,1,2)
    assert len(reflection_classes(tables["2[3]2"]).reps) == 1
    t26 = enumerate_group(parse_symbol("G26"))
    rc = reflection_classes(t26).reps
    orders = sorted(t26.element_order(rep) for rep in rc)
    assert orders == [2, 3, 3]


def test_odd_braid_conjugates_generators(tables):
    # odd m_ij makes r_i and r_j conjugate
    for sym in ("2[3]2", "3[3]3", "H3", "A3"):
        t = tables[sym]
        d = parse_symbol(sym)
        cls = conjugacy_classes(t)
        for (i, j, m) in d.edges:
            if m % 2 == 1:
                assert cls.class_of[t.gen_elements[i]] == \
                    cls.class_of[t.gen_elements[j]], sym


def test_conjugacy_classes_match_conjugation_by_every_element(tables):
    # x and y share a class iff y = g x g^-1 for some g, with products
    # from mul and each inverse found by search
    small = [sym for sym, t in tables.items() if t.order <= 200]
    assert len(small) == 15
    for sym in small:
        t = tables[sym]
        n = t.order
        inv = [next(y for y in range(n) if mul(t, g, y) == 0)
               for g in range(n)]
        classes = conjugacy_classes(t)
        for x in range(n):
            orbit = {mul(t, mul(t, g, x), inv[g]) for g in range(n)}
            assert {y for y in range(n)
                    if classes.class_of[y] == classes.class_of[x]} == orbit, \
                (sym, x)
            cid = classes.class_of[x]
            assert classes.reps[cid] == min(orbit), (sym, x)
            assert classes.sizes[cid] == len(orbit), (sym, x)


def test_fast_paths_match_todd_coxeter():
    for sym in ("Z2", "Z3", "Z17", "Z40", "2[3]2", "I2(4)", "I2(7)", "I2(16)"):
        d = parse_symbol(sym)
        fast = enumerate_group(d)
        slow = GroupTable(d, todd_coxeter(d, 10_000))
        assert fast.right == slow.right, sym
        assert fast.parent == slow.parent, sym
        assert fast.last_letter == slow.last_letter, sym
        assert [fast.word(x) for x in range(fast.order)] == \
            [slow.word(x) for x in range(slow.order)], sym


def test_prebuilt_tables_are_canonical():
    # the cyclic and dihedral builders skip the breadth-first renumbering;
    # renumbering a random relabelling that fixes the identity must give
    # back their table and tree exactly
    rng = random.Random(28)
    symbols = (["Z%d" % m for m in range(2, 301)] + ["Z1997", "2 + 2"]
               + ["I2(%d)" % q for q in range(3, 301)] + ["I2(994)"])
    for sym in symbols:
        d = parse_symbol(sym)
        t = enumerate_group(d)
        perm = [0] + rng.sample(range(1, t.order), t.order - 1)
        relabelled = []
        for col in t.right:
            new = [0] * t.order
            for x, y in enumerate(col):
                new[perm[x]] = perm[y]
            relabelled.append(new)
        std = GroupTable(d, relabelled)
        assert std.right == t.right, sym
        assert std.parent == t.parent, sym
        assert std.last_letter == t.last_letter, sym


def _conjugation_orbits(t):
    """The conjugacy classes by brute force: x's class is every g x g^-1,
    with products from mul and each inverse found by search."""
    n = t.order
    inv = [next(y for y in range(n) if mul(t, g, y) == 0) for g in range(n)]
    return {frozenset(mul(t, mul(t, g, x), inv[g]) for g in range(n))
            for x in range(n)}


def test_class_rules_match_brute_force():
    # commuting generators give singleton classes with no conjugation
    # computed; the rest still take the orbits of conjugation
    for sym, abelian in (("Z2", True), ("Z7", True), ("2 + 2", True),
                         ("2 + 3", True), ("3 + 4 + 2", True),
                         ("I2(5)", False), ("2[3]2 + 4", False)):
        t = enumerate_group(parse_symbol(sym))
        classes = conjugacy_classes(t)
        orbits = _conjugation_orbits(t)
        assert (len(orbits) == t.order) == abelian, sym
        assert classes.n_classes == len(orbits), sym
        members = {}
        for x, cid in enumerate(classes.class_of):
            members.setdefault(cid, set()).add(x)
        assert set(map(frozenset, members.values())) == orbits, sym
        assert classes.reps == sorted(map(min, orbits)), sym
        assert classes.sizes == [len(members[c])
                                 for c in range(classes.n_classes)], sym
    for m in (2, 3, 7, 12, 40):
        t = enumerate_group(parse_symbol("Z%d" % m))
        assert reflection_classes(t) == ReflectionClasses(
            list(range(1, m)), [1] * (m - 1)), m


def _regular_equivalence_diagrams():
    """Every irreducible admissible diagram of rank 2-4 and order <= 2000
    but the dihedral ones (a direct construction, checked above), every
    reducible one of order <= 200, and three larger reducible sums."""
    out = []
    for rank in (2, 3, 4):
        for order in range(2, 2001):
            out += [d for d in map(diagram_of, _irreducible_ids(rank, order))
                    if d.orders != (2, 2)]
            if order <= 200:
                out += [d for d in enumerate_admissible(rank, order)
                        if len(components_with_indices(d)) > 1]
    return out + [parse_symbol(s)
                  for s in ("2[3]2 + 4", "D4 + 2", "3[3]3 + 2[3]2")]


def test_induced_tables_match_todd_coxeter():
    diagrams = _regular_equivalence_diagrams()
    assert len(diagrams) > 1000
    for d in diagrams:
        fast = enumerate_group(d)
        slow = GroupTable(d, todd_coxeter(d, DEFAULT_CAP))
        assert fast.right == slow.right, d
        assert fast.parent == slow.parent, d


def test_todd_coxeter_over_parabolic_subgroups():
    for sym in ("B3", "H3", "G25", "D4", "F4"):
        d = parse_symbol(sym)
        n = d.rank
        for mask in range((1 << n) - 1):
            J = tuple(i for i in range(n) if mask >> i & 1)
            cos = todd_coxeter(d, DEFAULT_CAP, J)
            index = group_order(d) // group_order(d.induced(J))
            assert len(cos) == n, (sym, J)
            assert all(sorted(col) == list(range(index)) for col in cos), \
                (sym, J)
            assert all(cos[j][0] == 0 for j in J), (sym, J)


def test_induction_refuses_an_unfaithful_coset_action():
    # the largest maximal parabolic of 2[3]2 + 3 picked first is <r_1, r_2>,
    # which holds the whole normal factor <r_2> = Z3
    with pytest.raises(RuntimeError, match="faithfully"):
        _induced_right(parse_symbol("2[3]2 + 3"), DEFAULT_CAP)


def _right_sha256(t):
    blob = "\n".join(" ".join(map(str, col)) for col in t.right)
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of the standardized right columns, computed when tables were still
# built by Todd-Coxeter over the trivial subgroup
E6_RIGHT_SHA256 = \
    "f2a3695c0697f5f39b121c5d4a9026e5b048e00ebb0f93daec7211318f35147c"
G32_RIGHT_SHA256 = \
    "b3a67f24ac933ed2c8ffc15b4dbaf3d06be74ec64b6abe2e1182697d327c4e3c"


@pytest.mark.deep
def test_g32_table_pinned():
    t = enumerate_group(parse_symbol("G32"))
    assert t.order == 155520
    assert _right_sha256(t) == G32_RIGHT_SHA256


def test_deterministic_rebuild(tables):
    for sym in ("G25", "H3", "2[4]6"):
        a = enumerate_group(parse_symbol(sym))
        b = enumerate_group(parse_symbol(sym))
        assert a.right == b.right and a.parent == b.parent


def test_words_and_inverses(tables):
    for sym, t in tables.items():
        right_inv = [_invert(col) for col in t.right]
        for i in range(t.ngens):
            assert t.word(t.gen_elements[i]) == (i,)
            assert all(t.right[i][y] == x
                       for x, y in enumerate(right_inv[i])), (sym, i)
        for g in range(min(t.order, 50)):
            h = 0
            for letter in reversed(t.word(g)):
                h = right_inv[letter][h]
            assert mul(t, g, h) == 0, (sym, g)
            assert mul(t, h, g) == 0, (sym, g)


def test_e6_enumerates_within_default_cap():
    # the largest branched diagram under the default cap (order 51840)
    t = enumerate_group(parse_symbol("E6"))
    assert t.order == 51840
    assert n_reflections(t) == 36
    assert check_relations(t.diagram, t.right)
    assert _right_sha256(t) == E6_RIGHT_SHA256
