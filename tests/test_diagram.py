import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfc.diagram
from mfc.diagram import (EMPTY_DIAGRAM, Diagram, DiagramError, NotAdmissible,
                         _FAMILIES, _component_key, _irreducible_ids,
                         basic_degrees, classify, classify_component,
                         components_with_indices, diagram_name, diagram_of,
                         diagram_symbol, enumerate_admissible, group_id,
                         group_order, has_forbidden_subdiagram, parse_symbol)
from strategies import canonical_key, relabeled


def names(diagrams):
    return sorted(diagram_name(d) for d in diagrams)


def test_parse_linear_symbol():
    d = parse_symbol("3[3]3[4]2")
    assert d.orders == (3, 3, 2)
    assert d.edges == ((0, 1, 3), (1, 2, 4))


def test_parse_single_vertex():
    d = parse_symbol("2")
    assert d.orders == (2,) and d.edges == ()
    assert classify(d)[0].name == "Z2"


def test_parse_union():
    d = parse_symbol("2[3]2 + 4")
    comps = components_with_indices(d)
    assert [classify_component(c).name for c, _idx in comps] == ["A2", "Z4"]
    assert [idx for _c, idx in comps] == [(0, 1), (2,)]


def test_parse_q2_means_no_edge():
    d = parse_symbol("3[2]5")
    assert d.edges == ()
    assert names([d]) == ["Z3+Z5"]


def test_parse_errors():
    for bad in ("", "3[3]", "x17", "1[3]2", "2[1]2", "Z1", "G7"):
        with pytest.raises(DiagramError):
            parse_symbol(bad)


def test_components_empty_and_connected():
    assert components_with_indices(parse_symbol("1")) == []
    d4 = parse_symbol("D4")
    assert components_with_indices(d4) == [(d4, (0, 1, 2, 3))]


def test_classify_table_rows():
    assert classify_component(parse_symbol("3[4]3")).name == "G5"
    assert classify_component(parse_symbol("3[4]3")).degrees == (6, 12)
    assert classify_component(parse_symbol("2[4]6")).name == "G(6,1,2)"
    assert classify_component(parse_symbol("2[4]6")).degrees == (6, 12)
    assert classify_component(parse_symbol("H3")).degrees == (2, 6, 10)
    assert classify_component(parse_symbol("E6")).degrees == (2, 5, 6, 8, 9, 12)
    assert classify_component(parse_symbol("D4")).degrees == (2, 4, 4, 6)
    assert classify_component(parse_symbol("G(4,1,3)")).degrees == (4, 8, 12)


def test_group_id_rejects_unknown_family():
    with pytest.raises(DiagramError, match="unknown family 'X9'"):
        group_id("X9")


# parameters of each family over a spread of sizes, each giving a row
# that classifies its own diagram
FAMILY_PARAMS = {"cyclic": [(2,), (3,), (31,)],
                 "dihedral": [(5,), (7,), (12,), (30,)],
                 "A": [(2,), (3,), (17,)],
                 "D": [(4,), (5,), (9,)],
                 "monomial": [(2, 2), (3, 2), (31, 2), (2, 5), (4, 3)]}


def test_family_names_parse_to_their_rows():
    assert FAMILY_PARAMS.keys() == _FAMILIES.keys()
    for family, spread in FAMILY_PARAMS.items():
        for params in spread:
            gid = group_id(family, *params)
            assert classify(parse_symbol(gid.name)) == (gid,), gid.name


def test_classify_not_admissible():
    with pytest.raises(NotAdmissible):
        parse_symbol("3[3]3[3]3[3]2")  # odd edge with unequal orders
    with pytest.raises(NotAdmissible):
        classify_component(parse_symbol("5[5]5"))
    with pytest.raises(NotAdmissible):
        classify_component(parse_symbol("2[3]2[3]2[3]2[5]2"))  # H5
    branched = Diagram((3, 3, 3, 3), ((0, 1, 3), (0, 2, 3), (0, 3, 3)))
    with pytest.raises(NotAdmissible):
        classify_component(branched)


def _star(leaves):
    return Diagram((2,) * (leaves + 1),
                   tuple((0, j, 3) for j in range(1, leaves + 1)))


def test_classify_rejects_before_any_key(monkeypatch):
    # classification reads the diagram's shape and never runs the
    # (possibly factorial) key search, on large rows and on near misses
    def no_key(d):
        raise AssertionError("canonical key computed")

    monkeypatch.setattr(mfc.diagram, "_component_key", no_key)
    with pytest.raises(NotAdmissible):
        classify_component(_star(8))
    with pytest.raises(NotAdmissible):
        classify(_star(8))

    rows = {"A300": group_id("A", 300), "G(2,1,300)": group_id("monomial", 2, 300),
            "D300": group_id("D", 300), "E8": group_id("E8")}
    for sym, gid in rows.items():
        d = parse_symbol(sym)
        perm = list(range(d.rank))
        perm = perm[1::2] + perm[0::2]
        assert classify_component(d) == gid, sym
        assert classify(relabeled(d, perm)) == (gid,), sym
        assert classify(relabeled(d, perm[::-1])) == (gid,), sym

    def arm(hub, first):
        return ((hub, first, 3), (first, first + 1, 3))

    near_misses = {
        "fork with arms (2,2,2)": Diagram((2,) * 7, arm(0, 1) + arm(0, 3) + arm(0, 5)),
        "two branch vertices": Diagram((2,) * 6, ((0, 1, 3), (0, 2, 3), (0, 3, 3),
                                                  (3, 4, 3), (3, 5, 3))),
        "5-cycle": Diagram((2,) * 5, tuple((i, i + 1, 3) for i in range(4))
                           + ((0, 4, 3),)),
        "4-leaf star": _star(4),
        "D5 with a 4-edge": Diagram((2,) * 5, ((0, 1, 3), (1, 2, 3), (2, 3, 4),
                                               (2, 4, 3))),
        "2[4]2[3]2[4]2": parse_symbol("2[4]2[3]2[4]2"),
    }
    for d in near_misses.values():
        with pytest.raises(NotAdmissible, match="matches no table row"):
            classify(d)
        with pytest.raises(NotAdmissible):
            canonical_key(d)


def test_reading_shapes():
    from mfc.diagram import _reading
    assert _reading(parse_symbol("3[3]3[4]2")) == ("path", (2, 3, 3), (4, 3))
    assert _reading(parse_symbol("5")) == ("path", (5,), ())
    leg = ((3, 2),)
    assert _reading(relabeled(parse_symbol("E6"), (5, 3, 1, 0, 2, 4))) \
        == ("fork", 2, (leg, leg * 2, leg * 2))
    # a triangle with a tail beside a 4-vertex path: as many vertices and
    # steps out of the branch vertex as a fork, but not a tree
    tailed = Diagram((2,) * 8, ((0, 1, 3), (0, 2, 3), (0, 3, 3), (2, 3, 3),
                                (4, 5, 3), (5, 6, 3), (6, 7, 3)))
    for d in (tailed, _star(4), parse_symbol("2[3]2 + 2"), parse_symbol("1")):
        assert _reading(d) is None


def test_classify_is_cached(monkeypatch):
    d = parse_symbol("2[3]2[4]2 + 3[3]3 + 5")
    first = classify(d)
    assert [g.name for g in first] == ["G(2,1,3)", "G4", "Z5"]

    def no_components(d):
        raise AssertionError("components recomputed")

    monkeypatch.setattr(mfc.diagram, "components_with_indices", no_components)
    assert classify(d) == first
    assert diagram_name(d) == "G(2,1,3)+G4+Z5"


def test_classify_reversal_invariance():
    for sym in ("3[3]3[4]2", "2[4]6", "2[3]2[4]2", "4[4]3", "2[3]2[4]3"):
        d = parse_symbol(sym)
        rev = relabeled(d, tuple(reversed(range(d.rank))))
        assert classify_component(d) == classify_component(rev)
        assert canonical_key(d) == canonical_key(rev)


def test_symbol_roundtrip_up_to_reversal():
    for sym in ("3[3]3[4]2", "2[4]6", "H4", "G25", "2[3]2[3]2+4", "5"):
        d = parse_symbol(sym)
        again = parse_symbol(diagram_symbol(d))
        assert canonical_key(d) == canonical_key(again)


def test_diagram_symbol_pinned():
    # a path is written from whichever end gives the smaller string
    expected = {
        "3[3]3[4]2": "2[4]3[3]3", "2[4]10": "10[4]2", "10[4]2": "10[4]2",
        "G(12,1,3)": "12[4]2[3]2", "B4": "2[3]2[3]2[4]2",
        "H4": "2[3]2[3]2[5]2", "G21": "2[10]3", "I2(12)": "2[12]2",
        "G32": "3[3]3[3]3[3]3", "2[3]2 + 4": "2[3]2+4", "5 + 3[4]3": "5+3[4]3",
        "D4": "D4", "E6 + 5": "E6+5", "D5+10[4]2+2[4]2": "D5+10[4]2+2[4]2",
        "5[5]5": "5[5]5", "7": "7", "1": "1",
    }
    for sym, out in expected.items():
        assert diagram_symbol(parse_symbol(sym)) == out, sym
    d = parse_symbol("2[3]2[3]2[4]10")
    assert diagram_symbol(relabeled(d, (2, 0, 3, 1))) == "10[4]2[3]2[3]2"


def test_basic_degrees_and_order():
    assert basic_degrees(parse_symbol("G25")) == (6, 9, 12)
    assert group_order(parse_symbol("G25")) == 648
    assert basic_degrees(parse_symbol("1")) == ()
    assert group_order(parse_symbol("1")) == 1
    assert basic_degrees(parse_symbol("2[3]2 + 4")) == (2, 3, 4)


def test_order_matches_coset_enumeration():
    # classification degrees vs an independent Todd-Coxeter run
    from mfc.group import GroupTable, todd_coxeter
    for sym in ("3[3]3", "2[4]3", "A3", "B3", "H3", "3[4]3", "G25",
                "2[3]2[4]2", "D4"):
        d = parse_symbol(sym)
        t = GroupTable(d, todd_coxeter(d, 20000))
        assert t.order == group_order(d), sym


def test_forbidden_subdiagram_examples():
    assert has_forbidden_subdiagram(parse_symbol("E6"), ["D4", "F4", "H4"])
    for m, n in ((2, 1), (2, 4), (3, 3), (5, 2)):
        sym = "Z%d" % m if n == 1 else "G(%d,1,%d)" % (m, n)
        assert not has_forbidden_subdiagram(parse_symbol(sym),
                                            ["D4", "F4", "H4"])
    assert has_forbidden_subdiagram(parse_symbol("G26"),
                                    ["D4", "F4", "H4", "G25", "G26"])
    assert not has_forbidden_subdiagram(parse_symbol("G26"), ["D4", "F4", "H4"])
    assert has_forbidden_subdiagram(parse_symbol("G32"), ["G25"])
    assert not has_forbidden_subdiagram(parse_symbol("G32"), ["D4", "F4", "H4"])
    assert has_forbidden_subdiagram(parse_symbol("E8"), ["D4"])
    assert has_forbidden_subdiagram(parse_symbol("H4"), ["H4"])
    assert not has_forbidden_subdiagram(parse_symbol("H3"), ["D4", "F4", "H4"])


def test_forbidden_subdiagram_matches_brute_force():
    # every admissible diagram of rank <= 5 and order <= 800, plus F4,
    # G26, H4 and unions of them and G25 with one more component, against
    # a scan of all induced subdiagrams by brute-force key
    from mfc.walls import THEOREM_A_FORBIDDEN, THEOREM_B_FORBIDDEN
    targets = {_brute_component_key(parse_symbol(name)): name
               for name in THEOREM_A_FORBIDDEN}
    sizes = sorted({parse_symbol(name).rank for name in THEOREM_A_FORBIDDEN})
    brute_key = functools.lru_cache(maxsize=None)(_brute_component_key)
    diagrams = [d for rank in range(1, 6) for order in range(1, 801)
                for d in enumerate_admissible(rank, order)]
    diagrams += [parse_symbol(sym) for sym in ("F4", "G26", "H4", "F4 + 2",
                                               "G26 + 2[4]3", "3 + H4", "G25 + 2")]
    seen = set()
    for d in diagrams:
        found = {targets.get(brute_key(d.induced(subset)))
                 for size in sizes
                 for subset in itertools.combinations(range(d.rank), size)}
        seen |= found
        for families in (THEOREM_A_FORBIDDEN, THEOREM_B_FORBIDDEN):
            assert (has_forbidden_subdiagram(d, families)
                    == bool(found & set(families))), (d, families)
    assert seen >= set(THEOREM_A_FORBIDDEN)


def test_forbidden_monotone_under_superdiagrams():
    # adding vertices/edges (passing to a superdiagram) never flips true->false
    chain = ["D4", "D5", "D6", "E6", "E7", "E8"]
    fams = ["D4", "F4", "H4"]
    values = [has_forbidden_subdiagram(parse_symbol(s), fams) for s in chain]
    assert values[0] and all(values)
    assert has_forbidden_subdiagram(parse_symbol("D4") + parse_symbol("Z5"), fams)


def test_enumerate_admissible_rank2_order54():
    found = enumerate_admissible(2, 54)
    assert names(found) == sorted(["Z2+Z27", "Z3+Z18", "Z6+Z9", "I2(27)"])
    # independent completeness scan: every admissible order-54 rank-2 group
    # is either Zj x Zk with jk = 54 or I2(27); cross-check by brute force
    brute = set()
    for j in range(2, 55):
        for k in range(j, 55):
            if j * k == 54:
                brute.add("Z%d+Z%d" % (j, k))
    brute.add("I2(27)")
    assert set(names(found)) == brute


def test_enumerate_admissible_irreducible_filter():
    found = [d for d in enumerate_admissible(2, 72)
             if len(components_with_indices(d)) == 1]
    assert names(found) == sorted(["I2(36)", "G5", "G(6,1,2)"])


def test_enumerate_admissible_rank1_and_rank0():
    assert names(enumerate_admissible(1, 5)) == ["Z5"]
    assert enumerate_admissible(0, 1) == [parse_symbol("1")]
    assert enumerate_admissible(0, 2) == []
    assert enumerate_admissible(2, 0) == []


def test_enumerate_admissible_in_canonical_key_order():
    # recognition reports its candidates in this order, without sorting
    for rank in range(1, 5):
        for order in range(1, 400):
            keys = [canonical_key(d) for d in enumerate_admissible(rank, order)]
            assert keys == sorted(keys), (rank, order)


def test_enumerate_contains_handmade_diagrams():
    for sym in ("G26", "2[3]2 + 4", "Z2+Z2+Z2", "G(3,1,3)", "H3 + 2"):
        d = parse_symbol(sym)
        found = enumerate_admissible(d.rank, group_order(d))
        assert any(canonical_key(d) == canonical_key(x) for x in found), sym


def test_enumerate_deduplicates_by_isomorphism():
    keys = [canonical_key(x) for x in enumerate_admissible(2, 8)]
    assert len(keys) == len(set(keys))
    # 2[4]2 arises both as I2(4) and G(2,1,2): one entry only
    assert names(enumerate_admissible(2, 8)) == sorted(["Z2+Z4", "G(2,1,2)"])


def test_canonical_key_d4_vertex_order_independent():
    d4 = parse_symbol("D4")
    for perm in itertools.permutations(range(4)):
        assert canonical_key(relabeled(d4, perm)) == canonical_key(d4)


def test_degree_table_invariants():
    # d_1 = 2 exactly for Coxeter rows; d_1 < d_2 at rank >= 2
    coxeter = {"A3", "A4", "D4", "H3", "H4", "F4", "E6", "I2(7)", "I2(8)",
               "B3", "G(2,1,5)"}
    shephard = {"G4", "G5", "G6", "G8", "G9", "G10", "G14", "G16", "G17",
                "G18", "G20", "G21", "G25", "G26", "G32", "G(3,1,2)",
                "G(5,1,3)"}
    for sym in coxeter | shephard:
        gid = classify_component(parse_symbol(sym))
        degs = gid.degrees
        assert degs[0] >= 2
        assert (degs[0] == 2) == (sym in coxeter), sym
        if len(degs) >= 2:
            assert degs[0] < degs[1], sym


def test_enumerate_admissible_returns_fresh_lists():
    first = enumerate_admissible(2, 72)
    first.append(None)
    again = enumerate_admissible(2, 72)
    assert None not in again and again == first[:-1]


# ---------------------------------------------------------------------------
# the classification table, pinned
# ---------------------------------------------------------------------------

_PINNED_SYMBOLS = (
    ["A%d" % n for n in range(0, 10)] + ["B%d" % n for n in range(0, 9)]
    + ["D%d" % n for n in range(2, 10)] + ["E%d" % n for n in range(5, 10)]
    + ["F3", "F4", "F5", "H2", "H3", "H4", "H5"]
    + ["G%d" % n for n in range(0, 40)]
    + ["G04", "G4", "g5", "G023", "g28", "G30", "G35", "G36", "G37",
       "G(1,1,3)", "G(2,1,1)", "G(3,1,1)", "G(3,1,2)", "G(4,1,3)",
       "g(5,1,4)", "G(2,1,7)", "G(3,0,2)", "B(3,2)", "b(2,3)", "B(1,2)",
       "I2(2)", "I2(3)", "I2(4)", "I2(6)", "i2(12)", "Z1", "Z2", "z7",
       "Z_5", "Z0", "1", "2", "17", "3[3]3", "3[4]2", "2[4]3", "5[3]5",
       "2[3]2[3]2[4]2", "2[4]2[3]2[3]2", "3[3]3[3]3[3]3", "2[3]2[5]2[3]2",
       "2[3]2[3]2[3]2[5]2", "2[2]3[2]4", "4[3]4[4]2", "2[4]2[4]2",
       "2 + D4", "G25 + 2[4]3", "H3+2", "I2(5) + I2(5)", "E6+A1",
       "", "+", "3[3]", "x17", "1[3]2", "2[1]2", "3[3]2", "D", "B(2,3,4)"])


def _pinned_outcomes():
    """Outcome of every connected diagram of rank <= 3 with vertex orders
    2..6 and labels {2,3,4,5,6,8,10}, then of the named symbols: the
    classified name and degrees (and for a symbol its parsed diagram), or
    "not admissible" for any DiagramError."""
    labels = (2, 3, 4, 5, 6, 8, 10)
    pairs = ((0, 1), (0, 2), (1, 2))
    inputs = [((p,), ()) for p in range(2, 7)]
    inputs += [((p, r), ((0, 1, q),)) for p in range(2, 7)
               for r in range(2, 7) for q in labels[1:]]
    for orders in itertools.product(range(2, 7), repeat=3):
        for ms in itertools.product(labels, repeat=3):
            edges = tuple((i, j, m) for (i, j), m in zip(pairs, ms) if m > 2)
            if len(edges) >= 2:
                inputs.append((orders, edges))
    lines = []
    for orders, edges in inputs:
        try:
            gid = classify_component(Diagram(orders, edges))
            out = "%s %s" % (gid.name, gid.degrees)
        except DiagramError:
            out = "not admissible"
        lines.append("%s %s: %s" % (orders, edges, out))
    for sym in _PINNED_SYMBOLS:
        try:
            d = parse_symbol(sym)
            out = "%s %s %s %s" % (diagram_name(d), basic_degrees(d),
                                   d.orders, d.edges)
        except DiagramError:
            out = "not admissible"
        lines.append("%r: %s" % (sym, out))
    return lines


# sha256 of the outcomes above
PINNED_CLASSIFICATION = \
    "f80d1dade87adae8df02a199829ffb796a4b1a4b7cae8500b920d7ec1b3b4e8a"


def test_classification_pinned():
    lines = _pinned_outcomes()
    assert len(lines) == 40655 + len(_PINNED_SYMBOLS)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_CLASSIFICATION


def _orders_at(rank):
    """The group orders of every family row of this rank (with m <= 6 for
    G(m,1,n)) and of every exceptional row."""
    if rank <= 2:
        return range(2, 2001)
    rows = [group_id("A", rank), group_id("D", rank)]
    rows += [group_id("monomial", m, rank) for m in range(2, 7)]
    rows += [group_id(name) for name in ("H3", "G25", "G26", "F4", "H4",
                                         "G32", "E6", "E7", "E8")]
    return sorted({g.order for g in rows if g.rank == rank})


# by rank, every irreducible GroupId that enumeration yields at ranks 1-8
# for those orders
ROWS = {rank: [gid for order in _orders_at(rank)
               for gid in _irreducible_ids(rank, order)]
        for rank in range(1, 9)}
# a rank, then a row of that rank
any_row = st.integers(1, 8).flatmap(lambda rank: st.sampled_from(ROWS[rank]))


def test_rows_cover_the_table():
    names = {gid.name for rows in ROWS.values() for gid in rows}
    for name in ("Z2", "A2", "G(2,1,2)", "I2(5)", "G4", "G21", "A8", "D4",
                 "D8", "G(6,1,8)", "H3", "H4", "F4", "G25", "G26", "G32",
                 "E6", "E7", "E8"):
        assert name in names, name


@settings(max_examples=300, deadline=None)
@given(any_row, st.data())
def test_classify_inverts_diagram_of(gid, data):
    d = diagram_of(gid)
    perm = data.draw(st.permutations(range(d.rank)))
    assert classify_component(relabeled(d, perm)) == gid


@settings(max_examples=200, deadline=None)
@given(st.lists(any_row, min_size=1, max_size=3), st.data())
def test_symbol_parse_roundtrip(gids, data):
    d = EMPTY_DIAGRAM
    for gid in gids:
        d = d + diagram_of(gid)
    d = relabeled(d, data.draw(st.permutations(range(d.rank))))
    assert canonical_key(parse_symbol(diagram_symbol(d))) == canonical_key(d)


def _brute_component_key(d):
    """The least (orders, edges) encoding over every relabeling that
    sorts the vertices by (order, degree, incident labels): the reference
    for the branch and bound of _component_key."""
    labels = [[] for _ in range(d.rank)]
    for (i, j, m) in d.edges:
        labels[i].append(m)
        labels[j].append(m)
    inv = [(d.orders[i], len(labels[i]), tuple(sorted(labels[i])))
           for i in range(d.rank)]
    target = sorted(inv)
    classes = sorted(set(inv))
    best = None
    for choice in itertools.product(*[itertools.permutations(
            [i for i in range(d.rank) if inv[i] == c]) for c in classes]):
        perm = [v for placed in choice for v in placed]
        assert [inv[v] for v in perm] == target
        pos = {old: new for new, old in enumerate(perm)}
        key = (tuple(d.orders[v] for v in perm),
               tuple(sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), m)
                            for (i, j, m) in d.edges)))
        best = key if best is None else min(best, key)
    return best


@st.composite
def _graphs(draw):
    """A diagram on 1-6 vertices of orders 2 and 3 with random edges."""
    n = draw(st.integers(1, 6))
    orders = tuple(draw(st.lists(st.sampled_from((2, 2, 3)),
                                 min_size=n, max_size=n)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            labels = (2, 3, 4, 5) if orders[i] == orders[j] else (2, 4, 6)
            m = draw(st.sampled_from(labels))
            if m > 2:
                edges.append((i, j, m))
    return Diagram(orders, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_component_key_matches_brute_force(d):
    for comp, _idx in components_with_indices(d):
        assert _component_key(comp) == _brute_component_key(comp)
