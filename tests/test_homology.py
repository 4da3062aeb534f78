from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfc.complexes import TypedComplex, join, milnor_fiber_complex
from mfc.diagram import parse_symbol
from mfc.group import enumerate_group
from mfc.homology import (_coreduced, _dense_diagonalize, rank_and_factors,
                          reduced_betti)
from mfc.verify import GroupContext
from mfc.walls import predicted_bouquet_count
from strategies import from_facets


def build(sym):
    return milnor_fiber_complex(enumerate_group(parse_symbol(sym)))[0]


def boundary_columns(c: TypedComplex, k: int) -> list[dict]:
    """Columns of the full boundary map from k-simplices to
    (k-1)-simplices: the reference for reduced_betti's coreduced route.

    Column entries are row -> +-1, a row being the index of a face among
    the (k-1)-simplices.  k = 0 is the augmentation onto the empty
    simplex.
    """
    simps = c.simplices(k)
    if k == 0:
        return [{0: 1} for _ in simps]
    faces = {s: i for i, s in enumerate(c.simplices(k - 1))}
    cols = []
    for s in simps:
        col = {}
        for pos in range(len(s)):
            f = s[:pos] + s[pos + 1:]
            col[faces[f]] = 1 if pos % 2 == 0 else -1
        cols.append(col)
    return cols


def rank_over_Q(cols, n_rows):
    """Independent oracle: dense Gaussian elimination with Fractions."""
    mat = [[Fraction(0)] * len(cols) for _ in range(n_rows)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            mat[r][j] = Fraction(v)
    rank = 0
    row = 0
    for col in range(len(cols)):
        piv = next((i for i in range(row, n_rows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        pv = mat[row][col]
        for i in range(n_rows):
            if i != row and mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
        rank += 1
        row += 1
    return rank


def test_ranks_match_fraction_elimination():
    for sym in ("A3", "G(3,1,2)", "3[3]3", "B3"):
        cx = build(sym)
        for k in range(cx.dim + 1):
            cols = boundary_columns(cx, k)
            rank, _factors = rank_and_factors(cols)
            n_rows = len(cx.simplices(k - 1)) if k else 1
            assert rank == rank_over_Q(cols, n_rows), (sym, k)


def test_g25_bouquet():
    b = reduced_betti(build("G25"))
    assert b.betti == {-1: 0, 0: 0, 1: 0, 2: 125}
    assert b.torsion_free


def test_g312_bouquet():
    # bouquet of (3-1)^2 = 4 circles
    b = reduced_betti(build("G(3,1,2)"))
    assert b.betti == {-1: 0, 0: 0, 1: 4}


def test_h3_sphere():
    b = reduced_betti(build("H3"))
    assert b.concentrated_value(2) == 1
    assert b.torsion_free


def test_single_vertex_contractible():
    c = from_facets([0], [(0,)])
    b = reduced_betti(c)
    assert all(v == 0 for v in b.betti.values())


def test_empty_simplex_only():
    c = TypedComplex([], {})
    assert reduced_betti(c).betti == {-1: 1}


def test_points():
    c = from_facets([0, 0, 0], [(0,), (1,), (2,)])
    assert reduced_betti(c).betti[0] == 2


# minimal 6-vertex triangulation of RP^2: H_1 = Z/2
RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
              (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def _rp2(shift=0):
    return from_facets(
        [0] * (6 + shift), [tuple(v + shift for v in f) for f in RP2_FACETS])


def _elementary_divisors(factors):
    """The prime-power orders of the cyclic summands of the torsion that
    the factors present, sorted.  A diagonalization without divisibility
    chaining may present Z/6 as 2 and 3 or as 6; this is the same for
    both."""
    out = []
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _reference_betti(c):
    """Betti numbers, torsion-freeness and torsion (by boundary degree) of
    c from its full boundary maps, one degree at a time."""
    ranks = {-1: 0, c.dim + 1: 0}
    torsion = {}
    for k in range(c.dim + 1):
        ranks[k], factors = rank_and_factors(boundary_columns(c, k))
        if _elementary_divisors(factors):
            torsion[k] = _elementary_divisors(factors)
    betti = {k: len(c.simplices(k)) - ranks[k] - ranks[k + 1]
             for k in range(c.dim + 1)}
    betti[-1] = 1 - ranks[0]
    return betti, not torsion, torsion


def _assert_matches_reference(c):
    b = reduced_betti(c)
    torsion = {k: _elementary_divisors(fs)
               for k, fs in b.invariant_factors.items() if fs}
    assert (b.betti, b.torsion_free, torsion) == _reference_betti(c)
    assert all(fs == sorted(fs) and 1 not in fs
               for fs in b.invariant_factors.values())
    return b


def test_projective_plane_torsion():
    c = _rp2()
    assert c.f_vector() == (6, 15, 10)
    b = _assert_matches_reference(c)
    assert b.betti == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert not b.torsion_free
    assert b.invariant_factors == {0: [], 1: [], 2: [2]}


def test_suspended_projective_plane_moves_torsion_up():
    # the join with two points: H_2 = Z/2, from the boundary out of degree 3
    c = join(_rp2(), from_facets([0, 0], [(0,), (1,)]))
    assert c.dim == 3
    b = _assert_matches_reference(c)
    assert b.betti == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}
    assert b.invariant_factors == {0: [], 1: [], 2: [], 3: [2]}


def test_disconnected_complex():
    # two hollow tetrahedra: two 2-spheres
    facets = [f for base in (0, 4) for f in
              ((base, base + 1, base + 2), (base, base + 1, base + 3),
               (base, base + 2, base + 3), (base + 1, base + 2, base + 3))]
    b = _assert_matches_reference(from_facets([0] * 8, facets))
    assert b.betti == {-1: 0, 0: 1, 1: 0, 2: 2}
    assert b.torsion_free


def test_isolated_first_vertex():
    # vertex 0 pairs with the empty simplex and no coreduction follows
    c = from_facets([0] * 7, [(0,), *_rp2(shift=1).chambers()])
    b = _assert_matches_reference(c)
    assert b.betti == {-1: 0, 0: 1, 1: 0, 2: 0}
    assert b.invariant_factors[2] == [2]


def test_torus_betti():
    # 7-vertex Csaszar torus: betti (0, 2, 1), torsion-free
    facets = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (2, 3, 5),
              (3, 5, 6), (3, 4, 6), (4, 6, 0), (4, 5, 0), (5, 0, 1),
              (5, 6, 1), (6, 1, 2), (6, 0, 2), (0, 3, 2)]
    c = from_facets([0] * 7, facets)
    assert c.f_vector() == (7, 21, 14)
    b = reduced_betti(c)
    assert b.betti == {-1: 0, 0: 0, 1: 2, 2: 1}
    assert b.torsion_free


def test_euler_consistency():
    for sym in ("A3", "G(3,1,2)", "G25", "H3", "3[4]3", "2[3]2 + 4"):
        cx = build(sym)
        b = reduced_betti(cx)
        chi_f = sum((-1) ** k * len(cx.simplices(k)) for k in range(cx.dim + 1)) - 1
        chi_b = sum((-1) ** k * v for k, v in b.betti.items())
        assert chi_f == chi_b, sym


def test_dim1_shortcut_matches_matrix_route():
    # force the generic matrix path on 1-dimensional complexes by
    # computing the ranks directly
    for sym in ("G(3,1,2)", "3[4]3", "I2(6)"):
        cx = build(sym)
        assert cx.dim == 1
        b = reduced_betti(cx)
        r0, _f0 = rank_and_factors(boundary_columns(cx, 0))
        r1, _f1 = rank_and_factors(boundary_columns(cx, 1))
        f_0, f_1 = cx.f_vector()
        assert b.betti[0] == f_0 - r0 - r1
        assert b.betti[1] == f_1 - r1


# small integer matrices as sparse columns; entries up to 4 in absolute
# value, so columns without a unit entry reach the dense fallback
_ENTRY = st.integers(-4, 4).filter(bool)


@st.composite
def _int_columns(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    cols = [draw(st.dictionaries(st.integers(0, n_rows - 1), _ENTRY,
                                 max_size=n_rows))
            for _ in range(n_cols)]
    return cols, n_rows


@settings(max_examples=300, deadline=None)
@given(_int_columns())
def test_rank_and_factors_is_exact(matrix):
    cols, n_rows = matrix
    snapshot = [dict(c) for c in cols]
    rank, factors = rank_and_factors(cols)
    assert cols == snapshot  # the input columns are left untouched
    assert rank == rank_over_Q(cols, n_rows) == len(factors)
    assert all(f > 0 for f in factors)
    # the product of the invariant factors is a matrix invariant (the gcd
    # of the maximal nonzero minors); compare with a dense diagonalization
    dense = [[col.get(r, 0) for col in cols] for r in range(n_rows)]
    assert prod(factors) == prod(d for d in _dense_diagonalize(dense) if d)


@st.composite
def _random_complexes(draw):
    """The closure of up to six random facets on 1-7 vertices; every
    vertex is a facet too, so the complex has all of them."""
    n = draw(st.integers(1, 7))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=4), max_size=6))
    return from_facets(
        [0] * n, [(v,) for v in range(n)] + [tuple(f) for f in facets])


@settings(max_examples=200, deadline=None)
@given(_random_complexes())
def test_euler_characteristic_is_alternating_betti_sum(c):
    b = reduced_betti(c)
    assert sum((-1) ** k * len(v) for k, v in c.by_dim.items()) == \
        1 + sum((-1) ** k * v for k, v in b.betti.items())


@settings(max_examples=200, deadline=None)
@given(_random_complexes())
def test_reduced_betti_matches_full_boundary_maps(c):
    _assert_matches_reference(c)


@pytest.mark.parametrize("sym", ["A3", "B4", "B5", "D5", "F4", "G25", "G26",
                                 "G(3,1,4)"])
def test_coreduction_leaves_one_cell_per_bouquet_sphere(sym):
    cx = build(sym)
    residue = _coreduced(cx)
    assert {k: len(cols) for k, cols in residue.items() if cols} == \
        {cx.dim: predicted_bouquet_count(parse_symbol(sym))}


def test_h4_sphere():
    # 14,400 chambers; the Coxeter complex of H4 is a 3-sphere
    b = reduced_betti(build("H4"))
    assert b.betti == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 1}
    assert b.torsion_free


@pytest.mark.deep
def test_reduced_betti_matches_full_boundary_maps_deep():
    ctx = GroupContext(parse_symbol("G32"))
    for r in ctx.refl_classes:
        _assert_matches_reference(ctx.fixed_of(r))
    for sym in ("E6", "A7", "B6"):
        _assert_matches_reference(
            milnor_fiber_complex(enumerate_group(parse_symbol(sym)))[0])
