from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from mfc.complexes import TypedComplex, milnor_fiber_complex
from mfc.diagram import parse_symbol
from mfc.group import enumerate_group
from mfc.homology import (_dense_diagonalize, boundary_columns,
                          rank_and_factors, reduced_betti)


def build(sym):
    return milnor_fiber_complex(enumerate_group(parse_symbol(sym)))[0]


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
    c = TypedComplex.from_facets([0], [(0,)])
    b = reduced_betti(c)
    assert all(v == 0 for v in b.betti.values())


def test_empty_simplex_only():
    c = TypedComplex([], {})
    assert reduced_betti(c).betti == {-1: 1}


def test_points():
    c = TypedComplex.from_facets([0, 0, 0], [(0,), (1,), (2,)])
    assert reduced_betti(c).get(0) == 2


def test_projective_plane_torsion():
    # minimal 6-vertex triangulation of RP^2: H_1 = Z/2
    facets = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
              (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    c = TypedComplex.from_facets([0] * 6, facets)
    assert c.f_vector() == (6, 15, 10)
    b = reduced_betti(c)
    assert b.betti == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert not b.torsion_free
    assert any(2 in fs for fs in b.invariant_factors.values())


def test_torus_betti():
    # 7-vertex Csaszar torus: betti (0, 2, 1), torsion-free
    facets = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (2, 3, 5),
              (3, 5, 6), (3, 4, 6), (4, 6, 0), (4, 5, 0), (5, 0, 1),
              (5, 6, 1), (6, 1, 2), (6, 0, 2), (0, 3, 2)]
    c = TypedComplex.from_facets([0] * 7, facets)
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
        assert b.get(0) == f_0 - r0 - r1
        assert b.get(1) == f_1 - r1


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
    return TypedComplex.from_facets(
        [0] * n, [(v,) for v in range(n)] + [tuple(f) for f in facets])


@settings(max_examples=200, deadline=None)
@given(_random_complexes())
def test_euler_characteristic_is_alternating_betti_sum(c):
    b = reduced_betti(c)
    assert sum((-1) ** k * len(v) for k, v in c.by_dim.items()) == \
        1 + sum((-1) ** k * v for k, v in b.betti.items())


def test_h4_sphere():
    # 14,400 chambers; the Coxeter complex of H4 is a 3-sphere
    b = reduced_betti(build("H4"))
    assert b.betti == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 1}
    assert b.torsion_free
