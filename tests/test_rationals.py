"""The exact core against references written here: determinants by cofactor
expansion, ranks as the size of the largest nonzero minor, solutions by
substitution, and the integer scalings of rational vectors; and the
integer elimination against the ``Fraction`` elimination of
``exact_reference``."""

from fractions import Fraction as Q
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference as ref
from horofano.errors import MathValidationError
from horofano.polytopes import _scale_halfspace
from horofano.rationals import (
    affine_rank,
    int_det,
    scaled_integers,
    solve_square,
)

ENTRIES = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
SIZES = st.integers(1, 4)


def vectors(dim):
    return st.lists(ENTRIES, min_size=dim, max_size=dim)


@st.composite
def matrices(draw, nrows, ncols):
    """Rows drawn as rational combinations of at most ``nrows`` generator
    rows, so singular and rank-deficient matrices are common."""
    gens = draw(st.lists(vectors(ncols), min_size=1, max_size=nrows))
    rows = []
    for _ in range(nrows):
        coeffs = draw(vectors(len(gens)))
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), Q(0)) for j in range(ncols)])
    return rows


def cofactor_det(a):
    if not a:
        return Q(1)
    return sum(
        ((-1) ** j * a[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
         for j in range(len(a))),
        Q(0),
    )


def minor_rank(rows):
    """The size of the largest nonzero minor."""
    n, m = len(rows), len(rows[0]) if rows else 0
    for k in range(min(n, m), 0, -1):
        for rs in combinations(range(n), k):
            for cs in combinations(range(m), k):
                if cofactor_det([[rows[i][j] for j in cs] for i in rs]) != 0:
                    return k
    return 0


def square_and_rhs():
    return SIZES.flatmap(lambda n: st.tuples(matrices(n, n), vectors(n)))


@settings(deadline=None)
@given(a=st.integers(1, 3).flatmap(lambda n: matrices(n, n)))
def test_int_det_is_the_cofactor_expansion(a):
    # the rows scaled to integers by L, the lcm of every denominator
    ints, scale = scaled_integers(a)
    assert all(type(c) is int for row in ints for c in row)
    assert [[Q(c, scale) for c in row] for row in ints] == a
    d = int_det(ints)
    assert type(d) is int and d == cofactor_det(a) * scale ** len(a)


@settings(deadline=None)
@given(system=square_and_rhs())
def test_solve_square_by_substitution(system):
    a, b = system
    x = solve_square(a, b)
    if cofactor_det(a) == 0:
        assert x is None
    else:
        assert all(isinstance(c, Q) for c in x)
        assert [sum((r * c for r, c in zip(row, x)), Q(0)) for row in a] == b


@settings(deadline=None)
@given(points=st.tuples(st.integers(1, 5), SIZES).flatmap(lambda nm: matrices(*nm)))
def test_affine_rank_is_the_lifted_rank_minus_one(points):
    # (p, 1) rows have rank one more than the affine span of the points p
    lifted = [row + [Q(1)] for row in points]
    assert affine_rank([tuple(p) for p in points]) == minor_rank(lifted) - 1


def test_affine_rank_of_no_points():
    assert affine_rank([]) == -1


def test_integer_matrices_give_fractions():
    # a row swap and a pivot that does not divide the rest
    x = solve_square([[0, 2, 1], [3, 1, 0], [1, 0, 2]], [1, 2, 3])
    assert all(isinstance(c, Q) for c in x) and x == (Q(9, 13), Q(-1, 13), Q(15, 13))
    x = solve_square([[3, 1], [1, 2]], [1, 1])
    assert all(isinstance(c, Q) for c in x) and x == (Q(1, 5), Q(2, 5))


@settings(deadline=None)
@given(system=SIZES.flatmap(
    lambda n: st.tuples(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                                 min_size=n, max_size=n),
                        st.lists(st.integers(-4, 4), min_size=n, max_size=n))))
def test_integer_systems_solve_exactly(system):
    a, b = system
    d = cofactor_det([[Q(c) for c in row] for row in a])
    assert len(a) > 3 or int_det(a) == d
    x = solve_square(a, b)
    if d == 0:
        assert x is None
    else:
        assert all(isinstance(c, Q) for c in x)
        assert [sum((r * c for r, c in zip(row, x)), Q(0)) for row in a] == b


def _coprime_integers(v):
    assert all(isinstance(c, Q) and c.denominator == 1 for c in v)
    g = 0
    for c in v:
        g = gcd(g, int(c))
    assert g == 1


def _ratio(v, x):
    """The s with v = s * x, checked on every entry."""
    k = next(i for i, c in enumerate(x) if c != 0)
    s = v[k] / x[k]
    assert list(v) == [s * c for c in x]
    return s


NONZERO = SIZES.flatmap(vectors).filter(lambda v: any(c != 0 for c in v))


@given(normal=NONZERO, offset=ENTRIES)
def test_scale_halfspace_keeps_the_halfspace(normal, offset):
    n, off = _scale_halfspace(tuple(normal), offset)
    _coprime_integers(n)
    s = _ratio(n, normal)
    assert s > 0  # a positive scale keeps the side of the inequality
    assert off == s * offset


def test_zero_vectors_have_no_normal_form():
    with pytest.raises(MathValidationError, match="zero normal in halfspace"):
        _scale_halfspace((Q(0), Q(0)), Q(1))


# rationals with denominators up to 10^30, beside small ones
WIDE = st.one_of(ENTRIES, st.fractions(min_value=-10**6, max_value=10**6,
                                       max_denominator=10**30))


@st.composite
def degenerate_points(draw):
    """Points in dims 1-3, each fresh, a repeat of an earlier one, on the
    line through two earlier ones or on the plane through three, so
    rank-deficient sets are common."""
    dim = draw(st.integers(1, 3))
    pts = [tuple(draw(st.lists(WIDE, min_size=dim, max_size=dim)))]
    for _ in range(draw(st.integers(0, 5))):
        a, b, c = (draw(st.sampled_from(pts)) for _ in range(3))
        s, t = draw(WIDE), draw(WIDE)
        pts.append(draw(st.sampled_from([
            tuple(draw(st.lists(WIDE, min_size=dim, max_size=dim))),
            a,
            tuple(x + s * (y - x) for x, y in zip(a, b)),
            tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c)),
        ])))
    return pts


@settings(deadline=None, max_examples=200)
@given(pts=degenerate_points(), rhs=st.lists(WIDE, min_size=3, max_size=3))
def test_integer_elimination_matches_the_fraction_route(pts, rhs):
    dim = len(pts[0])
    assert affine_rank(pts) == ref.rank(pts)
    if len(pts) >= dim:
        a, b = pts[:dim], rhs[:dim]
        x = solve_square(a, b)
        assert x == ref.solve(a, b)
        assert x is None or all(type(c) is Q for c in x)
