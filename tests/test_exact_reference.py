"""The integer routes of the exact core against the ``Fraction`` routes of
``exact_reference``: equal values, and ``Fraction``s throughout."""

import random
from fractions import Fraction as Q
from itertools import chain, combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact_reference as ref
from horofano import (
    Simplex,
    build_root_system,
    coroot,
    from_halfspaces,
    from_vertices,
    parabolic_data,
)
from horofano.dh import _integer_forms, _monomial_weights, _simplex_mass_moments
from horofano.errors import MathValidationError
from horofano.polytopes import _vertices_from_facets
from horofano.rationals import vdot

# small integers, halves and thirds, and denominators up to 10^6
COORDS = st.one_of(
    st.integers(-3, 3).map(Q),
    st.builds(Q, st.integers(-12, 12), st.sampled_from([2, 3, 4, 6])),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
)


def mass_moments(simplex, affine):
    """The exact mass and first moments of a product of rational affine
    forms ``(coeffs, offset)`` over a simplex."""
    table = _monomial_weights(len(affine), simplex.dim)
    return _simplex_mass_moments(simplex, _integer_forms(affine), table)


def _all_fractions(vectors):
    return all(type(c) is Q for v in vectors for c in v)


@st.composite
def point_sets(draw):
    """Rational points in dims 1-3 with duplicates, points interior to the
    hull of the others, and (in 3-D) extra points on the plane of three."""
    dim = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[COORDS] * dim), min_size=dim + 1, max_size=dim + 5))
    if draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    if dim == 3 and len(pts) >= 3 and draw(st.booleans()):
        a, b, c = pts[:3]
        s, t = draw(COORDS), draw(COORDS)
        pts.append(tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c)))
    return pts


@settings(deadline=None, max_examples=100)
@given(pts=point_sets())
def test_from_vertices_matches_the_fraction_route(pts):
    dim = len(pts[0])
    if ref.rank(pts) < dim:
        with pytest.raises(MathValidationError):
            from_vertices(pts)
        return
    p = from_vertices(pts)
    vertices, facets = ref.from_vertices(pts)
    assert p.vertices == vertices and p.facets == facets
    # the facet count keeps the vertices that Cramer's rule finds
    assert list(p.vertices) == _vertices_from_facets(list(p.facets), dim)
    assert _all_fractions(p.vertices)
    assert _all_fractions(n for n, _ in p.facets) and _all_fractions([[o for _, o in p.facets]])


def _centroid(points):
    return tuple(sum(c) / len(points) for c in zip(*points))


def test_facet_count_keeps_the_cramer_vertices():
    # seeded hulls in dims 1-3 fed again with their centroid (interior), the
    # centroid of each facet's vertices (inside the facet; in 3-D also a
    # point of two facets' common edge) and duplicates: the points that lie
    # on dim facets are the vertices Cramer's rule finds from the facets
    rng = random.Random(30)
    checked = 0
    while checked < 300:
        dim = rng.randint(1, 3)
        pts = [tuple(Q(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
               for _ in range(rng.randint(dim + 1, dim + 5))]
        if ref.rank(pts) < dim:
            continue
        hull = from_vertices(pts)
        faces = [[v for v in hull.vertices if vdot(n, v) == off] for n, off in hull.facets]
        extra = [_centroid(hull.vertices), *map(_centroid, faces), *rng.sample(pts, 2)]
        if dim == 3:
            extra += [_centroid(sorted(set(a) & set(b))) for a, b in combinations(faces, 2)
                      if len(set(a) & set(b)) == 2]
        points = pts + extra
        rng.shuffle(points)
        p = from_vertices(points)
        assert p.vertices == hull.vertices and p.facets == hull.facets
        assert list(p.vertices) == _vertices_from_facets(list(p.facets), dim)
        checked += 1


@settings(deadline=None, max_examples=60)
@given(pts=point_sets(), data=st.data())
def test_from_halfspaces_matches_the_fraction_route(pts, data):
    dim = len(pts[0])
    assume(ref.rank(pts) == dim)
    _, facets = ref.from_vertices(pts)
    halfspaces = []
    for normal, offset in facets:
        # rescaled by a positive rational, so the normals are not primitive
        s = data.draw(st.fractions(min_value=Q(1, 10**6), max_value=10**3).filter(bool))
        halfspaces.append(([s * c for c in normal], s * offset))
    for _ in range(data.draw(st.integers(0, 2))):  # redundant halfspaces
        normal, offset = data.draw(st.sampled_from(facets))
        halfspaces.append((normal, offset + data.draw(st.fractions(0, 2, max_denominator=7))))
    p = from_halfspaces(halfspaces)
    vertices, facets = ref.from_halfspaces(halfspaces)
    assert p.vertices == vertices and p.facets == facets
    assert _all_fractions(p.vertices) and _all_fractions([[o for _, o in p.facets]])


@settings(deadline=None, max_examples=150)
@given(pts=point_sets(), data=st.data())
def test_bounded_exactly_when_no_recession_ray(pts, data):
    # the facets of a bounded polytope, some dropped, plus halfspaces whose
    # normals are random or minus one or two earlier normals, so that 0 often
    # lies on the boundary of the hull of the normals
    dim = len(pts[0])
    assume(ref.rank(pts) == dim)
    _, facets = ref.from_vertices(pts)
    kept = [f for f in facets if data.draw(st.booleans())]
    for _ in range(data.draw(st.integers(0, 3))):
        normal = data.draw(st.tuples(*[COORDS] * dim))
        if kept and data.draw(st.booleans()):
            picks = data.draw(st.lists(st.sampled_from(kept), min_size=1, max_size=2))
            normal = tuple(-sum(c) for c in zip(*(n for n, _ in picks)))
        if any(normal):
            kept.append((normal, data.draw(COORDS)))
    assume(kept)
    unbounded = ref.unbounded([n for n, _ in kept], dim)
    try:
        from_halfspaces(kept)
        condition = None
    except MathValidationError as exc:
        condition = exc.condition
    assert (condition == "bounded") == unbounded


def test_one_sided_interval_is_unbounded():
    with pytest.raises(MathValidationError) as info:
        from_halfspaces([((-1,), -1)])
    assert info.value.condition == "bounded"
    assert ref.unbounded([(Q(-1),)], 1)


@st.composite
def simplices_and_forms(draw):
    """A nondegenerate rational simplex and up to five affine forms; one may
    vanish at a vertex, one may be the zero form, which vanishes on it all."""
    dim = draw(st.integers(1, 3))
    verts = draw(st.lists(st.tuples(*[COORDS] * dim), min_size=dim + 1, max_size=dim + 1))
    assume(ref.simplex_volume(verts) != 0)
    forms = draw(st.lists(st.tuples(st.tuples(*[COORDS] * dim), COORDS), max_size=5))
    if forms and draw(st.booleans()):
        coeffs, _ = forms[0]
        v = draw(st.sampled_from(verts))
        forms[0] = (coeffs, -sum(a * b for a, b in zip(coeffs, v)))
    if draw(st.booleans()):
        forms.insert(draw(st.integers(0, len(forms))), ((Q(0),) * dim, Q(0)))
    return verts, forms


@settings(deadline=None, max_examples=150)
@given(case=simplices_and_forms())
def test_mass_and_moments_match_the_fraction_route(case):
    verts, forms = case
    simplex = Simplex(vertices=tuple(verts))
    mass, moments = mass_moments(simplex, forms)
    ref_mass, ref_moments = ref.simplex_mass_moments(verts, forms)
    assert mass == ref_mass and moments == ref_moments
    assert type(mass) is Q and _all_fractions([moments])
    # the empty product: the volume from the integer determinant
    assert mass_moments(simplex, [])[0] == ref.simplex_volume(verts)


def test_forms_vanishing_at_a_vertex_and_everywhere():
    tri = ((Q(0), Q(0)), (Q(2), Q(0)), (Q(0), Q(3)))
    simplex = Simplex(vertices=tri)
    at_vertex = ((Q(1), Q(-1, 3)), Q(0))  # zero at the vertex (0, 0) only
    forms = [at_vertex, ((Q(1, 2), Q(1)), Q(1, 7))]
    mass, moments = mass_moments(simplex, forms)
    assert (mass, moments) == ref.simplex_mass_moments(tri, forms) and mass != 0
    zero = ((Q(0), Q(0)), Q(0))
    assert mass_moments(simplex, forms + [zero]) == (Q(0), [Q(0), Q(0)])


# every classical factor of dimension at most 3 (rank + 1 for A, the rank
# for B, C and D), alone and padded by a torus to dimension 3, a torus alone,
# and sums of factors
FACTORS = [(f, r) for f in "ABCD" for r in (1, 2, 3) if r + (f == "A") <= 3]
ROOT_CASES = (
    [((b,), 0) for b in FACTORS]
    + [((b,), 3 - b[1] - (b[0] == "A")) for b in FACTORS if b[1] + (b[0] == "A") < 3]
    + [((), 3), ((("A", 1), ("B", 1)), 0), ((("C", 2), ("B", 1)), 0),
       ((("D", 2), ("C", 1)), 0), ((("D", 1), ("B", 1), ("C", 1)), 0)]
)


@pytest.mark.parametrize(
    "factors, torus_rank", ROOT_CASES,
    ids=["+".join(f"{f}{r}" for f, r in fs) + f"+T{t}" for fs, t in ROOT_CASES],
)
def test_root_data_match_the_fraction_route(factors, torus_rank):
    rd = build_root_system(factors, torus_rank)
    dim, simple, positive = ref.root_system(factors, torus_rank)
    assert (rd.dim, rd.simple_roots, rd.positive_roots) == (dim, tuple(simple), tuple(positive))
    assert _all_fractions(chain(rd.simple_roots, rd.positive_roots))
    for root in positive:
        assert coroot(rd, root) == ref.coroot(root)
        assert _all_fractions([coroot(rd, root)])
    n = len(simple)
    for levi in chain.from_iterable(combinations(range(1, n + 1), k) for k in range(n + 1)):
        pd = parabolic_data(rd, levi)
        phi_q, kappa, a_alpha = ref.parabolic(dim, simple, positive, levi)
        assert (pd.phi_Q_plus, pd.kappa, pd.a_alpha) == (tuple(phi_q), kappa, a_alpha)
        assert _all_fractions([pd.kappa, *pd.phi_Q_plus, *pd.a_alpha])
        assert all(type(a) is int for a in pd.a_alpha.values())
