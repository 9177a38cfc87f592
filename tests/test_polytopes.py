import itertools
import random
from fractions import Fraction as Q
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bare import bare_problem
import exact_reference as ref
from horofano import (
    MathValidationError,
    Simplex,
    build_root_system,
    delta_from_moment,
    dh_volume,
    dual_polytope,
    from_halfspaces,
    from_vertices,
    moment_polytope,
    parabolic_data,
    synthetic_problem,
    triangulate,
    validate_reflective,
)
from horofano.polytopes import polytope_from_json, polytope_to_json
from horofano.rationals import vdot

SQUARE = [(-1, -1), (1, -1), (-1, 1), (1, 1)]


def test_interval_facets():
    p = from_vertices([(-1,), (1,)])
    assert p.facets == (((Q(-1),), Q(1)), ((Q(1),), Q(1)))


def test_square_from_halfspaces():
    p = from_halfspaces([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    assert set(p.vertices) == {(Q(sx), Q(sy)) for sx in (-1, 1) for sy in (-1, 1)}


def test_redundant_halfspace_removed():
    p = from_halfspaces(
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 5)]
    )
    assert len(p.facets) == 4


def test_lower_dimensional_rejected():
    with pytest.raises(MathValidationError):
        from_vertices([(0, 0), (1, 0)])
    with pytest.raises(MathValidationError):
        from_halfspaces([((1,), 0), ((-1,), 0)])


def test_unbounded_rejected():
    with pytest.raises(MathValidationError):
        from_halfspaces([((1, 0), 1), ((0, 1), 1)])
    with pytest.raises(MathValidationError):
        from_halfspaces([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)])


def test_interior_points_dropped():
    p = from_vertices(SQUARE + [(0, 0), (Q(1, 2), Q(1, 2))])
    assert len(p.vertices) == 4


def test_dual_square_is_diamond():
    sq = from_vertices(SQUARE)
    d = dual_polytope(sq)
    assert set(d.vertices) == {
        (Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)),
    }


def test_dual_interval_examples():
    assert dual_polytope(from_vertices([(-1,), (1,)])).vertices == ((Q(-1),), (Q(1),))
    assert dual_polytope(from_vertices([(-1,), (2,)])).vertices == (
        (Q(-1, 2),), (Q(1),),
    )


def test_dual_requires_interior_origin():
    with pytest.raises(MathValidationError):
        dual_polytope(from_vertices([(1,), (2,)]))


@pytest.mark.parametrize(
    "verts",
    [
        SQUARE,
        [(-1,), (2,)],
        [(-2, -1), (3, -1), (0, 2)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [(-1, -1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (1, 1, 1),
         (1, 1, -1), (1, -1, 1), (-1, 1, 1)],
    ],
)
def test_dual_involution(verts):
    p = from_vertices(verts)
    assert dual_polytope(dual_polytope(p)) == p


def test_support_values():
    p = from_vertices([(-2,), (4,)])
    assert [max(vdot(x, v) for v in p.vertices) for x in [(1,), (-1,), (0,)]] == [4, 2, 0]
    sq = from_vertices(SQUARE)
    assert max(vdot((1, 1), v) for v in sq.vertices) == 2


@settings(max_examples=60, deadline=None)
@given(
    x=st.tuples(st.fractions(max_denominator=20), st.fractions(max_denominator=20)),
    y=st.tuples(st.fractions(max_denominator=20), st.fractions(max_denominator=20)),
)
def test_support_subadditive_and_homogeneous(x, y):
    p = from_vertices([(-2, 0), (3, -1), (1, 2), (0, 1)])

    def s(p, x):
        return max(vdot(x, v) for v in p.vertices)

    xy = (x[0] + y[0], x[1] + y[1])
    assert s(p, xy) <= s(p, x) + s(p, y)
    assert s(p, (2 * x[0], 2 * x[1])) == 2 * s(p, x)


def test_support_norm_bound():
    p = from_vertices(SQUARE)
    # |support(x)| <= max vertex norm * |x|; compare squares to stay exact
    for x in [(Q(3), Q(-2)), (Q(-1), Q(7)), (Q(1, 3), Q(2, 5))]:
        lhs = max(vdot(x, v) for v in p.vertices)
        norm2_x = vdot(x, x)
        assert lhs * lhs <= 2 * norm2_x  # max vertex norm^2 = 2


def test_triangulate_interval_and_square():
    interval = from_vertices([(-1,), (2,)])
    tris = triangulate(interval)
    assert len(tris) == 1
    sq = from_vertices(SQUARE)
    tris = triangulate(sq)
    assert len(tris) == 2
    assert sum(ref.simplex_volume(t.vertices) for t in tris) == 4


def test_triangulate_hexagon_fan_count():
    hexagon = from_vertices(
        [(1, 0), (Q(1, 2), 1), (Q(-1, 2), 1), (-1, 0), (Q(-1, 2), -1), (Q(1, 2), -1)]
    )
    tris = triangulate(hexagon)
    assert len(tris) == len(hexagon.vertices) - 2
    assert sum(ref.simplex_volume(t.vertices) for t in tris) == 3


def test_triangulate_3d_box_volume():
    box = from_vertices([(x, y, z) for x in (0, 2) for y in (0, 1) for z in (0, 3)])
    assert sum(ref.simplex_volume(t.vertices) for t in triangulate(box)) == 6


def _fraction_triangulate(p):
    """The fan triangulation with incidence and polygon order in
    ``Fraction``s: the route the integer one must reproduce exactly."""
    def cmp(a, b):
        ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
        hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return 0 if cross == 0 else (-1 if cross > 0 else 1)

    def fan(points):
        center = tuple(sum(q[i] for q in points) / len(points) for i in range(2))
        ordered = sorted(points, key=cmp_to_key(
            lambda a, b: cmp(tuple(x - c for x, c in zip(a, center)),
                             tuple(x - c for x, c in zip(b, center)))))
        start = ordered.index(min(ordered))
        cyc = ordered[start:] + ordered[:start]
        return [(cyc[0], cyc[i], cyc[i + 1]) for i in range(1, len(cyc) - 1)]

    apex = p.vertices[0]
    if p.dim == 1:
        return [Simplex(vertices=p.vertices)]
    out = []
    for normal, offset in p.facets:
        if vdot(normal, apex) == offset:
            continue
        tight = [v for v in p.vertices if vdot(normal, v) == offset]
        if p.dim == 2:
            out.append(Simplex(vertices=(apex, *sorted(tight))))
            continue
        drop = max(range(3), key=lambda i: (abs(normal[i]), -i))
        keep = [i for i in range(3) if i != drop]
        flat = {tuple(v[i] for i in keep): v for v in tight}
        out += [Simplex(vertices=(apex, *(flat[q] for q in tri))) for tri in fan(sorted(flat))]
    return out


def _hexagonal_prism(rng, center, radius, height):
    """A prism over a rational hexagon, tilted by a rational shear."""
    hexagon = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    shear = Q(rng.randint(-3, 3), 4)
    return from_vertices([
        (center[0] + radius * x, center[1] + radius * y + shear * z, center[2] + z)
        for x, y in hexagon for z in (0, height)])


def test_triangulate_matches_the_fraction_route():
    rng = random.Random(20261019)

    def q(lo, hi, den=8):
        return Q(rng.randint(lo * den, hi * den), den)

    cases = [from_vertices(SQUARE), from_vertices([(-1,), (Q(5, 3),)])]
    for _ in range(8):
        dim = rng.randint(1, 3)
        lo = [q(-3, 3) for _ in range(dim)]
        cases.append(from_vertices(list(itertools.product(*[
            (a, a + q(1, 3)) for a in lo]))))
    while len(cases) < 26:
        dim = rng.randint(2, 3)
        try:
            cases.append(from_vertices([tuple(q(-3, 3) for _ in range(dim))
                                        for _ in range(dim + 1)]))
        except MathValidationError:
            continue  # a degenerate simplex draw
    for _ in range(6):
        cases.append(_hexagonal_prism(rng, [q(-2, 2) for _ in range(3)], q(1, 2), q(1, 3)))
    # the cuboctahedron: square and triangle facets, normals of mixed sign
    cases.append(from_vertices([(x, y, z) for x, y, z in itertools.product(
        (-2, 0, 2), repeat=3) if abs(x) + abs(y) + abs(z) <= 4]))
    for p in cases:
        assert triangulate(p) == _fraction_triangulate(p)


def test_moment_polytope_examples():
    rd = build_root_system([], torus_rank=1)
    pd = parabolic_data(rd, [])
    # toric, self-dual interval
    assert moment_polytope(from_vertices([(-1,), (1,)]), pd.kappa).vertices == (
        (Q(-1),), (Q(1),),
    )
    # toric square -> diamond
    pd2 = parabolic_data(build_root_system([], torus_rank=2), [])
    mom = moment_polytope(from_vertices(SQUARE), pd2.kappa)
    assert set(mom.vertices) == {(Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1))}
    # shifted: Q = [-1/2, 1], kappa = 1 gives moment [0, 3]
    mom1 = moment_polytope(from_vertices([(Q(-1, 2),), (1,)]), (Q(1),))
    assert mom1.vertices == ((Q(0),), (Q(3),))
    assert mom1.contains((Q(1),), strict=True)


def test_delta_from_moment_examples():
    assert delta_from_moment(from_vertices([(-1,), (1,)]), (Q(0),)).vertices == (
        (Q(-1),), (Q(1),),
    )
    assert delta_from_moment(from_vertices([(-1,), (2,)]), (Q(0),)).vertices == (
        (Q(-2),), (Q(1),),
    )
    assert delta_from_moment(from_vertices([(0,), (3,)]), (Q(1),)).vertices == (
        (Q(-2),), (Q(1),),
    )
    # kappa outside or on the boundary: HorosphericalProblem.validate decides
    for kappa in [(Q(0),), (Q(1),)]:
        with pytest.raises(MathValidationError) as info:
            synthetic_problem(from_vertices([(1,), (3,)]), kappa=kappa)
        assert info.value.condition == "kappa_interior"


def test_moment_then_delta_contains_zero():
    rd = build_root_system([("A", 1)])
    pd = parabolic_data(rd, [])
    q = from_vertices([(-1, 0), (1, 0), (0, -1), (0, 1), (Q(1, 2), Q(-1, 2))])
    mom = moment_polytope(q, pd.kappa)
    delta = delta_from_moment(mom, pd.kappa)
    assert delta.contains(tuple(Q(0) for _ in range(2)), strict=True)


def test_reflective_square_passes():
    rd = build_root_system([], torus_rank=2)
    pd = parabolic_data(rd, [])
    rep = validate_reflective(from_vertices(SQUARE), rd, pd)
    assert rep.zero_interior and rep.vertices_ok and rep.dual_ok
    assert rep.coroot_ok and rep.dominant_ok and rep.all_ok


def test_reflective_nonlattice_vertex_fails_condition_1():
    rd = build_root_system([], torus_rank=1)
    pd = parabolic_data(rd, [])
    rep = validate_reflective(from_vertices([(-1,), (Q(1, 3),)]), rd, pd)
    assert not rep.vertices_ok
    assert ((Q(1, 3),), "fail") in rep.vertex_branches
    assert rep.dual_ok  # dual is [-3, 1], lattice points


def test_reflective_nonlattice_dual_fails_condition_2():
    rd = build_root_system([], torus_rank=1)
    pd = parabolic_data(rd, [])
    rep = validate_reflective(from_vertices([(-2,), (1,)]), rd, pd)
    assert rep.vertices_ok
    assert not rep.dual_ok
    # the dual is [-1, 1/2]; the non-lattice vertex is reported
    assert (Q(1, 2),) in rep.dual_offenders


def test_reflective_coroot_membership_both_ways():
    rd = build_root_system([("A", 1)])
    pd = parabolic_data(rd, [])
    # coroot/a = alpha/2 = (1/2, -1/2); a polytope containing it
    good = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1)])
    rep = validate_reflective(good, rd, pd)
    assert rep.coroot_ok
    # compactness bound: max pairing of the root with the shifted dual square
    assert rep.f_bound == 4
    # and one missing it
    bad = from_vertices([(Q(1, 4), 0), (0, 1), (-1, 0), (0, -1)])
    rep2 = validate_reflective(bad, rd, pd)
    assert not rep2.coroot_ok
    assert any(not ok for *_, ok in rep2.coroot_witness)


def test_reflective_vertex_at_a_scaled_coroot():
    # A1, Levi []: kappa = (1, -1), a = 2, and the scaled coroot (1/2, -1/2)
    # is a vertex of q off the lattice
    rd = build_root_system([("A", 1)])
    pd = parabolic_data(rd, [])
    coroot = (Q(1, 2), Q(-1, 2))
    assert pd.kappa == (Q(1), Q(-1))
    rep = validate_reflective(from_vertices([coroot, (-1, 1), (1, 1), (-1, -1)]), rd, pd)
    assert (coroot, "coroot") in rep.vertex_branches
    assert rep.vertices_ok


def test_reflective_lattice_override():
    rd = build_root_system([], torus_rank=1)
    pd = parabolic_data(rd, [])
    rep = validate_reflective(
        from_vertices([(Q(-1, 2),), (Q(1, 2),)]), rd, pd,
        coweight_basis=[[Q(1, 2)]], character_basis=[[Q(2)]],
    )
    assert rep.vertices_ok
    assert rep.dual_ok  # dual is [-2, 2], multiples of 2


def test_json_round_trip():
    p = from_vertices([(-1, 0), (2, Q(1, 3)), (0, 1)])
    blob = polytope_to_json(p)
    assert polytope_from_json(blob) == p
    facet_blob = {
        "facets": [
            {"normal": [str(c) for c in n], "offset": str(off)} for n, off in p.facets
        ]
    }
    assert polytope_from_json(facet_blob) == p


@pytest.mark.parametrize(
    "verts",
    [SQUARE, [(-1,), (2,)], [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2)]],
)
def test_dual_representations_consistent(verts):
    p = from_vertices(verts)
    for v in p.vertices:
        assert p.contains(v)
    for normal, offset in p.facets:
        tight = [v for v in p.vertices if vdot(normal, v) == offset]
        assert len(tight) >= p.dim


def test_random_3d_hulls_match_qhull_volume(rng):
    # independent float oracle: Qhull volumes agree with the exact fan volume
    from scipy.spatial import ConvexHull

    done = 0
    while done < 6:
        pts = rng.integers(-3, 4, size=(8, 3))
        try:
            p = from_vertices([tuple(int(c) for c in row) for row in pts])
        except MathValidationError:
            continue
        exact = float(dh_volume(bare_problem(p)))
        hull = ConvexHull(pts.astype(float))
        assert abs(exact - hull.volume) < 1e-9 * max(1.0, hull.volume)
        # involution after centering at the (interior) vertex average
        n = len(p.vertices)
        center = tuple(sum(v[i] for v in p.vertices) / n for i in range(p.dim))
        centered = p.translate(tuple(-c for c in center))
        assert dual_polytope(dual_polytope(centered)) == centered
        done += 1
