from fractions import Fraction as Q

import pytest

from horofano import (
    MathValidationError,
    build_root_system,
    from_vertices,
    greatest_ricci_lower_bound,
    parabolic_data,
    problem_from_root_data,
    ray_exit,
    synthetic_problem,
)
from horofano.polytopes import from_halfspaces
from horofano.rationals import vdot


def sweep_exit_oracle(polytope, direction, levels=3, grid=64):
    """Brute-force oracle: walk s over a rational grid, find the containment
    flip, and refine the bracket around it; exact membership throughout."""
    direction = tuple(Q(c) for c in direction)
    hi = Q(1)
    while polytope.contains(tuple(hi * c for c in direction)):
        hi *= 2
    lo = Q(0)
    for _ in range(levels):
        step = (hi - lo) / grid
        s = lo
        while s + step <= hi:
            point = tuple((s + step) * c for c in direction)
            if not polytope.contains(point):
                break
            s += step
        lo, hi = s, s + step
    return lo, hi


def test_ray_exit_interval():
    p = from_vertices([(-1,), (2,)])
    s, tight = ray_exit(p, (Q(-1, 2),))
    assert s == 2
    normal, off = p.facets[tight[0]]
    assert normal == (Q(-1),) and off == 1


def test_ray_exit_square_axis_and_corner():
    sq = from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    s, tight = ray_exit(sq, (1, 0))
    assert s == 1 and len(tight) == 1
    s2, tight2 = ray_exit(sq, (1, 1))
    assert s2 == 1 and len(tight2) == 2


def test_ray_exit_validation():
    sq = from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    with pytest.raises(MathValidationError):
        ray_exit(sq, (0, 0))
    shifted = from_vertices([(1, 1), (2, 1), (1, 2), (2, 2)])
    with pytest.raises(MathValidationError):
        ray_exit(shifted, (1, 0))


def test_exit_point_on_boundary_exact():
    p = from_vertices([(-1, -2), (3, -2), (3, 1), (-1, 1)])
    d = (Q(1, 3), Q(-1, 7))
    s, tight = ray_exit(p, d)
    point = tuple(s * c for c in d)
    assert p.contains(point)
    assert any(vdot(n, point) == off for n, off in p.facets)
    lo, hi = sweep_exit_oracle(p, d)
    assert lo <= s <= hi


@pytest.mark.parametrize(
    "verts,expected",
    [([(-1,), (2,)], Q(2, 3)), ([(-1,), (4,)], Q(2, 5))],
)
def test_rm_interval_values(verts, expected):
    hp = synthetic_problem(from_vertices(verts))
    res = greatest_ricci_lower_bound(hp)
    assert res.t_infinity == expected
    # cross-check the exit scalar with the brute-force sweep
    b = tuple(c for c in hp.barycenter)
    lo, hi = sweep_exit_oracle(hp.moment, tuple(-c for c in b))
    assert lo <= res.exit_scalar <= hi


def test_rm_square_with_gap_one_third():
    rd = build_root_system([("B", 1)], torus_rank=1)
    pd = parabolic_data(rd, [])
    hp = problem_from_root_data(
        rd, pd, from_vertices([(0, -1), (0, 1), (2, -1), (2, 1)])
    )
    assert hp.barycenter == (Q(4, 3), Q(0))  # gap (1/3, 0)
    res = greatest_ricci_lower_bound(hp)
    assert res.t_infinity == Q(3, 4)
    assert res.exit_scalar == 3
    recentred = hp.moment.translate(tuple(-c for c in hp.kappa))
    lo, hi = sweep_exit_oracle(recentred, (Q(-1, 3), Q(0)))
    assert lo <= res.exit_scalar <= hi


def test_rm_einstein_case_returns_one():
    hp = synthetic_problem(from_vertices([(-1,), (1,)]))
    res = greatest_ricci_lower_bound(hp)
    assert res.t_infinity == 1
    assert res.exit_scalar is None and res.tight_facets == ()


def unimodular_matrices():
    # products of integer shears and sign swaps, all determinant +-1
    mats = [
        [[1, 1], [0, 1]],
        [[1, 0], [-2, 1]],
        [[0, 1], [1, 0]],
        [[1, -3], [0, 1]],
        [[2, 1], [1, 1]],
    ]
    return [[[Q(a) for a in row] for row in m] for m in mats]


def inverse_transpose_2x2(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [
        [m[1][1] / det, -m[1][0] / det],
        [-m[0][1] / det, m[0][0] / det],
    ]


def apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(2)) for i in range(2))


def test_rm_unimodular_invariance_exact():
    rd = build_root_system([("B", 1)], torus_rank=1)
    pd = parabolic_data(rd, [])
    base = problem_from_root_data(
        rd, pd, from_vertices([(0, -1), (0, 1), (2, -1), (2, 1)])
    )
    expected = greatest_ricci_lower_bound(base).t_infinity
    for mat in unimodular_matrices():
        mit = inverse_transpose_2x2(mat)
        hp = synthetic_problem(
            from_vertices([apply(mat, v) for v in base.moment.vertices]),
            kappa=apply(mat, base.kappa),
            forms=[apply(mit, f) for f in base.density.forms],
        )
        assert greatest_ricci_lower_bound(hp).t_infinity == expected


def test_rm_dilation_invariance():
    hp = synthetic_problem(from_vertices([(-1,), (2,)]))
    base = greatest_ricci_lower_bound(hp).t_infinity
    for lam in (Q(2), Q(1, 3), Q(7, 5)):
        scaled = synthetic_problem(from_vertices([(-lam,), (2 * lam,)]))
        assert greatest_ricci_lower_bound(scaled).t_infinity == base


def test_rm_monotone_to_one_as_gap_closes():
    values = []
    for eps in (Q(1), Q(1, 2), Q(1, 4), Q(1, 8), Q(0)):
        hp = synthetic_problem(from_vertices([(-1,), (1 + eps,)]))
        values.append(greatest_ricci_lower_bound(hp).t_infinity)
    assert values == sorted(values)
    assert values[-1] == 1
    assert all(0 < v <= 1 for v in values)


def test_rm_halfspace_representation_input():
    # facet-representation input exercises the same exact path
    hp = synthetic_problem(
        from_halfspaces([((1,), 2), ((-1,), 1)])
    )
    assert greatest_ricci_lower_bound(hp).t_infinity == Q(2, 3)
