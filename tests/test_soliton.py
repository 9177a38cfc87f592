import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from horofano import (
    MathValidationError,
    from_vertices,
    greatest_ricci_lower_bound,
    kahler_einstein_test,
    solve_soliton,
    synthetic_problem,
    weighted_mass,
    weighted_moments,
)

INTERVAL_M12 = [(-1,), (2,)]


def futaki_vector(hp, xi):
    """The obstruction F(xi) = e^{2<kappa, xi>} (I1 - kappa I0), with I0 and
    I1 the moments of exp(-2<p, xi>) dmu."""
    xi = np.asarray(xi, dtype=np.float64)
    kappa = np.array([float(c) for c in hp.kappa])
    mom = weighted_moments(hp, -2.0 * xi)
    return np.exp(2.0 * kappa @ xi) * (mom.i1 - kappa * mom.i0)


def oracle_xi_star():
    """Independent bisection oracle for the soliton constant of [-1, 2]: the
    closed-form antiderivative of p exp(-c p) vanishes over the interval iff
    (1-c)e^c = (1+2c)e^{-2c}; the field is c/2."""
    def g(c):
        return (1.0 - c) * math.exp(c) - (1.0 + 2.0 * c) * math.exp(-2.0 * c)

    lo, hi = 0.1, 2.0
    assert g(lo) > 0 > g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.25 * (lo + hi)


def test_futaki_symmetric_zero():
    hp = synthetic_problem(from_vertices([(-1,), (1,)]))
    assert abs(futaki_vector(hp, [0.0])[0]) < 1e-14


def test_futaki_at_zero_is_volume_times_gap():
    hp = synthetic_problem(from_vertices(INTERVAL_M12))
    f = futaki_vector(hp, [0.0])
    assert abs(f[0] - 1.5) < 1e-12


def test_futaki_vanishes_at_oracle_root():
    hp = synthetic_problem(from_vertices(INTERVAL_M12))
    xi = oracle_xi_star()
    assert abs(futaki_vector(hp, [xi])[0]) < 1e-8


def test_solve_soliton_interval_against_bisection():
    hp = synthetic_problem(from_vertices(INTERVAL_M12))
    sol = solve_soliton(hp)
    assert abs(sol.xi[0] - oracle_xi_star()) < 1e-6
    assert sol.residual_norm <= 1e-10 * float(hp.volume)
    assert sol.hessian_min_eig > 0


def test_solve_soliton_symmetric_cases():
    assert abs(solve_soliton(synthetic_problem(from_vertices([(-1,), (1,)]))).xi[0]) < 1e-12
    sq = synthetic_problem(from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)]))
    assert np.max(np.abs(solve_soliton(sq).xi)) < 1e-12


def test_gradient_matches_finite_differences(rng):
    hp = synthetic_problem(
        from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)]),
        kappa=(Q(1), Q(1)),
        forms=[(1, 0)],
    )
    h = 5e-4
    for _ in range(10):
        xi = rng.uniform(-0.4, 0.4, size=2)
        grad = -2.0 * futaki_vector(hp, xi)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (weighted_mass(hp, xi + step) - weighted_mass(hp, xi - step)) / (2 * h)
            assert abs(fd - grad[axis]) <= 1e-6 * max(1.0, abs(grad[axis]))


def test_equivariance_under_scaling_and_permutation():
    base = synthetic_problem(
        from_vertices([(0, -1), (0, 1), (2, -1), (2, 1)]),
        kappa=(Q(1), Q(0)),
        forms=[(1, 0)],
    )
    xi_base = solve_soliton(base).xi
    # permutation of the two coordinates
    perm = synthetic_problem(
        from_vertices([(-1, 0), (1, 0), (-1, 2), (1, 2)]),
        kappa=(Q(0), Q(1)),
        forms=[(0, 1)],
    )
    xi_perm = solve_soliton(perm).xi
    assert np.allclose(xi_perm, xi_base[::-1], atol=1e-9)
    # anisotropic scaling p -> (2 p1, p2/3): forms scale inversely
    scaled = synthetic_problem(
        from_vertices([(0, Q(-1, 3)), (0, Q(1, 3)), (4, Q(-1, 3)), (4, Q(1, 3))]),
        kappa=(Q(2), Q(0)),
        forms=[(Q(1, 2), Q(0))],
    )
    xi_scaled = solve_soliton(scaled).xi
    assert np.allclose(xi_scaled, [xi_base[0] / 2.0, xi_base[1] * 3.0], atol=1e-9)


def test_ke_test_exact():
    assert kahler_einstein_test(synthetic_problem(from_vertices([(-1,), (1,)]))) == (
        True,
        (Q(0),),
    )
    ke, gap = kahler_einstein_test(synthetic_problem(from_vertices(INTERVAL_M12)))
    assert not ke and gap == (Q(1, 2),)
    ke3, gap3 = kahler_einstein_test(
        synthetic_problem(from_vertices([(1,), (3,)]), kappa=(Q(13, 6),), forms=[(1,)])
    )
    assert ke3 and gap3 == (Q(0),)


def test_ke_true_implies_small_soliton_field():
    # point symmetry about a nonzero kappa: any product of nonnegative linear
    # forms breaks it, so the symmetric pair carries the Lebesgue measure
    kappa = (Q(2), Q(-1))
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    verts = [tuple(kappa[i] + Q(o[i]) for i in range(2)) for o in offsets]
    hp = synthetic_problem(from_vertices(verts), kappa=kappa)
    ke, gap = kahler_einstein_test(hp)
    assert ke and all(c == 0 for c in gap)
    assert np.max(np.abs(solve_soliton(hp).xi)) < 1e-10


def quad_soliton_oracle(lo, hi, density_exponent, kappa):
    """Independent oracle: adaptive quadrature plus bisection for the root of
    the weighted first-moment integral over [lo, hi] with density p^k."""
    from scipy.integrate import quad

    def moment(xi):
        val, _ = quad(
            lambda p: (p - kappa) * math.exp(-2 * (p - kappa) * xi) * p**density_exponent,
            lo, hi,
        )
        return val

    a, b = -5.0, 5.0
    assert moment(a) > 0 > moment(b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if moment(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


@pytest.mark.parametrize(
    "lo,hi,expo,kappa",
    [(-1, 6, 0, 0), (-2, 3, 0, 0), (Q(1, 2), 3, 1, 1)],
)
def test_solve_soliton_against_quadrature_oracle(lo, hi, expo, kappa):
    forms = [(1,)] * expo
    hp = synthetic_problem(from_vertices([(lo,), (hi,)]), kappa=(Q(kappa),), forms=forms)
    sol = solve_soliton(hp)
    oracle = quad_soliton_oracle(float(lo), float(hi), expo, float(kappa))
    assert abs(sol.xi[0] - oracle) < 1e-7


def test_futaki_translation_invariance_toric():
    base = synthetic_problem(from_vertices([(-1,), (2,)]))
    shifted = synthetic_problem(from_vertices([(2,), (5,)]), kappa=(Q(3),))
    for xi in (0.0, 0.25, -0.4):
        assert abs(
            futaki_vector(base, [xi])[0] - futaki_vector(shifted, [xi])[0]
        ) < 1e-11


def _unimodular(rng, r):
    """A product of elementary shears and a signed permutation with entries
    of at most 2 in absolute value: an integer matrix of determinant +-1."""
    while True:
        a = np.eye(r, dtype=np.int64)
        for _ in range(3):
            i, j = rng.sample(range(r), 2)
            shear = np.eye(r, dtype=np.int64)
            shear[i, j] = rng.choice((-1, 1))
            a = shear @ a
        a = a[rng.sample(range(r), r)] * np.array([rng.choice((-1, 1)) for _ in range(r)])[:, None]
        if np.abs(a).max() <= 2:
            return [[int(c) for c in row] for row in a]


def _apply(a, v):
    return tuple(sum(Q(x) * y for x, y in zip(row, v)) for row in a)


@pytest.mark.parametrize("r", [2, 3])
def test_soliton_is_sl_r_z_equivariant(r):
    # p -> A p with A in SL(r, Z) (up to sign) maps the problem (P, kappa, F)
    # to (A P, A kappa, F A^-1): the density values and the Lebesgue measure
    # are kept, so V, R and the Einstein flag are equal, the barycenter is
    # A b, and <A p - A kappa, xi'> = <p - kappa, A^T xi'> gives
    # xi' = A^-T xi.  Hulls of random points, so the order checks of the
    # solve run on geometry other than boxes.
    rng = random.Random(3000 + r)
    einstein = []
    for case in range(10):
        pts = [tuple(Q(rng.randint(4, 16), 4) for _ in range(r)) for _ in range(r + 4)]
        forms = [tuple(rng.randint(0, 2) for _ in range(r)) for _ in range(rng.randint(1, 3))]
        forms = [f for f in forms if any(f)]
        if case == 0:
            # point symmetric about the vertex mean with no forms: Einstein
            pts += [tuple(4 - c for c in p) for p in pts]
            forms = []
        try:
            poly = from_vertices(pts)
        except MathValidationError:
            continue
        # the vertex mean weighs every vertex positively, so it is interior
        kappa = tuple(sum(c) / len(poly.vertices) for c in zip(*poly.vertices))
        a = _unimodular(rng, r)
        inv = np.linalg.inv(np.array(a, dtype=float)).round().astype(int)
        assert (np.array(a) @ inv == np.eye(r, dtype=int)).all()
        base = synthetic_problem(poly, kappa=kappa, forms=forms)
        moved = synthetic_problem(
            from_vertices([_apply(a, v) for v in poly.vertices]),
            kappa=_apply(a, kappa),
            forms=[_apply(inv.T.tolist(), f) for f in forms],
        )
        assert moved.volume == base.volume
        assert moved.barycenter == _apply(a, base.barycenter)
        assert (greatest_ricci_lower_bound(moved).t_infinity
                == greatest_ricci_lower_bound(base).t_infinity)
        einstein.append(kahler_einstein_test(base)[0])
        assert kahler_einstein_test(moved)[0] == einstein[-1]
        xi, xi_moved = solve_soliton(base).xi, solve_soliton(moved).xi
        want = np.linalg.solve(np.array(a, dtype=float).T, xi)
        assert np.linalg.norm(xi_moved - want) <= 1e-8 * max(np.linalg.norm(xi), 1.0)
    assert einstein[0] and len(einstein) >= 8
