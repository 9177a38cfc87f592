import numpy as np
import pytest
from scipy.linalg import solve_banded

from horofano import kernels
from horofano.errors import SolverError

# 1-D test potential: a perturbed convex potential with gradient in [QLO, QHI]
QLO, QHI = -2.0, 1.5
X = np.linspace(-5, 5, 41)
U0 = np.log(np.exp(QLO * X) + np.exp(QHI * X))
U = U0 + 0.01 * np.cos(X)
H = X[1] - X[0]

# density forms with factors boff - grad * bcoef / 2 positive on [QLO, QHI]
FORMS = {
    0: (np.zeros(0), np.zeros(0)),
    1: (np.array([1.0]), np.array([2.0])),
    2: (np.array([1.0, -1.0]), np.array([2.0, 1.5])),
}


def banded_reference(lower, diag, upper, rhs):
    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)


def dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def test_quad_moments_backends_agree(rng):
    # against a per-node loop
    pts = rng.uniform(-1, 2, size=(500, 2))
    wts = rng.uniform(0, 1, size=500)
    forms = np.array([[1.0, 0.5], [0.0, 2.0]])
    offs = np.array([3.0, 1.0])
    ell = np.array([0.3, -0.7])
    i0, i1, i2 = kernels.quad_moments(pts, wts, forms, offs, ell)
    ref0, ref1, ref2 = 0.0, np.zeros(2), np.zeros((2, 2))
    for p, wt in zip(pts, wts):
        w = wt * np.prod(forms @ p + offs) * np.exp(ell @ p)
        ref0 += w
        ref1 += w * p
        ref2 += w * np.outer(p, p)
    assert abs(i0 - ref0) <= 1e-12 * abs(ref0)
    assert np.allclose(i1, ref1, rtol=1e-12)
    assert np.allclose(i2, ref2, rtol=1e-12)


def test_residual_backends_agree():
    # against the pointwise equation with the affinely extended ghost nodes
    bcoef, boff = FORMS[1]
    t, xi, invc = 0.6, 0.2, 0.8
    f, _, _, _, ok = kernels.residual_1d(U, U0, H, t, xi, bcoef, boff, QLO, QHI, invc,
                                         1e-9, 1e-9, False, True)
    n = U.shape[0]
    admissible = True
    for i in range(n):
        um = U[i - 1] if i > 0 else U[0] - H * QLO
        up = U[i + 1] if i < n - 1 else U[-1] + H * QHI
        second = (up - 2 * U[i] + um) / H**2
        grad = (up - um) / (2 * H)
        admissible &= second >= -1e-9 and boff[0] - 0.5 * grad * bcoef[0] >= -1e-9
        expected = second if i == n - 1 else (
            second * (boff[0] - 0.5 * grad * bcoef[0]) * invc
            - np.exp(-(t * U[i] + (1 - t) * U0[i]) - grad * xi)
        )
        assert abs(f[i] - expected) <= 1e-12 * max(1.0, abs(expected))
    assert ok == admissible


@pytest.mark.parametrize("nforms", [0, 1, 2])
@pytest.mark.parametrize("closed_l,closed_r", [(False, False), (True, False), (False, True)])
def test_residual_jacobian_matches_finite_differences(nforms, closed_l, closed_r):
    bcoef, boff = FORMS[nforms]
    args = (U0, H, 0.6, 0.2, bcoef, boff, QLO, QHI, 0.8, 0.0, 0.0, closed_l, closed_r)
    _, lower, diag, upper, _ = kernels.residual_1d(U, *args)
    jac = dense(lower, diag, upper)
    eps = 1e-6
    fd = np.empty_like(jac)
    for j in range(U.shape[0]):
        e = np.zeros_like(U)
        e[j] = eps
        fd[:, j] = (kernels.residual_1d(U + e, *args)[0]
                    - kernels.residual_1d(U - e, *args)[0]) / (2 * eps)
    assert np.max(np.abs(fd - jac)) <= 1e-7 * np.max(np.abs(jac))


def test_thomas_backends_agree_and_solve(rng):
    # bitwise against scipy's banded solver, which runs the same LAPACK gtsv
    n = 200
    lower = np.zeros(n)
    upper = np.zeros(n)
    diag = -2.0 * np.ones(n) + 0.1 * rng.uniform(size=n)
    lower[1:] = 1.0 + 0.05 * rng.uniform(size=n - 1)
    upper[:-1] = 1.0 + 0.05 * rng.uniform(size=n - 1)
    rhs = rng.uniform(-1, 1, size=n)
    sol = kernels.thomas(lower, diag, upper, rhs)
    assert np.array_equal(sol, banded_reference(lower, diag, upper, rhs))
    assert np.allclose(sol, np.linalg.solve(dense(lower, diag, upper), rhs), atol=1e-10)
    for n in (3, 17, 2001):
        bands = [rng.normal(size=n) for _ in range(4)]
        assert np.array_equal(kernels.thomas(*bands), banded_reference(*bands))


def test_thomas_handles_near_neumann_chain():
    # weakly pinned second-difference chain: the plain recurrence without
    # pivoting hits a zero pivot here
    n = 50
    lower = np.zeros(n)
    upper = np.zeros(n)
    diag = np.full(n, -2.0)
    lower[1:] = 1.0
    upper[:-1] = 1.0
    diag[0] = -1.0
    diag[-1] = -1.0
    diag[n // 2] += 1e-12
    rhs = np.zeros(n)
    rhs[n // 2] = 1.0
    sol = kernels.thomas(lower, diag, upper, rhs)
    assert np.array_equal(sol, banded_reference(lower, diag, upper, rhs))
    exact = np.linalg.solve(dense(lower, diag, upper), rhs)
    assert np.allclose(sol, exact, rtol=1e-6)


def test_thomas_singular_is_solver_error():
    diag = np.array([1.0, 0.0, 1.0])
    with pytest.raises(SolverError, match="singular"):
        kernels.thomas(np.zeros(3), diag, np.zeros(3), np.ones(3))


@pytest.mark.parametrize("band", range(4))
def test_thomas_non_finite_is_solver_error(band):
    bands = [np.zeros(3), np.full(3, 2.0), np.zeros(3), np.ones(3)]
    bands[band][1] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        kernels.thomas(*bands)
