"""Solitonic vector field from the vanishing of the weighted moment integral.

The field is the unique minimizer of the strictly convex weighted mass
G(xi) = integral over the moment polytope of exp(-2<p - kappa, xi>) against
the density measure; its gradient is -2 times the obstruction vector, so a
damped Newton iteration from 0 converges globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .dh import weighted_moments
from .errors import SolverError
from .problem import HorosphericalProblem
from .rationals import Vec, vsub

ARMIJO_C = 1e-4
MAX_ITER = 100
# the Newton test |F(xi)| <= RESIDUAL_TOL * V, where V is the density volume
RESIDUAL_TOL = 1e-10


def _moments_shifted(hp: HorosphericalProblem, xi: np.ndarray):
    """I0, I1, I2 of exp(-2<p-kappa, xi>) dmu, as floats."""
    kappa = np.array([float(c) for c in hp.kappa])
    mom = weighted_moments(hp, -2.0 * xi)
    scale = float(np.exp(2.0 * kappa @ xi))
    return scale * mom.i0, scale * mom.i1, scale * mom.i2


def weighted_mass(hp: HorosphericalProblem, xi) -> float:
    """G(xi): the total density mass reweighted by exp(-2<p-kappa, xi>)."""
    xi = np.asarray(xi, dtype=np.float64)
    i0, _, _ = _moments_shifted(hp, xi)
    return i0


@dataclass(frozen=True)
class SolitonSolution:
    xi: np.ndarray
    residual_norm: float
    iterations: int
    hessian_min_eig: float


@np.errstate(over="ignore", invalid="ignore")
def solve_soliton(hp: HorosphericalProblem) -> SolitonSolution:
    """Damped Newton on G from xi = 0 until |F(xi)| <= RESIDUAL_TOL * volume,
    in at most MAX_ITER steps; values beyond the float range are a ``SolverError``."""
    r = hp.a1_dim
    kappa = np.array([float(c) for c in hp.kappa])
    try:
        vol = float(hp.volume)
    except OverflowError:
        raise SolverError("density volume beyond the float range") from None
    bound = RESIDUAL_TOL * vol
    xi = np.zeros(r)
    moments = _moments_shifted(hp, xi)
    for it in range(MAX_ITER + 1):
        g, i1, i2 = moments
        if not all(np.isfinite(m).all() for m in moments):
            raise SolverError("quadrature moments beyond the float range")
        f = i1 - kappa * g
        hess = 4.0 * (i2 - np.outer(kappa, i1) - np.outer(i1, kappa) + g * np.outer(kappa, kappa))
        resid = float(np.linalg.norm(f))
        if not (np.isfinite(resid) and np.isfinite(hess).all()):
            raise SolverError(f"soliton F or Hessian beyond the float range (|F| = {resid:.3e})")
        if resid <= bound:
            return SolitonSolution(
                xi=xi,
                residual_norm=resid,
                iterations=it,
                hessian_min_eig=float(np.linalg.eigvalsh(hess)[0]),
            )
        if it == MAX_ITER:
            break
        step = np.linalg.solve(hess, 2.0 * f)
        slope = -2.0 * float(f @ step)  # directional derivative of G
        # the allowance keeps the test meaningful once the predicted decrease
        # drops below rounding noise on G (the pure Newton phase)
        allowance = 4.0 * np.finfo(float).eps * abs(g)
        lam = 1.0
        for _ in range(60):
            trial = xi + lam * step
            # the accepted trial's moments are the next iterate's
            moments = _moments_shifted(hp, trial)
            if moments[0] <= g + ARMIJO_C * lam * slope + allowance:
                break
            lam *= 0.5
        else:
            raise SolverError("line search failed in soliton Newton")
        xi = trial
    raise SolverError(
        f"soliton Newton stopped at |F| = {resid:.3e} after {MAX_ITER} iterations, "
        f"above the bound {RESIDUAL_TOL:g}*V = {bound:.3e}"
    )


def kahler_einstein_test(hp: HorosphericalProblem) -> tuple[bool, Vec]:
    """Exact test: the metric is Einstein iff the density barycenter equals kappa."""
    gap = vsub(hp.barycenter, hp.kappa)
    return all(c == Q(0) for c in gap), gap
