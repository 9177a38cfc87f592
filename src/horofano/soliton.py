"""Solitonic vector field from the vanishing of the weighted moment integral.

The field is the unique minimizer of the strictly convex weighted mass
G(xi) = integral over the moment polytope of exp(-2<p - kappa, xi>) against
the density measure; its gradient is -2 times the obstruction vector, so a
damped Newton iteration from 0 converges globally.

The Newton solve checks its quadrature order only where the check can fail
(the schedule is ``dh.checked_moments``'s).  At xi = 0 it evaluates the
upper order of the first pair alone: there the integrand is the density, a
polynomial whose degree in each collapsed variable is at most the density
degree + 2 + (r - 1), which both orders of that pair integrate exactly.
The first line-search trial runs the full check (one ``weighted_moments``
call), every later trial evaluates the order it settled on, and a field
that meets the residual bound is checked against the lower order of that
pair, climbing the schedule and iterating on where the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from . import dh
from .dh import weighted_moments
from .errors import SolverError
from .problem import HorosphericalProblem
from .rationals import Vec, vsub

ARMIJO_C = 1e-4
MAX_ITER = 100
# the Newton test |F(xi)| <= RESIDUAL_TOL * V, where V is the density volume
RESIDUAL_TOL = 1e-10


def _shifted(kappa: np.ndarray, xi: np.ndarray, raw):
    """I0, I1, I2 of exp(-2<p-kappa, xi>) dmu from the moments ``raw`` of
    exp(-2<p, xi>) dmu."""
    scale = float(np.exp(2.0 * kappa @ xi))
    return scale * raw[0], scale * raw[1], scale * raw[2]


def weighted_mass(hp: HorosphericalProblem, xi) -> float:
    """G(xi): the total density mass reweighted by exp(-2<p-kappa, xi>)."""
    xi = np.asarray(xi, dtype=np.float64)
    kappa = np.array([float(c) for c in hp.kappa])
    return float(np.exp(2.0 * kappa @ xi)) * weighted_moments(hp, -2.0 * xi).i0


def _newton_terms(kappa: np.ndarray, moments):
    """G, F, the Hessian of G and |F| from the shifted moments; values
    beyond the float range are a ``SolverError``."""
    g, i1, i2 = moments
    if not all(np.isfinite(m).all() for m in moments):
        raise SolverError("quadrature moments beyond the float range")
    f = i1 - kappa * g
    hess = 4.0 * (i2 - np.outer(kappa, i1) - np.outer(i1, kappa) + g * np.outer(kappa, kappa))
    resid = float(np.linalg.norm(f))
    if not (np.isfinite(resid) and np.isfinite(hess).all()):
        raise SolverError(f"soliton F or Hessian beyond the float range (|F| = {resid:.3e})")
    return g, f, hess, resid


@dataclass(frozen=True)
class SolitonSolution:
    xi: np.ndarray
    residual_norm: float
    iterations: int
    hessian_min_eig: float


@np.errstate(over="ignore", invalid="ignore")
def solve_soliton(hp: HorosphericalProblem) -> SolitonSolution:
    """Damped Newton on G from xi = 0 until |F(xi)| <= RESIDUAL_TOL * volume,
    in at most MAX_ITER steps, with the quadrature order checked where the
    check can fail (module docstring); values beyond the float range are a
    ``SolverError``."""
    r = hp.a1_dim
    kappa = np.array([float(c) for c in hp.kappa])
    try:
        vol = float(hp.volume)
    except OverflowError:
        raise SolverError("density volume beyond the float range") from None
    bound = RESIDUAL_TOL * vol
    xi = np.zeros(r)
    # raw: the moments of exp(-2<p, xi>) dmu at the held order; checked:
    # whether an order check has passed at xi
    order = dh.start_order(hp)
    raw, checked, first_trial = dh.unchecked_moments(hp, -2.0 * xi, order), False, True
    moments = _shifted(kappa, xi, raw)
    for it in range(MAX_ITER + 1):
        g, f, hess, resid = _newton_terms(kappa, moments)
        if resid <= bound and not checked:
            mom = dh.checked_moments(hp, -2.0 * xi, order, raw)
            checked = True
            if mom.order != order:
                order, raw = mom.order, (mom.i0, mom.i1, mom.i2)
                moments = _shifted(kappa, xi, raw)
                g, f, hess, resid = _newton_terms(kappa, moments)
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
            if first_trial:
                # the solve's one full check from the first pair
                mom = weighted_moments(hp, -2.0 * trial)
                order, raw, checked, first_trial = mom.order, (mom.i0, mom.i1, mom.i2), True, False
            else:
                raw, checked = dh.unchecked_moments(hp, -2.0 * trial, order), False
            # the accepted trial's moments are the next iterate's
            moments = _shifted(kappa, trial, raw)
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
