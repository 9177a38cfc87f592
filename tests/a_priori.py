"""The a priori checks of the solved 1-D states of a sweep, read from the
potentials it accepted."""

import math

import numpy as np
import pytest

from horofano import continuity, continuity_sweep, kernels


def accepted_sweep(hp, xi, options):
    """The sweep, and (setup, potential, state) for every state it accepted,
    recorded by wrapping ``continuity._solve_state``."""
    solved = []
    solve_state = continuity._solve_state

    def recording(setup, t, init, step):
        out = solve_state(setup, t, init, step)
        if out is not None:
            solved.append((setup, *out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuity, "_solve_state", recording)
        trace = continuity_sweep(hp, xi, options)
    # a solved state whose minimum point leaves the window is not accepted
    accepted = [r for r in solved if any(r[2] is s for s in trace.states)]
    assert [r[2] for r in accepted] == trace.states
    return trace, accepted


def gradient(setup, u):
    """The centred gradient of ``u`` on the solver's stencil."""
    return kernels.stencil_1d(u, setup.h, setup.qlo, setup.qhi, setup.bcoef, setup.boff)[1]


def assert_gradient_confined(setup, u, state):
    """The centred gradient lies in [q_lo, q_hi] up to the broken-symmetry
    defect of the gauge-deflated endpoint (zero away from t = 1), whose
    admissibility floors are widened by it."""
    grad = gradient(setup, u)
    margin = min(setup.qhi - grad.max(), grad.min() - setup.qlo)
    assert margin >= -1e-9 - 30.0 * state.gauge_defect


def li_defect(hp, setup, u, t):
    """|A_grid - A| / V for A = integral of u' exp(-w), w = t u + (1 - t) u0.

    Chi Li's identity t A + (1 - t) B = 0, with B the same integral of u0',
    is the vanishing of the integral of w' exp(-w).  By the equation, u'
    carries exp(-w) dx to the weighted density exp(xi q) dens(q) dq / c of
    the gradient interval, so A = 2 V (kappa - barycenter) at xi = 0 (c = 2)
    and A = 0 on the soliton field, whose weighted barycenter is kappa; at
    t = 1 Li's identity holds only where A = 0.  A_grid is the midpoint sum
    with the stencil's gradient plus the two affine tails beyond the half
    cells, where u' is q_lo or q_hi.
    """
    h, qlo, qhi = setup.h, setup.qlo, setup.qhi
    w = t * u + (1.0 - t) * setup.u0
    a_grid = (h * float(np.sum(gradient(setup, u) * np.exp(-w)))
              + math.exp(-(w[-1] + 0.5 * h * qhi)) - math.exp(-(w[0] - 0.5 * h * qlo)))
    v = setup.volume
    a_exact = 0.0
    if setup.xi == 0.0:
        a_exact = 2.0 * v * float(hp.kappa[0] - hp.barycenter[0])
    return abs(a_grid - a_exact) / v
