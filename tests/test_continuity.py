import dataclasses
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from horofano import (
    MathValidationError,
    SolverError,
    build_root_system,
    continuity_sweep,
    estimate_rm_numeric,
    from_vertices,
    greatest_ricci_lower_bound,
    ma_residual,
    parabolic_data,
    problem_from_root_data,
    reference_potential,
    solve_at_t,
    solve_soliton,
    synthetic_problem,
)
from horofano import kernels
from horofano.continuity import ContinuityOptions, build_setup

OPTS_FAST = ContinuityOptions(grid=801)


@pytest.fixture(scope="module")
def toric_m12():
    return synthetic_problem(from_vertices([(-1,), (2,)]))


@pytest.fixture(scope="module")
def toric_m12_soliton(toric_m12):
    return solve_soliton(toric_m12).xi


def test_reference_potential_symmetric():
    rp = reference_potential(from_vertices([(-2,), (2,)]))
    assert abs(rp.value(np.array([[0.0]]))[0] - math.log(2.0)) < 1e-14
    assert abs(rp.grad(np.array([[0.0]]))[0, 0]) < 1e-14


def test_reference_potential_asymptotics():
    rp = reference_potential(from_vertices([(-2,), (2,)]))
    x = np.array([[30.0]])
    assert abs(rp.value(x)[0] - 2.0 * 30.0) < 1e-12


def test_reference_potential_two_term_gradient():
    # gradient polytope [-4, 2] from the shifted interval example
    rp = reference_potential(from_vertices([(-4,), (2,)]))
    assert abs(rp.grad(np.array([[0.0]]))[0, 0] - (-1.0)) < 1e-14


def test_reference_potential_needs_interior_zero():
    with pytest.raises(MathValidationError):
        reference_potential(from_vertices([(1,), (2,)]))


def test_reference_potential_stays_near_support(rng):
    rp = reference_potential(from_vertices([(-4, 0), (2, 0), (0, -2), (0, 3)]))
    pts = rng.uniform(-6, 6, size=(200, 2))
    gap = rp.value(pts) - rp.support(pts)
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= math.log(len(rp.vertices)) + 1e-12)


def test_ma_residual_at_reference_is_nonzero_definition(toric_m12):
    setup = build_setup(toric_m12, [0.0], OPTS_FAST)
    f, mask = ma_residual(toric_m12, setup.u0, 0.0, [0.0], setup=setup)
    assert mask.all()
    # definition check: residual equals u0'' / c - exp(-u0) pointwise
    h, u0 = setup.h, setup.u0
    uext = np.concatenate([[u0[0] - h * setup.qlo], u0, [u0[-1] + h * setup.qhi]])
    second = (uext[2:] - 2 * u0 + uext[:-2]) / h**2
    expected = second * setup.invc - np.exp(-u0)
    assert np.allclose(f, expected, atol=1e-14)
    assert np.max(np.abs(f)) > 1e-3


def test_ma_residual_of_solution_is_small(toric_m12):
    setup = build_setup(toric_m12, [0.0], OPTS_FAST)
    state = solve_at_t(toric_m12, 0.1, [0.0], setup=setup)
    f, mask = ma_residual(toric_m12, state.u, 0.1, [0.0], setup=setup)
    assert mask.all()
    assert np.max(np.abs(f)) <= 1e-8


def test_ma_residual_flags_escaped_gradient(toric_m12):
    setup = build_setup(toric_m12, [0.0], OPTS_FAST)
    bad = 1.5 * setup.u0  # gradients cover 1.5x the admissible polytope
    _, mask = ma_residual(toric_m12, bad, 0.5, [0.0], setup=setup)
    assert not mask.all()


def test_solve_at_t_symmetric_even_solution():
    hp = synthetic_problem(from_vertices([(-1,), (1,)]))
    state = solve_at_t(hp, 0.4, [0.0], options=OPTS_FAST)
    assert state.x_t == (0.0,)
    n = state.u.shape[0]
    assert np.allclose(state.u, state.u[::-1], atol=1e-9)
    assert abs(state.m_t - state.w[n // 2]) < 1e-12


def test_solve_at_t_mass_identity(toric_m12):
    state = solve_at_t(toric_m12, 0.1, [0.0], options=ContinuityOptions(grid=2001))
    assert abs(state.mass - 3.0) / 3.0 <= 1e-4
    assert state.residual_norm <= 1e-9


def test_solve_at_t_soliton_path_end(toric_m12, toric_m12_soliton):
    state = solve_at_t(toric_m12, 1.0, toric_m12_soliton, options=OPTS_FAST)
    assert state.residual_norm <= 1e-8
    assert abs(state.mass - 3.0) / 3.0 <= 1e-3


def test_solve_at_t_without_init_is_the_sweep(toric_m12, toric_m12_soliton):
    # one continuation loop: the cold solve returns the sweep's final state
    state = solve_at_t(toric_m12, 1.0, toric_m12_soliton, options=OPTS_FAST)
    trace = continuity_sweep(toric_m12, toric_m12_soliton, OPTS_FAST)
    assert trace.reached_t1
    assert state.t == 1.0
    for f in dataclasses.fields(state):
        assert np.array_equal(getattr(state, f.name), getattr(trace.final_state, f.name)), f.name


def test_solve_at_t_names_the_sweep_termination(toric_m12):
    trace = continuity_sweep(toric_m12, [0.0], OPTS_FAST)
    assert not trace.reached_t1
    with pytest.raises(SolverError, match=trace.termination):
        solve_at_t(toric_m12, 1.0, [0.0], options=OPTS_FAST)


def test_sweep_halves_the_step_on_a_failed_linear_solve(toric_m12, monkeypatch):
    # a singular or non-finite tridiagonal system is a failed Newton solve:
    # the sweep shrinks the step down to min_step and reports divergence
    thomas = kernels.thomas
    calls = {"n": 0}

    def failing_after_first_states(*bands):
        # the t0 solve takes 4 linear solves, so the first states are accepted
        calls["n"] += 1
        if calls["n"] > 50:
            bands = list(bands)
            bands[3] = np.full_like(bands[3], np.nan)
        return thomas(*bands)

    monkeypatch.setattr(kernels, "thomas", failing_after_first_states)
    trace = continuity_sweep(toric_m12, [0.0], ContinuityOptions(grid=201))
    assert trace.termination == "divergence"
    assert len(trace.states) >= 1
    assert trace.final_step < 2 * ContinuityOptions.min_step


def test_sweep_symmetric_reaches_one():
    hp = synthetic_problem(from_vertices([(-1,), (1,)]))
    trace = continuity_sweep(hp, [0.0], OPTS_FAST)
    assert trace.reached_t1
    assert trace.states[-1].residual <= 1e-8
    v = trace.volume
    assert all(abs(s.mass - v) / v <= 1e-3 for s in trace.states)
    assert all(abs(s.x_t[0]) < 1e-6 for s in trace.states)


def test_sweep_zero_field_diverges_near_two_thirds(toric_m12):
    trace = continuity_sweep(toric_m12, [0.0], ContinuityOptions(grid=2001))
    assert trace.termination == "divergence"
    estimate, uncertainty = estimate_rm_numeric(trace)
    assert abs(estimate - 2.0 / 3.0) < 0.05
    assert uncertainty > 0
    # the minimizer location escapes monotonically toward the divergence
    tail = [s.x_t[0] for s in trace.states[-5:]]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


def test_sweep_soliton_field_reaches_one(toric_m12, toric_m12_soliton):
    trace = continuity_sweep(toric_m12, toric_m12_soliton, ContinuityOptions(grid=2001))
    assert trace.reached_t1
    assert trace.states[-1].residual <= 1e-8
    assert all(abs(s.mass - 3.0) / 3.0 <= 1e-3 for s in trace.states)


def test_sweep_interval_m14_estimate():
    hp = synthetic_problem(from_vertices([(-1,), (4,)]))
    trace = continuity_sweep(hp, [0.0], ContinuityOptions(grid=2001))
    assert trace.termination == "divergence"
    estimate, _ = estimate_rm_numeric(trace)
    assert abs(estimate - 0.4) < 0.05


def test_estimate_requires_proper_trace(toric_m12):
    trace = continuity_sweep(toric_m12, [0.0], ContinuityOptions(grid=401))
    trace.termination = "newton_failure"
    with pytest.raises(MathValidationError):
        estimate_rm_numeric(trace)


def test_sweep_diagnostics_a_priori(toric_m12, toric_m12_soliton):
    trace = continuity_sweep(toric_m12, toric_m12_soliton, ContinuityOptions(grid=1201))
    v, d0 = trace.volume, trace.d0
    assert d0 == 4.0  # max vertex norm of the gradient polytope [-4, 2]
    for s in trace.states:
        # gradient confinement up to the broken-symmetry defect of the
        # gauge-deflated endpoint (zero away from t = 1)
        assert s.grad_margin >= -1e-9 - 30.0 * s.gauge_defect
        # discrete centering identity
        assert abs(s.centering) <= 1e-3 * v
        # mass identity
        assert abs(s.mass - v) / v <= 1e-3
    sup_psis = [s.sup_psi for s in trace.states]
    assert max(sup_psis) - min(sup_psis) < 20.0  # bounded window along the sweep


def test_sweep_density_case_reaches_one():
    rd = build_root_system([("B", 1)])
    pd = parabolic_data(rd, [])
    hp = problem_from_root_data(rd, pd, from_vertices([(Q(1, 2),), (3,)]))
    xi = solve_soliton(hp).xi
    trace = continuity_sweep(hp, xi, ContinuityOptions(grid=1201))
    assert trace.reached_t1
    v = trace.volume
    assert all(abs(s.mass - v) / v <= 1e-3 for s in trace.states)


def test_sweep_density_zero_field_matches_exact_bound():
    rd = build_root_system([("B", 1)])
    pd = parabolic_data(rd, [])
    hp = problem_from_root_data(rd, pd, from_vertices([(Q(1, 2),), (3,)]))
    exact = float(greatest_ricci_lower_bound(hp).t_infinity)
    trace = continuity_sweep(hp, [0.0], ContinuityOptions(grid=1201))
    assert trace.termination == "divergence"
    estimate, _ = estimate_rm_numeric(trace)
    assert abs(estimate - exact) < 0.05


def test_wall_touching_boundary_closure_rows():
    # moment polytope touching the density wall: the clamped boundary slope
    # sits where the density vanishes and the closure row takes over
    rd = build_root_system([("B", 1)])
    pd = parabolic_data(rd, [])
    hp = problem_from_root_data(rd, pd, from_vertices([(0,), (3,)]))
    setup = build_setup(hp, [0.0], OPTS_FAST)
    assert setup.closed_r and not setup.closed_l


def test_gauge_defect_scales_like_h2(toric_m12, toric_m12_soliton):
    defects = []
    for grid in (801, 1601):
        state = solve_at_t(toric_m12, 1.0, toric_m12_soliton,
                           options=ContinuityOptions(grid=grid, box=11.377409494277815))
        defects.append(state.gauge_defect)
    ratio = defects[0] / defects[1]
    assert 2.0 < ratio < 8.0  # halving h divides the broken-symmetry defect ~4x


def test_two_dimensional_problem_rejected():
    # the solver is one-dimensional: every entry point refuses r = 2 before
    # it builds a grid
    sq = synthetic_problem(from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)]))
    calls = [
        lambda: continuity_sweep(sq, [0.0, 0.0]),
        lambda: solve_at_t(sq, 0.3, [0.0, 0.0]),
        lambda: solve_at_t(sq, 0.3, [0.0, 0.0], init=np.zeros((41, 41))),
        lambda: ma_residual(sq, np.zeros((41, 41)), 0.3, [0.0, 0.0]),
    ]
    for call in calls:
        with pytest.raises(MathValidationError) as info:
            call()
        assert info.value.condition == "dimension"
