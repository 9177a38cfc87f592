import dataclasses
import hashlib
import importlib.util
import math
import struct
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

from a_priori import accepted_sweep, assert_gradient_confined, li_defect
from horofano import (
    HorosphericalProblem,
    MathValidationError,
    SchemaError,
    SolverError,
    build_root_system,
    continuity_sweep,
    density_from_forms,
    estimate_rm_numeric,
    from_vertices,
    greatest_ricci_lower_bound,
    parabolic_data,
    problem_from_root_data,
    solve_soliton,
    synthetic_problem,
    weighted_moments,
)
from horofano import continuity, kernels
from horofano.continuity import ContinuityOptions, build_setup

OPTS_FAST = ContinuityOptions(grid=801)


@pytest.fixture(scope="module")
def toric_m12():
    return synthetic_problem(from_vertices([(-1,), (2,)]))


@pytest.fixture(scope="module")
def toric_m12_soliton(toric_m12):
    return solve_soliton(toric_m12).xi


def reference(q_lo, q_hi, x):
    return continuity._reference_potential(
        float(q_lo), float(q_hi), np.asarray(x, dtype=np.float64)
    )


def residual_and_mask(setup, u, t):
    """The residual of the discrete equation at t for the grid potential u,
    and the per-point admissibility mask (curvature and gradient confinement
    beyond the rounding floors)."""
    f, (second, terms, _, _) = kernels.residual_1d(
        u, (1.0 - t) * setup.u0, setup.h, t, setup.xi, setup.bcoef, setup.boff, setup.qlo,
        setup.qhi, setup.invc,
    )
    return f, kernels.admissible_1d(second, terms, setup.conv_floor, setup.term_floor)


def state_at(hp, t, xi, options):
    """The potential and state at t < 1 solved from the reference potential,
    as the sweep solves its first state at t0 = t."""
    setup = build_setup(hp, xi, dataclasses.replace(options, t0=t))
    return *continuity._solve_state(setup, t, setup.u0, t), setup


def test_options_bound_the_grid_and_its_step():
    # the constructor only: no grid is allocated
    assert ContinuityOptions(grid=continuity.GRID_MAX).grid == continuity.GRID_MAX
    assert ContinuityOptions(tol=continuity.TOL_MAX).tol == continuity.TOL_MAX
    for kwargs, name in [
        ({"grid": continuity.GRID_MAX + 1}, "grid"),
        ({"grid": 1e20}, "grid"),
        ({"tol": 2 * continuity.TOL_MAX}, "tol"),
    ]:
        with pytest.raises(SchemaError) as err:
            ContinuityOptions(**kwargs)
        assert err.value.field == f"options.{name}"


def test_reference_potential_symmetric():
    assert abs(reference(-2, 2, [0.0])[0] - math.log(2.0)) < 1e-14
    x = np.linspace(-7.0, 7.0, 29)
    assert np.array_equal(reference(-2, 2, x), reference(-2, 2, -x))


def test_reference_potential_asymptotics():
    assert abs(reference(-2, 2, [30.0])[0] - 2.0 * 30.0) < 1e-12


def test_reference_potential_two_term_gradient():
    # gradient polytope [-4, 2] from the shifted interval example: the slope
    # at 0 is the mean of the two end slopes
    h = 1e-5
    ends = reference(-4, 2, [-h, h])
    assert abs((ends[1] - ends[0]) / (2 * h) - (-1.0)) < 1e-9


@pytest.mark.parametrize("vertices", [
    [(-4,), (2,)],
    [(-1,), (6,)],
    [(Q(-1, 2),), (Q(7, 3),)],
    [(-8,), (1,)],
    [(-1,), (1,)],
    [(Q(-3, 100),), (Q(5, 4),)],
])
def test_reference_potential_on_the_nine_point_mesh(vertices):
    # over the nine-point mesh of [-5, 5]: within log 2 of the support
    # function, and convex with secant slopes inside the gradient interval
    (q_lo,), (q_hi,) = vertices
    x = np.linspace(-5.0, 5.0, 9)
    value = reference(q_lo, q_hi, x)
    gap = value - np.maximum(float(q_lo) * x, float(q_hi) * x)
    assert np.all(gap >= -1e-9) and np.all(gap <= math.log(2.0) + 1e-9)
    slopes = np.diff(value) / np.diff(x)
    assert np.all(slopes >= float(q_lo) - 1e-12) and np.all(slopes <= float(q_hi) + 1e-12)
    assert np.all(np.diff(slopes) >= -1e-12)


def test_reference_potential_needs_interior_zero():
    # the gradient interval 2 (kappa - P) contains 0 exactly when kappa is
    # interior to P, which every constructed problem satisfies: kappa = 0
    # outside [1, 2] is rejected when the problem is built
    with pytest.raises(MathValidationError) as info:
        HorosphericalProblem(moment=from_vertices([(1,), (2,)]), kappa=(Q(0),),
                             density=density_from_forms([]))
    assert info.value.condition == "kappa_interior"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_soliton_field_rejected(toric_m12, value):
    # rejected before the grid or the weighted mass is computed
    with pytest.raises(MathValidationError, match="soliton parameter must be a finite number"):
        continuity_sweep(toric_m12, [value], OPTS_FAST)


@pytest.fixture(scope="module")
def scan_1d():
    """The 112 inputs of the 1-D scan (``tools/scan_1d.py``): toric [-a, b]
    with a, b in {1/2, ..., 4}, then B1 [a, b] with a in {0, ..., 3/4} and
    b in {5/4, ..., 4}, in quarter steps."""
    halves = [Q(k, 2) for k in range(1, 9)]
    problems = [synthetic_problem(from_vertices([(-a,), (b,)])) for a in halves for b in halves]
    return problems + [_b1(Q(a, 4), Q(b, 4)) for a in range(4) for b in range(5, 17)]


def _scan_tool():
    spec = importlib.util.spec_from_file_location(
        "scan_1d", Path(__file__).resolve().parent.parent / "tools" / "scan_1d.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_tool_inputs_and_line(scan_1d, tmp_path, monkeypatch):
    # the tool scans the fixture's intervals in the fixture's order, toric
    # (no density form) first; its lines for one input are recorded, the
    # zero-field one with its bracket [0.66634, 0.66649] below R = 2/3
    tool = _scan_tool()
    inputs = list(tool.scan_inputs())
    assert len(inputs) == len(scan_1d)
    for (label, spec), hp in zip(inputs, scan_1d):
        vertices = [tuple(Q(c) for c in v) for v in spec["polytope"]["moment"]["vertices"]]
        assert vertices == [tuple(v) for v in hp.moment.vertices]
        assert label.startswith("B1") == bool(hp.density.forms)
    monkeypatch.chdir(tmp_path)
    assert tool.run_one("toric[-1,2]", dict(inputs)["toric[-1,2]"], "all") == (
        "toric[-1,2] all reached_t1 12 5a966acf50786841 7a7f322f707b70b5 "
        "54764910919262e1 e3b0c44298fc1c14 5feceb66ffc86f38"
    )
    assert tool.zero_field_one("toric[-1,2]", dict(inputs)["toric[-1,2]"]) == (
        "toric[-1,2] zero-field divergence 14 0.6664131924768069 no 3274d3e4e0dcbc7b"
    )


@pytest.mark.parametrize("line", [
    "toric[-3/2,5/2] zero-field divergence 16 0.7497143662916261 no 4cc23bdee526a2f4",
    "toric[-4,3/2] zero-field divergence 13 0.5451823948937988 no f028a75e8d9854e8",
    "toric[-1/2,4] zero-field divergence 8 0.22207301989379885 no 7d7b105dd1c4cf0e",
], ids=lambda line: line.split()[0])
def test_scan_tool_zero_field_lines(tmp_path, monkeypatch, line):
    # more inputs of the diverge-1d family (zero-field sweeps of non-Einstein
    # toric intervals), recorded before the zero-field Newton step dropped its
    # dead work (and hashed over the state fields kept since): every accepted
    # state must keep its bits
    tool = _scan_tool()
    label = line.split()[0]
    monkeypatch.chdir(tmp_path)
    assert tool.zero_field_one(label, dict(tool.scan_inputs())[label]) == line


@pytest.mark.parametrize("field, expected", [
    ("zero", "c7d61abab9fdadab0f0c733e8c6dcd8b67ea17b8a1c33496d60b9ca2ab03d0f5"),
    ("soliton", "c382c76373cc78f0ecf0e1e7ac7e1a99b503d936fd07db8ccf7ff0776082cb56"),
])
def test_default_box_bits_on_the_scan(scan_1d, field, expected):
    # recorded with the box taken from facet and vertex norms of the
    # gradient polytope; every box bit feeds the grid and so every report
    boxes = [
        build_setup(hp, solve_soliton(hp).xi if field == "soliton" else [0.0],
                    ContinuityOptions(grid=11)).box
        for hp in scan_1d
    ]
    digest = hashlib.sha256("\n".join(b.hex() for b in boxes).encode()).hexdigest()
    assert digest == expected


def test_default_box_tail_mass_contract(scan_1d):
    # the tail mass of exp(-support) outside [-L, L] is below 1e-8 V
    for hp in scan_1d:
        s = build_setup(hp, [0.0], ContinuityOptions(grid=11))
        tail = math.exp(s.qlo * s.box) / -s.qlo + math.exp(-s.qhi * s.box) / s.qhi
        assert tail <= 1e-8 * s.volume


def test_reference_potential_stays_near_support(rng):
    x = rng.uniform(-6, 6, size=200)
    gap = reference(-4, 2, x) - np.maximum(-4.0 * x, 2.0 * x)
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= math.log(2.0) + 1e-12)


def test_ma_residual_at_reference_is_nonzero_definition(toric_m12):
    setup = build_setup(toric_m12, [0.0], OPTS_FAST)
    f, mask = residual_and_mask(setup, setup.u0, 0.0)
    assert mask.all()
    # definition check: residual equals u0'' / c - exp(-u0) pointwise
    h, u0 = setup.h, setup.u0
    uext = np.concatenate([[u0[0] - h * setup.qlo], u0, [u0[-1] + h * setup.qhi]])
    second = (uext[2:] - 2 * u0 + uext[:-2]) / h**2
    expected = second * setup.invc - np.exp(-u0)
    assert np.allclose(f, expected, atol=1e-14)
    assert np.max(np.abs(f)) > 1e-3


def test_ma_residual_of_solution_is_small(toric_m12):
    u, _, setup = state_at(toric_m12, 0.1, [0.0], OPTS_FAST)
    f, mask = residual_and_mask(setup, u, 0.1)
    assert mask.all()
    assert np.max(np.abs(f)) <= 1e-8


def test_ma_residual_flags_escaped_gradient(toric_m12):
    setup = build_setup(toric_m12, [0.0], OPTS_FAST)
    bad = 1.5 * setup.u0  # gradients cover 1.5x the admissible polytope
    _, mask = residual_and_mask(setup, bad, 0.5)
    assert not mask.all()


def test_solve_at_t_symmetric_even_solution():
    hp = synthetic_problem(from_vertices([(-1,), (1,)]))
    u, state, setup = state_at(hp, 0.4, [0.0], OPTS_FAST)
    assert state.x_t == 0.0
    n = u.shape[0]
    assert np.allclose(u, u[::-1], atol=1e-9)
    assert abs(state.m_t - (0.4 * u[n // 2] + 0.6 * setup.u0[n // 2])) < 1e-12


def test_solve_at_t_mass_identity(toric_m12):
    _, state, _ = state_at(toric_m12, 0.1, [0.0], ContinuityOptions(grid=2001))
    assert abs(state.mass - 3.0) / 3.0 <= 1e-4
    assert state.residual <= 1e-9


def test_solve_at_t_soliton_path_end(toric_m12, toric_m12_soliton):
    trace = continuity_sweep(toric_m12, toric_m12_soliton, OPTS_FAST)
    state = trace.final_state
    assert trace.reached_t1 and state.t == 1.0
    assert state.residual <= 1e-8
    assert abs(state.mass - 3.0) / 3.0 <= 1e-3


def test_newton_iteration_cap(toric_m12, monkeypatch):
    # one iteration allowed: a solve that needs more stagnates, and a solve
    # started from its own converged state still returns
    setup = build_setup(toric_m12, [0.0], OPTS_FAST)
    u, _, iters, _ = continuity._newton_1d(setup, 0.1, setup.u0.copy())
    assert iters > 1
    monkeypatch.setattr(continuity, "MAX_NEWTON", 1)
    with pytest.raises(SolverError, match="Newton stagnated"):
        continuity._newton_1d(setup, 0.1, setup.u0.copy())
    assert continuity._newton_1d(setup, 0.1, u)[2] <= 1


def test_sweep_halves_the_step_on_a_failed_linear_solve(toric_m12, monkeypatch):
    # a singular or non-finite tridiagonal system is a failed Newton solve:
    # the sweep shrinks the step down to MIN_STEP and reports divergence
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
    assert trace.final_step < 2 * continuity.MIN_STEP


def test_escaped_state_is_the_final_state(monkeypatch):
    # the state whose minimum point left the window is kept, at t0 as after
    # accepted states, with its potential
    hp = synthetic_problem(from_vertices([(-1,), (2,)]))
    options = ContinuityOptions(grid=201)
    later = continuity_sweep(_b1(Q(1, 4), 3), [0.0], ContinuityOptions(grid=401))
    monkeypatch.setattr(continuity, "WINDOW", 1e-3)
    at_t0 = continuity_sweep(hp, [0.0], options)
    assert (at_t0.termination, len(at_t0.states)) == ("divergence", 0)
    assert len(later.states) == 20
    for trace in (at_t0, later):
        state = trace.final_state
        assert trace.termination == "divergence" and state.t == trace.diverged_at
        assert abs(state.x_t) > continuity.WINDOW * trace.box
        assert trace.u.shape == (trace.grid,)
    assert at_t0.final_state.t == options.t0


def test_accepted_states_count_their_newton_iterations(zero_field_401, toric_m12,
                                                      toric_m12_soliton):
    # every accepted state, the first one and the gauge-deflated t = 1 one
    # included, reports the iterations of its solve
    trace, counts = zero_field_401
    iterations = [s.newton_iterations for s in trace.states]
    assert all(1 <= n <= continuity.MAX_NEWTON for n in iterations)
    assert sum(iterations) <= counts["accepted"]
    end = continuity_sweep(toric_m12, toric_m12_soliton, ContinuityOptions(grid=401)).states[-1]
    assert end.t == 1.0 and end.newton_iterations >= 1


@pytest.mark.parametrize("grid", [201, 2001])
@pytest.mark.parametrize("soliton", [False, True], ids=["0", "xi"])
@pytest.mark.parametrize("t0", [None, 1.0], ids=["t0", "t0=1"])
@pytest.mark.parametrize("wall", [
    lambda: _b1(0, Q(5, 4)),
    lambda: _b1(0, 4),
    # two forms on [0, 3], both vanishing at the moment vertex 0
    lambda: synthetic_problem(from_vertices([(0,), (3,)]), kappa=(1,), forms=[(1,), (2,)]),
], ids=["B1[0,5/4]", "B1[0,4]", "two-forms"])
def test_t0_one_on_a_density_wall_fails_without_warnings(wall, t0, soliton, grid):
    # a polytope touching a density wall ends at its first solve, with zero
    # field and with the soliton field; the gauge-deflated first solve at
    # t0 = 1 rejects line-search trials whose residual overflowed, and so
    # whose gauge split is NaN, without a warning (the test run turns
    # warnings into errors)
    hp = wall()
    xi = solve_soliton(hp).xi if soliton else [0.0]
    options = ContinuityOptions(grid=grid) if t0 is None else ContinuityOptions(grid=grid, t0=t0)
    trace = continuity_sweep(hp, xi, options)
    assert trace.termination == "newton_failure" and not trace.states


def test_sweep_symmetric_reaches_one():
    hp = synthetic_problem(from_vertices([(-1,), (1,)]))
    trace = continuity_sweep(hp, [0.0], OPTS_FAST)
    assert trace.reached_t1
    assert trace.states[-1].residual <= 1e-8
    v = trace.volume
    assert all(abs(s.mass - v) / v <= 1e-3 for s in trace.states)
    assert all(abs(s.x_t) < 1e-6 for s in trace.states)


def test_sweep_zero_field_diverges_near_two_thirds(toric_m12):
    trace = continuity_sweep(toric_m12, [0.0], ContinuityOptions(grid=2001))
    assert trace.termination == "divergence"
    estimate, uncertainty = estimate_rm_numeric(trace)
    assert abs(estimate - 2.0 / 3.0) < 0.05
    assert uncertainty > 0
    # the minimizer location escapes monotonically toward the divergence
    tail = [s.x_t for s in trace.states[-5:]]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


def test_sweep_soliton_field_reaches_one(toric_m12, toric_m12_soliton):
    trace = continuity_sweep(toric_m12, toric_m12_soliton, ContinuityOptions(grid=2001))
    assert trace.reached_t1
    assert trace.states[-1].residual <= 1e-8
    assert all(abs(s.mass - 3.0) / 3.0 <= 1e-3 for s in trace.states)


def _m1_closed_form(hp, xi):
    """The grid-free t = 1 minimum m_1 = -log(psi(0) / c) of a 1-D problem,
    with psi(0) = -int_{q_lo}^0 s D(s) e^{xi s} ds, D(s) = prod(<f, kappa> -
    s f / 2), q_lo = 2 (kappa - max P) and c = 2 V_xi / V, each integral by
    200-point Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(200)
    kappa = float(hp.kappa[0])
    lo, hi = (float(v[0]) for v in hp.moment.vertices)
    forms = [float(f[0]) for f in hp.density.forms]
    p, wp = lo + (hi - lo) * (x + 1) / 2, w * (hi - lo) / 2
    dens = np.prod([f * p for f in forms], axis=0) if forms else np.ones_like(p)
    c_norm = 2 * np.sum(wp * dens * np.exp(-2 * (p - kappa) * xi)) / np.sum(wp * dens)
    q_lo = 2 * (kappa - hi)
    s, ws = q_lo * (x + 1) / 2, -w * q_lo / 2
    d = np.prod([f * kappa - s * f / 2 for f in forms], axis=0) if forms else np.ones_like(s)
    psi0 = -np.sum(ws * s * d * np.exp(xi * s))
    return -math.log(psi0 / c_norm)


@pytest.mark.parametrize("problem, m1, errors", [
    (lambda: synthetic_problem(from_vertices([(-1,), (2,)])), -0.6640147,
     {2001: 1.0e-5, 4001: 1.2e-6}),
    # at grid 4001 this sweep ends in divergence
    (lambda: _b1(Q(1, 2), 3), -0.3970334, {2001: 1.1e-4}),
])
def test_soliton_path_m1_matches_the_closed_form(problem, m1, errors):
    hp = problem()
    xi = float(solve_soliton(hp).xi[0])
    exact = _m1_closed_form(hp, xi)
    assert abs(exact - m1) < 1e-7
    seen = []
    for grid, error in errors.items():
        trace = continuity_sweep(hp, [xi], ContinuityOptions(grid=grid))
        assert trace.reached_t1
        seen.append(abs(trace.states[-1].m_t - exact))
        assert error / 2 <= seen[-1] <= 2 * error
    assert seen == sorted(seen, reverse=True)


def test_sweep_interval_m14_estimate():
    hp = synthetic_problem(from_vertices([(-1,), (4,)]))
    trace = continuity_sweep(hp, [0.0], ContinuityOptions(grid=2001))
    assert trace.termination == "divergence"
    estimate, _ = estimate_rm_numeric(trace)
    assert abs(estimate - 0.4) < 0.05


@pytest.fixture(scope="module")
def zero_field_401(toric_m12):
    """The zero-field sweep of [-1, 2] at grid 401 with its kernel calls
    counted: residual evaluations, Jacobian assemblies, Newton solves, and
    accepted iterates, found by replaying the line search's acceptance rule
    (no gauge deflation below t = 1) on the residuals it sees."""
    counts = {"residuals": 0, "jacobians": 0, "solves": 0, "accepted": 0}
    search = {}
    residual_1d, jacobian_1d, newton_1d = (
        kernels.residual_1d, kernels.jacobian_1d, continuity._newton_1d
    )

    def newton(*args, **kwargs):
        counts["solves"] += 1
        search.clear()
        return newton_1d(*args, **kwargs)

    def residual(*args, **kwargs):
        f, parts = residual_1d(*args, **kwargs)
        counts["residuals"] += 1
        with np.errstate(over="ignore"):
            merit = 0.5 * float(f @ f)
        if not search:  # the initial iterate of a solve
            search.update(merit=merit, lam=1.0)
        elif merit <= (search["merit"] * (1.0 - 2e-4 * search["lam"])
                       + 4.0 * np.finfo(float).eps * search["merit"]):
            counts["accepted"] += 1
            search.update(merit=merit, lam=1.0)
        else:
            search["lam"] *= 0.5
        return f, parts

    def jacobian(*args, **kwargs):
        counts["jacobians"] += 1
        return jacobian_1d(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuity, "_newton_1d", newton)
        mp.setattr(kernels, "residual_1d", residual)
        mp.setattr(kernels, "jacobian_1d", jacobian)
        trace = continuity_sweep(toric_m12, [0.0], ContinuityOptions(grid=401))
    return trace, counts


def test_jacobian_built_once_per_accepted_iterate(zero_field_401):
    # rejected line-search trials evaluate the residual only
    _, counts = zero_field_401
    assert counts["accepted"] > 0
    assert counts["jacobians"] == counts["accepted"] + counts["solves"]
    assert counts["jacobians"] < counts["residuals"]


def test_zero_field_sweep_golden(zero_field_401):
    # recorded with the single-call kernel that built the residual, the
    # Jacobian bands and the admissibility flag on every trial (and hashed
    # over the state fields kept since): the split leaves every Newton
    # decision, and so every state float, unchanged
    trace, _ = zero_field_401
    assert trace.termination == "divergence"
    assert trace.diverged_at == 0.6664897897875979
    assert trace.final_step == 0.00015319462158203123
    assert len(trace.states) == 14
    floats = [v for s in trace.states
              for v in (s.t, s.m_t, s.x_t, s.mass, s.residual, s.sup_psi, s.step,
                        s.gauge_defect)]
    digest = hashlib.sha256(struct.pack(f"<{len(floats)}d", *floats)).hexdigest()
    assert digest == "23b25e0d50a2f62ed18986cf7fb8ae2a4416a4ab3c7e751d7a1b9d8742860c28"


def test_zero_field_sweep_kernel_call_counts(zero_field_401):
    # a cheaper line-search trial must come from the kernel, not from a
    # changed search: the number of trials, accepted iterates and solves
    # is pinned
    _, counts = zero_field_401
    assert (counts["residuals"], counts["jacobians"], counts["solves"]) == (6778, 785, 27)


def _b1(a, b):
    rd = build_root_system([("B", 1)])
    return problem_from_root_data(rd, parabolic_data(rd, []), from_vertices([(a,), (b,)]))


def _soliton_sweep(hp, grid):
    return continuity_sweep(hp, solve_soliton(hp).xi, ContinuityOptions(grid=grid))


def _b1_half_to_3():
    """The soliton-path sweep of B1 [1/2, 3] at grid 401."""
    return _soliton_sweep(_b1(Q(1, 2), 3), 401)


@pytest.mark.parametrize("sweep, expected", [
    # one density form and a nonzero field: the stencil's gradient is read
    (_b1_half_to_3, "6c87e943c3b15bcd4489e7a32401a4329fb899f4a065eee17feb66941456bfb5"),
    # no forms; the sweep ends with the gauge-deflated solve at t = 1
    (lambda: _soliton_sweep(synthetic_problem(from_vertices([(-1,), (2,)])), 401),
     "d9fd13564fcd0fb7a0526c8c0f3eae797f7afe935936de3fc17a9bc208d004bb"),
    # zero field: the minimum point escapes the window after 20 states
    (lambda: continuity_sweep(_b1(Q(1, 4), 3), [0.0], ContinuityOptions(grid=401)),
     "ba53a0ac32ba391dbb07b913bb14ab272c368744617ccb95875397fdca7c487d"),
    # the step collapses at t = 0.999822 and the hop to t = 1 succeeds
    (lambda: _soliton_sweep(synthetic_problem(from_vertices([(Q(-5, 2),), (Q(1, 2),)])), 2001),
     "3ef4fe39d7d2d94149d59c7b2b741613021b6cd2842fdcc221f8edec5d936812"),
    # the step collapses at t = 0.999822 and the hop fails: divergence.  This
    # outcome flips when xi moves in its last bits, so a change to the
    # soliton solve may move this pin without a change to the sweep
    (lambda: _soliton_sweep(synthetic_problem(from_vertices([(-3,), (Q(1, 2),)])), 2001),
     "b1eac79c6a55a71f01b5bc11fe888609a8ae7e411541ed5718d057738ca32380"),
], ids=["b1[1/2,3]", "toric[-1,2]", "b1[1/4,3]-zero-field", "toric[-5/2,1/2]",
        "toric[-3,1/2]"])
def test_soliton_path_sweep_golden(sweep, expected):
    # every state float and the final potential's bytes; a diverged sweep
    # adds where it stopped and its last step
    trace = sweep()
    if trace.reached_t1:
        assert trace.states[-1].t == 1.0 and trace.states[-1].gauge_defect > 0
    else:
        assert trace.termination == "divergence"
    floats = [v for s in trace.states
              for v in (s.t, s.m_t, s.x_t, s.mass, s.residual, s.sup_psi, s.step,
                        s.gauge_defect)]
    digest = hashlib.sha256(struct.pack(f"<{len(floats)}d", *floats))
    digest.update(trace.u.tobytes())
    if trace.diverged_at is not None:
        digest.update(struct.pack("<2d", trace.diverged_at, trace.final_step))
    assert digest.hexdigest() == expected


def test_estimate_requires_proper_trace(zero_field_401):
    trace = dataclasses.replace(zero_field_401[0], termination="newton_failure")
    with pytest.raises(MathValidationError):
        estimate_rm_numeric(trace)
    # a sweep that reached t = 1 estimates R = 1 exactly
    trace = dataclasses.replace(zero_field_401[0], termination="reached_t1")
    assert estimate_rm_numeric(trace) == (1.0, 0.0)


def test_sweep_diagnostics_a_priori(toric_m12, toric_m12_soliton):
    trace, accepted = accepted_sweep(toric_m12, toric_m12_soliton, ContinuityOptions(grid=1201))
    v, d0 = trace.volume, trace.d0
    assert d0 == 4.0  # max vertex norm of the gradient polytope [-4, 2]
    assert trace.reached_t1
    for setup, u, s in accepted:
        assert_gradient_confined(setup, u, s)
        # Li's identity: 1.13e-4 at most on this grid (1.02e-3 at grid 401,
        # 4.07e-5 at 2001, so O(h^2))
        assert li_defect(toric_m12, setup, u, s.t) <= 3.5e-4
        # mass identity
        assert abs(s.mass - v) / v <= 1e-3
    sup_psis = [s.sup_psi for s in trace.states]
    assert max(sup_psis) - min(sup_psis) < 20.0  # bounded window along the sweep


def test_sweep_density_case_reaches_one():
    trace = _soliton_sweep(_b1(Q(1, 2), 3), 1201)
    assert trace.reached_t1
    v = trace.volume
    assert all(abs(s.mass - v) / v <= 1e-3 for s in trace.states)


def test_sweep_density_zero_field_matches_exact_bound():
    hp = _b1(Q(1, 2), 3)
    exact = float(greatest_ricci_lower_bound(hp).t_infinity)
    trace = continuity_sweep(hp, [0.0], ContinuityOptions(grid=1201))
    assert trace.termination == "divergence"
    estimate, _ = estimate_rm_numeric(trace)
    assert abs(estimate - exact) < 0.05


def test_gauge_defect_scales_like_h2(toric_m12, toric_m12_soliton):
    defects = []
    for grid in (801, 1601):
        trace = continuity_sweep(toric_m12, toric_m12_soliton,
                                 ContinuityOptions(grid=grid))
        assert trace.reached_t1
        defects.append(trace.final_state.gauge_defect)
    ratio = defects[0] / defects[1]
    assert 2.0 < ratio < 8.0  # halving h divides the broken-symmetry defect ~4x


def test_two_dimensional_problem_rejected():
    # the solver is one-dimensional: every entry point refuses r = 2 before
    # it builds a grid
    sq = synthetic_problem(from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)]))
    calls = [
        lambda: continuity_sweep(sq, [0.0, 0.0]),
        lambda: build_setup(sq, [0.0, 0.0], ContinuityOptions(grid=41)),
    ]
    for call in calls:
        with pytest.raises(MathValidationError) as info:
            call()
        assert info.value.condition == "dimension"


@pytest.mark.parametrize("call, message", [
    (lambda hp: build_setup(hp, [0.0, 0.0], ContinuityOptions(grid=41)),
     "soliton parameter has wrong dimension"),
    (lambda hp: weighted_moments(hp, [0.0, 0.0]), "exponent vector has wrong dimension"),
], ids=["build_setup", "weighted_moments"])
def test_vector_of_wrong_dimension_rejected_on_r1(toric_m12, call, message):
    with pytest.raises(MathValidationError, match=message):
        call(toric_m12)

