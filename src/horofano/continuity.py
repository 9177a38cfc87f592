"""Continuity method for the reduced real Monge-Ampere equation.

The equation is posed on the real line; the gradient interval is
[q_lo, q_hi] = 2 (kappa - P), with q_lo < 0 < q_hi as kappa is interior to the
moment interval P.  The solver truncates to the box [-L, L] with

    L = (log(2 / (r_in * 1e-8 * V)) + 4 + |xi| * d0) / r_in,
    r_in = min(q_hi, -q_lo),  d0 = max(q_hi, -q_lo),

so the dropped tail mass exp(q_lo L)/(-q_lo) + exp(-q_hi L)/q_hi of exp(-v)
is below 1e-8 of the density volume V, with a margin for the soliton tilt,
and extends the potential affinely beyond the box with the end slopes q_lo
and q_hi (the discrete form of the "support function plus constant"
boundary condition).  A box that is not a finite positive float (an
interval of extent about 1e-200) is a ``SolverError``.  The normalizing
constant of the equation is fixed so that the mass identity
integral exp(-w_t) = V  holds at the continuous level for every t and
every soliton parameter; the discrete solver inherits it as a diagnostic.

The solver is one-dimensional (r = 1; any other r is a ``MathValidationError``
with condition "dimension"): damped Newton on a tridiagonal system, with
convexity and gradient confinement verified on converged states (the line
search gates on the merit, since transient tail dips at rounding scale would
otherwise block legitimate steps) and the translation gauge deflated exactly
at t = 1, where the continuous equation loses its position pinning.  The
one stencil is ``kernels.stencil_1d``; this module forms no difference of
its own.  A solved state keeps only the scalars that the report, the trace
CSV and the sweep read, and the solve's own Newton count and gauge defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels
from .errors import MathValidationError, SchemaError, SolverError
from .polytopes import delta_from_moment
from .problem import HorosphericalProblem
from .rationals import vdot
from .soliton import weighted_mass

MAX_NEWTON = 60  # Newton iterations per solve at one t
NEWTON_TOL = 1e-9  # the absolute max-norm test of a converged Newton iterate
# the largest grid a run may ask for, far above the finest grid a study uses
GRID_MAX = 10**6
# the t-step schedule of the sweep: the step after the t0 state, the largest
# and smallest steps, and the share of the box the minimum point may reach
STEP0, MAX_STEP, MIN_STEP = 0.05, 0.1, 1e-4
WINDOW = 0.8
_BOUNDS = {
    "grid": (11, GRID_MAX),
    "t0": (0, 1),
}


@dataclass(frozen=True)
class ContinuityOptions:
    """Grid and start of the continuity sweep.

    Every test is fixed: the sweep's Newton solves to ``NEWTON_TOL``, the
    soliton field to ``soliton.RESIDUAL_TOL``, and the moment quadrature
    runs one schedule (``dh.checked_moments``).
    Every field is checked once, on construction (``dataclasses.replace``
    included), and converted to its type: a value that is not a finite
    number (a numeric string included), a fractional grid, a grid outside
    [11, GRID_MAX] or t0 outside (0, 1] is a ``SchemaError`` naming the
    option.
    """

    grid: int = 2001
    t0: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = int if f.name == "grid" else float
            try:
                num = kind(value)
                ok = (not isinstance(value, (bool, str)) and math.isfinite(num)
                      and float(num) == float(value))
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                what = "an integer" if kind is int else "a finite number"
                raise SchemaError(f"expected {what}, got {value!r}", f"options.{f.name}")
            low, high = _BOUNDS[f.name]
            # counts lie in [low, high], reals in (low, high]
            inside = low <= num <= high if kind is int else low < num <= high
            if not inside:
                left = "[" if kind is int else "("
                raise SchemaError(
                    f"must lie in {left}{low}, {high}], got {num!r}", f"options.{f.name}"
                )
            object.__setattr__(self, f.name, num)


# ---------------------------------------------------------------------------
# reference potential
# ---------------------------------------------------------------------------


def _reference_potential(q_lo: float, q_hi: float, x: np.ndarray) -> np.ndarray:
    """log(exp(q_lo x) + exp(q_hi x)): smooth, strictly convex, within log 2
    of the support function max(q_lo x, q_hi x), with slopes inside
    (q_lo, q_hi); the larger exponent is factored out, so nothing overflows."""
    a = q_lo * x
    b = q_hi * x
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m))


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


@dataclass
class ContinuitySetup:
    xi: float
    options: ContinuityOptions
    box: float
    n: int
    h: float
    axis: np.ndarray
    u0: np.ndarray
    c_norm: float
    invc: float
    volume: float
    d0: float
    bcoef: np.ndarray
    boff: np.ndarray
    qlo: float
    qhi: float
    conv_floor: float
    term_floor: float


def build_setup(hp: HorosphericalProblem, xi, options: ContinuityOptions) -> ContinuitySetup:
    if hp.a1_dim != 1:
        raise MathValidationError("continuity solver supports r = 1 only", condition="dimension")
    xi = np.atleast_1d(xi)
    if xi.shape != (1,):
        raise MathValidationError("soliton parameter has wrong dimension")
    xi = float(xi[0])
    if not math.isfinite(xi):
        raise MathValidationError("soliton parameter must be a finite number")
    # the gradient interval [q_lo, q_hi] = 2 (kappa - P); kappa is interior
    # to P, so q_lo < 0 < q_hi
    delta = delta_from_moment(hp.moment, hp.kappa)
    qlo, qhi = float(2 * delta.vertices[0][0]), float(2 * delta.vertices[-1][0])
    r_in, d0 = min(qhi, -qlo), max(qhi, -qlo)
    vol = float(hp.volume)
    # the exp(-support) tail mass stays below 1e-8 * V, with a margin for the
    # soliton tilt exp(-grad * xi) of the density
    try:
        box = (math.log(2.0 / (r_in * (1e-8 * vol))) + 4.0 + abs(xi) * d0) / r_in
    except (ZeroDivisionError, ValueError):
        box = math.nan
    if not (math.isfinite(box) and box > 0.0):
        raise SolverError(f"truncation box {box!r} is not a finite positive float")
    n = int(options.grid)
    axis = np.linspace(-box, box, n)
    h = axis[1] - axis[0]
    # normalization fixed by the continuous mass identity: c = 2 * V_xi / V
    if xi == 0.0:
        c_norm = 2.0
    else:
        c_norm = 2 * weighted_mass(hp, [xi]) / vol
    bcoef = np.array([float(f[0]) for f in hp.density.forms])
    boff = np.array([float(vdot(f, hp.kappa)) for f in hp.density.forms])
    # admissibility floors above the curvature noise the Newton solves induce
    # on machine-affine tails (observed ~50x the pure representation noise)
    uscale = max(1.0, d0 * box)
    eps = np.finfo(float).eps
    return ContinuitySetup(
        xi=xi,
        options=options,
        box=box,
        n=n,
        h=float(h),
        axis=axis,
        u0=_reference_potential(qlo, qhi, axis),
        c_norm=c_norm,
        invc=1.0 / c_norm,
        volume=vol,
        d0=d0,
        bcoef=bcoef,
        boff=boff,
        qlo=qlo,
        qhi=qhi,
        conv_floor=4096.0 * eps * uscale / h**2,
        term_floor=4096.0 * eps * uscale / h * float(max((abs(b) for b in bcoef), default=0.0)),
    )


# ---------------------------------------------------------------------------
# states and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityState:
    """The scalars of a solved state at t; ``step`` is the t-step that led
    to it.  t, m_t, x_t, mass, residual, sup_psi and step reach the report
    or the trace CSV, and x_t is the sweep's window test; newton_iterations
    and gauge_defect are the solve's own count and broken-symmetry defect
    (zero below t = 1).  The potential is not kept: the trace holds the
    final one."""

    t: float
    m_t: float
    x_t: float
    mass: float
    residual: float
    sup_psi: float
    step: float
    newton_iterations: int
    gauge_defect: float


@dataclass
class ContinuityTrace:
    states: list[ContinuityState] = field(default_factory=list)
    termination: str = "incomplete"
    final_step: float = 0.0
    diverged_at: float | None = None
    volume: float = 0.0
    d0: float = 0.0
    box: float = 0.0
    grid: int = 0
    xi: float = 0.0
    # the last solved state (the last accepted one, or the one that escaped
    # the window) and its potential u; w = t u + (1 - t) u0
    final_state: ContinuityState | None = None
    u: np.ndarray | None = None

    @property
    def reached_t1(self) -> bool:
        return self.termination == "reached_t1"


# ---------------------------------------------------------------------------
# Newton solve and state
# ---------------------------------------------------------------------------


def _rebalance(setup: ContinuitySetup, t: float, u: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Shift the potential so the grid mass identity holds exactly.

    The truncated system has one soft nearly-affine mode (the additive
    constant of the potential, pinned only through exp(-w)); for a uniform
    shift the grid mass scales by exp(-t a), so the equilibrating shift has
    the closed form a = log(mass/V)/t.  Removing it before Newton keeps the
    steps short and well inside the admissible region.  A ratio mass/V
    that is zero or not finite is a ``SolverError``: the solve fails.
    """
    w = t * u + ref
    wmin = float(np.min(w))
    try:
        ratio = setup.h * float(np.sum(np.exp(-(w - wmin)))) * math.exp(-wmin) / setup.volume
    except OverflowError:
        ratio = math.inf
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise SolverError(f"grid mass / V = {ratio!r} is not a finite positive float")
    return u + math.log(ratio) / t


def _thomas_transposed(lo, di, up, rhs):
    lo_t = np.concatenate([[0.0], up[:-1]])
    up_t = np.concatenate([lo[1:], [0.0]])
    return kernels.thomas(lo_t, di, up_t, rhs)


def _newton_1d(setup: ContinuitySetup, t: float, init: np.ndarray):
    """Damped Newton with translation-gauge deflation at t = 1.

    At t = 1 the deformation term that pins the spatial position of the
    solution vanishes: the continuous equation is translation invariant and
    the discrete Jacobian keeps only an exponentially weak and O(h^2)
    grid-level coupling to the translation mode.  Every solve at t = 1 (a
    sweep started at t0 = 1 included) computes the step in the complement of
    that mode (a bordered solve) and excludes the rank-one broken-symmetry
    defect, which cannot be reduced at the given grid spacing, from the
    convergence test; it is reported separately as ``gauge_defect``.

    An iterate converges when the max-norm of its residual is at most
    ``NEWTON_TOL``.  Only an iterate that takes a step solves for one: the
    converged iterate and the iterate at the ``MAX_NEWTON`` cap do not.
    Convexity and gradient confinement are tested on the initial iterate and
    on the converged one; the line search gates on the merit alone, since
    transient tail dips at rounding scale would otherwise block legitimate
    steps.  Every failure is a ``SolverError``; the one return is the
    converged iterate.
    """
    # rejected trials may overflow their merit, and the gauge split of an
    # overflowed residual is NaN; the kernels run in this error state, entered
    # once per solve, as entering it costs a sizable share of a trial
    with np.errstate(over="ignore", invalid="ignore"):
        ref = (1.0 - t) * setup.u0  # the reference term of w, fixed for the solve
        u = _rebalance(setup, t, init, ref)

        # every line-search trial evaluates the residual; the Jacobian bands are
        # built only for the iterates it accepts
        def residual(vec, uext=None):
            return kernels.residual_1d(vec, ref, setup.h, t, setup.xi, setup.bcoef,
                                       setup.boff, setup.qlo, setup.qhi, setup.invc, uext)

        def jacobian(parts):
            return kernels.jacobian_1d(parts, setup.h, t, setup.xi, setup.bcoef, setup.invc)

        def admissible(parts, extra=0.0):
            return bool(np.all(kernels.admissible_1d(
                parts[0], parts[1], setup.conv_floor + extra, setup.term_floor + extra
            )))

        f, parts = residual(u)
        if not admissible(parts):
            raise SolverError("initial iterate inadmissible")
        lo, di, up = jacobian(parts)

        gauge = None  # (g left-null, c right-null) when deflation is active

        def split(fvec):
            if gauge is None:
                return fvec, 0.0
            g, _ = gauge
            s = float(g @ fvec)
            return fvec - s * g, s

        def singular_pair(lo_, di_, up_):
            """The left and right singular vectors of the smallest singular
            value, by inverse iteration from the translation direction; two
            rounds give the mode to far better accuracy than the separation
            to the rest of the spectrum requires."""
            grad = kernels.stencil_1d(u, setup.h, setup.qlo, setup.qhi, setup.bcoef,
                                      setup.boff)[1]
            x = grad / np.linalg.norm(grad)
            for _ in range(2):
                y = _thomas_transposed(lo_, di_, up_, x)
                x = kernels.thomas(lo_, di_, up_, y)
                x = x / np.linalg.norm(x)
            g = _thomas_transposed(lo_, di_, up_, x)
            return g / np.linalg.norm(g), x

        for it in range(MAX_NEWTON + 1):
            # gauge deflation is an endpoint device: at t = 1 exactly the
            # translation symmetry is exact and the grid-level defect cannot be
            # reduced; below t = 1 the translation carries real physics (the
            # continuation handles stiffness by shrinking the t-step instead)
            if t >= 1.0:
                gauge = singular_pair(lo, di, up)
            f_red, defect = split(f)
            rnorm = float(np.max(np.abs(f_red)))
            if rnorm <= NEWTON_TOL:
                break
            if it == MAX_NEWTON:
                raise SolverError(f"Newton stagnated at residual {rnorm:.3e}")
            merit = 0.5 * float(f_red @ f_red)
            allowance = 4.0 * np.finfo(float).eps * merit
            delta = kernels.thomas(lo, di, up, -f)
            if gauge is not None:
                g, c_vec = gauge
                sol_g = kernels.thomas(lo, di, up, g)
                s = float(c_vec @ delta) / float(c_vec @ sol_g)
                delta = delta - s * sol_g
            lam = 1.0
            for _ in range(22):
                # the trial u + lam * delta, built in its stencil's ghost buffer
                uext = np.empty(setup.n + 2)
                trial = np.multiply(delta, lam, out=uext[1:-1])
                trial += u
                f_t, parts_t = residual(trial, uext)
                f_t_red, _ = split(f_t)
                merit_t = 0.5 * float(f_t_red @ f_t_red)
                if merit_t <= merit * (1.0 - 2e-4 * lam) + allowance:
                    u, f, parts = trial, f_t, parts_t
                    lo, di, up = jacobian(parts)
                    break
                lam *= 0.5
            else:
                raise SolverError("Newton line search stagnated")
        # the state solves the equation modulo the broken-symmetry defect, so
        # its curvature is clean only to the same scale
        if not (admissible(parts) or admissible(parts, 20.0 * abs(defect) * setup.c_norm)):
            raise SolverError("converged state violates convexity or gradient confinement")
        return u, rnorm, it, abs(defect)


def _state_1d(setup: ContinuitySetup, t: float, u: np.ndarray, step: float, rnorm: float,
              iters: int, gauge_defect: float) -> ContinuityState:
    h = setup.h
    w = t * u + (1.0 - t) * setup.u0
    imin = int(np.argmin(w))
    tail_r = math.exp(-(w[-1] + 0.5 * h * setup.qhi)) / setup.qhi
    tail_l = math.exp(-(w[0] + 0.5 * h * (-setup.qlo))) / (-setup.qlo)
    mass = float(h * np.sum(np.exp(-w)) + tail_l + tail_r)
    return ContinuityState(
        t=t,
        m_t=float(w[imin]),
        x_t=float(setup.axis[imin]),
        mass=mass,
        residual=rnorm,
        sup_psi=float(np.max(u - setup.u0)),
        step=step,
        newton_iterations=iters,
        gauge_defect=gauge_defect,
    )


def _solve_state(setup: ContinuitySetup, t: float, init: np.ndarray, step: float):
    """The potential solved at t from the warm start ``init`` and its state,
    or None when the Newton solve fails."""
    try:
        u, rnorm, iters, defect = _newton_1d(setup, t, init)
    except SolverError:
        return None
    return u, _state_1d(setup, t, u, step, rnorm, iters, defect)


# ---------------------------------------------------------------------------
# public driver
# ---------------------------------------------------------------------------


def continuity_sweep(hp: HorosphericalProblem, xi,
                     options: ContinuityOptions | None = None) -> ContinuityTrace:
    """Advance t from t0 toward 1 with warm starts and adaptive steps.

    Each solve starts from the last accepted potential (the reference
    potential at t = 0).  A failed solve halves the step; an accepted state
    sets it to ``STEP0`` after the first state, at t0, and grows it by 1.3 up
    to ``MAX_STEP`` after any later one.  The sweep ends ``newton_failure``
    when the t0 solve fails, ``divergence`` at the t tried when the step falls
    below ``MIN_STEP`` or a solved state's minimum point leaves the window
    |x_t| <= WINDOW * box, and ``reached_t1`` otherwise.
    """
    setup = build_setup(hp, xi, options or ContinuityOptions())
    trace = ContinuityTrace(
        volume=setup.volume, d0=setup.d0, box=setup.box, grid=setup.n, xi=setup.xi,
    )
    t, u, step = 0.0, setup.u0, setup.options.t0
    while t < 1.0:
        t_try = min(1.0, t + step)
        solved = _solve_state(setup, t_try, u, step)
        if solved is None and not trace.states:
            trace.termination = "newton_failure"
            break
        if solved is None:
            step *= 0.5
            if step >= MIN_STEP:
                continue
            if 1.0 - t < 0.01:
                # the gauge-stiff band just below t = 1 can be un-navigable by
                # continuation at coarse grids; the endpoint itself is still
                # solvable with the translation mode deflated, so hop over
                # the band once
                solved = _solve_state(setup, 1.0, u, 1.0 - t)
        if solved is not None:
            trace.u, trace.final_state = solved
        if solved is None or abs(trace.final_state.x_t) > WINDOW * setup.box:
            trace.termination = "divergence"
            trace.diverged_at, trace.final_step = t_try, t_try - t
            break
        u, state = solved
        trace.states.append(state)
        step = min(MAX_STEP, step * 1.3) if t > 0.0 else STEP0
        t = state.t
    else:
        trace.termination = "reached_t1"
    return trace


def estimate_rm_numeric(trace: ContinuityTrace) -> tuple[float, float]:
    """Midpoint estimate of the greatest Ricci lower bound from a sweep that
    declared divergence, with the final step as the uncertainty."""
    if trace.termination == "reached_t1":
        return 1.0, 0.0
    if trace.termination != "divergence" or not trace.states:
        raise MathValidationError(
            "estimate needs a sweep that diverged after at least one accepted state"
        )
    last = trace.states[-1].t
    return last + 0.5 * trace.final_step, trace.final_step
