"""Continuity method for the reduced real Monge-Ampere equation.

The equation is posed on the full space; the solver truncates to a box chosen
from the support-function slopes so the dropped tail mass of exp(-v) is below
1e-8 of the density volume, and extends the potential affinely beyond the box
with the extreme slopes of the gradient polytope (the discrete form of the
"support function plus constant" boundary condition; the constant is read off
the boundary values and reported).  The normalizing constant of the equation
is fixed so that the mass identity  integral exp(-w_t) = V  holds at the
continuous level for every t and every soliton parameter; the discrete solver
inherits it as a diagnostic.

The solver is one-dimensional (r = 1; any other r is a ``MathValidationError``
with condition "dimension"): damped Newton on a tridiagonal system, with
convexity and gradient confinement verified on converged states (the line
search gates on the merit, since transient tail dips at rounding scale would
otherwise block legitimate steps) and the translation gauge deflated exactly
at t = 1, where the continuous equation loses its position pinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction as Q

import numpy as np

from . import kernels
from .errors import MathValidationError, SchemaError, SolverError
from .polytopes import Polytope
from .problem import HorosphericalProblem
from .rationals import vdot
from .soliton import weighted_mass


_POSITIVE_OPTIONS = ("tol", "step0", "max_step", "min_step", "window", "box", "quad_rel_tol")


@dataclass(frozen=True)
class ContinuityOptions:
    """Grid, tolerances and step control of the continuity solver.

    Every field is checked once, on construction (``dataclasses.replace``
    included), and converted to its type: a value that is not a finite
    number, a fractional count, t0 outside (0, 1] or a non-positive
    tolerance, step, window or box is a ``SchemaError`` naming the option.
    """

    grid: int = 2001
    box: float | None = None
    t0: float = 0.1
    tol: float = 1e-9
    max_newton: int = 60
    step0: float = 0.05
    max_step: float = 0.1
    min_step: float = 1e-4
    window: float = 0.8
    quad_rel_tol: float = 1e-12
    quad_order: int | None = None
    workers: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in ("box", "quad_order", "workers"):
                continue
            kind = int if f.name in ("grid", "max_newton", "quad_order", "workers") else float
            try:
                num = kind(value)
                ok = (not isinstance(value, bool) and math.isfinite(num)
                      and float(num) == float(value))
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                what = "an integer" if kind is int else "a finite number"
                raise SchemaError(f"expected {what}, got {value!r}", f"options.{f.name}")
            if f.name == "t0" and not 0 < num <= 1:
                raise SchemaError(f"must lie in (0, 1], got {num!r}", "options.t0")
            if f.name in _POSITIVE_OPTIONS and not num > 0:
                raise SchemaError(f"must be positive, got {num!r}", f"options.{f.name}")
            object.__setattr__(self, f.name, num)


# ---------------------------------------------------------------------------
# reference potential
# ---------------------------------------------------------------------------


class ReferencePotential:
    """Smooth strictly convex log-sum-exp over the vertices of the gradient
    polytope; stays within log(#vertices) of the support function and maps
    gradients into the open polytope."""

    def __init__(self, two_delta: Polytope):
        zero = tuple(Q(0) for _ in range(two_delta.dim))
        if not two_delta.contains(zero, strict=True):
            raise MathValidationError(
                "0 must be interior to the gradient polytope", condition="zero_interior"
            )
        self.polytope = two_delta
        self.vertices = np.array(
            [[float(c) for c in v] for v in two_delta.vertices], dtype=np.float64
        )
        self._check_grid()

    def _rows(self, points) -> np.ndarray:
        """Points as an (N, r) float array; a single point is one row."""
        return np.asarray(points, dtype=np.float64).reshape(-1, self.vertices.shape[1])

    def value(self, points: np.ndarray) -> np.ndarray:
        points = self._rows(points)
        z = points @ self.vertices.T
        zmax = z.max(axis=1)
        return zmax + np.log(np.sum(np.exp(z - zmax[:, None]), axis=1))

    def grad(self, points: np.ndarray) -> np.ndarray:
        points = self._rows(points)
        z = points @ self.vertices.T
        z -= z.max(axis=1)[:, None]
        w = np.exp(z)
        w /= w.sum(axis=1)[:, None]
        return w @ self.vertices

    def support(self, points: np.ndarray) -> np.ndarray:
        points = self._rows(points)
        return (points @ self.vertices.T).max(axis=1)

    def _check_grid(self) -> None:
        r = self.vertices.shape[1]
        axes = [np.linspace(-5.0, 5.0, 9)] * r
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        gap = self.value(pts) - self.support(pts)
        bound = math.log(len(self.vertices)) + 1e-9
        if not np.all((gap >= -1e-9) & (gap <= bound)):
            raise MathValidationError("reference potential drifted from the support function")
        grads = self.grad(pts)
        for normal, offset in self.polytope.facets:
            nf = np.array([float(c) for c in normal])
            # interiority is strict mathematically; far from the polytope the
            # softmax weights underflow and the gradient rounds onto a vertex
            if not np.all(grads @ nf <= float(offset) + 1e-12):
                raise MathValidationError("reference gradient left the gradient polytope")


def reference_potential(two_delta: Polytope) -> ReferencePotential:
    return ReferencePotential(two_delta)


def default_box(two_delta: Polytope, volume: float, xi_norm: float = 0.0) -> float:
    """Half-width making the exp(-support) tail mass below 1e-8 * volume,
    with a margin for the soliton tilt exp(-<grad, xi>) of the density."""
    r_in = min(
        float(off) / math.sqrt(sum(float(c) ** 2 for c in n)) for n, off in two_delta.facets
    )
    d0 = max(math.sqrt(sum(float(c) ** 2 for c in v)) for v in two_delta.vertices)
    target = 1e-8 * float(volume)
    return (math.log(2.0 * two_delta.dim / (r_in * target)) + 4.0 + xi_norm * d0) / r_in


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


@dataclass
class ContinuitySetup:
    xi: np.ndarray
    options: ContinuityOptions
    refpot: ReferencePotential
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
    closed_l: bool
    closed_r: bool


def build_setup(hp: HorosphericalProblem, xi, options: ContinuityOptions) -> ContinuitySetup:
    if hp.a1_dim != 1:
        raise MathValidationError("continuity solver supports r = 1 only", condition="dimension")
    xi = np.asarray([float(v) for v in np.atleast_1d(xi)], dtype=np.float64)
    if xi.shape != (1,):
        raise MathValidationError("soliton parameter has wrong dimension")
    two_delta = hp.two_delta()
    refpot = reference_potential(two_delta)
    vol = float(hp.volume)
    box = options.box if options.box is not None else default_box(
        two_delta, vol, float(np.linalg.norm(xi))
    )
    n = int(options.grid)
    if n < 11:
        raise MathValidationError("grid too coarse")
    axis = np.linspace(-box, box, n)
    h = axis[1] - axis[0]
    # normalization fixed by the continuous mass identity: c = 2 * V_xi / V
    if xi[0] == 0.0:
        c_norm = 2.0
    else:
        c_norm = (
            2
            * weighted_mass(
                hp, xi, rel_tol=options.quad_rel_tol, order=options.quad_order, workers=options.workers
            )
            / vol
        )
    bcoef = np.array([float(f[0]) for f in hp.density.forms])
    boff = np.array([float(vdot(f, hp.kappa)) for f in hp.density.forms])
    d0 = max(abs(float(v[0])) for v in two_delta.vertices)
    lo_vert = min(v[0] for v in two_delta.vertices)
    hi_vert = max(v[0] for v in two_delta.vertices)
    # the clamped boundary slope may sit on a wall of the density (exact
    # rational test); the node equation degenerates there and is replaced
    # by the affine-extension closure
    closed_l = any(vdot(f, hp.kappa) - vdot(f, (lo_vert,)) / 2 == 0 for f in hp.density.forms)
    closed_r = any(vdot(f, hp.kappa) - vdot(f, (hi_vert,)) / 2 == 0 for f in hp.density.forms)
    # admissibility floors above the curvature noise the Newton solves induce
    # on machine-affine tails (observed ~50x the pure representation noise)
    uscale = max(1.0, d0 * box)
    eps = np.finfo(float).eps
    return ContinuitySetup(
        xi=xi,
        options=options,
        refpot=refpot,
        box=box,
        n=n,
        h=float(h),
        axis=axis,
        u0=refpot.value(axis[:, None]),
        c_norm=c_norm,
        invc=1.0 / c_norm,
        volume=vol,
        d0=d0,
        bcoef=bcoef,
        boff=boff,
        qlo=float(lo_vert),
        qhi=float(hi_vert),
        conv_floor=4096.0 * eps * uscale / h**2,
        term_floor=4096.0 * eps * uscale / h * float(max((abs(b) for b in bcoef), default=0.0)),
        closed_l=closed_l,
        closed_r=closed_r,
    )


# ---------------------------------------------------------------------------
# states and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityState:
    t: float
    u: np.ndarray
    w: np.ndarray
    m_t: float
    x_t: tuple[float, ...]
    mass: float
    residual_norm: float
    sup_psi: float
    boundary_offset: float
    grad_margin: float
    centering: float
    newton_iterations: int
    gauge_defect: float = 0.0


@dataclass(frozen=True)
class StateSummary:
    t: float
    m_t: float
    x_t: tuple[float, ...]
    mass: float
    residual: float
    sup_psi: float
    step: float
    grad_margin: float
    centering: float
    gauge_defect: float = 0.0


@dataclass
class ContinuityTrace:
    states: list[StateSummary] = field(default_factory=list)
    termination: str = "incomplete"
    final_step: float = 0.0
    diverged_at: float | None = None
    volume: float = 0.0
    d0: float = 0.0
    box: float = 0.0
    grid: int = 0
    xi: tuple[float, ...] = ()
    final_state: ContinuityState | None = None

    @property
    def reached_t1(self) -> bool:
        return self.termination == "reached_t1"


# ---------------------------------------------------------------------------
# Newton solve and state
# ---------------------------------------------------------------------------


def _rebalance(setup: ContinuitySetup, t: float, u: np.ndarray) -> np.ndarray:
    """Shift the potential so the grid mass identity holds exactly.

    The truncated system has one soft nearly-affine mode (the additive
    constant of the potential, pinned only through exp(-w)); for a uniform
    shift the grid mass scales by exp(-t a), so the equilibrating shift has
    the closed form a = log(mass/V)/t.  Removing it before Newton keeps the
    steps short and well inside the admissible region.
    """
    w = t * u + (1.0 - t) * setup.u0
    wmin = float(np.min(w))
    mass = setup.h * float(np.sum(np.exp(-(w - wmin)))) * math.exp(-wmin)
    return u + math.log(mass / setup.volume) / t


def _stencil_1d(setup: ContinuitySetup, u: np.ndarray):
    return kernels.stencil_1d(u, setup.h, setup.qlo, setup.qhi, setup.bcoef, setup.boff)


def _thomas_transposed(lo, di, up, rhs):
    lo_t = np.concatenate([[0.0], up[:-1]])
    up_t = np.concatenate([lo[1:], [0.0]])
    return kernels.thomas(lo_t, di, up_t, rhs)


def _newton_1d(setup: ContinuitySetup, t: float, init: np.ndarray, force_gauge: bool = False):
    """Damped Newton with translation-gauge deflation near t = 1.

    At t = 1 the deformation term that pins the spatial position of the
    solution vanishes: the continuous equation is translation invariant and
    the discrete Jacobian keeps only an exponentially weak and O(h^2)
    grid-level coupling to the translation mode.  With ``force_gauge`` (used
    exactly at t = 1) the step is computed in the complement of that mode (a
    bordered solve) and the rank-one broken-symmetry defect, which cannot be
    reduced at the given grid spacing, is excluded from the convergence test
    and reported separately as ``gauge_defect``.
    """
    opts = setup.options
    u = _rebalance(setup, t, init)
    xi0 = float(setup.xi[0])

    def residual(vec, conv_extra=0.0):
        return kernels.residual_1d(
            vec, setup.u0, setup.h, t, xi0, setup.bcoef, setup.boff, setup.qlo, setup.qhi,
            setup.invc, setup.conv_floor + conv_extra, setup.term_floor + conv_extra,
            setup.closed_l, setup.closed_r,
        )

    f, lo, di, up, ok = residual(u)
    if not ok:
        raise SolverError("initial iterate inadmissible", last_state=u)

    def translation_vector(vec):
        grad = _stencil_1d(setup, vec)[2]
        return grad / np.linalg.norm(grad)

    gauge = None  # (g left-null, c right-null) when deflation is active

    def split(fvec):
        if gauge is None:
            return fvec, 0.0
        g, _ = gauge
        s = float(g @ fvec)
        return fvec - s * g, s

    def singular_pair(lo_, di_, up_):
        """Smallest singular pair by inverse iteration from the translation
        direction; two rounds give the mode to far better accuracy than the
        separation to the rest of the spectrum requires."""
        x = translation_vector(u)
        for _ in range(2):
            y = _thomas_transposed(lo_, di_, up_, x)
            x = kernels.thomas(lo_, di_, up_, y)
            x = x / np.linalg.norm(x)
        jx = di_ * x
        jx[:-1] += up_[:-1] * x[1:]
        jx[1:] += lo_[1:] * x[:-1]
        sigma = float(np.linalg.norm(jx))
        g = _thomas_transposed(lo_, di_, up_, x)
        g = g / np.linalg.norm(g)
        return sigma, g, x

    for it in range(opts.max_newton):
        # gauge deflation is an endpoint device: at t = 1 exactly the
        # translation symmetry is exact and the grid-level defect cannot be
        # reduced; below t = 1 the translation carries real physics (the
        # continuation handles stiffness by shrinking the t-step instead)
        delta_plain = kernels.thomas(lo, di, up, -f)
        if force_gauge:
            _, g_vec, v_vec = singular_pair(lo, di, up)
            gauge = (g_vec, v_vec)
        f_red, defect = split(f)
        rnorm = float(np.max(np.abs(f_red)))
        if rnorm <= opts.tol:
            if not ok:
                # the state solves the equation modulo the broken-symmetry
                # defect, so its curvature is clean only to the same scale
                _, _, _, _, ok = residual(u, conv_extra=20.0 * abs(defect) * setup.c_norm)
            if not ok:
                raise SolverError(
                    "converged state violates convexity or gradient confinement",
                    last_state=u,
                )
            return u, rnorm, it, abs(defect)
        merit = 0.5 * float(f_red @ f_red)
        allowance = 4.0 * np.finfo(float).eps * merit
        if gauge is None:
            delta = delta_plain
        else:
            g, c_vec = gauge
            sol_g = kernels.thomas(lo, di, up, g)
            s = float(c_vec @ delta_plain) / float(c_vec @ sol_g)
            delta = delta_plain - s * sol_g
        # the line search gates on the merit alone; convexity and gradient
        # confinement are verified on the converged state (transient tail
        # dips at rounding scale would otherwise block legitimate steps)
        accepted = False
        lam = 1.0
        for _ in range(22):
            trial = u + lam * delta
            f_t, lo_t, di_t, up_t, ok_t = residual(trial)
            f_t_red, _ = split(f_t)
            with np.errstate(over="ignore"):  # rejected trials may overflow
                merit_t = 0.5 * float(f_t_red @ f_t_red)
            if merit_t <= merit * (1.0 - 2e-4 * lam) + allowance:
                u, f, lo, di, up, ok = trial, f_t, lo_t, di_t, up_t, ok_t
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise SolverError("Newton line search stagnated", last_state=u)
    f_red, defect = split(f)
    rnorm = float(np.max(np.abs(f_red)))
    if rnorm <= opts.tol:
        if not ok:
            _, _, _, _, ok = residual(u, conv_extra=20.0 * abs(defect) * setup.c_norm)
        if ok:
            return u, rnorm, opts.max_newton, abs(defect)
    raise SolverError(f"Newton stagnated at residual {rnorm:.3e}", last_state=u)


def _state_1d(setup: ContinuitySetup, t: float, u: np.ndarray, rnorm: float, iters: int, gauge_defect: float = 0.0) -> ContinuityState:
    h = setup.h
    w = t * u + (1.0 - t) * setup.u0
    imin = int(np.argmin(w))
    ew = np.exp(-w)
    tail_r = math.exp(-(w[-1] + 0.5 * h * setup.qhi)) / setup.qhi
    tail_l = math.exp(-(w[0] + 0.5 * h * (-setup.qlo))) / (-setup.qlo)
    mass = float(h * np.sum(ew) + tail_l + tail_r)
    uext, _, grad, _ = _stencil_1d(setup, u)
    margin = float(min(setup.qhi - grad.max(), grad.min() - setup.qlo))
    x_l = setup.axis[0] - h
    x_r = setup.axis[-1] + h
    u0ghosts = setup.refpot.value(np.array([[x_l], [x_r]]))
    wext = np.concatenate([[t * uext[0] + (1 - t) * u0ghosts[0]], w,
                           [t * uext[-1] + (1 - t) * u0ghosts[1]]])
    wgrad = (wext[2:] - wext[:-2]) / (2.0 * h)
    centering = float(h * np.sum(wgrad * ew))
    # boundary offset: u minus the support function at the right end of the box
    v_right = setup.qhi * setup.axis[-1]
    return ContinuityState(
        t=t,
        u=u,
        w=w,
        m_t=float(w[imin]),
        x_t=(float(setup.axis[imin]),),
        mass=mass,
        residual_norm=rnorm,
        sup_psi=float(np.max(u - setup.u0)),
        boundary_offset=float(u[-1] - v_right),
        grad_margin=margin,
        centering=centering,
        newton_iterations=iters,
        gauge_defect=gauge_defect,
    )


# ---------------------------------------------------------------------------
# public driver
# ---------------------------------------------------------------------------


def ma_residual(hp: HorosphericalProblem, u: np.ndarray, t: float, xi,
                options: ContinuityOptions | None = None,
                setup: ContinuitySetup | None = None):
    """Pointwise residual of the normalized discrete equation for a given
    grid potential; returns (residual array, per-point admissibility mask).
    Inadmissible points (negative curvature or escaped gradient beyond the
    rounding floors) are flagged in the mask."""
    if setup is None:
        setup = build_setup(hp, xi, options or ContinuityOptions())
    u = np.asarray(u, dtype=np.float64)
    f = kernels.residual_1d(
        u, setup.u0, setup.h, t, float(setup.xi[0]), setup.bcoef, setup.boff, setup.qlo,
        setup.qhi, setup.invc, closed_l=setup.closed_l, closed_r=setup.closed_r,
    )[0]
    _, second, _, terms = _stencil_1d(setup, u)
    mask = (second >= -setup.conv_floor) & np.all(terms >= -setup.term_floor, axis=1)
    return f, mask


def solve_at_t(hp: HorosphericalProblem, t: float, xi, init: np.ndarray | None = None,
               options: ContinuityOptions | None = None,
               setup: ContinuitySetup | None = None) -> ContinuityState:
    """Solve the discrete equation at one value of the deformation parameter.

    With ``init`` this is one Newton solve warm-started there.  Without it
    the continuity sweep runs from the reference potential to t (a cold
    Newton start far from t0 is outside the basin of the equation's strong
    exponential nonlinearity) and its final state is returned; a sweep that
    stops short raises ``SolverError`` naming its termination.
    """
    if setup is None:
        setup = build_setup(hp, xi, options or ContinuityOptions())
    if not 0 < t <= 1:
        raise MathValidationError("t must lie in (0, 1]")
    if init is None:
        trace = _sweep(setup, t)
        if trace.termination != "reached_t1":
            raise SolverError(
                f"continuity sweep to t = {t} ended in {trace.termination}"
                + (f" at t = {trace.diverged_at}" if trace.diverged_at is not None else ""),
                last_state=trace.final_state,
            )
        return trace.final_state
    u, rnorm, iters, defect = _newton_1d(
        setup, t, np.asarray(init, dtype=np.float64), force_gauge=t >= 1.0
    )
    return _state_1d(setup, t, u, rnorm, iters, defect)


def continuity_sweep(hp: HorosphericalProblem, xi,
                     options: ContinuityOptions | None = None) -> ContinuityTrace:
    """Advance t from t0 toward 1 with warm starts and adaptive steps."""
    return _sweep(build_setup(hp, xi, options or ContinuityOptions()), 1.0)


def _sweep(setup: ContinuitySetup, t_end: float) -> ContinuityTrace:
    """The continuation loop: from min(t0, t_end) to t_end; its termination is
    "reached_t1" once t_end is reached (t_end is 1 for the public sweep)."""
    options = setup.options
    trace = ContinuityTrace(
        volume=setup.volume, d0=setup.d0, box=setup.box, grid=setup.n,
        xi=tuple(float(v) for v in setup.xi),
    )

    t = min(options.t0, t_end)
    try:
        u, rnorm, iters, defect = _newton_1d(setup, t, setup.u0.copy())
    except SolverError:
        trace.termination = "newton_failure"
        trace.final_step = 0.0
        return trace
    state = _state_1d(setup, t, u, rnorm, iters, defect)
    if _escaped(state, setup, options):
        trace.termination = "divergence"
        trace.diverged_at = t
        trace.final_step = t
        return trace
    trace.states.append(_summary(state, t))
    trace.final_state = state

    step = options.step0
    while t < t_end:
        t_try = min(t_end, t + step)
        try:
            u_new, rnorm, iters, defect = _newton_1d(
                setup, t_try, u.copy(), force_gauge=t_try >= 1.0
            )
            candidate = _state_1d(setup, t_try, u_new, rnorm, iters, defect)
        except SolverError:
            step *= 0.5
            if step < options.min_step:
                if t_end >= 1.0 and 1.0 - t < 0.01:
                    # the gauge-stiff band just below t = 1 can be
                    # un-navigable by continuation at coarse grids; the
                    # endpoint itself is still solvable with the translation
                    # mode deflated, so hop over the band once
                    try:
                        u_new, rnorm, iters, defect = _newton_1d(
                            setup, 1.0, u.copy(), force_gauge=True
                        )
                        state = _state_1d(setup, 1.0, u_new, rnorm, iters, defect)
                        if not _escaped(state, setup, options):
                            trace.states.append(_summary(state, 1.0 - t))
                            trace.final_state = state
                            trace.termination = "reached_t1"
                            trace.final_step = 0.0
                            return trace
                    except SolverError:
                        pass
                trace.termination = "divergence"
                trace.diverged_at = t_try
                trace.final_step = t_try - t
                return trace
            continue
        if _escaped(candidate, setup, options):
            trace.termination = "divergence"
            trace.diverged_at = t_try
            trace.final_step = t_try - t
            trace.final_state = candidate
            return trace
        u, t, state = u_new, t_try, candidate
        trace.states.append(_summary(state, step))
        trace.final_state = state
        step = min(options.max_step, step * 1.3)
    trace.termination = "reached_t1"
    trace.final_step = 0.0
    return trace


def _escaped(state: ContinuityState, setup: ContinuitySetup, options: ContinuityOptions) -> bool:
    return max(abs(c) for c in state.x_t) > options.window * setup.box


def _summary(state: ContinuityState, step: float) -> StateSummary:
    return StateSummary(
        t=state.t, m_t=state.m_t, x_t=state.x_t, mass=state.mass,
        residual=state.residual_norm, sup_psi=state.sup_psi, step=step,
        grad_margin=state.grad_margin, centering=state.centering,
        gauge_defect=state.gauge_defect,
    )


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
