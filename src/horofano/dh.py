"""Integration over the moment polytope against the product-of-roots density.

Two routes: an exact route for the density volume and barycenter, built on
the closed-form integral of a barycentric monomial over a simplex, which
expands a product of affine forms with integer coefficients over one common
denominator and builds one ``Fraction`` per result, and a float route for
exponential-weighted moments built on tensor Gauss-Legendre quadrature mapped
to each simplex of the fixed fan triangulation, with a Richardson-style order
check.

Everything that does not depend on the exponent is built once per problem
and held by it (``HorosphericalProblem.moment_data``), so it lives and dies
with the problem: the fan triangulation, the exact density volume and first
moments (the density forms scaled to integers, then one barycentric
expansion of the density per simplex, Baldoni et al., "How to integrate a
polynomial over a simplex", Math. Comp. 2011, shared by ``dh_volume`` and
``dh_barycenter``), and, on first quadrature use, the float simplex vertices
and per quadrature order each simplex's mapped nodes and their weights with
the density folded in.  The density's nonnegativity is the problem's own
check (``HorosphericalProblem.validate``).  Two tables depend on no problem
and are cached per key for the process: the monomial weights of the exact
route per (degree, dimension), and the unit-simplex nodes and weights per
(r, order).  Each ``weighted_moments`` call hands every simplex's stored
nodes and weights, with the exponent, to ``kernels.quad_moments(points,
weights, ell)``, and sums the per-simplex results with Neumaier's
compensation (ZAMM 1974) over plain floats.  ``checked_moments`` holds the
order schedule and its check for both ``weighted_moments`` and the soliton
Newton, which runs the check only where it can fail (at its first trial
and at the field it returns) and evaluates every other field at the order
it holds (``unchecked_moments``).  The stored nodes and weights
take 1 + r floats per node per order: about 720 kB for the two orders of a
B3 box (six simplices, orders 10 and 14).  The exact commands never build
the float data, so coordinates beyond the float range fail only the float
commands, with a ``SolverError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import factorial, gcd, isfinite, prod
from operator import mul
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .errors import MathValidationError, QuadratureError, SolverError
from .polytopes import Polytope, Simplex, triangulate
from .rationals import Vec, scaled_integers

if TYPE_CHECKING:
    from .problem import HorosphericalProblem

DEFAULT_QUAD_EXTRA = 20
DEFAULT_QUAD_REL_TOL = 1e-12
# the top order of ``weighted_moments`` lies this far above degree + DEFAULT_QUAD_EXTRA
MAX_ORDER_RAISE = 28


@dataclass(frozen=True)
class DHDensity:
    """Product of linear forms p -> <form, p>; the density of the DH measure.

    Forms are stored as plain coefficient vectors, so evaluation is a dot
    product.
    """

    forms: tuple[Vec, ...]

    @property
    def degree(self) -> int:
        return len(self.forms)

    def nonnegative_on(self, polytope: Polytope) -> bool:
        # scaling by positive integers keeps every sign
        verts, _ = scaled_integers(polytope.vertices)
        forms, _ = scaled_integers(self.forms)
        return all(sum(a * b for a, b in zip(f, v)) >= 0 for f in forms for v in verts)


def density_from_forms(forms) -> DHDensity:
    return DHDensity(forms=tuple(tuple(Q(c) for c in f) for f in forms))


# ---------------------------------------------------------------------------
# exact route
# ---------------------------------------------------------------------------


def _integer_forms(affine) -> list[tuple[tuple[int, ...], int]]:
    """Each affine form ``(coeffs, offset)`` as the integers ``(c, c0)``
    and the positive m with <coeffs, x> + offset = (<c, x> + c0) / m."""
    out = []
    for coeffs, offset in affine:
        (row,), m = scaled_integers([(*coeffs, offset)])
        out.append((row, m))
    return out


def _vertex_values(verts, scale: int, row: tuple[int, ...], m: int) -> tuple[list[int], int]:
    """The values of an integer form ``(row, m)`` of ``_integer_forms`` at the
    points ``verts / scale`` (integer tuples), as integers over one positive
    denominator, the lcm of the values' own denominators."""
    ints, shift = row[:-1], row[-1] * scale
    values = [shift + sum(a * b for a, b in zip(ints, v)) for v in verts]
    g = gcd(m * scale, *values)
    return [v // g for v in values], m * scale // g


@functools.cache
def _monomial_weights(k: int, d: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The keys of the barycentric monomials lambda^a of degree k in d + 1
    variables (the exponents a read as base-(k + 1) digits) and, per
    variable j, the weight prod(a!) (a_j + 1) of each monomial in the
    first moments.  It depends only on (k, d), so it is tabled once per
    pair for the process, as tuples."""
    base = k + 1
    keys, weights = [], [[] for _ in range(d + 1)]
    for combo in combinations_with_replacement(range(d + 1), k):
        exps = [combo.count(j) for j in range(d + 1)]
        keys.append(sum(a * base**j for j, a in enumerate(exps)))
        w = prod(factorial(a) for a in exps)
        for col, a in zip(weights, exps):
            col.append(w * (a + 1))
    return tuple(keys), tuple(map(tuple, weights))


def _simplex_mass_moments(simplex: Simplex, forms, table) -> tuple[Q, list[Q]]:
    """Integral over a simplex of the product of affine forms, given as
    ``_integer_forms``, and its first moments, from one barycentric
    expansion of the product in integers; ``table`` is
    ``_monomial_weights(len(forms), simplex.dim)``.

    Each factor is the barycentric form with its vertex values, integers
    over a denominator s_f.  The product of k factors is a sum of
    c_a lambda^a with |a| = k, kept as a dict keyed by the exponents a read
    as base-(k + 1) digits.  The integral of lambda^a is d! vol prod(a!) /
    (k + d)!; with x = sum_j lambda_j v_j, the moment of x_i is sum_j v_j[i]
    times the integral of lambda_j lambda^a, the same closed form with a_j
    raised by one: d! vol prod(a!) (a_j + 1) / (k + d + 1)!.  The mass sums
    prod(a!) = sum_j prod(a!) (a_j + 1) / (k + d + 1).  As d! vol is
    det / L^d, with det = |det| of the edges scaled by L (``Simplex.scaled``),
    the mass and each moment are one integer sum over one integer
    denominator.
    """
    d = simplex.dim
    verts, scale, det = simplex.scaled()
    base = len(forms) + 1
    shifts = [base**j for j in range(d + 1)]
    poly, denom = {0: 1}, 1
    for row, m in forms:
        values, s = _vertex_values(verts, scale, row, m)
        if not any(values):
            return Q(0), [Q(0)] * d
        denom *= s
        out: dict[int, int] = {}
        get = out.get
        for shift, v in zip(shifts, values):
            if v:
                for key, c in poly.items():
                    key += shift
                    out[key] = get(key, 0) + c * v
        poly = out
    keys, weights = table
    coeffs = [poly.get(key, 0) for key in keys]
    lam = [sum(map(mul, coeffs, col)) for col in weights]
    n = len(forms) + d
    moments = [
        Q(det * sum(lj * v[i] for lj, v in zip(lam, verts)),
          scale ** (d + 1) * factorial(n + 1) * denom)
        for i in range(d)
    ]
    return Q(det * (sum(lam) // (n + 1)), scale**d * factorial(n) * denom), moments


def dh_volume(hp: HorosphericalProblem) -> Q:
    """Exact volume of the moment polytope for the density measure; a
    vanishing volume is a ``MathValidationError``."""
    return hp.moment_data.exact[0]


def dh_barycenter(hp: HorosphericalProblem) -> Vec:
    """Exact barycenter of the moment polytope for the density measure, read
    off the same density expansion as ``dh_volume``."""
    vol, first = hp.moment_data.exact
    return tuple(m / vol for m in first)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedMoments:
    """I0 = integral of exp(<ell, p>) density, I1 its first moment vector,
    I2 its second moment matrix; rel_error is the order-refinement estimate."""

    i0: float
    i1: np.ndarray
    i2: np.ndarray
    rel_error: float
    order: int


@functools.cache
def _unit_simplex_nodes(r: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor GL nodes on the unit r-simplex by the collapsing transform, and
    their weights times the Jacobian of the collapse; read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    t1, w1 = (x + 1.0) / 2.0, w / 2.0
    grids = np.meshgrid(*([t1] * r), indexing="ij")
    ts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([w1] * r), indexing="ij")
    ws = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=1), axis=1)
    u = np.empty_like(ts)
    jac = np.ones(ts.shape[0])
    shrink = np.ones(ts.shape[0])
    for i in range(r):
        u[:, i] = ts[:, i] * shrink
        jac *= shrink
        shrink = shrink * (1.0 - ts[:, i])
    wj = ws * jac
    u.flags.writeable = False
    wj.flags.writeable = False
    return u, wj


def _simplex_points(verts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unit-simplex nodes ``u`` mapped affinely onto the simplex ``verts``."""
    return verts[0][None, :] + u @ (verts[1:] - verts[0])


def _simplex_nodes(verts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor GL nodes mapped affinely onto a simplex from the unit table."""
    r = verts.shape[0] - 1
    u, wj = _unit_simplex_nodes(r, m)
    edges = verts[1:] - verts[0]
    detedge = abs(float(np.linalg.det(edges))) if r > 1 else abs(float(edges[0, 0]))
    return _simplex_points(verts, u), wj * detedge


def _neumaier_reduce(parts: list[tuple[float, np.ndarray, np.ndarray]]):
    """Compensated (Neumaier) sum of per-simplex moment partials in list
    order, entry by entry over plain floats: each part is flattened to its
    1 + r + r^2 entries, and every entry sees the IEEE operations of the
    elementwise array form in the same order."""
    r = len(parts[0][1])
    flat = [[p0, *p1.tolist(), *p2.ravel().tolist()] for p0, p1, p2 in parts]
    sums = []
    for entries in zip(*flat):
        s = c = 0.0
        for v in entries:
            t = s + v
            if abs(s) >= abs(v):
                c += (s - t) + v
            else:
                c += (v - t) + s
            s = t
        sums.append(s + c)
    return sums[0], np.array(sums[1:r + 1]), np.array(sums[r + 1:]).reshape(r, r)


class MomentData:
    """The exponent-independent moment data of one problem's (polytope,
    density) pair, held by the problem (``HorosphericalProblem.moment_data``).

    The fan triangulation at once, the exact volume and first moments on
    first exact use, the float simplex vertices and forms on first
    quadrature use, and per quadrature order the nodes of every simplex,
    mapped once from the unit table, with their weights times the density at
    each node.  The exact commands never build the float data, so
    coordinates beyond the float range fail only the float commands.
    """

    def __init__(self, polytope: Polytope, density: DHDensity):
        self.polytope, self.density = polytope, density
        self.simplices = triangulate(polytope)
        self._nodes: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    @functools.cached_property
    def fverts(self) -> list[np.ndarray]:
        """The vertices of every simplex as a float array."""
        try:
            return [
                np.array([[float(c) for c in v] for v in s.vertices], dtype=np.float64)
                for s in self.simplices
            ]
        except OverflowError:
            raise SolverError("moment polytope coordinates beyond the float range") from None

    @functools.cached_property
    def fforms(self) -> np.ndarray:
        """The density forms as the rows of a float array."""
        return np.array(
            [[float(c) for c in f] for f in self.density.forms], dtype=np.float64
        ).reshape(self.density.degree, self.polytope.dim)

    @functools.cached_property
    def exact(self) -> tuple[Q, list[Q]]:
        """Exact density volume and first moments, one expansion per simplex;
        the volume must be positive."""
        vol = Q(0)
        first = [Q(0)] * self.polytope.dim
        forms = _integer_forms((f, 0) for f in self.density.forms)
        table = _monomial_weights(len(forms), self.polytope.dim)
        for s in self.simplices:
            mass, moments = _simplex_mass_moments(s, forms, table)
            vol += mass
            first = [a + b for a, b in zip(first, moments)]
        if vol <= 0:
            raise MathValidationError(
                "density measure of the polytope vanishes", condition="positive_volume"
            )
        return vol, first

    def nodes(self, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per simplex, the order-m nodes and their weights times the
        density; read-only."""
        if m not in self._nodes:
            table = []
            for verts in self.fverts:
                pts, wts = _simplex_nodes(verts, m)
                # the density, folded column by column: the bits of
                # np.prod(axis=1), without a reduction per node
                dens = np.ones(len(pts))
                for values in (pts @ self.fforms.T).T:
                    dens *= values
                wd = wts * dens
                pts.flags.writeable = wd.flags.writeable = False
                table.append((pts, wd))
            self._nodes[m] = table
        return self._nodes[m]


def _moments_at(hp: HorosphericalProblem, ell: np.ndarray, m: int):
    """The order-m (I0, I1, I2) of ``weighted_moments``, a compensated sum over simplices."""
    return _neumaier_reduce(
        [kernels.quad_moments(pts, wd, ell) for pts, wd in hp.moment_data.nodes(m)])


def start_order(hp: HorosphericalProblem) -> int:
    """The upper order of the first pair (m, m + 4) of the order schedule:
    m is the density degree + ``DEFAULT_QUAD_EXTRA`` for r = 1 and the
    degree + 4 for r >= 2."""
    return hp.density.degree + (DEFAULT_QUAD_EXTRA if hp.moment.dim == 1 else 4) + 4


def checked_moments(hp: HorosphericalProblem, ell: np.ndarray, order: int | None = None,
                    held=None) -> WeightedMoments:
    """The order check of ``weighted_moments`` at the exponent ``ell``, a
    float array: the order-m moments against order m + 4, m raised by 8
    until the relative difference drops below ``DEFAULT_QUAD_REL_TOL``, with
    no order above the density degree + ``DEFAULT_QUAD_EXTRA`` +
    ``MAX_ORDER_RAISE`` (degree + 48).  The climb starts at the pair whose
    upper order is ``order`` (default ``start_order``); ``held``, if given,
    are the ``_moments_at`` moments at that order, already evaluated, so the
    first pair evaluates only its lower order.  Moments beyond the float
    range, a non-finite entry of either order of a pair, are at once a
    ``QuadratureError`` that says so.
    """
    order = start_order(hp) if order is None else order
    top = hp.density.degree + DEFAULT_QUAD_EXTRA + MAX_ORDER_RAISE
    last_err = float("inf")
    # moments beyond the float range overflow to inf and nan, which the
    # error estimate turns into the QuadratureError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(order - 4, top - 3, 8):
            lo = _moments_at(hp, ell, m)
            hi = _moments_at(hp, ell, m + 4) if held is None else held
            held = None
            scale = max(abs(hi[0]), float(np.max(np.abs(hi[1]), initial=0.0)), 1e-300)
            # np.max keeps a nan wherever it sits (Python's max drops one
            # that is not its first argument), so a non-finite entry of
            # either order gives a non-finite estimate
            last_err = float(np.max((
                abs(hi[0] - lo[0]),
                np.max(np.abs(hi[1] - lo[1]), initial=0.0),
                np.max(np.abs(hi[2] - lo[2]), initial=0.0),
            ))) / scale
            if last_err <= DEFAULT_QUAD_REL_TOL:
                return WeightedMoments(
                    i0=float(hi[0]), i1=hi[1], i2=hi[2], rel_error=last_err, order=m + 4
                )
            if not isfinite(last_err):
                break
    if isfinite(last_err):
        why = f"error estimate {last_err:.3e} above tolerance {DEFAULT_QUAD_REL_TOL:.3e}"
    else:
        why = f"moments beyond the float range (error estimate {last_err})"
    raise QuadratureError(f"quadrature {why}", estimate=last_err)


def unchecked_moments(hp: HorosphericalProblem, ell: np.ndarray, order: int):
    """The order-``order`` (I0, I1, I2) at the exponent ``ell`` with no order
    check.  Moments beyond the float range are checked at once against the
    lower order of their pair: a non-finite entry makes the estimate
    non-finite, so ``checked_moments`` raises its ``QuadratureError``."""
    hi = _moments_at(hp, ell, order)
    if not all(np.isfinite(x).all() for x in hi):
        checked_moments(hp, ell, order, hi)
    return hi


def weighted_moments(hp: HorosphericalProblem, ell) -> WeightedMoments:
    """Exponential-weighted moments of the density measure over the moment
    polytope.

    Integrates exp(<ell, p>) * density against 1, p and p (x) p, with the
    order check of ``checked_moments`` from the first pair of the schedule
    (``start_order``).  r = 1 starts at degree + ``DEFAULT_QUAD_EXTRA`` and
    r >= 2 at degree + 4, so the r >= 2 schedule ends with the r = 1 pairs.
    A 1-D call costs only about 45 nodes, and the 1-D continuity outcome can
    move with the last bits of the soliton field, so r = 1 keeps the higher
    start.  The soliton Newton runs this check only at its first trial
    (``soliton.solve_soliton``).
    """
    r = hp.moment.dim
    ell = np.asarray([float(x) for x in ell], dtype=np.float64)
    if ell.shape != (r,):
        raise MathValidationError("exponent vector has wrong dimension")
    return checked_moments(hp, ell)
