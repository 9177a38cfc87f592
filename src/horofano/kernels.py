"""Hot numeric kernels: quadrature moments, the 1-D residual, its
tridiagonal Jacobian and admissibility mask, and the tridiagonal solve.

A 1-D Newton step does only the work that sets its bits.  Each line-search
trial is built in the ghost buffer of ``stencil_1d`` and costs one
``residual_1d``: the second difference (and, where something reads it, the
centred gradient) in place, then the exponential term, whose reference part
(1 - t) u0 is blended once per solve.  The Jacobian bands and the
admissibility mask are built from its parts only for accepted iterates.
With no soliton field and no density forms (the zero-field toric path)
neither the residual nor the bands form the gradient terms, which would be
multiplied by zero.  The kernels run in the caller's numpy error state
(Newton enters one per solve).  Every accepted iterate keeps its bits.

Everything is numpy, except the tridiagonal solve, which calls LAPACK
``dgtsv`` (LU with partial pivoting).  ``thomas`` binds it on its first call
through ctypes from the OpenBLAS that numpy's wheel ships and has already
loaded (``numpy.libs/libscipy_openblas64_*.so``: a private library name,
symbol ``scipy_dgtsv_64_``, 64-bit integers), so a cold 1-D command never
imports ``scipy.linalg``.  Where numpy carries no such library (numpy built
against MKL, Accelerate or a system OpenBLAS) it falls back to
``scipy.linalg.lapack.dgtsv``, the same routine.  Results are deterministic
(fixed summation order per call).  ``perfbench/run.py --trace 1`` reports
per-kernel times.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import SolverError


def quad_moments(points, weights, ell):
    """(I0, I1, I2) of exp(<ell, p>) over weighted nodes; the density, if
    any, is already folded into the weights."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    ell = np.ascontiguousarray(ell, dtype=np.float64)
    w = weights * np.exp(points @ ell)
    i0 = float(np.sum(w))
    i1 = points.T @ w
    i2 = (points * w[:, None]).T @ points
    return i0, i1, i2


# ---------------------------------------------------------------------------
# 1-D Monge-Ampere stencil, residual and Jacobian
# ---------------------------------------------------------------------------


def stencil_1d(u, h, qlo, qhi, bcoef, boff, gradient=True, uext=None):
    """The 1-D finite-difference stencil of a grid potential ``u``.

    Returns (second, grad, terms): the second difference and the centred
    gradient at every node, and the density factors boff - grad * bcoef / 2,
    one column per form (an (n, 0) array without forms).  Both differences
    read ``u`` with one ghost node on each side, extending it affinely with
    the extreme slopes ``qlo`` / ``qhi`` of the gradient polytope (the
    truncation boundary condition, the only one, also where a density form
    vanishes at such a slope).

    ``uext`` is a fresh buffer that ``u`` is copied into or, if given, a
    float64 buffer of n + 2 whose interior already is ``u``; the ghosts are
    written into it.  The differences are formed in place, in the operation
    order of (uext[2:] - 2u + uext[:-2]) / h^2 and (uext[2:] - uext[:-2]) /
    (2h).  With ``gradient=False`` and no forms the gradient is not computed
    and ``grad`` is None.  ``bcoef`` and ``boff`` are float64 arrays.
    """
    n, k = len(u), bcoef.shape[0]
    if uext is None:
        uext = np.empty(n + 2)
        uext[1:-1] = u
    uext[0] = uext[1] - h * qlo
    uext[-1] = uext[-2] + h * qhi
    right, left = uext[2:], uext[:-2]
    second = np.multiply(uext[1:-1], 2.0)
    np.subtract(right, second, out=second)
    np.add(second, left, out=second)
    np.divide(second, h * h, out=second)
    grad = None
    if gradient or k:
        grad = np.subtract(right, left)
        np.divide(grad, 2.0 * h, out=grad)
    terms = boff[None, :] - 0.5 * grad[:, None] * bcoef[None, :] if k else np.empty((n, 0))
    return second, grad, terms


def residual_1d(u, ref, h, t, xi, bcoef, boff, qlo, qhi, invc, uext=None):
    """Residual of the normalized discrete 1-D equation,
    F_i = u''_i * density(u'_i) / c - exp(-w_i - u'_i xi), on the stencil
    ``stencil_1d`` (``uext`` is passed on to it), with w = t u + ref and
    ``ref`` = (1 - t) u0, which Newton blends once per solve.

    Returns (f, parts): parts = (second, terms, dens, rhs) are the second
    differences, density factors, density (the scalar 1.0 without forms) and
    exponential term at every node, from which ``jacobian_1d`` assembles the
    bands.  ``ref``, ``bcoef`` and ``boff`` are float64 arrays and the rest
    floats, as ``build_setup`` makes them.

    The exponent is formed as (-t) u - ref: rounding to nearest is symmetric
    in sign, so it has the bits of -(t u + ref), up to the sign of a zero,
    which exp maps to the same 1.0, or of a nan.  With ``xi == 0`` (either
    sign) and no density forms the centred gradient would only enter as
    ``grad * xi``, a signed zero where it is finite, so the stencil skips
    it.  Where the gradient is not finite, the trial's merit is inf or nan,
    so the line search rejects it whichever value that node holds: a
    non-finite entry of ``u`` makes its own second difference non-finite;
    otherwise a finite merit needs exp(-w) finite, so ``u`` is bounded below,
    and a centred difference beyond 2h times the largest float puts a
    neighbour so high that exp(-w) is 0 from there on, where each residual is
    the second difference over c, which a finite merit keeps below about
    1e154, far too little to bend that slope back to the boundary slope.
    """
    second, grad, terms = stencil_1d(u, h, qlo, qhi, bcoef, boff, xi != 0.0, uext)
    # without density forms the density is 1 and multiplying by it is exact
    dens = np.prod(terms, axis=1) if bcoef.shape[0] else 1.0
    curv = second * dens if bcoef.shape[0] else second
    # rhs = exp((-t) u - ref - grad * xi), built in one buffer in that order
    rhs = np.multiply(u, -t)
    rhs -= ref
    if grad is not None:
        np.multiply(grad, xi, out=grad)
        rhs -= grad
    np.exp(rhs, out=rhs)
    f = np.multiply(curv, invc)
    f -= rhs
    return f, (second, terms, dens, rhs)


def jacobian_1d(parts, h, t, xi, bcoef, invc):
    """Tridiagonal Jacobian (lower, diag, upper) of ``residual_1d`` at the
    iterate whose ``parts`` it returned: off-diagonals a2 -+ ag, a2 = dens /
    (c h^2).  With ``xi == 0`` (either sign) and no forms the gradient term ag
    is a signed zero wherever the parts are finite, so it is not formed; where
    a part is not finite, -f is not either, and ``thomas`` rejects the step."""
    second, terms, dens, rhs = parts
    n, k = second.shape[0], bcoef.shape[0]
    a2 = dens * invc / (h * h)
    diag = -2.0 * a2 + rhs * t
    if k or xi != 0.0:
        # d(dens)/d(grad) by the product rule (terms may legitimately vanish
        # on the boundary of the gradient polytope, so never divide by them)
        sd = np.zeros(n)
        for m in range(k):
            other = np.prod(np.delete(terms, m, axis=1), axis=1) if k > 1 else np.ones(n)
            sd += -0.5 * bcoef[m] * other
        ag = (second * sd * invc + rhs * xi) / (2.0 * h)
        cm, cp = a2 - ag, a2 + ag
    else:  # a2 is the scalar invc / h^2 and a2 -+ (+-0) is a2
        cm = cp = np.full(n, a2)
    lower, upper = np.zeros(n), np.zeros(n)
    lower[1:] = cm[1:]
    upper[:-1] = cp[:-1]
    diag[0] += cm[0]
    diag[-1] += cp[-1]
    return lower, diag, upper


def admissible_1d(second, terms, conv_floor, term_floor):
    """Per-node admissibility mask: second differences and density factors
    (the parts ``residual_1d`` returns) nonnegative up to the given rounding
    floors.  The potential is machine-affine deep in the tails, and Newton
    iterates may dip below zero there transiently."""
    ok = second >= -conv_floor
    if terms.shape[1]:
        ok &= np.all(terms >= -term_floor, axis=1)
    return ok


# ---------------------------------------------------------------------------
# tridiagonal solve
# ---------------------------------------------------------------------------


@functools.cache
def _openblas_dgtsv():
    """Bind ``dgtsv`` from the OpenBLAS bundled in numpy's wheel, once per
    process; returns ``solve(buf, n) -> info`` on the packed buffer of
    ``thomas``, or None when numpy ships no such library or symbol."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs)
                       if f.startswith("libscipy_openblas64_") and f.endswith(".so"))
    except OSError:
        return None
    import ctypes

    for name in names:
        try:
            fn = ctypes.CDLL(os.path.join(libs, name)).scipy_dgtsv_64_
        except (OSError, AttributeError):
            continue
        int_p = ctypes.POINTER(ctypes.c_int64)
        fn.argtypes = (int_p, int_p) + (ctypes.c_void_p,) * 4 + (int_p, int_p)
        fn.restype = None
        one = ctypes.c_int64(1)

        def solve(buf, n):
            # buf = [b | d | dl | du], float64: b at byte 0, d at 8n, dl at
            # 16n, du at 8(3n - 1); the leading dimension of b is n
            addr = buf.ctypes.data
            size, info = ctypes.c_int64(n), ctypes.c_int64(0)
            fn(ctypes.byref(size), ctypes.byref(one), addr + 16 * n, addr + 8 * n,
               addr + 8 * (3 * n - 1), addr, ctypes.byref(size), ctypes.byref(info))
            return info.value

        return solve
    return None


def thomas(lower, diag, upper, rhs):
    """Solve a tridiagonal system given by the three bands (lower[0] and
    upper[-1] are ignored) with LAPACK ``dgtsv``, LU with partial pivoting:
    the plain Thomas recurrence hits zero pivots on near-Neumann tail blocks.

    ``dgtsv`` comes from numpy's bundled OpenBLAS through ctypes (private
    library name, 64-bit integers), bound on the first call; without that
    library it is ``scipy.linalg.lapack.dgtsv``.  The right-hand side and
    the bands are copied into one buffer, which ``dgtsv`` overwrites in
    place, so the caller's arrays are never modified; the solution returned
    is a view of that buffer.

    Raises ``SolverError`` on non-finite input or an exactly singular pivot,
    where ``dgtsv`` itself would return garbage or NaN.
    """
    n = len(diag)
    buf = np.empty(4 * n - 2)
    buf[:n] = rhs
    buf[n:2 * n] = diag
    buf[2 * n:3 * n - 1] = lower[1:]
    buf[3 * n - 1:] = upper[:-1]
    if not np.isfinite(buf).all():
        raise SolverError("tridiagonal system has non-finite entries")
    solve = _openblas_dgtsv()
    if solve is not None:
        info = solve(buf, n)
        x = buf[:n]
    else:
        from scipy.linalg.lapack import dgtsv

        dl, du = buf[2 * n:3 * n - 1], buf[3 * n - 1:]
        if n == 1:  # scipy's wrapper rejects empty off-diagonals; dgtsv never reads them
            dl = du = np.zeros(1)
        _, _, _, x, info = dgtsv(dl, buf[n:2 * n], du, buf[:n])
    if info != 0:
        raise SolverError(f"tridiagonal system is singular (dgtsv info={info})")
    return x
