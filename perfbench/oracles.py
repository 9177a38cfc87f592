"""Independent references for the benchmark's correctness checks.

Nothing here imports the system under test.  Exact quantities come from
closed forms (intervals) or from per-axis ``Fraction`` integration of the
expanded density (boxes); the soliton field is checked against a
high-precision bisection (intervals) or a direct tensor Gauss-Legendre
evaluation of the Futaki vector over the box.  numpy and mpmath are
imported only inside the checks that need them, so generating problems
adds no import time to the program's measured set-up.

Each check returns ``("ok" | "failed" | "wrong", reason)``.  "wrong" means
the program returned a value as a result and the value is false (an exact
invariant, the soliton field, the R estimate of a zero-field sweep);
"failed" means the op ended without the result it was asked for (non-zero
exit, exception, a sweep that did not reach t = 1 or gave no estimate) or
its accepted states miss the mass identity tolerance.
"""

from __future__ import annotations

from fractions import Fraction as Q

XI_TOL = 1e-6  # tier-1 criterion 2
FUTAKI_REL_TOL = 1e-8
MASS_REL_TOL = 1e-3  # tier-1 criterion 5, at the default grid
DEFAULT_GRID = 2001
RM_TOL = 0.05  # tier-1 criterion 5


class OracleError(RuntimeError):
    """A reference value could not be evaluated."""


def _ray_bound(lower, upper, kappa, bary) -> Q:
    """Greatest Ricci lower bound from the axis-aligned exit of the ray from
    kappa in direction kappa - barycenter out of the box."""
    exits = []
    for lo, hi, k, b in zip(lower, upper, kappa, bary):
        d = k - b
        if d > 0:
            exits.append((hi - k) / d)
        elif d < 0:
            exits.append((lo - k) / d)
    if not exits:
        return Q(1)
    s = min(exits)
    return s / (1 + s)


def interval_invariants(p) -> dict:
    """Closed forms: toric [-a, b] has V = a + b and barycenter (b - a)/2;
    B1 [a, b] has density x, so V = (b^2 - a^2)/2 and barycenter
    2(b^3 - a^3) / (3(b^2 - a^2))."""
    lo, hi = p.lower[0], p.upper[0]
    if p.kind == "toric":
        vol, bary = hi - lo, (lo + hi) / 2
    else:
        vol = (hi**2 - lo**2) / 2
        bary = 2 * (hi**3 - lo**3) / (3 * (hi**2 - lo**2))
    return {
        "volume": vol,
        "barycenter": (bary,),
        "R": _ray_bound(p.lower, p.upper, p.kappa, (bary,)),
    }


def _expand(forms, dim):
    poly = {(0,) * dim: Q(1)}
    for f in forms:
        nxt: dict = {}
        for exps, c in poly.items():
            for i, a in enumerate(f):
                if a:
                    e = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                    nxt[e] = nxt.get(e, Q(0)) + c * a
        poly = {e: c for e, c in nxt.items() if c}
    return poly


def _box_integral(poly, lower, upper) -> Q:
    total = Q(0)
    for exps, c in poly.items():
        term = c
        for e, lo, hi in zip(exps, lower, upper):
            term *= (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
        total += term
    return total


def box_invariants(p) -> dict:
    """Exact volume, barycenter and R of a box for the product density."""
    poly = _expand(p.forms, p.dim)
    vol = _box_integral(poly, p.lower, p.upper)
    bary = []
    for i in range(p.dim):
        shifted = {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in poly.items()}
        bary.append(_box_integral(shifted, p.lower, p.upper) / vol)
    return {
        "volume": vol,
        "barycenter": tuple(bary),
        "R": _ray_bound(p.lower, p.upper, p.kappa, bary),
    }


def exact_invariants(p) -> dict:
    return interval_invariants(p) if p.dim == 1 else box_invariants(p)


def interval_xi(p) -> float:
    """Soliton field of an interval by bisection on the Futaki integral
    F(c) = int (x - kappa) w(x) exp(-c (x - kappa)) dx, with xi = c / 2,
    evaluated in closed form at 60 digits.  F is strictly decreasing."""
    import mpmath

    with mpmath.workdps(60):
        def mp(x: Q):
            return mpmath.mpf(x.numerator) / x.denominator

        k = mp(p.kappa[0])
        a, b = mp(p.lower[0]) - k, mp(p.upper[0]) - k
        # integrand q * w with q = x - kappa; w = 1 (toric) or x = q + kappa
        coeffs = {1: mpmath.mpf(1)} if p.kind == "toric" else {2: mpmath.mpf(1), 1: k}

        def moment(n, c):
            if c == 0:
                return (b ** (n + 1) - a ** (n + 1)) / (n + 1)

            def prim(q):
                return -mpmath.exp(-c * q) * mpmath.fsum(
                    mpmath.factorial(n) / mpmath.factorial(n - j) * q ** (n - j) / c ** (j + 1)
                    for j in range(n + 1)
                )

            return prim(b) - prim(a)

        def futaki(c):
            return mpmath.fsum(v * moment(n, c) for n, v in coeffs.items())

        lo, hi = mpmath.mpf(-64), mpmath.mpf(64)
        if not (futaki(lo) > 0 > futaki(hi)):
            raise OracleError(f"{p.key}: Futaki integral does not change sign on the bracket")
        for _ in range(120):
            mid = (lo + hi) / 2
            if futaki(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 4)


def box_futaki(p, xi, nodes: int = 24) -> tuple[float, float]:
    """(|F(xi)|, V) by tensor Gauss-Legendre over the box, where
    F(xi) = int (x - kappa) exp(-2 <x - kappa, xi>) density dx."""
    import numpy as np

    t, w = np.polynomial.legendre.leggauss(nodes)
    axes, weights = [], []
    for lo, hi in zip(p.lower, p.upper):
        lo, hi = float(lo), float(hi)
        axes.append(lo + (t + 1.0) * (hi - lo) / 2.0)
        weights.append(w * (hi - lo) / 2.0)
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    wts = np.prod(np.stack([g.ravel() for g in np.meshgrid(*weights, indexing="ij")], axis=1), axis=1)
    forms = np.array([[float(c) for c in f] for f in p.forms]).reshape(-1, p.dim)
    dens = np.prod(pts @ forms.T, axis=1) * wts
    q = pts - np.array([float(c) for c in p.kappa])
    tilt = np.exp(-2.0 * q @ np.asarray(xi, dtype=float))
    f = q.T @ (tilt * dens)
    if not np.all(np.isfinite(f)):
        raise OracleError(f"{p.key}: Futaki quadrature overflowed")
    return float(np.linalg.norm(f)), float(np.sum(dens))


class References:
    """Reference values per problem, computed once and only when needed."""

    def __init__(self):
        self._exact: dict = {}
        self._xi: dict = {}

    def exact(self, p) -> dict:
        if p.key not in self._exact:
            self._exact[p.key] = exact_invariants(p)
        return self._exact[p.key]

    def xi(self, p) -> float:
        if p.key not in self._xi:
            self._xi[p.key] = interval_xi(p)
        return self._xi[p.key]


def mass_tol(grid: int) -> float:
    """The mass identity is a second-order discretization: the tolerance
    set for the default grid scales with h^2 on a coarser one."""
    return MASS_REL_TOL * max(1.0, (DEFAULT_GRID / grid) ** 2)


def _q(s):
    try:
        return Q(s)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def check_report(p, report: dict, refs: References) -> tuple[str, str]:
    """Check a CLI report (``all``, ``soliton`` or ``ricci-bound``)."""
    ex = refs.exact(p)
    if "volume" in report:
        if _q(report["volume"]) != ex["volume"]:
            return "wrong", f"volume {report['volume']} != {ex['volume']}"
        if tuple(_q(c) for c in report["barycenter"]) != ex["barycenter"]:
            return "wrong", "barycenter"
        if report["ke"] != (ex["barycenter"] == p.kappa):
            return "wrong", "Einstein test"
    if "R" in report and _q(report["R"]) != ex["R"]:
        return "wrong", f"R {report['R']} != {ex['R']}"
    if "xi" in report:
        if p.dim == 1:
            err = abs(report["xi"][0] - refs.xi(p))
            if not err <= XI_TOL:
                return "wrong", f"xi off the bisection oracle by {err:.2e}"
        else:
            norm, vol = box_futaki(p, report["xi"])
            if not norm <= FUTAKI_REL_TOL * vol:
                return "wrong", f"|F(xi)| = {norm:.2e} > 1e-8 V"
    if "continuity" in report:
        c = report["continuity"]
        if p.dim > 2:
            if "skipped" not in c:
                return "wrong", "continuity ran for r > 2"
        elif not c.get("reached_t1"):
            at = f" at t={c['diverged_at']}" if c.get("diverged_at") is not None else ""
            return "failed", f"soliton path {c.get('termination')}{at}"
        elif not c["mass_max_rel_err"] <= mass_tol(c["grid"]):
            return "failed", f"mass error {c['mass_max_rel_err']:.2e}"
    return "ok", ""


def check_divergence(p, out: dict, refs: References) -> tuple[str, str]:
    """Zero-field sweep.  A volume other than the exact V is "wrong"; a sweep
    that ends without an estimate, or whose accepted states break the mass
    identity by more than 1e-3, is "failed"; otherwise an R estimate more
    than 0.05 from the exact R is "wrong"."""
    ex = refs.exact(p)
    vol = float(ex["volume"])
    if not abs(out["volume"] - vol) <= 1e-12 * vol:
        return "wrong", f"volume {out['volume']!r} != {vol!r}"
    if "error" in out:
        return "failed", f"{out['termination']}: {out['error']}"
    if not out["mass_max_rel_err"] <= mass_tol(out["grid"]):
        return "failed", f"mass error {out['mass_max_rel_err']:.2e}"
    r = float(ex["R"])
    if not abs(out["estimate"] - r) <= RM_TOL:
        return "wrong", f"{out['termination']}: estimate {out['estimate']:.4f} vs R = {r:.4f}"
    return "ok", ""


def self_test(problems, refs: References) -> None:
    """Cross-check the two exact routes and the two soliton routes against
    each other on the given problems; raises OracleError on disagreement."""
    for p in problems:
        if p.dim == 1:
            if interval_invariants(p) != box_invariants(p):
                raise OracleError(f"{p.key}: closed form and expansion disagree")
            norm, vol = box_futaki(p, [refs.xi(p)], nodes=64)
            if not norm <= 1e-9 * vol:
                raise OracleError(f"{p.key}: bisection xi fails the quadrature check")
