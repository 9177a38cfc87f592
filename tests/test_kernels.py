import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from horofano import kernels
from horofano.errors import SolverError

# 1-D test potential: a perturbed convex potential with gradient in [QLO, QHI]
QLO, QHI = -2.0, 1.5
X = np.linspace(-5, 5, 41)
U0 = np.log(np.exp(QLO * X) + np.exp(QHI * X))
U = U0 + 0.01 * np.cos(X)
H = X[1] - X[0]

# density forms with factors boff - grad * bcoef / 2 positive on [QLO, QHI]
FORMS = {
    0: (np.zeros(0), np.zeros(0)),
    1: (np.array([1.0]), np.array([2.0])),
    2: (np.array([1.0, -1.0]), np.array([2.0, 1.5])),
}


def banded_reference(lower, diag, upper, rhs):
    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)


def dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def test_quad_moments_backends_agree(rng):
    # against a per-node loop, with the density folded into the weights
    pts = rng.uniform(-1, 2, size=(500, 2))
    wts = rng.uniform(0, 1, size=500)
    forms = np.array([[1.0, 0.5], [0.0, 2.0]])
    offs = np.array([3.0, 1.0])
    ell = np.array([0.3, -0.7])
    wd = np.array([wt * np.prod(forms @ p + offs) for p, wt in zip(pts, wts)])
    i0, i1, i2 = kernels.quad_moments(pts, wd, ell)
    ref0, ref1, ref2 = 0.0, np.zeros(2), np.zeros((2, 2))
    for p, wt in zip(pts, wd):
        w = wt * np.exp(ell @ p)
        ref0 += w
        ref1 += w * p
        ref2 += w * np.outer(p, p)
    assert abs(i0 - ref0) <= 1e-12 * abs(ref0)
    assert np.allclose(i1, ref1, rtol=1e-12)
    assert np.allclose(i2, ref2, rtol=1e-12)


def seed_stencil_1d(u, h, qlo, qhi, bcoef, boff):
    """The 1-D stencil before the lean rewrite, kept verbatim as a reference
    that shares no code with ``kernels``."""
    uext = np.concatenate(([u[0] - h * qlo], u, [u[-1] + h * qhi]))
    second = (uext[2:] - 2.0 * u + uext[:-2]) / (h * h)
    grad = (uext[2:] - uext[:-2]) / (2.0 * h)
    terms = boff[None, :] - 0.5 * grad[:, None] * bcoef[None, :]
    return uext, second, grad, terms


def seed_residual_1d(u, u0, h, t, xi, bcoef, boff, qlo, qhi, invc):
    """The residual body before the lean rewrite, verbatim on
    ``seed_stencil_1d``; also returns the centred gradient it computed."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    u0 = np.ascontiguousarray(u0, dtype=np.float64)
    bcoef = np.ascontiguousarray(bcoef, dtype=np.float64)
    boff = np.ascontiguousarray(boff, dtype=np.float64)
    h, t, xi, invc = float(h), float(t), float(xi), float(invc)
    _, second, grad, terms = seed_stencil_1d(u, h, float(qlo), float(qhi), bcoef, boff)
    if bcoef.shape[0]:
        dens = np.prod(terms, axis=1)
        curv = second * dens
    else:  # no density forms: the density is 1 and multiplying by it is exact
        dens = 1.0
        curv = second
    w = t * u + (1.0 - t) * u0
    # far-off line-search trials may overflow the exponential; the resulting
    # inf/nan entries fail the merit comparison and the trial is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.exp(-w - grad * xi)
        f = curv * invc - rhs
    return f, (second, terms, dens, rhs), grad


def combined_residual_1d(u, u0, h, t, xi, bcoef, boff, qlo, qhi, invc,
                         conv_floor, term_floor):
    """The single-call kernel the split replaced: residual, Jacobian bands
    and admissibility flag of every trial, kept verbatim as the reference
    the split must reproduce bit for bit."""
    n = u.shape[0]
    _, second, grad, terms = seed_stencil_1d(u, h, qlo, qhi, bcoef, boff)
    ok = bool(np.all(second >= -float(conv_floor)) and np.all(terms >= -float(term_floor)))
    dens = np.prod(terms, axis=1)
    w = t * u + (1.0 - t) * u0
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.exp(-w - grad * xi)
        f = second * dens * invc - rhs
        k = bcoef.shape[0]
        sd = np.zeros(n)
        for m in range(k):
            other = np.prod(np.delete(terms, m, axis=1), axis=1) if k > 1 else np.ones(n)
            sd += -0.5 * bcoef[m] * other
        a2 = dens * invc / (h * h)
        ag = (second * sd * invc + rhs * xi) / (2.0 * h)
        cm = a2 - ag
        cp = a2 + ag
        cc = -2.0 * a2 + rhs * t
    lower = np.zeros(n)
    diag = cc.copy()
    upper = np.zeros(n)
    lower[1:] = cm[1:]
    upper[:-1] = cp[:-1]
    diag[0] += cm[0]
    diag[-1] += cp[-1]
    return f, lower, diag, upper, ok


def split_residual_1d(u, u0, h, t, xi, bcoef, boff, qlo, qhi, invc,
                      conv_floor, term_floor):
    """The split kernels composed into the same (f, lower, diag, upper, ok);
    the residual takes the reference term blended, as Newton passes it."""
    f, parts = kernels.residual_1d(u, (1.0 - t) * u0, h, t, xi, bcoef, boff, qlo, qhi, invc)
    bands = kernels.jacobian_1d(parts, h, t, xi, bcoef, invc)
    ok = bool(np.all(kernels.admissible_1d(parts[0], parts[1], conv_floor, term_floor)))
    return (f, *bands, ok)


def test_residual_backends_agree():
    # against the pointwise equation with the affinely extended ghost nodes
    bcoef, boff = FORMS[1]
    t, xi, invc = 0.6, 0.2, 0.8
    f, _, _, _, ok = split_residual_1d(U, U0, H, t, xi, bcoef, boff, QLO, QHI, invc,
                                       1e-9, 1e-9)
    n = U.shape[0]
    admissible = True
    for i in range(n):
        um = U[i - 1] if i > 0 else U[0] - H * QLO
        up = U[i + 1] if i < n - 1 else U[-1] + H * QHI
        second = (up - 2 * U[i] + um) / H**2
        grad = (up - um) / (2 * H)
        admissible &= second >= -1e-9 and boff[0] - 0.5 * grad * bcoef[0] >= -1e-9
        expected = (second * (boff[0] - 0.5 * grad * bcoef[0]) * invc
                    - np.exp(-(t * U[i] + (1 - t) * U0[i]) - grad * xi))
        assert abs(f[i] - expected) <= 1e-12 * max(1.0, abs(expected))
    assert ok == admissible


# the ids keep the names these cases had while the kernels took two
# density-wall flags, both False here
NFORMS_IDS = ["False-False-0", "False-False-1", "False-False-2"]


@pytest.mark.parametrize("nforms", [0, 1, 2], ids=NFORMS_IDS)
def test_residual_jacobian_matches_finite_differences(nforms):
    bcoef, boff = FORMS[nforms]
    args = ((1.0 - 0.6) * U0, H, 0.6, 0.2, bcoef, boff, QLO, QHI, 0.8)
    _, parts = kernels.residual_1d(U, *args)
    lower, diag, upper = kernels.jacobian_1d(parts, H, 0.6, 0.2, bcoef, 0.8)
    jac = dense(lower, diag, upper)
    eps = 1e-6
    fd = np.empty_like(jac)
    for j in range(U.shape[0]):
        e = np.zeros_like(U)
        e[j] = eps
        fd[:, j] = (kernels.residual_1d(U + e, *args)[0]
                    - kernels.residual_1d(U - e, *args)[0]) / (2 * eps)
    assert np.max(np.abs(fd - jac)) <= 1e-7 * np.max(np.abs(jac))


@pytest.mark.parametrize("nforms", [0, 1, 2], ids=NFORMS_IDS)
@pytest.mark.parametrize("xi", [0.0, 0.2])
@pytest.mark.parametrize("scale", [1.0, 1e3, -1e3])
def test_split_kernels_match_the_combined_kernel_bitwise(nforms, xi, scale):
    # scale -1e3 is a far-off line-search trial whose exponential overflows:
    # inf and nan entries of f must sit at the same positions as before the
    # split; the kernels run in the caller's error state, as in Newton's; the
    # grid spacing is not a power of two, so a reassociated product shows
    x = np.linspace(-5, 5, 38)
    u0 = np.log(np.exp(QLO * x) + np.exp(QHI * x))
    u = (u0 + 0.01 * np.cos(x)) * scale
    bcoef, boff = FORMS[nforms]
    args = (u, u0, x[1] - x[0], 0.6, xi, bcoef, boff, QLO, QHI, 0.8, 1e-9, 1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        new = split_residual_1d(*args)
        old = combined_residual_1d(*args)
    assert np.array_equal(new[0], old[0], equal_nan=True)
    assert new[4] == old[4]
    if scale > 0 or xi != 0.0 or nforms:
        for a, b in zip(new[1:4], old[1:4]):
            assert np.array_equal(a, b, equal_nan=True)
    else:
        # zero field without forms: the bands leave out the gradient term,
        # a signed zero at finite nodes and nan at the overflowed ones, so
        # they may be finite where the reference's are not; the solve of the
        # Newton step still rejects the system, by the non-finite -f
        for bands, f in ((new[1:4], new[0]), (old[1:4], old[0])):
            with pytest.raises(SolverError, match="non-finite"):
                kernels.thomas(*bands, -f)
    if scale < 0:
        assert not np.all(np.isfinite(new[0]))


@pytest.mark.parametrize("nforms", [0, 1, 2, "negative"])
def test_admissible_mask_reads_the_density_factors(nforms):
    # on the convex reference potential the second differences pass; the
    # form 1/2 - grad/2 turns negative where the gradient nears QHI = 3/2
    bcoef, boff = FORMS[nforms] if nforms != "negative" else (np.ones(1), np.full(1, 0.5))
    _, (second, terms, _, _) = kernels.residual_1d(U0, 0.4 * U0, H, 0.6, 0.2, bcoef, boff,
                                                   QLO, QHI, 0.8)
    mask = kernels.admissible_1d(second, terms, 1e-9, 1e-9)
    assert (second >= -1e-9).all()
    assert np.array_equal(mask, np.all(terms >= -1e-9, axis=1))
    assert mask.all() == (nforms != "negative")


def same_bits(a, b):
    """Equal shapes and float64 bits, any nan matching any nan."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@st.composite
def residual_trials(draw):
    """Arguments of one line-search trial: a perturbed convex potential on a
    small grid whose spacing is not a power of two, scaled so that the
    exponential may overflow, with up to three far-off or non-finite nodes
    that overflow the differences or their division by 2h."""
    n = draw(st.integers(3, 24))
    x = np.linspace(-draw(st.floats(1.0, 8.0)), draw(st.floats(1.0, 8.0)), n)
    h = float(x[1] - x[0])
    assume(math.frexp(h)[0] != 0.5)
    qlo, qhi = draw(st.floats(-4.0, -0.25)), draw(st.floats(0.25, 4.0))
    u0 = np.logaddexp(qlo * x, qhi * x)
    bump = np.array(draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n)))
    u = (u0 + bump) * draw(st.sampled_from([1.0, 1.0, 1e3, -1e3]))
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(
            [5e307, -5e307, 1.6e308, -1.6e308, math.inf, -math.inf, math.nan])),
            max_size=3)):
        u[i] = v
    k = draw(st.integers(0, 2))
    bcoef = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    boff = np.array(draw(st.lists(st.floats(0.5, 4.0), min_size=k, max_size=k)))
    t = draw(st.floats(0.0, 1.0, exclude_min=True))
    xi = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)))
    return (u, u0, h, t, xi, bcoef, boff, qlo, qhi, draw(st.floats(0.1, 2.0)))


@settings(deadline=None, max_examples=300)
@given(args=residual_trials())
def test_residual_bitwise_equal_to_the_seed_stencil(args):
    # without forms and field the kernel skips the centred gradient; where
    # the reference gradient is not finite, its f and rhs may then differ at
    # that node, but both merits are non-finite and the trial is rejected
    # either way; the residual takes the reference term blended, as Newton
    # passes it, and both run in the caller's error state
    u, u0, h, t, xi, bcoef = args[:6]
    invc = args[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # the far-off nodes
        f, parts = kernels.residual_1d(u, (1.0 - t) * u0, *args[2:])
        bands = kernels.jacobian_1d(parts, h, t, xi, bcoef, invc)
        ref_f, (ref_second, ref_terms, ref_dens, ref_rhs), ref_grad = seed_residual_1d(*args)
        *ref_bands, ref_ok = combined_residual_1d(*args, 1e-9, 1e-9)[1:]
        merit = f @ f
    second, terms, dens, rhs = parts
    skipped = xi == 0.0 and not bcoef.shape[0]
    keep = np.isfinite(ref_grad) if skipped else slice(None)
    assert same_bits(second, ref_second)
    assert same_bits(terms, ref_terms) and same_bits(dens, ref_dens)
    assert same_bits(f[keep], ref_f[keep]) and same_bits(rhs[keep], ref_rhs[keep])
    assert bool(np.all(kernels.admissible_1d(second, terms, 1e-9, 1e-9))) == ref_ok
    if not np.isfinite(ref_grad).all():
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(merit) and not np.isfinite(ref_f @ ref_f)
    # the Jacobian bands of every trial the line search may accept; the
    # zero-field bands without forms skip the gradient term, which is a
    # signed zero wherever the merit is finite
    if np.isfinite(merit) or not skipped:
        for band, ref_band in zip(bands, ref_bands):
            assert same_bits(band, ref_band)
    # a part that is not finite makes -f non-finite too, so the solve
    # rejects the bands and -f as it rejects the reference bands
    if not all(np.isfinite(p).all() for p in parts):
        with pytest.raises(SolverError, match="non-finite"):
            kernels.thomas(*bands, -f)
        with pytest.raises(SolverError, match="non-finite"):
            kernels.thomas(*ref_bands, -ref_f)


def test_thomas_backends_agree_and_solve(rng):
    # bitwise against scipy's banded solver, which runs the same LAPACK gtsv
    n = 200
    lower = np.zeros(n)
    upper = np.zeros(n)
    diag = -2.0 * np.ones(n) + 0.1 * rng.uniform(size=n)
    lower[1:] = 1.0 + 0.05 * rng.uniform(size=n - 1)
    upper[:-1] = 1.0 + 0.05 * rng.uniform(size=n - 1)
    rhs = rng.uniform(-1, 1, size=n)
    sol = kernels.thomas(lower, diag, upper, rhs)
    assert np.array_equal(sol, banded_reference(lower, diag, upper, rhs))
    assert np.allclose(sol, np.linalg.solve(dense(lower, diag, upper), rhs), atol=1e-10)
    for n in (3, 17, 2001):
        bands = [rng.normal(size=n) for _ in range(4)]
        assert np.array_equal(kernels.thomas(*bands), banded_reference(*bands))


def test_thomas_handles_near_neumann_chain():
    # weakly pinned second-difference chain: the plain recurrence without
    # pivoting hits a zero pivot here
    n = 50
    lower = np.zeros(n)
    upper = np.zeros(n)
    diag = np.full(n, -2.0)
    lower[1:] = 1.0
    upper[:-1] = 1.0
    diag[0] = -1.0
    diag[-1] = -1.0
    diag[n // 2] += 1e-12
    rhs = np.zeros(n)
    rhs[n // 2] = 1.0
    sol = kernels.thomas(lower, diag, upper, rhs)
    assert np.array_equal(sol, banded_reference(lower, diag, upper, rhs))
    exact = np.linalg.solve(dense(lower, diag, upper), rhs)
    assert np.allclose(sol, exact, rtol=1e-6)


def solve_paths(monkeypatch):
    """Yield once per path of ``thomas``: the ctypes binding to numpy's
    bundled OpenBLAS (where that library exists), then the scipy fallback,
    forced by a binder that finds no library."""
    if kernels._openblas_dgtsv() is not None:
        yield "openblas"
    with monkeypatch.context() as m:
        m.setattr(kernels, "_openblas_dgtsv", lambda: None)
        yield "scipy"


@pytest.mark.parametrize("n", [1, 2, 3, 17, 2001, 20001])
def test_thomas_bitwise_equal_to_scipy_dgtsv_on_both_paths(monkeypatch, n):
    rng = np.random.default_rng(n)
    systems = [[rng.normal(size=n) for _ in range(4)] for _ in range(5)]
    # diagonally weak systems, so partial pivoting swaps rows
    systems += [[rng.normal(size=n), 1e-3 * rng.normal(size=n), rng.normal(size=n),
                 rng.normal(size=n)] for _ in range(5)]
    for path in solve_paths(monkeypatch):
        for lower, diag, upper, rhs in systems:
            # scipy's wrapper rejects the empty off-diagonals of n = 1, which
            # dgtsv never reads
            dl, du = (lower[1:], upper[:-1]) if n > 1 else (np.zeros(1), np.zeros(1))
            *_, ref, info = dgtsv(dl, diag, du, rhs)
            assert info == 0
            assert np.array_equal(kernels.thomas(lower, diag, upper, rhs), ref), path


def test_thomas_leaves_the_callers_arrays_unchanged(monkeypatch, rng):
    # dgtsv overwrites its bands and right-hand side in place: the Newton
    # loop reuses its Jacobian bands and residual after the solve
    n = 201
    bands = [rng.normal(size=n) for _ in range(4)]
    copies = [b.copy() for b in bands]
    for path in solve_paths(monkeypatch):
        x = kernels.thomas(*bands)
        for b, c in zip(bands, copies):
            assert np.array_equal(b, c), path
        assert not any(np.shares_memory(x, b) for b in bands), path


def test_thomas_singular_is_solver_error(monkeypatch):
    diag = np.array([1.0, 0.0, 1.0])
    for path in solve_paths(monkeypatch):
        with pytest.raises(SolverError, match="singular"):
            kernels.thomas(np.zeros(3), diag, np.zeros(3), np.ones(3))


@pytest.mark.parametrize("band", range(4))
def test_thomas_non_finite_is_solver_error(monkeypatch, band):
    bands = [np.zeros(3), np.full(3, 2.0), np.zeros(3), np.ones(3)]
    bands[band][1] = np.nan
    for path in solve_paths(monkeypatch):
        with pytest.raises(SolverError, match="non-finite"):
            kernels.thomas(*bands)
