"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is either exact (rational identities, ray-facet
arithmetic) or produced by an independent oracle implemented here
(Monte-Carlo sampling, closed-form bisection, brute-force rational sweeps,
finite differences); nothing is asserted that was not derived that way.
"""

import json
import math
import time
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

from a_priori import accepted_sweep, assert_gradient_confined, li_defect
from bare import bare_problem
import horofano as hf
from horofano.cli import main
from horofano.continuity import (
    ContinuityOptions,
    build_setup,
    estimate_rm_numeric,
)

DATA = Path(__file__).parent / "data"
SEED = 20240811


def _mc_moments(polytope, forms, n_samples, seed):
    """Monte-Carlo oracle for the density volume and unnormalized first
    moments; returns ((est, sigma) for volume, then per coordinate)."""
    rng = np.random.default_rng(seed)
    dim = polytope.dim
    lo = np.array([min(float(v[i]) for v in polytope.vertices) for i in range(dim)])
    hi = np.array([max(float(v[i]) for v in polytope.vertices) for i in range(dim)])
    pts = rng.uniform(lo, hi, size=(n_samples, dim))
    inside = np.ones(n_samples, dtype=bool)
    for normal, off in polytope.facets:
        inside &= pts @ np.array([float(c) for c in normal]) <= float(off) + 1e-12
    dens = np.where(inside, 1.0, 0.0)
    for f in forms:
        dens = dens * (pts @ np.array([float(c) for c in f]))
    dens = np.where(inside, dens, 0.0)
    box_vol = float(np.prod(hi - lo))
    out = []
    for values in [dens] + [dens * pts[:, i] for i in range(dim)]:
        est = values.mean() * box_vol
        sigma = values.std(ddof=1) / math.sqrt(n_samples) * box_vol
        out.append((est, sigma))
    return out


def test_criterion_1_exact_integration():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = 0
    while checked < 20:
        dim = int(rng.integers(1, 4))
        pts = rng.integers(0, 5, size=(dim + 3, dim))
        try:
            poly = hf.from_vertices([tuple(int(c) for c in row) for row in pts])
        except hf.MathValidationError:
            continue
        degree = int(rng.integers(0, 4))
        forms = []
        for _ in range(degree):
            coeffs = rng.integers(0, 3, size=dim)
            if coeffs.any():
                forms.append(tuple(int(c) for c in coeffs))
        hp = bare_problem(poly, forms)
        vol = hf.dh_volume(hp)
        bar = hf.dh_barycenter(hp)
        mc = _mc_moments(poly, forms, 1_000_000, seed=SEED + checked)
        est, sigma = mc[0]
        assert abs(float(vol) - est) <= 4 * max(sigma, 1e-12)
        for i in range(dim):
            est_i, sigma_i = mc[1 + i]
            moment_i = float(bar[i] * vol)
            assert abs(moment_i - est_i) <= 4 * max(sigma_i, 1e-12)
        checked += 1

    # closed forms: boxes factorize per axis, simplices via the barycentric
    # rule (the coordinate monomials as density forms)
    box = hf.from_vertices([(x, y) for x in (0, 2) for y in (0, 3)])
    xy = [(1, 0), (0, 1)]
    assert hf.dh_volume(bare_problem(box, xy)) == Q(2 * 2, 2) * Q(3 * 3, 2)
    assert hf.dh_barycenter(bare_problem(box, xy)) == (Q(4, 3), Q(2))
    tri = hf.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert hf.dh_volume(bare_problem(tri)) == Q(1, 2)
    assert hf.dh_volume(bare_problem(tri, xy)) == Q(1, 24)
    tet = hf.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert hf.dh_volume(bare_problem(tet)) == Q(1, 6)
    xyz = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hf.dh_volume(bare_problem(tet, xyz)) == Q(1, 720)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 1: exact integration vs Monte-Carlo, {elapsed:.2f}s")


def test_criterion_2_futaki_soliton():
    start = time.perf_counter()

    def g(c):
        return (1.0 - c) * math.exp(c) - (1.0 + 2.0 * c) * math.exp(-2.0 * c)

    lo, hi = 0.1, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    xi_oracle = 0.25 * (lo + hi)

    hp = hf.synthetic_problem(hf.from_vertices([(-1,), (2,)]))
    sol = hf.solve_soliton(hp)
    assert abs(sol.xi[0] - xi_oracle) < 1e-6

    hp2 = hf.synthetic_problem(
        hf.from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)]),
        kappa=(Q(1), Q(1)),
        forms=[(1, 0)],
    )
    rng = np.random.default_rng(SEED)
    h = 5e-4
    for _ in range(10):
        xi = rng.uniform(-0.4, 0.4, size=2)
        # G'(xi) = -2 F(xi), F(xi) = e^{2<kappa, xi>} (I1 - kappa I0)
        kappa = np.array([float(c) for c in hp2.kappa])
        mom = hf.weighted_moments(hp2, -2.0 * xi)
        grad = -2.0 * np.exp(2.0 * kappa @ xi) * (mom.i1 - kappa * mom.i0)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (hf.weighted_mass(hp2, xi + step) - hf.weighted_mass(hp2, xi - step)) / (2 * h)
            assert abs(fd - grad[axis]) <= 1e-6 * max(1.0, abs(grad[axis]))

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 2: soliton field vs bisection oracle "
          f"(xi*={sol.xi[0]:.6f}), gradient check, {elapsed:.2f}s")


def _symmetric_pairs():
    """Ten point-symmetric (moment polytope, density) pairs.  A product of
    nonnegative linear forms cannot be invariant under the point reflection
    unless it is empty, so these carry the Lebesgue measure over varied
    shapes, dimensions and center translations."""
    diamond = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    hexagon = [(2, 0), (-2, 0), (1, 2), (-1, -2), (1, -2), (-1, 2)]
    cases = [
        ([(-1,), (1,)], (Q(0),)),
        ([(-3,), (1,)], (Q(-1),)),
        ([(Q(1, 2),), (Q(7, 2),)], (Q(2),)),
        ([(-1, -1), (1, -1), (-1, 1), (1, 1)], (Q(0), Q(0))),
        ([(-2, -1), (2, -1), (-2, 1), (2, 1)], (Q(0), Q(0))),
        (diamond, (Q(0), Q(0))),
        ([(x + 2, y - 1) for x, y in diamond], (Q(2), Q(-1))),
        (hexagon, (Q(0), Q(0))),
        ([(x, y, z) for x in (-1, 1) for y in (-2, 2) for z in (-1, 1)],
         (Q(0), Q(0), Q(0))),
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
         (Q(0), Q(0), Q(0))),
    ]
    return [
        hf.synthetic_problem(hf.from_vertices(verts), kappa=kappa)
        for verts, kappa in cases
    ]


def test_criterion_3_symmetry_suite():
    pairs = _symmetric_pairs()
    assert len(pairs) == 10
    for hp in pairs:
        ke, gap = hf.kahler_einstein_test(hp)
        assert ke and all(c == 0 for c in gap)
        xi = hf.solve_soliton(hp).xi
        assert float(np.max(np.abs(xi))) <= 1e-10
    # non-symmetric perturbations with a provably moved barycenter
    perturbed = [
        hf.synthetic_problem(hf.from_vertices([(-1,), (Q(5, 4),)])),
        hf.synthetic_problem(
            hf.from_vertices([(-1, -1), (Q(3, 2), -1), (-1, 1), (Q(3, 2), 1)])
        ),
        hf.synthetic_problem(
            hf.from_vertices([(1, 0), (-1, 0), (0, Q(3, 2)), (0, -1)])
        ),
    ]
    for hp in perturbed:
        ke, gap = hf.kahler_einstein_test(hp)
        assert any(c != 0 for c in gap)
        assert ke is False
    print(f"\n[PASS] criterion 3: 10 symmetric pairs Einstein with zero field; "
          f"{len(perturbed)} perturbations exactly non-Einstein")


def _sweep_exit_oracle(polytope, direction, levels=3, grid=64):
    direction = tuple(Q(c) for c in direction)
    hi = Q(1)
    while polytope.contains(tuple(hi * c for c in direction)):
        hi *= 2
    lo = Q(0)
    for _ in range(levels):
        step = (hi - lo) / grid
        s = lo
        while s + step <= hi:
            if not polytope.contains(tuple((s + step) * c for c in direction)):
                break
            s += step
        lo, hi = s, s + step
    return lo, hi


def test_criterion_4_ricci_bound_theorem():
    cases = []
    for verts, expected in [([(-1,), (2,)], Q(2, 3)), ([(-1,), (4,)], Q(2, 5))]:
        hp = hf.synthetic_problem(hf.from_vertices(verts))
        cases.append((hp, expected))
    rd = hf.build_root_system([("B", 1)], torus_rank=1)
    pd = hf.parabolic_data(rd, [])
    hp_sq = hf.problem_from_root_data(
        rd, pd, hf.from_vertices([(0, -1), (0, 1), (2, -1), (2, 1)])
    )
    assert tuple(hf.rationals.vsub(hp_sq.barycenter, hp_sq.kappa)) == (Q(1, 3), Q(0))
    cases.append((hp_sq, Q(3, 4)))

    for hp, expected in cases:
        res = hf.greatest_ricci_lower_bound(hp)
        assert res.t_infinity == expected
        recentred = hp.moment.translate(tuple(-c for c in hp.kappa))
        gap = hf.rationals.vsub(hp.barycenter, hp.kappa)
        lo, hi = _sweep_exit_oracle(recentred, tuple(-c for c in gap))
        assert lo <= res.exit_scalar <= hi

    # exact invariance under five unimodular transforms
    mats = [
        [[1, 1], [0, 1]], [[1, 0], [-2, 1]], [[0, 1], [1, 0]],
        [[1, -3], [0, 1]], [[2, 1], [1, 1]],
    ]
    base = hp_sq
    expected = hf.greatest_ricci_lower_bound(base).t_infinity
    for m in mats:
        m = [[Q(a) for a in row] for row in m]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        mit = [
            [m[1][1] / det, -m[1][0] / det],
            [-m[0][1] / det, m[0][0] / det],
        ]
        apply = lambda mm, v: tuple(
            sum(mm[i][j] * v[j] for j in range(2)) for i in range(2)
        )
        transformed = hf.synthetic_problem(
            hf.from_vertices([apply(m, v) for v in base.moment.vertices]),
            kappa=apply(m, base.kappa),
            forms=[apply(mit, f) for f in base.density.forms],
        )
        assert hf.greatest_ricci_lower_bound(transformed).t_infinity == expected
    print("\n[PASS] criterion 4: R = 2/3, 2/5, 3/4 exactly; brute-force sweep "
          "cross-check; unimodular invariance exact")


@pytest.fixture(scope="module")
def reference_sweeps():
    hp = hf.synthetic_problem(hf.from_vertices([(-1,), (2,)]))
    xi = hf.solve_soliton(hp).xi
    opts = ContinuityOptions(grid=2001)
    start = time.perf_counter()
    trace_zero, accepted_zero = accepted_sweep(hp, [0.0], opts)
    trace_soliton, accepted_soliton = accepted_sweep(hp, xi, opts)
    elapsed = time.perf_counter() - start
    return hp, trace_zero, trace_soliton, elapsed, (accepted_zero, accepted_soliton)


def test_criterion_5_continuity_phenomenology(reference_sweeps):
    hp, trace_zero, trace_soliton, elapsed, _ = reference_sweeps
    v = float(hp.volume)

    assert trace_zero.termination == "divergence"
    estimate, _ = estimate_rm_numeric(trace_zero)
    assert abs(estimate - 2.0 / 3.0) < 0.05

    assert trace_soliton.reached_t1
    assert trace_soliton.states[-1].t == 1.0
    assert trace_soliton.states[-1].residual <= 1e-8

    for trace in (trace_zero, trace_soliton):
        for s in trace.states:
            assert abs(s.mass - v) / v <= 1e-3

    assert elapsed < 60.0
    print(f"\n[PASS] criterion 5: divergence estimate {estimate:.4f} ~ 2/3; "
          f"soliton path t=1 residual {trace_soliton.states[-1].residual:.2e}; "
          f"mass identity <= 1e-3; {elapsed:.1f}s at grid 2001")


def test_criterion_6_a_priori_diagnostics(reference_sweeps):
    hp, trace_zero, trace_soliton, _, (accepted_zero, accepted_soliton) = reference_sweeps
    envelope = json.loads((DATA / "sweep_envelope.json").read_text())

    # Li's identity defect bounds at about three times the largest value
    # recorded at grid 2001: 1.50e-6 on the zero field, 4.07e-5 on the
    # soliton path (its O(h^2) discretization error)
    for name, trace, accepted, li_bound in [
        ("interval_m1_2_zero_field", trace_zero, accepted_zero, 4.5e-6),
        ("interval_m1_2_soliton_path", trace_soliton, accepted_soliton, 1.25e-4),
    ]:
        d0 = trace.d0
        for setup, u, s in accepted:
            assert_gradient_confined(setup, u, s)
            assert li_defect(hp, setup, u, s.t) <= li_bound
        # Lipschitz bound of the deformation potential on the final state
        state = trace.final_state
        u0 = build_setup(hp, [trace.xi], ContinuityOptions(grid=trace.grid)).u0
        w = state.t * trace.u + (1.0 - state.t) * u0
        h = 2 * trace.box / (trace.grid - 1)
        wgrad = (w[2:] - w[:-2]) / (2 * h)
        assert float(np.max(np.abs(wgrad))) <= d0 + 1e-9 + 30.0 * state.gauge_defect
        # recorded regression envelope for sup psi and the minimum value
        env = envelope[name]
        margin = 0.5
        for s in trace.states:
            assert env["sup_psi_min"] - margin <= s.sup_psi <= env["sup_psi_max"] + margin
            assert env["m_t_min"] - margin <= s.m_t <= env["m_t_max"] + margin
    print("\n[PASS] criterion 6: gradient confinement, Li's identity defect <= 3x recorded, "
          "|grad w| <= d0, sup psi within recorded envelope")


def test_criterion_7_reflectivity_validation():
    rd2 = hf.build_root_system([], torus_rank=2)
    pd2 = hf.parabolic_data(rd2, [])
    square = hf.from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    rep = hf.validate_reflective(square, rd2, pd2)
    assert rep.vertices_ok and rep.dual_ok and rep.all_ok

    rd1 = hf.build_root_system([], torus_rank=1)
    pd1 = hf.parabolic_data(rd1, [])
    rep_bad = hf.validate_reflective(hf.from_vertices([(-2,), (1,)]), rd1, pd1)
    assert not rep_bad.dual_ok
    assert (Q(1, 2),) in rep_bad.dual_offenders

    rd_a1 = hf.build_root_system([("A", 1)])
    pd_a1 = hf.parabolic_data(rd_a1, [])
    inside = hf.validate_reflective(
        hf.from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1)]), rd_a1, pd_a1
    )
    assert inside.coroot_ok
    outside = hf.validate_reflective(
        hf.from_vertices([(Q(1, 4), 0), (0, 1), (-1, 0), (0, -1)]), rd_a1, pd_a1
    )
    assert not outside.coroot_ok
    print("\n[PASS] criterion 7: reflexive square passes, non-lattice dual "
          "reported, scaled-coroot membership exercised both ways")


def test_criterion_8_determinism(tmp_path):
    spec = {
        "root_system": {"factors": [], "torus_rank": 1},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [["-1"], ["2"]]}},
        "options": {"grid": 801},
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(spec), encoding="utf-8")
    outs = [tmp_path / f"report{i}.json" for i in range(3)]
    for out in outs:
        assert main(["all", "--input", str(src), "--out", str(out)]) == 0
    blobs = [o.read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    print("\n[PASS] criterion 8: byte-identical reports across three runs")
