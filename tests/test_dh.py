import itertools
import json
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bare import bare_problem
import exact_reference as ref
from horofano import (
    MathValidationError,
    QuadratureError,
    Simplex,
    density_from_forms,
    dh_barycenter,
    dh_volume,
    from_halfspaces,
    from_vertices,
    triangulate,
    weighted_moments,
)
from horofano import dh, kernels
from horofano.rationals import vdot

UNIT_TRIANGLE = Simplex(vertices=((Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1))))


def simplex_integral(simplex, affine):
    """The exact integral of a product of affine forms over a simplex."""
    table = dh._monomial_weights(len(affine), simplex.dim)
    return dh._simplex_mass_moments(simplex, dh._integer_forms(affine), table)[0]


def mc_integral(polytope, forms, n_samples, seed):
    """Monte-Carlo oracle: mean of the density over a bounding box times the
    box volume, restricted to the polytope; returns (estimate, sigma)."""
    rng = np.random.default_rng(seed)
    dim = polytope.dim
    lo = np.array([min(float(v[i]) for v in polytope.vertices) for i in range(dim)])
    hi = np.array([max(float(v[i]) for v in polytope.vertices) for i in range(dim)])
    pts = rng.uniform(lo, hi, size=(n_samples, dim))
    inside = np.ones(n_samples, dtype=bool)
    for normal, off in polytope.facets:
        inside &= pts @ np.array([float(c) for c in normal]) <= float(off) + 1e-12
    values = np.where(inside, 1.0, 0.0)
    for f in forms:
        values = values * (pts @ np.array([float(c) for c in f]))
    values = np.where(inside, values, 0.0)
    box_vol = float(np.prod(hi - lo))
    est = values.mean() * box_vol
    sigma = values.std(ddof=1) / math.sqrt(n_samples) * box_vol
    return est, sigma


def test_unit_triangle_area():
    tri = from_vertices(UNIT_TRIANGLE.vertices)
    assert dh_volume(bare_problem(tri)) == Q(1, 2)


def test_interval_linear_moment():
    assert dh_volume(bare_problem(from_vertices([(0,), (1,)]), [(1,)])) == Q(1, 2)


def test_monomial_p1p2_vs_monte_carlo():
    tri = from_vertices([(0, 0), (1, 0), (0, 1)])
    exact = dh_volume(bare_problem(tri, [(1, 0), (0, 1)]))
    assert exact == Q(1, 24)
    est, sigma = mc_integral(tri, [(1, 0), (0, 1)], 400_000, seed=7)
    assert abs(float(exact) - est) < 4 * sigma


def test_affine_form_products():
    # (p1 + 1)(p2 + 2) over the unit triangle, expanded by linearity
    p1, p2 = ((Q(1), Q(0)), Q(0)), ((Q(0), Q(1)), Q(0))
    product = [((Q(1), Q(0)), Q(1)), ((Q(0), Q(1)), Q(2))]
    val = simplex_integral(UNIT_TRIANGLE, product)
    expected = (
        simplex_integral(UNIT_TRIANGLE, [p1, p2])
        + 2 * simplex_integral(UNIT_TRIANGLE, [p1])
        + simplex_integral(UNIT_TRIANGLE, [p2])
        + 2 * simplex_integral(UNIT_TRIANGLE, [])
    )
    assert val == expected == ref.simplex_integral(UNIT_TRIANGLE.vertices, product)


def test_form_pairs_with_integer_entries():
    # (coeffs, offset) pairs of plain integers, in every dimension
    seg = Simplex(vertices=((Q(0),), (Q(1),)))
    assert simplex_integral(seg, [((1,), 2)]) == Q(5, 2)
    val = simplex_integral(UNIT_TRIANGLE, [((1, 0), 1), ((0, 1), 2)])
    assert val == Q(37, 24)  # (p1 + 1)(p2 + 2): 1/24 + 2/6 + 1/6 + 2/2
    tet = Simplex(vertices=((Q(0), Q(0), Q(0)), (Q(1), Q(0), Q(0)),
                            (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))))
    assert simplex_integral(tet, [((1, 1, 1), 0)]) == Q(1, 8)


def test_dh_volume_examples():
    assert dh_volume(bare_problem(from_vertices([(-1,), (1,)]))) == 2
    assert dh_volume(bare_problem(from_vertices([(1,), (3,)]), [(1,)])) == 4
    square = from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    assert dh_volume(bare_problem(square)) == 4


def test_dh_volume_rejects():
    # a density negative on the polytope is rejected with the problem
    with pytest.raises(MathValidationError) as err:
        bare_problem(from_vertices([(-1,), (1,)]), [(1,)])
    assert err.value.condition == "density_nonneg"


def test_dh_barycenter_examples():
    assert dh_barycenter(bare_problem(from_vertices([(-1,), (1,)]))) == (0,)
    assert dh_barycenter(bare_problem(from_vertices([(-1,), (2,)]))) == (Q(1, 2),)
    assert dh_barycenter(bare_problem(from_vertices([(1,), (3,)]), [(1,)])) == (Q(13, 6),)


def test_exact_box_closed_forms():
    # product density p1 * p2 over [0,2] x [0,3] factorizes per axis
    box = from_vertices([(0, 0), (2, 0), (0, 3), (2, 3)])
    hp = bare_problem(box, [(1, 0), (0, 1)])
    assert dh_volume(hp) == Q(2 * 2, 2) * Q(3 * 3, 2)
    assert dh_barycenter(hp) == (Q(4, 3), Q(2))


def test_volume_monotone_under_inclusion():
    inner = from_vertices([(0, 0), (2, 0), (0, 2)])
    outer = from_vertices([(0, 0), (3, 0), (0, 3)])
    assert dh_volume(bare_problem(inner, [(1, 0)])) < dh_volume(bare_problem(outer, [(1, 0)]))


def test_barycenter_fixed_by_symmetry():
    # invariant under the swap of coordinates
    p = from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)])
    bar = dh_barycenter(bare_problem(p, [(1, 1)]))
    assert bar[0] == bar[1]


def test_weighted_moments_exponential_oracle():
    p01 = from_vertices([(0,), (1,)])
    m = weighted_moments(bare_problem(p01), [1.0])
    assert abs(m.i0 - (math.e - 1.0)) < 1e-13
    assert m.rel_error <= 1e-12


def test_weighted_moments_zero_exponent_matches_exact():
    m = weighted_moments(bare_problem(from_vertices([(1,), (3,)]), [(1,)]), [0.0])
    assert abs(m.i0 - 4.0) < 1e-12
    assert abs(m.i1[0] / m.i0 - float(Q(13, 6))) < 1e-12
    hp2 = bare_problem(from_vertices([(0, 0), (1, 0), (0, 1)]), [(1, 0)])
    m2 = weighted_moments(hp2, [0.0, 0.0])
    assert abs(m2.i0 - float(dh_volume(hp2))) < 1e-14
    m01 = weighted_moments(bare_problem(from_vertices([(0,), (1,)]), [(1,)]), [0.0])
    assert abs(m01.i0 - 0.5) < 1e-14
    assert abs(m01.i1[0] - 1.0 / 3.0) < 1e-14


def test_weighted_moments_polynomial_degree_exactness():
    # second moments of a linear density are polynomial integrands and must
    # match exact rational integration at machine precision
    p = from_vertices([(0, 0), (2, 0), (0, 2)])
    m = weighted_moments(bare_problem(p, [(1, 1)]), [0.0, 0.0])
    exact_i2_xx = ref.polytope_integral(
        p.vertices, p.facets, [((1, 1), 0), ((1, 0), 0), ((1, 0), 0)]
    )
    assert abs(m.i2[0, 0] - float(exact_i2_xx)) < 1e-13


def test_weighted_moments_tolerance_error(monkeypatch):
    monkeypatch.setattr(dh, "DEFAULT_QUAD_REL_TOL", 1e-30)
    p01 = from_vertices([(0,), (1,)])
    with pytest.raises(QuadratureError) as err:
        weighted_moments(bare_problem(p01), [1.0])
    assert err.value.estimate > 0


@pytest.mark.parametrize("polytope", [
    from_vertices([(-1,), (10**300,)]),
    # the torus-rank-3 simplex with facet x <= 9 * 10^61: I0 and I1 are
    # finite at order 10, but I2 holds nan entries
    from_halfspaces([((1, 0, 0), 9 * 10**61), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((-1, -1, -1), 1)]),
], ids=["interval-1e300", "simplex-9e61"])
def test_non_finite_moments_are_never_converged(polytope):
    from horofano.soliton import weighted_mass

    hp = bare_problem(polytope)
    zero = [0.0] * polytope.dim
    with pytest.raises(QuadratureError, match="^quadrature moments beyond the float range") as err:
        weighted_moments(hp, zero)
    assert not math.isfinite(err.value.estimate)
    with pytest.raises(QuadratureError, match="beyond the float range"):
        weighted_mass(hp, zero)


def test_randomized_polytopes_against_monte_carlo(rng):
    # dims 1-3, densities of degree <= 3, exact integrals within 4 sigma
    for trial in range(8):
        dim = int(rng.integers(1, 4))
        pts = rng.integers(0, 4, size=(dim + 3, dim))
        try:
            p = from_vertices([tuple(int(c) for c in row) for row in pts])
        except MathValidationError:
            continue
        n_forms = int(rng.integers(0, 4))
        forms = [tuple(int(c) for c in rng.integers(0, 3, size=dim)) for _ in range(n_forms)]
        forms = [f for f in forms if any(f)]
        exact = dh_volume(bare_problem(p, forms))
        est, sigma = mc_integral(p, forms, 200_000, seed=trial)
        assert abs(float(exact) - est) <= 4 * max(sigma, 1e-12)


def test_weighted_moments_separable_box_3d():
    # independent closed form: the exponential integral over a box separates
    box = from_vertices([(x, y, z) for x in (0, 1) for y in (-1, 1) for z in (0, 2)])
    ell = [0.7, -0.3, 0.4]
    m = weighted_moments(bare_problem(box), ell)

    def seg(lo, hi, a):
        return (math.exp(a * hi) - math.exp(a * lo)) / a

    expected = seg(0, 1, 0.7) * seg(-1, 1, -0.3) * seg(0, 2, 0.4)
    assert abs(m.i0 - expected) < 1e-12 * expected


def test_dh_volume_zero_density_rejected():
    with pytest.raises(MathValidationError) as err:
        dh_volume(bare_problem(from_vertices([(0, 0), (1, 0), (0, 1)]), [(0, 0)]))
    assert err.value.condition == "positive_volume"


def _seed_simplex_nodes(verts, m):
    """Direct construction of the collapsed tensor GL rule on one simplex:
    meshgrid, collapse, then weights times Jacobian times |det edges|."""
    r = verts.shape[0] - 1
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
    edges = verts[1:] - verts[0]
    detedge = abs(float(np.linalg.det(edges))) if r > 1 else abs(float(edges[0, 0]))
    points = verts[0][None, :] + u @ edges
    return points, ws * jac * detedge


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 7, 22, 26])
def test_simplex_nodes_match_direct_construction(r, m):
    # a non-unit simplex, so the affine map and |det edges| both act
    verts = np.array(
        [[0.5, -1.25, 2.0], [3.0, -1.0, 2.5], [0.75, 1.5, 1.0], [1.0, -0.5, 4.25]]
    )[: r + 1, :r]
    pts, wts = dh._simplex_nodes(verts, m)
    ref_pts, ref_wts = _seed_simplex_nodes(verts, m)
    assert pts.tobytes() == ref_pts.tobytes()
    assert wts.tobytes() == ref_wts.tobytes()
    # a second call reads the cached unit table and still agrees
    pts2, wts2 = dh._simplex_nodes(verts, m)
    assert pts2.tobytes() == ref_pts.tobytes() and wts2.tobytes() == ref_wts.tobytes()


def test_unit_node_table_concurrent_fill():
    # more threads than cores start together on an empty table and switch
    # often; every caller must see the complete rule
    verts = np.array([[0.5, -1.25, 2.0], [3.0, -1.0, 2.5], [0.75, 1.5, 1.0], [1.0, -0.5, 4.25]])
    orders = [9, 13, 17, 21]
    ref = {m: _seed_simplex_nodes(verts, m) for m in orders}
    nthreads = 8
    start = threading.Barrier(nthreads)

    def work(k):
        start.wait(timeout=60)
        return [(m, dh._simplex_nodes(verts, m)) for m in orders[k % 2 :] + orders[: k % 2]]

    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            dh._unit_simplex_nodes.cache_clear()
            with ThreadPoolExecutor(max_workers=nthreads) as pool:
                futures = [pool.submit(work, k) for k in range(nthreads)]
                results += [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for m, (pts, wts) in (item for res in results for item in res):
        assert pts.tobytes() == ref[m][0].tobytes()
        assert wts.tobytes() == ref[m][1].tobytes()


def _random_rational(rng, lo, hi, den=4):
    return Q(rng.randint(lo * den, hi * den), den)


def test_barycenter_single_expansion_matches_reference_route():
    # random rational boxes and simplices in the positive orthant with
    # nonnegative forms, so the density is nonnegative on every draw
    rng = random.Random(20261018)
    cases = []
    for trial in range(18):
        dim = 1 + trial % 3
        if trial % 2 == 0:
            lo = [_random_rational(rng, 0, 2) for _ in range(dim)]
            hi = [a + _random_rational(rng, 1, 3) for a in lo]
            verts = [tuple(c) for c in itertools.product(*zip(lo, hi))]
        else:
            verts = [
                tuple(_random_rational(rng, 0, 3) for _ in range(dim))
                for _ in range(dim + 1)
            ]
        try:
            p = from_vertices(verts)
        except MathValidationError:
            continue  # a degenerate simplex draw
        forms = [
            tuple(_random_rational(rng, 0, 2) for _ in range(dim))
            for _ in range(rng.randint(0, 4))
        ]
        cases.append((p, [f for f in forms if any(f)]))
    # the density x1 * (x1 + x2) vanishes on the facet x1 = 0
    cases.append((from_vertices([(0, 0), (2, 0), (0, 3), (2, 3)]), [(1, 0), (1, 1)]))
    assert len(cases) >= 15
    for p, forms in cases:
        hp = bare_problem(p, forms)
        vol, bar = ref.volume_and_barycenter(p.vertices, p.facets, hp.density.forms)
        assert dh_volume(hp) == vol and dh_barycenter(hp) == bar


def test_barycenter_rejects_like_volume():
    triangle = from_vertices([(0, 0), (1, 0), (0, 1)])
    # in either order on the same problem, so the second call reads whatever
    # the first one left behind
    for fns in ((dh_volume, dh_barycenter), (dh_barycenter, dh_volume)):
        hp = bare_problem(triangle, [(0, 0)])
        for fn in fns:
            with pytest.raises(MathValidationError) as err:
                fn(hp)
            assert err.value.condition == "positive_volume"


# ---------------------------------------------------------------------------
# the per-problem moment data
# ---------------------------------------------------------------------------


def _box_vertices(center, half_widths):
    return [
        [str(c + s * Q(w)) for c, s, w in zip(center, signs, half_widths)]
        for signs in itertools.product((-1, 1), repeat=len(center))
    ]


SQUARE = [["-1", "-1"], ["1", "-1"], ["-1", "1"], ["1", "1"]]

# non-toric inputs by their root data: B1 on an interval, a box of each
# family of the benchmark's 3-D inputs, and the 2-D squares of the golden
# reports (given by Q)
SPECS = {
    "b1": {
        "root_system": {"factors": [["B", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [["1/2"], ["3"]]}},
    },
    "a2-levi1": {
        "root_system": {"factors": [["A", 2]], "torus_rank": 0},
        "levi_subset": [1],
        "polytope": {"moment": {"vertices": _box_vertices((1, 1, -2), ("1/2", "3/8", "5/8"))}},
    },
    "b3-levi12": {
        "root_system": {"factors": [["B", 3]], "torus_rank": 0},
        "levi_subset": [1, 2],
        "polytope": {"moment": {"vertices": _box_vertices((3, 3, 3), ("3/8", "1/2", "1/4"))}},
    },
    "b3-levi0": {
        "root_system": {"factors": [["B", 3]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": _box_vertices((5, 3, 1), ("1/2", "3/8", "1/4"))}},
    },
    "a2-levi0": {
        "root_system": {"factors": [["A", 2]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": _box_vertices((2, 0, -2), ("1/2", "3/8", "5/8"))}},
    },
    "a1-square": {
        "root_system": {"factors": [["A", 1]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"Q": {"vertices": SQUARE}},
    },
    "b2-square": {
        "root_system": {"factors": [["B", 2]], "torus_rank": 0},
        "levi_subset": [],
        "polytope": {"Q": {"vertices": SQUARE}},
    },
    "toric": {
        "root_system": {"factors": [], "torus_rank": 1},
        "levi_subset": [],
        "polytope": {"moment": {"vertices": [["-1"], ["2"]]}},
    },
}


def _load(tmp_path, name):
    from horofano.cli import load_problem

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SPECS[name]))
    return load_problem(str(path)).hp


def _counting(monkeypatch, name):
    """Replace ``dh.<name>`` by a wrapper that counts its calls."""
    calls = []
    fn = getattr(dh, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(dh, name, wrapper)
    return calls


def _per_call_moments(polytope, density, ell, order):
    """Order-``order`` moments built the per-call way: fresh nodes on every
    simplex and the density product at every node, then the same kernel
    arithmetic and compensated sum."""
    forms = np.array([[float(c) for c in f] for f in density.forms]).reshape(
        len(density.forms), polytope.dim)
    ell = np.asarray(ell, dtype=np.float64)
    parts = []
    for s in triangulate(polytope):
        verts = np.array([[float(c) for c in v] for v in s.vertices])
        pts, wts = dh._simplex_nodes(verts, order)
        dens = np.prod(pts @ forms.T + np.zeros(len(forms)), axis=1)
        w = wts * dens * np.exp(pts @ ell)
        parts.append((float(np.sum(w)), pts.T @ w, (pts * w[:, None]).T @ pts))
    return dh._neumaier_reduce(parts)


def _neumaier_arrays(parts):
    """The compensated sum in its elementwise array form: the reference for
    the flat float loop of ``dh._neumaier_reduce``."""
    r = parts[0][1].shape[0]
    s0, c0 = 0.0, 0.0
    s1, c1 = np.zeros(r), np.zeros(r)
    s2, c2 = np.zeros((r, r)), np.zeros((r, r))
    for p0, p1, p2 in parts:
        t0 = s0 + p0
        c0 += (s0 - t0) + p0 if abs(s0) >= abs(p0) else (p0 - t0) + s0
        s0 = t0
        t1 = s1 + p1
        c1 = c1 + np.where(np.abs(s1) >= np.abs(p1), (s1 - t1) + p1, (p1 - t1) + s1)
        s1 = t1
        t2 = s2 + p2
        c2 = c2 + np.where(np.abs(s2) >= np.abs(p2), (s2 - t2) + p2, (p2 - t2) + s2)
        s2 = t2
    return s0 + c0, s1 + c1, s2 + c2


@pytest.mark.parametrize("r", [1, 2, 3])
def test_neumaier_reduce_is_bitwise_the_array_form(rng, r):
    def draw(shape):
        # signed magnitudes spread over 1e-8 to 1e8, so cancellation and
        # both branches of the compensation occur
        return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)

    for _ in range(300):
        parts = [(float(draw(())), draw((r,)), draw((r, r)))
                 for _ in range(int(rng.integers(1, 13)))]
        got, want = dh._neumaier_reduce(parts), _neumaier_arrays(parts)
        assert type(got[0]) is float
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].shape == (r,) and got[2].shape == (r, r)
        assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()


def test_moment_table_is_exact_and_never_stale():
    box = from_vertices([(x, y, z) for x in (1, 2) for y in (0, 3) for z in (1, 4)])
    tri = from_vertices([(0, 0), (3, 1), (1, 2)])
    first = bare_problem(box, [(1, 0, 0), (1, 1, 0)])
    other = bare_problem(box, [(0, 0, 1), (1, 0, 1), (0, 1, 0)])
    runs = [
        (first, [0.4, -0.2, 0.1]),
        (bare_problem(tri, [(1, 1)]), [-0.3, 0.5]),
        (other, [0.4, -0.2, 0.1]),
        # equal values in new objects, then the first problem again
        (bare_problem(from_vertices(box.vertices), first.density.forms), [0.2, 0.1, -0.3]),
        (first, [-0.1, 0.3, 0.2]),
        # the other problem on the same polytope object right after
        (other, [-0.1, 0.3, 0.2]),
    ]
    for hp, ell in runs:
        m = weighted_moments(hp, ell)
        i0, i1, i2 = _per_call_moments(hp.moment, hp.density, ell, m.order)
        assert np.float64(m.i0).tobytes() == np.float64(i0).tobytes()
        assert m.i1.tobytes() == i1.tobytes() and m.i2.tobytes() == i2.tobytes()
        vol, _ = ref.volume_and_barycenter(hp.moment.vertices, hp.moment.facets,
                                           hp.density.forms)
        assert dh_volume(hp) == vol


def test_soliton_triangulates_once(tmp_path, monkeypatch):
    from horofano import solve_soliton

    hp = _load(tmp_path, "b3-levi12")
    calls = _counting(monkeypatch, "triangulate")
    sol = solve_soliton(hp)
    assert sol.iterations > 0
    hp.barycenter  # noqa: B018  (the exact route reads the same data)
    assert len(calls) == 1


def test_density_checked_once_per_problem(tmp_path, monkeypatch):
    from horofano import DHDensity, solve_soliton

    calls = []
    fn = DHDensity.nonnegative_on

    def counting(self, polytope):
        calls.append(polytope)
        return fn(self, polytope)

    monkeypatch.setattr(DHDensity, "nonnegative_on", counting)
    hp = _load(tmp_path, "b3-levi12")
    solve_soliton(hp)
    hp.barycenter  # noqa: B018  (the exact route builds no second check)
    assert len(calls) == 1


def test_every_load_builds_its_own_table(tmp_path, monkeypatch):
    first, second = _load(tmp_path, "a2-levi1"), _load(tmp_path, "a2-levi1")
    calls = _counting(monkeypatch, "triangulate")
    ell = [0.3, -0.2, 0.1]
    m1 = weighted_moments(first, ell)
    m2 = weighted_moments(second, ell)
    assert len(calls) == 2
    assert m1.i1.tobytes() == m2.i1.tobytes() and m1.i2.tobytes() == m2.i2.tobytes()
    # each problem holds its own data: using the second evicts nothing
    m3 = weighted_moments(first, ell)
    assert len(calls) == 2
    assert m3.i1.tobytes() == m1.i1.tobytes() and m3.i2.tobytes() == m1.i2.tobytes()


@pytest.mark.parametrize("name", ["toric", "b1", "a2-levi1", "b3-levi12"])
def test_volume_and_barycenter_share_one_expansion(tmp_path, monkeypatch, name):
    hp = bare_problem(from_vertices([(-1,), (2,)])) if name == "toric" else _load(tmp_path, name)
    p, dens = hp.moment, hp.density
    calls = _counting(monkeypatch, "_simplex_mass_moments")
    # the density forms are scaled to integers and the monomial weights
    # tabled once per problem, and each simplex evaluates every factor at
    # its vertices once
    scalings = _counting(monkeypatch, "_integer_forms")
    tables = _counting(monkeypatch, "_monomial_weights")
    factors = _counting(monkeypatch, "_vertex_values")
    vol = dh_volume(hp)
    bar = dh_barycenter(hp)
    assert len(calls) == len(triangulate(p))
    assert len(scalings) == len(tables) == 1
    assert len(factors) == len(calls) * dens.degree
    assert (vol, bar) == ref.volume_and_barycenter(p.vertices, p.facets, dens.forms)


@pytest.mark.parametrize("name", ["a2-levi1", "b3-levi12", "toric", "b1"])
def test_soliton_evaluates_each_field_once(tmp_path, monkeypatch, name):
    from horofano import solve_soliton

    hp = _load(tmp_path, name)
    calls = _counting(monkeypatch, "_moments_at")
    sol = solve_soliton(hp)
    assert sol.iterations > 0
    evals = [(np.asarray(ell, dtype=np.float64).tobytes(), m) for _, ell, m in calls]
    # no (field, order) pair is evaluated twice
    assert len(set(evals)) == len(evals)
    # every Newton step on these inputs is accepted at full length, so the
    # line-search trials are the iterations: the fields are xi = 0, the
    # first trial, ..., the returned field, in the order of evaluation
    fields = list(dict.fromkeys(f for f, _ in evals))
    assert len(fields) == 1 + sol.iterations
    assert not np.any(np.frombuffer(fields[0]))
    assert fields[-1] == (-2.0 * sol.xi).tobytes()
    # the first pair passes on these inputs, so the held order is its upper
    # one; every field is evaluated once at it, and the lower order only at
    # the first trial (the full check) and at the returned field
    held = dh.start_order(hp)
    for i, field in enumerate(fields):
        checked = i in (1, len(fields) - 1)
        assert sorted(m for f, m in evals if f == field) == ([held - 4] if checked else []) + [held]


def test_soliton_climbs_the_schedule_once(tmp_path, monkeypatch):
    # the B3 Levi {1,2} box [21/8,27/8] x [5/2,7/2] x [11/4,13/4] with the
    # vertex (21/8, 5/2, 13/4) moved to z = 85: the held order climbs from 14
    # to 54 during the solve, and a climb that restarted at the first pair on
    # every trial evaluated 146 orders
    from horofano.cli import load_problem, main

    verts = [list(v) for v in itertools.product(("21/8", "27/8"), ("5/2", "7/2"),
                                                ("11/4", "13/4"))]
    verts[verts.index(["21/8", "5/2", "13/4"])][2] = "85"
    spec = {"root_system": {"factors": [["B", 3]], "torus_rank": 0}, "levi_subset": [1, 2],
            "polytope": {"moment": {"vertices": verts}}}
    path, out = tmp_path / "moved.json", tmp_path / "report.json"
    path.write_text(json.dumps(spec))
    calls = _counting(monkeypatch, "_moments_at")
    assert main(["soliton", "--input", str(path), "--out", str(out)]) == 0
    assert len(calls) <= 48
    assert max(m for _, _, m in calls) == 54
    report = json.loads(out.read_text())
    assert report["soliton_residual"] <= 1e-10 * float(load_problem(str(path)).hp.volume)


@pytest.mark.parametrize("name", ["toric", "b1", "a2-levi1", "a2-levi0", "b3-levi12"])
def test_first_pair_is_exact_at_the_zero_field(tmp_path, name):
    # At xi = 0 the integrand is the density times 1, p or p (x) p on each
    # simplex, a polynomial of degree at most deg + 2 in p; the collapse of
    # the unit simplex adds a Jacobian of degree at most r - 1 in each
    # collapsed variable.  Gauss-Legendre with m nodes is exact to degree
    # 2m - 1, and the lower order of the first pair is m = deg + 4 for
    # r >= 2 (deg + 20 for r = 1), so 2m - 1 >= deg + 2 + (r - 1) for r <= 3:
    # both orders integrate it exactly, and their check can only pass.  The
    # soliton therefore evaluates the upper order alone at xi = 0.
    hp = _load(tmp_path, name)
    m = dh.checked_moments(hp, np.zeros(hp.a1_dim))
    assert m.order == dh.start_order(hp)
    assert m.rel_error <= 1e-13


def test_second_call_at_a_seen_order_builds_no_weights(tmp_path, monkeypatch):
    # the default schedule's first pair, orders 10 and 14, passes at both
    # exponents; the second call neither builds weights nor maps nodes
    hp = _load(tmp_path, "b3-levi12")
    weighted_moments(hp, [0.3, -0.2, 0.1])
    nodes = _counting(monkeypatch, "_simplex_nodes")
    mapped = _counting(monkeypatch, "_simplex_points")
    m = weighted_moments(hp, [-0.1, 0.2, 0.05])
    assert m.order == 14 and nodes == [] and mapped == []


@pytest.mark.parametrize("name", ["a2-levi1", "b3-levi12", "b3-levi0"])
def test_stored_nodes_are_the_per_call_mapping_bitwise(tmp_path, name):
    # the moments from the stored nodes against nodes mapped afresh from the
    # unit table on every call, through the same kernel and compensated sum,
    # at both orders of the accepted pair and at two exponents; the stored
    # density is folded column by column, the reference reduces each row
    # with np.prod (B3 Levi {} has nine forms)
    hp = _load(tmp_path, name)
    data = hp.moment_data
    for ell in (np.zeros(3), np.array([0.3, -0.2, 0.1])):
        order = weighted_moments(hp, ell).order
        for m in (order - 4, order):
            u, wj = dh._unit_simplex_nodes(3, m)
            parts = []
            for verts in data.fverts:
                pts = dh._simplex_points(verts, u)
                det = abs(float(np.linalg.det(verts[1:] - verts[0])))
                wd = wj * det * np.prod(pts @ data.fforms.T, axis=1)
                parts.append(kernels.quad_moments(pts, wd, ell))
            want = dh._neumaier_reduce(parts)
            got = dh._moments_at(hp, ell, m)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()


def _rational_points(dim):
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 4)


@st.composite
def polytopes_and_forms(draw):
    """A rational polytope in dimension 1 to 3 and rational forms.  The
    polytope is moved along the first form so that the form vanishes at
    its least vertices, or is negative there and nowhere else."""
    dim = draw(st.integers(1, 3))
    try:
        p = from_vertices(draw(_rational_points(dim)))
    except MathValidationError:
        assume(False)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    form = draw(st.tuples(*[coeff] * dim).filter(any))
    values = sorted({vdot(form, v) for v in p.vertices})
    shift = draw(st.sampled_from([-values[0], -(values[0] + values[1]) / 2]))
    p = p.translate(tuple(shift * c / vdot(form, form) for c in form))
    forms = draw(st.lists(st.tuples(*[coeff] * dim), max_size=3))
    return p, draw(st.permutations([form, *forms]))


@settings(max_examples=200, deadline=None)
@given(case=polytopes_and_forms())
def test_nonnegative_on_matches_the_fraction_route(case):
    p, forms = case
    dens = density_from_forms(forms)
    want = all(vdot(f, v) >= 0 for f in dens.forms for v in p.vertices)
    assert dens.nonnegative_on(p) is want


def test_nonnegative_on_edge_cases():
    square = from_vertices([(0, 0), (Q(3, 2), 0), (0, Q(2, 3)), (Q(3, 2), Q(2, 3))])
    # vanishing at a vertex is nonnegative; negative at one vertex is not
    assert density_from_forms([(1, 0), (0, 1), (Q(1, 3), Q(1, 7))]).nonnegative_on(square)
    assert not density_from_forms([(1, Q(-1, 2))]).nonnegative_on(from_vertices(
        [(0, 0), (1, 0), (0, 1)]))
    assert not density_from_forms([(Q(-2, 3), Q(1, 1000))]).nonnegative_on(square)
    assert density_from_forms([]).nonnegative_on(square)


# ---------------------------------------------------------------------------
# the order schedule
# ---------------------------------------------------------------------------

MULTI = ["a1-square", "b2-square", "a2-levi1", "a2-levi0", "b3-levi12"]


@pytest.mark.parametrize("name", MULTI)
def test_default_order_matches_order_48(tmp_path, name):
    from horofano import solve_soliton

    hp = _load(tmp_path, name)
    extra = []
    for xi in (np.zeros(hp.a1_dim), solve_soliton(hp).xi):
        ell = -2.0 * xi
        m = weighted_moments(hp, ell)
        ref48 = dh._moments_at(hp, ell, 48)
        for got, want in zip((m.i0, m.i1, m.i2), ref48):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        extra.append(m.order - hp.density.degree)
    # r >= 2 starts at degree + 4 and its first pair passes, except on the A1
    # square at its soliton field: orders 5 and 9 differ by 3e-10 there
    assert extra == ([8, 16] if name == "a1-square" else [8, 8])


def test_one_dimensional_default_order_is_degree_plus_24(tmp_path):
    hp = _load(tmp_path, "b1")
    assert weighted_moments(hp, [0.4]).order == hp.density.degree + 24
    toric = weighted_moments(bare_problem(from_vertices([(-1,), (2,)])), [0.4])
    assert toric.order == 24


# the estimate of the (degree + 44, degree + 48) pair, the last of the default
# schedule whatever its start order
LAST_PAIR_ESTIMATES = {
    ("a2-levi1", 0): 8.358594633361717e-15,
    ("a2-levi1", 1): 3.86545050054877e-15,
    ("a2-levi0", 0): 1.958981008475795e-14,
    ("a2-levi0", 1): 1.6861558582858473e-14,
    ("b3-levi12", 0): 7.465912595028999e-15,
    ("b3-levi12", 1): 1.1997438967712748e-14,
    ("b2-square", 0): 4.466091398928608e-15,
    ("b2-square", 1): 1.6784196337547196e-14,
}


@pytest.mark.parametrize("name, tilted", sorted(LAST_PAIR_ESTIMATES))
def test_unreachable_tolerance_reports_the_last_pair(tmp_path, monkeypatch, name, tilted):
    monkeypatch.setattr(dh, "DEFAULT_QUAD_REL_TOL", 1e-30)
    hp = _load(tmp_path, name)
    ell = [0.3, -0.2, 0.1][:hp.a1_dim] if tilted else [0.0] * hp.a1_dim
    with pytest.raises(QuadratureError) as err:
        weighted_moments(hp, ell)
    assert err.value.estimate == LAST_PAIR_ESTIMATES[name, tilted]
