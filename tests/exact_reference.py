"""Reference routes for the exact core, in ``Fraction`` arithmetic throughout.

These are the earlier rational routes of the package, kept here as oracles
that share no code with ``horofano``: facets from a nullspace vector of the
edges of every ``dim``-subset of points, vertices from an exact solve of
every ``dim``-subset of facets, unboundedness from a search for recession
rays, and integrals from the expansion of a product of affine forms into
barycentric monomials, one ``Fraction`` per term (Baldoni et al., "How to integrate a polynomial over a simplex", Math. Comp.
2011).  A polytope is integrated over its own cone triangulation from the
mean of its vertices, not over the package's fan.  Root data are built as
``Fraction`` vectors: classical blocks embedded block-wise, the Levi test
by the rank of the Levi simple roots with the root, kappa as a ``Fraction``
sum and each pairing <kappa, coroot> as a ``Fraction``.
"""

from fractions import Fraction as Q
from itertools import combinations
from math import factorial, gcd, lcm


def _eliminate(rows, ncols):
    """Reduced row echelon form of the first ``ncols`` columns and the pivot
    columns; later columns are carried along."""
    m = [[Q(c) for c in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def solve(a, b):
    """The solution of ``a x = b``, or None when ``a`` is singular."""
    n = len(b)
    m, pivots = _eliminate([list(row) + [bi] for row, bi in zip(a, b)], n)
    return tuple(row[n] for row in m) if len(pivots) == n else None


def nullspace(rows, dim):
    """A nonzero solution of ``rows x = 0`` at rank ``dim - 1``, else None."""
    m, pivots = _eliminate(rows, dim)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    x = [Q(0)] * dim
    x[free] = Q(1)
    for row, col in zip(m, pivots):
        x[col] = -row[free]
    return tuple(x)


def unbounded(normals, dim):
    """Whether ``{n.x <= c}`` over the normals is unbounded for every
    offset: the normals do not span, or some (dim - 1)-subset of them has a
    nullspace ray r, or -r, with n.r <= 0 for every normal (a recession
    ray; in 1-D the one subset is empty and r = 1)."""
    if rank([(Q(0),) * dim, *normals]) < dim:
        return True
    for subset in combinations(normals, dim - 1):
        ray = nullspace(subset, dim)
        if ray is not None and any(
            all(_dot(n, r) <= 0 for n in normals) for r in (ray, tuple(-a for a in ray))
        ):
            return True
    return False


def rank(points):
    """Dimension of the affine span of the points."""
    base = points[0]
    return len(_eliminate([[a - b for a, b in zip(p, base)] for p in points[1:]], len(base))[1])


def _dot(x, y):
    return sum((Q(a) * b for a, b in zip(x, y)), Q(0))


def _coprime(x):
    """The coprime integer entries of s x and the positive rational s."""
    denom = lcm(*(Q(c).denominator for c in x))
    ints = [int(c * denom) for c in x]
    g = gcd(*ints)
    return tuple(Q(n // g) for n in ints), Q(denom, g)


def _primitive(x):
    """Integer entries with gcd 1 and a positive leading nonzero entry."""
    unit, _ = _coprime(x)
    sign = 1 if next(n for n in unit if n != 0) > 0 else -1
    return tuple(sign * n for n in unit)


def facets_from_points(points, dim):
    if dim == 1:
        lo, hi = min(p[0] for p in points), max(p[0] for p in points)
        return sorted([((Q(1),), hi), ((Q(-1),), -lo)])
    facets = set()
    for subset in combinations(points, dim):
        normal = nullspace([[a - b for a, b in zip(p, subset[0])] for p in subset[1:]], dim)
        if normal is None:
            continue
        normal = _primitive(normal)
        offset = _dot(normal, subset[0])
        values = [_dot(normal, p) for p in points]
        if all(v <= offset for v in values):
            facets.add((normal, offset))
        if all(v >= offset for v in values):
            facets.add((tuple(-a for a in normal), -offset))
    return sorted(facets)


def vertices_from_facets(facets, dim):
    vertices = set()
    for subset in combinations(facets, dim):
        x = solve([list(n) for n, _ in subset], [off for _, off in subset])
        if x is not None and all(_dot(n, x) <= off for n, off in facets):
            vertices.add(x)
    return sorted(vertices)


def from_vertices(points):
    """(vertices, facets) of the hull of full-dimensional rational points."""
    pts = sorted({tuple(Q(c) for c in p) for p in points})
    dim = len(pts[0])
    facets = facets_from_points(pts, dim)
    return tuple(vertices_from_facets(facets, dim)), tuple(facets)


def from_halfspaces(halfspaces):
    """(vertices, facets) of a bounded full-dimensional intersection."""
    cleaned = set()
    for normal, offset in halfspaces:
        unit, scale = _coprime(normal)
        cleaned.add((unit, Q(offset) * scale))
    dim = len(next(iter(cleaned))[0])
    points = vertices_from_facets(sorted(cleaned), dim)
    facets = facets_from_points(points, dim)
    return tuple(vertices_from_facets(facets, dim)), tuple(facets)


def _poly_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Q(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def simplex_volume(vertices):
    """|det| of the edges over d!, by elimination."""
    d = len(vertices) - 1
    work = [[Q(a) - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    det = Q(1)
    for col in range(d):
        pivot = next((i for i in range(col, d) if work[i][col] != 0), None)
        if pivot is None:
            return Q(0)
        work[col], work[pivot] = work[pivot], work[col]
        det *= work[col][col]
        for i in range(col + 1, d):
            f = work[i][col] / work[col][col]
            work[i] = [v - f * w for v, w in zip(work[i], work[col])]
    return abs(det) / factorial(d)


def simplex_integral(vertices, affine):
    """Integral over the simplex of the product of the affine forms
    ``(coeffs, offset)``: each form as its barycentric vertex values, the
    product expanded term by term, then d! vol prod(a!) / (|a| + d)! each."""
    d = len(vertices) - 1
    poly = {(0,) * (d + 1): Q(1)}
    for coeffs, offset in affine:
        factor = {}
        for j, v in enumerate(vertices):
            val = _dot(coeffs, v) + Q(offset)
            if val != 0:
                factor[tuple(int(i == j) for i in range(d + 1))] = val
        poly = _poly_mul(poly, factor)
    total = Q(0)
    for exps, coeff in poly.items():
        num = factorial(d)
        for a in exps:
            num *= factorial(a)
        total += coeff * Q(num, factorial(sum(exps) + d))
    return simplex_volume(vertices) * total


def simplex_mass_moments(vertices, affine):
    """The integral and the first moments x_i times the product."""
    d = len(vertices) - 1
    units = [tuple(Q(int(j == i)) for j in range(d)) for i in range(d)]
    return simplex_integral(vertices, affine), [
        simplex_integral(vertices, list(affine) + [(u, Q(0))]) for u in units
    ]


def cone_triangulation(vertices, facets):
    """Simplices coning the boundary to the mean of the vertices; each 3-D
    facet is first coned to the mean of its own vertices."""
    dim = len(vertices[0])
    if dim == 1:
        return [tuple(vertices)]
    center = tuple(sum(v[i] for v in vertices) / len(vertices) for i in range(dim))
    on = {f: [v for v in vertices if _dot(f[0], v) == f[1]] for f in facets}
    simplices = []
    for f, face in on.items():
        if dim == 2:
            simplices.append((center, *face))
            continue
        mid = tuple(sum(v[i] for v in face) / len(face) for i in range(dim))
        for g, other in on.items():
            edge = [v for v in face if v in other]
            if g != f and len(edge) == 2:
                simplices.append((center, mid, *edge))
    return simplices


def polytope_integral(vertices, facets, affine):
    """Integral over the polytope of the product of the affine forms."""
    return sum(
        (simplex_integral(s, affine) for s in cone_triangulation(vertices, facets)), Q(0)
    )


def volume_and_barycenter(vertices, facets, forms):
    """Density volume and barycenter for the density prod <form, x>."""
    dim = len(vertices[0])
    affine = [(f, Q(0)) for f in forms]
    vol = polytope_integral(vertices, facets, affine)
    units = [tuple(Q(int(j == i)) for j in range(dim)) for i in range(dim)]
    bar = tuple(
        polytope_integral(vertices, facets, affine + [(u, Q(0))]) / vol for u in units
    )
    return vol, bar


def _unit(dim, i, value=1):
    return tuple(Q(value) if j == i else Q(0) for j in range(dim))


def _vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def block_roots(family, rank):
    """Simple roots, positive roots and block dimension of one classical
    factor in the standard orthogonal coordinates."""
    if family == "A":
        dim = rank + 1
        simple = [_vadd(_unit(dim, i), _unit(dim, i + 1, -1)) for i in range(rank)]
        positive = [_vadd(_unit(dim, i), _unit(dim, j, -1))
                    for i in range(dim) for j in range(i + 1, dim)]
        return simple, positive, dim
    dim = rank
    simple = [_vadd(_unit(dim, i), _unit(dim, i + 1, -1)) for i in range(rank - 1)]
    if family == "B":
        simple.append(_unit(dim, rank - 1))
    elif family == "C":
        simple.append(_unit(dim, rank - 1, 2))
    elif rank >= 2:
        simple.append(_vadd(_unit(dim, rank - 2), _unit(dim, rank - 1)))
    positive = []
    for i in range(rank):
        for j in range(i + 1, rank):
            positive.append(_vadd(_unit(dim, i), _unit(dim, j, -1)))
            positive.append(_vadd(_unit(dim, i), _unit(dim, j)))
    if family == "B":
        positive.extend(_unit(dim, i) for i in range(rank))
    elif family == "C":
        positive.extend(_unit(dim, i, 2) for i in range(rank))
    return simple, positive, dim


def root_system(factors, torus_rank):
    """(dim, simple roots, positive roots) of a direct sum plus a torus."""
    blocks = [block_roots(f, r) for f, r in factors]
    dim = sum(b[2] for b in blocks) + torus_rank
    simple, positive, offset = [], [], 0
    for blk_simple, blk_positive, blk_dim in blocks:
        def embed(v):
            return (Q(0),) * offset + v + (Q(0),) * (dim - offset - blk_dim)
        simple += [embed(v) for v in blk_simple]
        positive += [embed(v) for v in blk_positive]
        offset += blk_dim
    return dim, simple, positive


def coroot(alpha):
    norm2 = _dot(alpha, alpha)
    return tuple(2 * a / norm2 for a in alpha)


def parabolic(dim, simple, positive, levi):
    """(positive roots outside the Levi, kappa, a_alpha) for 1-based Levi
    indices."""
    levi_simple = [simple[i - 1] for i in sorted(levi)]
    phi_q = [root for root in positive
             if rank([(Q(0),) * dim, *levi_simple, root]) > len(levi_simple)]
    kappa = tuple(sum((root[i] for root in phi_q), Q(0)) for i in range(dim))
    return phi_q, kappa, {root: _dot(kappa, coroot(root)) for root in phi_q}
