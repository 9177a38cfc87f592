"""Rational convex polytope kernel.

Both representations (vertices and facets ``{y : <normal, y> <= offset}``) are
kept in canonical sorted order, so structurally equal polytopes compare equal.
Construction, duality and triangulation are exact; ambient dimensions 1 to
3 are supported, which covers every desk-scale problem here.  Coordinates
are ``Fraction``s, but the facet and vertex enumerations, the rank tests and
the simplex determinant compute in Python integers: points are scaled once
by the lcm of their denominators (each facet inequality by its own), a
candidate facet normal is the cross product of two integer edges (in 2-D
the perpendicular of one), each distinct plane is tested once, with the
side test stopping at the first points found on both sides.  A vertex
input keeps the points that lie on ``dim`` of its facets, and the vertices
of a halfspace input come from Cramer's rule, with one ``Fraction`` built
per result entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cmp_to_key
from itertools import combinations
from math import gcd

from .errors import MathValidationError, SchemaError
from .rationals import (
    Vec,
    affine_rank,
    coprime_integers,
    format_rational,
    int_det,
    parse_matrix,
    parse_rational,
    parse_vector,
    scaled_integers,
    solve_square,
    vadd,
    vdot,
    vscale,
    vsub,
    zero_vec,
)

MAX_DIM = 3

Facet = tuple[Vec, Q]


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional rational polytope with dual representations."""

    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]

    def contains(self, point: Vec, strict: bool = False) -> bool:
        for normal, offset in self.facets:
            val = vdot(normal, point)
            if val > offset or (strict and val == offset):
                return False
        return True

    def translate(self, shift: Vec) -> "Polytope":
        return Polytope(
            dim=self.dim,
            vertices=tuple(sorted(vadd(v, shift) for v in self.vertices)),
            facets=tuple(sorted((n, off + vdot(n, shift)) for n, off in self.facets)),
        )

    def reflect_through(self, center: Vec) -> "Polytope":
        """The polytope {center - y : y in self}."""
        verts = tuple(sorted(vsub(center, v) for v in self.vertices))
        facets = tuple(
            sorted(
                (tuple(-a for a in n), off - vdot(n, center)) for n, off in self.facets
            )
        )
        return Polytope(dim=self.dim, vertices=verts, facets=facets)


@dataclass(frozen=True)
class Simplex:
    """dim+1 affinely independent rational points."""

    vertices: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def scaled(self) -> tuple[list[tuple[int, ...]], int, int]:
        """The vertices times L as integer tuples (``scaled_integers``), L,
        and |det| of the scaled edges, which is dim! L^dim times the volume."""
        verts, scale = scaled_integers(self.vertices)
        base = verts[0]
        d = int_det([[a - b for a, b in zip(v, base)] for v in verts[1:]])
        if d == 0:
            raise MathValidationError("degenerate simplex")
        return verts, scale, abs(d)


def _scale_halfspace(normal: Vec, offset: Q) -> Facet:
    """Scale by a positive rational so the normal is a primitive integer vector."""
    ints, scale = coprime_integers(normal)
    if scale == 0:
        raise MathValidationError("zero normal in halfspace")
    return tuple(Q(n) for n in ints), offset * scale


def _facets_from_points(points: list[Vec], dim: int) -> list[Facet]:
    if dim == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        return sorted([((Q(1),), hi), ((Q(-1),), -lo)])
    # in integer coordinates y = L x: a candidate normal is the cross product
    # of two edges (in 2-D the perpendicular of one) over its gcd, signed so
    # that its first nonzero entry is positive; each distinct plane (normal,
    # offset) is tested once, and the scan of the points stops as soon as
    # they lie on both sides of it
    pts, scale = scaled_integers(points)
    seen: set[tuple[tuple[int, ...], int]] = set()
    facets: list[tuple[tuple[int, ...], int]] = []
    for subset in combinations(pts, dim):
        base = subset[0]
        if dim == 2:
            ex, ey = (a - b for a, b in zip(subset[1], base))
            normal = (ey, -ex)
        else:
            (ax, ay, az), (bx, by, bz) = (
                [a - b for a, b in zip(p, base)] for p in subset[1:]
            )
            normal = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
        g = gcd(*normal)
        if g == 0:
            continue
        if next(c for c in normal if c) < 0:
            g = -g
        normal = tuple(c // g for c in normal)
        offset = sum(a * b for a, b in zip(normal, base))
        if (normal, offset) in seen:
            continue
        seen.add((normal, offset))
        above = below = False
        for p in pts:
            v = sum(a * b for a, b in zip(normal, p))
            if v > offset:
                above = True
            elif v < offset:
                below = True
            if above and below:
                break
        else:
            if above:
                facets.append((tuple(-a for a in normal), -offset))
            else:
                facets.append((normal, offset))
    return sorted((tuple(Q(c) for c in n), Q(off, scale)) for n, off in facets)


def _tight_points(facets, ints: list[tuple[int, ...]], scale: int):
    """Per facet, its normal n and the indices of the points ``ints / scale``
    (integer tuples, ``scaled_integers``) on it: each facet taken as coprime
    integers (n, c) with n.x <= c, the point y = L x lies on it when
    n.y = c L."""
    out = []
    for normal, offset in facets:
        *n, c = coprime_integers((*normal, offset))[0]
        tight = [i for i, y in enumerate(ints) if sum(a * b for a, b in zip(n, y)) == c * scale]
        out.append((n, tight))
    return out


def _vertices_from_facets(facets: list[Facet], dim: int) -> list[Vec]:
    # each facet as coprime integers (n, c) with n.x <= c; Cramer's rule
    # gives a vertex x = y / d, feasible when n.y <= c d for d > 0
    rows = [coprime_integers((*n, off))[0] for n, off in facets]
    vertices: set[Vec] = set()
    for subset in combinations(rows, dim):
        m = [row[:dim] for row in subset]
        d = int_det(m)
        if d == 0:
            continue
        y = [
            int_det([r[:i] + [row[dim]] + r[i + 1:] for r, row in zip(m, subset)])
            for i in range(dim)
        ]
        if d < 0:
            d, y = -d, [-c for c in y]
        if all(sum(a * b for a, b in zip(row, y)) <= row[dim] * d for row in rows):
            vertices.add(tuple(Q(c, d) for c in y))
    return sorted(vertices)


def from_vertices(points) -> Polytope:
    """Convex hull of exact rational points; rejects degenerate input."""
    pts = sorted({tuple(Q(c) for c in p) for p in points})
    if not pts:
        raise MathValidationError("empty vertex list")
    dim = len(pts[0])
    if not 1 <= dim <= MAX_DIM:
        raise MathValidationError(f"ambient dimension {dim} outside 1..{MAX_DIM}")
    if any(len(p) != dim for p in pts):
        raise MathValidationError("inconsistent coordinate lengths")
    if affine_rank(pts) < dim:
        raise MathValidationError(
            "points span a lower-dimensional set", condition="full_dimensional"
        )
    facets = _facets_from_points(pts, dim)
    # for dim <= 3 a point of the polytope is a vertex exactly when it lies
    # on dim of its facets (a point inside an edge of a 3-polytope lies on two)
    counts = Counter(i for _, tight in _tight_points(facets, *scaled_integers(pts)) for i in tight)
    vertices = tuple(p for i, p in enumerate(pts) if counts[i] >= dim)
    return Polytope(dim=dim, vertices=vertices, facets=tuple(facets))


def from_halfspaces(halfspaces) -> Polytope:
    """Intersection of halfspaces (normal, offset); rejects unbounded or
    lower-dimensional results and drops redundant inequalities."""
    cleaned = []
    for normal, offset in halfspaces:
        cleaned.append(_scale_halfspace(tuple(Q(c) for c in normal), Q(offset)))
    if not cleaned:
        raise MathValidationError("empty halfspace list")
    dim = len(cleaned[0][0])
    if not 1 <= dim <= MAX_DIM:
        raise MathValidationError(f"ambient dimension {dim} outside 1..{MAX_DIM}")
    if any(len(normal) != dim for normal, _ in cleaned):
        raise MathValidationError("inconsistent coordinate lengths")
    cleaned = sorted(set(cleaned))
    # {n.x <= c} is bounded exactly when the normals positively span the
    # space, that is, when 0 lies strictly inside their hull
    normals = sorted({n for n, _ in cleaned})
    if affine_rank(normals) < dim or any(
        off <= 0 for _, off in _facets_from_points(normals, dim)
    ):
        raise MathValidationError(
            "halfspace intersection is unbounded: 0 is not interior to the hull "
            "of the normals",
            condition="bounded",
        )
    vertices = _vertices_from_facets(cleaned, dim)
    if not vertices:
        raise MathValidationError("halfspace intersection is empty")
    if affine_rank(vertices) < dim:
        raise MathValidationError(
            "halfspace intersection is lower-dimensional", condition="full_dimensional"
        )
    facets = _facets_from_points(vertices, dim)
    return Polytope(dim=dim, vertices=tuple(vertices), facets=tuple(facets))


def dual_polytope(p: Polytope) -> Polytope:
    """The dual {y : <x, y> >= -1 for all x in p}; requires 0 interior."""
    zero = zero_vec(p.dim)
    if not p.contains(zero, strict=True):
        raise MathValidationError(
            "dual polytope needs 0 in the interior", condition="zero_interior"
        )
    return from_halfspaces([(tuple(-c for c in v), Q(1)) for v in p.vertices])


def _fan_polygon(points: list[tuple[int, int]]) -> list[tuple]:
    """The fan triangles of a convex polygon of integer points from its
    least vertex a, given sorted, the others in counter-clockwise order about
    a: p comes before q when the cross product of p - a and q - a is
    positive."""
    a, *rest = points

    def cross(p, q):
        return (p[0] - a[0]) * (q[1] - a[1]) - (p[1] - a[1]) * (q[0] - a[0])

    rest.sort(key=cmp_to_key(lambda p, q: -cross(p, q)))
    return [(a, p, q) for p, q in zip(rest, rest[1:])]


def triangulate(p: Polytope) -> list[Simplex]:
    """Deterministic fan triangulation from the lexicographically least
    vertex; simplices have disjoint interiors covering p.

    Incidence and polygon order are decided in the integer coordinates
    y = L x (``scaled_integers``, ``_tight_points``).
    """
    apex = p.vertices[0]
    if p.dim == 1:
        return [Simplex(vertices=p.vertices)]
    ints, scale = scaled_integers(p.vertices)
    simplices: list[Simplex] = []
    for n, tight in _tight_points(p.facets, ints, scale):
        if tight[0] == 0:  # the facet holds the apex
            continue
        if p.dim == 2:
            a, b = sorted(p.vertices[i] for i in tight)
            simplices.append(Simplex(vertices=(apex, a, b)))
        else:
            drop = max(range(3), key=lambda i: (abs(n[i]), -i))
            keep = [i for i in range(3) if i != drop]
            flat = {tuple(ints[j][i] for i in keep): p.vertices[j] for j in tight}
            for tri in _fan_polygon(sorted(flat)):
                simplices.append(
                    Simplex(vertices=(apex,) + tuple(flat[q] for q in tri))
                )
    return simplices


def moment_polytope(q: Polytope, kappa: Vec) -> Polytope:
    """The shift of the dual polytope by the parabolic vector kappa."""
    kappa = tuple(Q(c) for c in kappa)
    if len(kappa) != q.dim:
        raise MathValidationError("kappa dimension does not match the polytope")
    return dual_polytope(q).translate(kappa)


def delta_from_moment(moment: Polytope, kappa: Vec) -> Polytope:
    """The reflection-translate kappa - moment; it contains 0 in its interior
    exactly when kappa is interior to the moment polytope, which
    ``HorosphericalProblem.validate`` checks."""
    return moment.reflect_through(tuple(Q(c) for c in kappa))


def in_lattice(point: Vec, basis) -> bool:
    """Exact membership of a point in the lattice spanned by basis columns
    (default: the integer lattice of the ambient coordinates)."""
    if basis is None:
        return all(c.denominator == 1 for c in point)
    cols = [[Q(basis[i][j]) for j in range(len(point))] for i in range(len(point))]
    coeffs = solve_square(cols, list(point))
    if coeffs is None:
        raise MathValidationError("lattice basis matrix is singular")
    return all(c.denominator == 1 for c in coeffs)


@dataclass(frozen=True)
class ReflectivityReport:
    """Per-condition outcome of the Fano reflectivity test with witnesses."""

    zero_interior: bool
    vertices_ok: bool
    vertex_branches: tuple[tuple[Vec, str], ...]
    dual_ok: bool
    dual_offenders: tuple[Vec, ...]
    coroot_ok: bool
    coroot_witness: tuple[tuple[Vec, int, Vec, bool], ...]
    dominant_ok: bool
    f_bound: Q | None

    @property
    def all_ok(self) -> bool:
        return (
            self.zero_interior
            and self.vertices_ok
            and self.dual_ok
            and self.coroot_ok
            and self.dominant_ok
        )


def validate_reflective(
    q: Polytope, rd, pd, coweight_basis=None, character_basis=None
) -> ReflectivityReport:
    """Check the reflectivity conditions of a candidate polytope.

    (1) vertices lie in the one-parameter lattice or equal a scaled coroot,
    with 0 interior; (2) dual vertices lie in the character lattice; (3) the
    scaled coroots belong to q; (4) the shifted dual lies in the dominant
    chamber.  Failures are reported, never raised.
    """
    from .roots import coroot as _coroot

    zero = zero_vec(q.dim)
    zero_interior = q.contains(zero, strict=True)

    scaled_coroots = []
    for alpha in pd.phi_Q_plus:
        a = pd.a_alpha[alpha]
        scaled_coroots.append((alpha, a, vscale(Q(1, a), _coroot(rd, alpha))))

    branches = []
    vertices_ok = True
    for v in q.vertices:
        if in_lattice(v, coweight_basis):
            branches.append((v, "lattice"))
        elif any(v == pt for _, _, pt in scaled_coroots):
            branches.append((v, "coroot"))
        else:
            branches.append((v, "fail"))
            vertices_ok = False

    dual_ok = True
    dual_offenders: list[Vec] = []
    f_bound = None
    if zero_interior:
        dual = dual_polytope(q)
        for v in dual.vertices:
            if not in_lattice(v, character_basis):
                dual_offenders.append(v)
                dual_ok = False
        moment = dual.translate(pd.kappa)
        dominant_ok = all(
            rd.pairing(beta, v) >= 0 for beta in rd.simple_roots for v in moment.vertices
        )
        if pd.phi_Q_plus:
            f_bound = max(
                rd.pairing(alpha, v)
                for alpha in pd.phi_Q_plus
                for v in moment.vertices
            )
    else:
        dual_ok = False
        dominant_ok = False

    coroot_ok = True
    witness = []
    for alpha, a, pt in scaled_coroots:
        member = q.contains(pt)
        witness.append((alpha, a, pt, member))
        if not member:
            coroot_ok = False

    return ReflectivityReport(
        zero_interior=zero_interior,
        vertices_ok=vertices_ok,
        vertex_branches=tuple(branches),
        dual_ok=dual_ok,
        dual_offenders=tuple(dual_offenders),
        coroot_ok=coroot_ok,
        coroot_witness=tuple(witness),
        dominant_ok=dominant_ok,
        f_bound=f_bound,
    )


def polytope_to_json(p: Polytope) -> dict:
    return {"vertices": [[format_rational(c) for c in v] for v in p.vertices]}


def polytope_from_json(obj, field: str = "polytope") -> Polytope:
    if not isinstance(obj, dict):
        raise SchemaError("expected an object with 'vertices' or 'facets'", field)
    if ("vertices" in obj) == ("facets" in obj):
        raise SchemaError("exactly one of 'vertices'/'facets' required", field)
    try:
        if "vertices" in obj:
            return from_vertices(parse_matrix(obj["vertices"], f"{field}.vertices"))
        halfspaces = []
        for i, f in enumerate(obj["facets"]):
            normal = parse_vector(f["normal"], f"{field}.facets[{i}].normal")
            offset = parse_rational(f["offset"], f"{field}.facets[{i}].offset")
            halfspaces.append((normal, offset))
        return from_halfspaces(halfspaces)
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"malformed polytope: {exc!r}", field)
