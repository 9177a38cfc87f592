"""Rational convex polytope kernel.

Both representations (vertices and facets ``{y : <normal, y> <= offset}``) are
kept in canonical sorted order, so structurally equal polytopes compare equal.
Construction, duality, support values and triangulation are exact; ambient
dimensions 1 to 3 are supported, which covers every desk-scale problem here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cmp_to_key
from itertools import combinations
from math import factorial, gcd

from .errors import MathValidationError, SchemaError
from .rationals import (
    Vec,
    affine_rank,
    det,
    format_rational,
    nullspace_vector,
    parse_rational,
    primitive,
    solve_square,
    vadd,
    vdot,
    vscale,
    vsub,
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

    def tight_facets(self, point: Vec) -> tuple[int, ...]:
        return tuple(
            i for i, (n, off) in enumerate(self.facets) if vdot(n, point) == off
        )

    def translate(self, shift: Vec) -> "Polytope":
        return Polytope(
            dim=self.dim,
            vertices=tuple(sorted(vadd(v, shift) for v in self.vertices)),
            facets=tuple(sorted((n, off + vdot(n, shift)) for n, off in self.facets)),
        )

    def scale(self, factor) -> "Polytope":
        factor = Q(factor)
        if factor <= 0:
            raise MathValidationError("scale factor must be positive")
        return Polytope(
            dim=self.dim,
            vertices=tuple(sorted(vscale(factor, v) for v in self.vertices)),
            facets=tuple(sorted((n, factor * off) for n, off in self.facets)),
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

    def edge_matrix(self) -> list[Vec]:
        base = self.vertices[0]
        return [vsub(v, base) for v in self.vertices[1:]]

    def volume(self) -> Q:
        d = det(self.edge_matrix())
        if d == 0:
            raise MathValidationError("degenerate simplex")
        return abs(d) / factorial(self.dim)


def _scale_halfspace(normal: Vec, offset: Q) -> Facet:
    """Scale by a positive rational so the normal is a primitive integer vector."""
    denom = 1
    for a in normal:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in normal]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g == 0:
        raise MathValidationError("zero normal in halfspace")
    scale = Q(denom, g)
    return tuple(Q(n // g) for n in ints), offset * scale


def _facets_from_points(points: list[Vec], dim: int) -> list[Facet]:
    if dim == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        return sorted([((Q(1),), hi), ((Q(-1),), -lo)])
    facets: set[Facet] = set()
    for subset in combinations(points, dim):
        rows = [vsub(p, subset[0]) for p in subset[1:]]
        normal = nullspace_vector(rows, dim)
        if normal is None:
            continue
        normal = primitive(normal)
        offset = vdot(normal, subset[0])
        values = [vdot(normal, p) for p in points]
        if all(v <= offset for v in values):
            facets.add((normal, offset))
        if all(v >= offset for v in values):
            facets.add((tuple(-a for a in normal), -offset))
    return sorted(facets)


def _vertices_from_facets(facets: list[Facet], dim: int) -> list[Vec]:
    vertices: set[Vec] = set()
    for subset in combinations(facets, dim):
        a = [list(n) for n, _ in subset]
        b = [off for _, off in subset]
        x = solve_square(a, b)
        if x is None:
            continue
        if all(vdot(n, x) <= off for n, off in facets):
            vertices.add(x)
    return sorted(vertices)


def _check_unbounded(facets: list[Facet], dim: int) -> None:
    normals = [n for n, _ in facets]
    if affine_rank([tuple(Q(0) for _ in range(dim))] + normals) < dim:
        raise MathValidationError(
            "halfspace normals do not span the ambient space (unbounded)",
            condition="bounded",
        )
    if dim == 1:
        return
    for subset in combinations(normals, dim - 1):
        ray = nullspace_vector(list(subset), dim)
        if ray is None:
            continue
        for cand in (ray, tuple(-a for a in ray)):
            if all(vdot(n, cand) <= 0 for n in normals):
                raise MathValidationError(
                    f"recession ray {cand} detected (unbounded)", condition="bounded"
                )


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
    vertices = _vertices_from_facets(facets, dim)
    return Polytope(dim=dim, vertices=tuple(vertices), facets=tuple(facets))


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
    _check_unbounded(cleaned, dim)
    vertices = _vertices_from_facets(cleaned, dim)
    if not vertices:
        raise MathValidationError("halfspace intersection is empty")
    if affine_rank(vertices) < dim:
        raise MathValidationError(
            "halfspace intersection is lower-dimensional", condition="full_dimensional"
        )
    facets = _facets_from_points(vertices, dim)
    vertices = _vertices_from_facets(facets, dim)
    return Polytope(dim=dim, vertices=tuple(vertices), facets=tuple(facets))


def dual_polytope(p: Polytope) -> Polytope:
    """The dual {y : <x, y> >= -1 for all x in p}; requires 0 interior."""
    zero = tuple(Q(0) for _ in range(p.dim))
    if not p.contains(zero, strict=True):
        raise MathValidationError(
            "dual polytope needs 0 in the interior", condition="zero_interior"
        )
    return from_halfspaces([(tuple(-c for c in v), Q(1)) for v in p.vertices])


def support_value(p: Polytope, x) -> Q:
    """max over p of the pairing with x."""
    x = tuple(Q(c) for c in x)
    return max(vdot(x, v) for v in p.vertices)


def _cmp_angle(center: Vec):
    def cmp(pa: Vec, pb: Vec) -> int:
        a = vsub(pa, center)
        b = vsub(pb, center)
        ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
        hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return cmp


def _order_polygon(points: list[Vec]) -> list[Vec]:
    n = len(points)
    center = tuple(sum(p[i] for p in points) / n for i in range(2))
    return sorted(points, key=cmp_to_key(_cmp_angle(center)))


def _fan_polygon(points: list[Vec]) -> list[tuple[Vec, Vec, Vec]]:
    ordered = _order_polygon(points)
    start = ordered.index(min(ordered))
    cyc = ordered[start:] + ordered[:start]
    return [(cyc[0], cyc[i], cyc[i + 1]) for i in range(1, len(cyc) - 1)]


def triangulate(p: Polytope, apex: Vec | None = None) -> list[Simplex]:
    """Deterministic fan triangulation from the lexicographically least vertex
    (or the given vertex); simplices have disjoint interiors covering p."""
    if apex is None:
        apex = p.vertices[0]
    else:
        apex = tuple(Q(c) for c in apex)
        if apex not in p.vertices:
            raise MathValidationError("apex must be a vertex of the polytope")
    if p.dim == 1:
        return [Simplex(vertices=p.vertices)]
    simplices: list[Simplex] = []
    for normal, offset in p.facets:
        if vdot(normal, apex) == offset:
            continue
        tight = [v for v in p.vertices if vdot(normal, v) == offset]
        if p.dim == 2:
            a, b = sorted(tight)
            simplices.append(Simplex(vertices=(apex, a, b)))
        else:
            drop = max(range(3), key=lambda i: (abs(normal[i]), -i))
            keep = [i for i in range(3) if i != drop]
            flat = {tuple(v[i] for i in keep): v for v in tight}
            for tri in _fan_polygon(sorted(flat)):
                simplices.append(
                    Simplex(vertices=(apex,) + tuple(flat[q] for q in tri))
                )
    return simplices


def polytope_volume(p: Polytope) -> Q:
    return sum((s.volume() for s in triangulate(p)), Q(0))


def moment_polytope(q: Polytope, pd) -> Polytope:
    """The shift of the dual polytope by the parabolic vector kappa."""
    kappa = tuple(Q(c) for c in (pd.kappa if hasattr(pd, "kappa") else pd))
    if len(kappa) != q.dim:
        raise MathValidationError("kappa dimension does not match the polytope")
    dual = dual_polytope(q)
    result = dual.translate(kappa)
    if not result.contains(kappa, strict=True):
        raise MathValidationError(
            "kappa is not interior to the moment polytope", condition="kappa_interior"
        )
    return result


def delta_from_moment(moment: Polytope, pd) -> Polytope:
    """The reflection-translate kappa - moment; contains 0 in its interior."""
    kappa = tuple(Q(c) for c in (pd.kappa if hasattr(pd, "kappa") else pd))
    if not moment.contains(kappa, strict=True):
        raise MathValidationError(
            "kappa must be interior to the moment polytope", condition="kappa_interior"
        )
    return moment.reflect_through(kappa)


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
    dominant_offenders: tuple[tuple[Vec, Vec], ...]
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

    zero = tuple(Q(0) for _ in range(q.dim))
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
    dominant_ok = True
    dominant_offenders: list[tuple[Vec, Vec]] = []
    f_bound = None
    if zero_interior:
        dual = dual_polytope(q)
        for v in dual.vertices:
            if not in_lattice(v, character_basis):
                dual_offenders.append(v)
                dual_ok = False
        moment = dual.translate(pd.kappa)
        for beta in rd.simple_roots:
            for v in moment.vertices:
                if rd.pairing(beta, v) < 0:
                    dominant_offenders.append((beta, v))
                    dominant_ok = False
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
        dominant_offenders=tuple(dominant_offenders),
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
            pts = [
                [parse_rational(c, f"{field}.vertices[{i}][{j}]") for j, c in enumerate(row)]
                for i, row in enumerate(obj["vertices"])
            ]
            return from_vertices(pts)
        halfspaces = []
        for i, f in enumerate(obj["facets"]):
            normal = [
                parse_rational(c, f"{field}.facets[{i}].normal[{j}]")
                for j, c in enumerate(f["normal"])
            ]
            offset = parse_rational(f["offset"], f"{field}.facets[{i}].offset")
            halfspaces.append((normal, offset))
        return from_halfspaces(halfspaces)
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"malformed polytope: {exc!r}", field)
