"""Exact rational vectors, matrices and small linear solves.

Vectors are immutable tuples of ``Fraction``; matrices are tuples of row
vectors.  Everything here is exact, deterministic and free of floats.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import Sequence

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def zero_vec(dim: int) -> Vec:
    return tuple(Q(0) for _ in range(dim))


def vadd(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vscale(c, x: Vec) -> Vec:
    c = Q(c)
    return tuple(c * a for a in x)


def vdot(x: Vec, y: Vec) -> Q:
    return sum((a * b for a, b in zip(x, y, strict=True)), Q(0))


def vsum(vectors: Sequence[Vec], dim: int) -> Vec:
    out = zero_vec(dim)
    for v in vectors:
        out = vadd(out, v)
    return out


def identity_mat(dim: int) -> Mat:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(dim)) for i in range(dim))


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(vdot(row, x) for row in m)


def primitive(x: Vec) -> Vec:
    """Scale a nonzero rational vector to integer entries with gcd 1 and
    positive leading nonzero entry."""
    denom = 1
    for a in x:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in x]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [n // g for n in ints]
    for n in ints:
        if n != 0:
            if n < 0:
                ints = [-m for m in ints]
            break
    return tuple(Q(n) for n in ints)


def solve_square(a: Sequence[Sequence[Q]], b: Sequence[Q]) -> Vec | None:
    """Solve ``a x = b`` exactly; return None when ``a`` is singular."""
    n = len(b)
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


def nullspace_vector(rows: Sequence[Vec], dim: int) -> Vec | None:
    """A nonzero exact solution of ``rows @ x = 0`` when the rows have rank
    ``dim - 1``; None otherwise."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    if r != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    x = [Q(0)] * dim
    x[free] = Q(1)
    for i, col in enumerate(pivots):
        x[col] = -m[i][free]
    return tuple(x)


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine span of a point set (exact)."""
    if not points:
        return -1
    base = points[0]
    rows = [list(vsub(p, base)) for p in points[1:]]
    rank = 0
    ncols = len(base)
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def det(rows: Sequence[Sequence[Q]]) -> Q:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = Q(1)
    result = Q(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        result *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [v - f * w for v, w in zip(m[i], m[col])]
    return sign * result


def parse_rational(value, field: str = "") -> Q:
    """Parse an exact rational from an int or a 'p/q' string."""
    from .errors import SchemaError

    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a bool", field or None)
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        try:
            return Q(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse rational {value!r}: {exc}", field or None)
    if isinstance(value, float):
        raise SchemaError(
            "floats are not exact; write rationals as 'p/q' strings", field or None
        )
    raise SchemaError(f"expected a rational, got {type(value).__name__}", field or None)


def format_rational(value: Q) -> str:
    return str(Q(value))
