"""Exact rational vectors, matrices and small linear solves.

Vectors are immutable tuples of ``Fraction``; the solves take a matrix as a
sequence of rows and share one Gauss-Jordan elimination.  The integer
routes of the polytope and density code scale rational rows to integers
once (``scaled_integers``, ``coprime_integers``) and take small
determinants in integers (``int_det``).  Everything here is exact,
deterministic and free of floats.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Q, ...]


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


def scaled_integers(rows: Sequence[Sequence[Q]]) -> tuple[list[tuple[int, ...]], int]:
    """The rows times L, the lcm of all their denominators, as integer
    tuples, and L."""
    scale = lcm(*(c.denominator for row in rows for c in row))
    return [tuple(c.numerator * (scale // c.denominator) for c in row) for row in rows], scale


def coprime_integers(x: Sequence[Q]) -> tuple[list[int], Q]:
    """The coprime integer entries of s * x and the positive rational s; s is
    0 for a zero (or empty) vector, which has no such scaling."""
    (ints,), denom = scaled_integers([x])
    g = gcd(*ints)
    if g == 0:
        return list(ints), Q(0)
    return [n // g for n in ints], Q(denom, g)


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a 1x1, 2x2 or 3x3 integer matrix by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _reduce(rows: Sequence[Sequence[Q]], ncols: int) -> tuple[list[list[Q]], list[int]]:
    """Gauss-Jordan elimination on the first ``ncols`` columns of ``rows``;
    any later column (a right-hand side) is carried along.  Returns the
    reduced row echelon form and its pivot columns."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Q(1) / m[r][col]  # a Fraction even for an integer pivot
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def solve_square(a: Sequence[Sequence[Q]], b: Sequence[Q]) -> Vec | None:
    """Solve ``a x = b`` exactly; return None when ``a`` is singular."""
    n = len(b)
    m, pivots = _reduce([(*row, bi) for row, bi in zip(a, b)], n)
    if len(pivots) < n:
        return None
    return tuple(row[n] for row in m)


def nullspace_vector(rows: Sequence[Vec], dim: int) -> Vec | None:
    """A nonzero exact solution of ``rows @ x = 0`` when the rows have rank
    ``dim - 1``; None otherwise."""
    m, pivots = _reduce(rows, dim)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    x = [Q(0)] * dim
    x[free] = Q(1)
    for row, col in zip(m, pivots):
        x[col] = -row[free]
    return tuple(x)


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine span of a point set (exact)."""
    if not points:
        return -1
    base = points[0]
    return len(_reduce([vsub(p, base) for p in points[1:]], len(base))[1])


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
