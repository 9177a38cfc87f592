"""Exact rational vectors, matrices and small linear solves.

Vectors are immutable tuples of ``Fraction``; the solves take a matrix as a
sequence of rows.  The integer routes scale rational rows to integers once
(``scaled_integers``, ``coprime_integers``) and compute on plain Python
integers: small determinants by cofactors (``int_det``), and ``int_rank``,
``affine_rank`` and ``solve_square`` by one fraction-free Gauss-Jordan
elimination (``_reduce``), so a rank builds no ``Fraction`` and a solve one
per returned entry.  Input rationals are bounded (``MAX_DIGITS``) and
printing a result checks Python's limit on integer digits.  Everything here
is exact, deterministic and free of floats.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Sequence

from .errors import SchemaError

Vec = tuple[Q, ...]

# the most decimal digits an input rational's numerator or denominator may
# have, well past the float range.  Report values on a B3 Levi {1,2} box
# whose corners share one denominator have about 9 times as many digits
# (4050 at this bound), within Python's 4300-digit limit on printing an
# integer; corners with unrelated denominators grow up to about 36 times,
# and a result past the limit is a ``SchemaError`` (``format_rational``)
MAX_DIGITS = 450
_DIGITS_BOUND = 10**MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


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


def _reduce(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) on
    the first ``ncols`` columns of integer ``rows``; any later column (a
    right-hand side) is carried along.

    Each step with pivot p updates every other row to (p row - row[col]
    pivot_row) / p_prev, an exact integer division: every entry stays a
    minor of the input, so the integers grow no faster than those minors.
    Returns the rows, the pivot columns and the last pivot d (1 when there
    is none).  Each pivot row holds d at its own pivot column and 0 at the
    others, so it is d times the reduced row echelon form.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        pivots.append(col)
        prev = p
    return m, pivots, prev


def solve_square(a: Sequence[Sequence[Q]], b: Sequence[Q]) -> Vec | None:
    """Solve ``a x = b`` exactly; return None when ``a`` is singular."""
    n = len(b)
    rows, _ = scaled_integers([(*row, bi) for row, bi in zip(a, b)])
    m, pivots, d = _reduce(rows, n)
    if len(pivots) < n:
        return None
    return tuple(Q(row[n], d) for row in m)


def int_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of a matrix of integer rows with ``ncols`` columns."""
    return len(_reduce(rows, ncols)[1])


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine span of a point set (exact)."""
    if not points:
        return -1
    pts, _ = scaled_integers(points)
    base = pts[0]
    return int_rank([[a - b for a, b in zip(p, base)] for p in pts[1:]], len(base))


def parse_rational(value, field: str = "") -> Q:
    """Parse an exact rational from an int or a 'p/q' string whose numerator
    and denominator have at most ``MAX_DIGITS`` digits each."""
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a bool", field or None)
    if isinstance(value, int):
        q = Q(value)
    elif isinstance(value, str):
        try:
            # a short string can hold a huge power of ten, which Fraction
            # would build in full; past this exponent a nonzero mantissa
            # gives more than MAX_DIGITS digits anyway
            exp = _EXPONENT.search(value)
            q = None if exp and abs(int(exp[1])) > MAX_DIGITS + len(value) else Q(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse rational {value!r}: {exc}", field or None)
    elif isinstance(value, float):
        raise SchemaError(
            "floats are not exact; write rationals as 'p/q' strings", field or None
        )
    else:
        raise SchemaError(f"expected a rational, got {type(value).__name__}", field or None)
    if q is None or abs(q.numerator) >= _DIGITS_BOUND or q.denominator >= _DIGITS_BOUND:
        raise SchemaError(
            f"numerator or denominator longer than {MAX_DIGITS} digits", field or None
        )
    return q


def parse_vector(value, field: str) -> list[Q]:
    """A JSON list of rationals (``parse_rational``); anything else, a string
    included, is a ``SchemaError`` naming ``field``."""
    if not isinstance(value, list):
        raise SchemaError("expected a list of rationals", field)
    return [parse_rational(c, f"{field}[{j}]") for j, c in enumerate(value)]


def parse_matrix(value, field: str) -> list[list[Q]]:
    """A JSON list of rows, each a list of rationals (``parse_vector``)."""
    if not isinstance(value, list):
        raise SchemaError("expected a list of lists of rationals", field)
    return [parse_vector(row, f"{field}[{i}]") for i, row in enumerate(value)]


def format_rational(value: Q) -> str:
    """'p/q' (or 'p').  A value past Python's 4300-digit limit on printing
    an integer, which inputs within ``MAX_DIGITS`` can still produce, is a
    ``SchemaError`` naming the input."""
    try:
        return str(Q(value))
    except ValueError:
        raise SchemaError(
            "an exact result has too many digits to print; use inputs with fewer digits",
            "input",
        ) from None
