"""Classical root systems and parabolic/Levi combinatorics.

Root systems are realized in the standard orthogonal coordinates (type A of
rank n sits inside R^{n+1}), direct sums are concatenated block-wise, torus
factors contribute rootless coordinates, and the invariant scalar product is
the identity on these coordinates.  All data are exact rationals.  The
roots are integer vectors in these coordinates, so the blocks, the Cartan
check, the Levi test, kappa and the pairings of kappa with the coroots are
computed on plain integer tuples, and each returned vector is built once as
a tuple of ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import MathValidationError
from .rationals import Vec, int_rank, scaled_integers, vdot

FAMILIES = ("A", "B", "C", "D")

IntVec = tuple[int, ...]


def _unit(dim: int, i: int, value: int = 1) -> IntVec:
    return tuple(value if j == i else 0 for j in range(dim))


def _add(x: IntVec, y: IntVec) -> IntVec:
    return tuple(a + b for a, b in zip(x, y))


def _dot(x: IntVec, y: IntVec) -> int:
    return sum(a * b for a, b in zip(x, y))


def _block_roots(family: str, rank: int) -> tuple[list[IntVec], list[IntVec], int]:
    """Simple roots, positive roots (integer tuples) and block dimension for
    one factor."""
    if family == "A":
        dim = rank + 1
        simple = [_add(_unit(dim, i), _unit(dim, i + 1, -1)) for i in range(rank)]
        positive = [
            _add(_unit(dim, i), _unit(dim, j, -1))
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
        return simple, positive, dim
    # B, C or D: ``build_root_system`` has checked the letter
    dim = rank
    simple = [_add(_unit(dim, i), _unit(dim, i + 1, -1)) for i in range(rank - 1)]
    if family == "B":
        simple.append(_unit(dim, rank - 1))
    elif family == "C":
        simple.append(_unit(dim, rank - 1, 2))
    elif rank >= 2:
        simple.append(_add(_unit(dim, rank - 2), _unit(dim, rank - 1)))
    positive = []
    for i in range(rank):
        for j in range(i + 1, rank):
            positive.append(_add(_unit(dim, i), _unit(dim, j, -1)))
            positive.append(_add(_unit(dim, i), _unit(dim, j)))
    if family == "B":
        positive.extend(_unit(dim, i) for i in range(rank))
    elif family == "C":
        positive.extend(_unit(dim, i, 2) for i in range(rank))
    return simple, positive, dim


def _fractions(v: IntVec) -> Vec:
    return tuple(map(Q, v))


@dataclass(frozen=True)
class RootDatum:
    """A root system in ambient coordinates, on which the Weyl-invariant scalar
    product is the identity."""

    family: tuple[tuple[str, int], ...]
    torus_rank: int
    dim: int
    simple_roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]

    def pairing(self, x: Vec, y: Vec) -> Q:
        return vdot(x, y)

    def is_root(self, alpha: Vec) -> bool:
        return alpha in self.positive_roots or tuple(-a for a in alpha) in self.positive_roots


def build_root_system(factors, torus_rank: int = 0) -> RootDatum:
    """Assemble a direct sum of classical factors plus a central torus."""
    factors = tuple((str(f), int(r)) for f, r in factors)
    if torus_rank < 0:
        raise MathValidationError("torus rank must be >= 0", condition="torus_rank")
    for fam, rank in factors:
        if fam not in FAMILIES:
            raise MathValidationError(f"unknown family letter {fam!r}", condition="family")
        if rank < 1:
            raise MathValidationError(f"rank {rank} < 1 in factor {fam}", condition="rank")

    blocks = [_block_roots(fam, rank) for fam, rank in factors]
    dim = sum(b[2] for b in blocks) + torus_rank
    simple: list[IntVec] = []
    positive: list[IntVec] = []
    offset = 0
    for blk_simple, blk_positive, blk_dim in blocks:
        head, tail = (0,) * offset, (0,) * (dim - offset - blk_dim)
        simple.extend(head + s + tail for s in blk_simple)
        positive.extend(head + p + tail for p in blk_positive)
        offset += blk_dim
    _check_cartan(simple)
    return RootDatum(
        family=factors,
        torus_rank=torus_rank,
        dim=dim,
        simple_roots=tuple(map(_fractions, simple)),
        positive_roots=tuple(map(_fractions, positive)),
    )


def _check_cartan(simple: list[IntVec]) -> None:
    for i, a in enumerate(simple):
        for j, b in enumerate(simple):
            if i == j:
                continue
            # the Cartan integer 2(a,b)/(b,b), with (b,b) > 0
            num, den = 2 * _dot(a, b), _dot(b, b)
            if num % den or num > 0:
                raise MathValidationError(
                    f"Cartan integer 2(a,b)/(b,b) = {Q(num, den)} invalid for simple pair "
                    f"({i},{j})",
                    condition="cartan",
                )


def coroot(rd: RootDatum, alpha: Vec) -> Vec:
    """The coroot 2*alpha/(alpha,alpha) in the shared coordinate space."""
    alpha = tuple(Q(a) for a in alpha)
    if not rd.is_root(alpha):
        raise MathValidationError(f"{alpha} is not a root", condition="coroot")
    norm2 = rd.pairing(alpha, alpha)
    return tuple(2 * a / norm2 for a in alpha)


@dataclass(frozen=True)
class ParabolicDatum:
    """Levi subset, the positive roots outside the Levi, and their sum."""

    levi_subset: frozenset[int]
    phi_Q_plus: tuple[Vec, ...]
    kappa: Vec
    a_alpha: dict[Vec, int]


def parabolic_data(rd: RootDatum, levi) -> ParabolicDatum:
    """Parabolic combinatorics for the Levi given by 1-based simple-root indices."""
    n_simple = len(rd.simple_roots)
    levi = frozenset(int(i) for i in levi)
    for i in levi:
        if not 1 <= i <= n_simple:
            raise MathValidationError(
                f"Levi index {i} out of range 1..{n_simple}", condition="levi_subset"
            )
    # the roots as integer rows over one positive scale (1 for the roots of
    # ``build_root_system``); every positive root is a nonnegative
    # combination of the simple roots, so it is a Levi root exactly when it
    # lies in the Levi simple roots' span
    rows, scale = scaled_integers(rd.simple_roots + rd.positive_roots)
    levi_simple = [rows[i - 1] for i in sorted(levi)]
    phi_q = [
        (root, row)
        for root, row in zip(rd.positive_roots, rows[n_simple:])
        if int_rank([*levi_simple, row], rd.dim) > len(levi_simple)
    ]
    kappa = tuple(map(sum, zip(*(row for _, row in phi_q)))) or (0,) * rd.dim
    a_alpha: dict[Vec, int] = {}
    for root, row in phi_q:
        # <kappa, 2 alpha / (alpha, alpha)>, the common scale cancelling
        num, den = 2 * _dot(kappa, row), _dot(row, row)
        if num % den or num <= 0:
            raise MathValidationError(
                f"pairing of kappa with coroot of {root} is {Q(num, den)}, "
                "not a positive integer",
                condition="a_alpha",
            )
        a_alpha[root] = num // den
    return ParabolicDatum(
        levi_subset=levi,
        phi_Q_plus=tuple(root for root, _ in phi_q),
        kappa=tuple(Q(k, scale) for k in kappa),
        a_alpha=a_alpha,
    )
