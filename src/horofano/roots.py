"""Classical root systems and parabolic/Levi combinatorics.

Root systems are realized in the standard orthogonal coordinates (type A of
rank n sits inside R^{n+1}), direct sums are concatenated block-wise, torus
factors contribute rootless coordinates, and the invariant scalar product is
the identity on these coordinates.  All data are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import MathValidationError
from .rationals import Vec, affine_rank, vadd, vdot, vsum, zero_vec

FAMILIES = ("A", "B", "C", "D")


def _unit(dim: int, i: int, value=1) -> Vec:
    return tuple(Q(value) if j == i else Q(0) for j in range(dim))


def _block_roots(family: str, rank: int) -> tuple[list[Vec], list[Vec], int]:
    """Simple roots, positive roots and block dimension for one factor."""
    if family == "A":
        dim = rank + 1
        simple = [vadd(_unit(dim, i), _unit(dim, i + 1, -1)) for i in range(rank)]
        positive = [
            vadd(_unit(dim, i), _unit(dim, j, -1))
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
        return simple, positive, dim
    # B, C or D: ``build_root_system`` has checked the letter
    dim = rank
    simple = [vadd(_unit(dim, i), _unit(dim, i + 1, -1)) for i in range(rank - 1)]
    if family == "B":
        simple.append(_unit(dim, rank - 1))
    elif family == "C":
        simple.append(_unit(dim, rank - 1, 2))
    elif rank >= 2:
        simple.append(vadd(_unit(dim, rank - 2), _unit(dim, rank - 1)))
    positive = []
    for i in range(rank):
        for j in range(i + 1, rank):
            positive.append(vadd(_unit(dim, i), _unit(dim, j, -1)))
            positive.append(vadd(_unit(dim, i), _unit(dim, j)))
    if family == "B":
        positive.extend(_unit(dim, i) for i in range(rank))
    elif family == "C":
        positive.extend(_unit(dim, i, 2) for i in range(rank))
    return simple, positive, dim


def _embed(v: Vec, offset: int, dim: int) -> Vec:
    return zero_vec(offset) + v + zero_vec(dim - offset - len(v))


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
    simple: list[Vec] = []
    positive: list[Vec] = []
    offset = 0
    for blk_simple, blk_positive, blk_dim in blocks:
        simple.extend(_embed(s, offset, dim) for s in blk_simple)
        positive.extend(_embed(p, offset, dim) for p in blk_positive)
        offset += blk_dim

    rd = RootDatum(
        family=factors,
        torus_rank=torus_rank,
        dim=dim,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
    )
    _check_cartan(rd)
    return rd


def _check_cartan(rd: RootDatum) -> None:
    for i, a in enumerate(rd.simple_roots):
        for j, b in enumerate(rd.simple_roots):
            if i == j:
                continue
            c = 2 * rd.pairing(a, b) / rd.pairing(b, b)
            if c.denominator != 1 or c > 0:
                raise MathValidationError(
                    f"Cartan integer 2(a,b)/(b,b) = {c} invalid for simple pair ({i},{j})",
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
    # every positive root is a nonnegative combination of the simple roots,
    # so it is a Levi root exactly when it lies in the Levi simple roots' span
    levi_simple = [rd.simple_roots[i - 1] for i in sorted(levi)]
    phi_q = [
        root
        for root in rd.positive_roots
        if affine_rank([zero_vec(rd.dim), *levi_simple, root]) > len(levi_simple)
    ]
    kappa = vsum(phi_q, rd.dim)
    a_alpha: dict[Vec, int] = {}
    for root in phi_q:
        a = rd.pairing(kappa, coroot(rd, root))
        if a.denominator != 1 or a <= 0:
            raise MathValidationError(
                f"pairing of kappa with coroot of {root} is {a}, not a positive integer",
                condition="a_alpha",
            )
        a_alpha[root] = int(a)
    return ParabolicDatum(
        levi_subset=levi, phi_Q_plus=tuple(phi_q), kappa=kappa, a_alpha=a_alpha
    )
