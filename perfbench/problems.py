"""Seeded problem generators for the benchmark workloads.

Every generator is a pure function of ``(seed, count)``.  Draws are
stratified by input properties only (interval kind, the B1 lower end, the
r = 3 family), so every seed yields the same mix of input classes; no draw
is ever kept or discarded because of what the program does with it.

The root data of each family (kappa and the density forms) are written out
here by hand instead of being computed by the program, so the references in
``oracles.py`` do not share code with the system under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q

from oracles import exact_invariants

# toric intervals [-a, b] with a, b in {1/2, 3/4, ..., 4}
TORIC_ENDS = tuple(Q(k, 4) for k in range(2, 17))
# B1 intervals [a, b] with a in {0, 1/4, 1/2, 3/4} and b in {5/4, ..., 4};
# a = 0 puts the lower end on the wall of the density x
B1_LOWER = tuple(Q(k, 4) for k in range(0, 4))
# the lower ends off the wall: the soliton path fails (newton_failure) on
# every wall draw, so only the unlisted sweep-1d workload draws a = 0
B1_OFF_WALL = B1_LOWER[1:]
B1_UPPER = tuple(Q(k, 4) for k in range(5, 17))

# r = 3 families: (factors, Levi subset, kappa, density forms); the forms are
# the positive roots outside the Levi (the invariant product is the identity)
BOX_FAMILIES = {
    "A2-levi1": (
        [["A", 2]], [1], (1, 1, -2),
        ((1, 0, -1), (0, 1, -1)),
    ),
    "A2-levi0": (
        [["A", 2]], [], (2, 0, -2),
        ((1, -1, 0), (1, 0, -1), (0, 1, -1)),
    ),
    "B3-levi12": (
        [["B", 3]], [1, 2], (3, 3, 3),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
    ),
}
# box half-widths k/8; at 7/8 every family keeps its density positive
HALF_WIDTHS = tuple(Q(k, 8) for k in range(1, 8))


class GeneratorError(RuntimeError):
    """A generated problem broke an invariant the generator guarantees."""


@dataclass(frozen=True)
class Problem:
    key: str
    kind: str  # "toric", "b1" or a BOX_FAMILIES name
    factors: tuple
    torus_rank: int
    levi: tuple[int, ...]
    kappa: tuple[Q, ...]
    forms: tuple[tuple[Q, ...], ...]
    lower: tuple[Q, ...]  # box corner; an interval when r = 1
    upper: tuple[Q, ...]
    grid: int | None = None  # continuity grid option; None keeps the default

    @property
    def dim(self) -> int:
        return len(self.kappa)

    def spec(self) -> dict:
        verts = [
            [str(c) for c in corner]
            for corner in itertools.product(*zip(self.lower, self.upper))
        ]
        spec = {
            "root_system": {
                "factors": [list(f) for f in self.factors],
                "torus_rank": self.torus_rank,
            },
            "levi_subset": list(self.levi),
            "polytope": {"moment": {"vertices": verts}},
        }
        if self.grid is not None:
            spec["options"] = {"grid": self.grid}
        return spec

    def file_bytes(self) -> bytes:
        """Canonical problem file; its bytes enter the report's input hash."""
        return (json.dumps(self.spec(), sort_keys=True, separators=(",", ":")) + "\n").encode()

    def vertices(self):
        return list(itertools.product(*zip(self.lower, self.upper)))

    def einstein(self) -> bool:
        """Exact: is the density barycenter at kappa?  Needs only the input."""
        return exact_invariants(self)["barycenter"] == self.kappa


def _check_density(p: Problem) -> None:
    for v in p.vertices():
        for f in p.forms:
            if sum(a * b for a, b in zip(f, v)) < 0:
                raise GeneratorError(f"{p.key}: density form {f} negative at vertex {v}")
    if not all(lo < k < hi for lo, k, hi in zip(p.lower, p.kappa, p.upper)):
        raise GeneratorError(f"{p.key}: kappa not interior")


def interval(kind: str, lo: Q, hi: Q) -> Problem:
    if kind == "toric":
        p = Problem(
            key=f"toric[{lo},{hi}]", kind="toric", factors=(), torus_rank=1, levi=(),
            kappa=(Q(0),), forms=(), lower=(lo,), upper=(hi,),
        )
    else:
        p = Problem(
            key=f"b1[{lo},{hi}]", kind="b1", factors=(("B", 1),), torus_rank=0, levi=(),
            kappa=(Q(1),), forms=((Q(1),),), lower=(lo,), upper=(hi,),
        )
    _check_density(p)
    return p


def box(family: str, widths) -> Problem:
    factors, levi, kappa, forms = BOX_FAMILIES[family]
    kappa = tuple(Q(c) for c in kappa)
    p = Problem(
        key=f"{family}[{','.join(str(w) for w in widths)}]",
        kind=family,
        factors=tuple(tuple(f) for f in factors),
        torus_rank=0,
        levi=tuple(levi),
        kappa=kappa,
        forms=tuple(tuple(Q(c) for c in f) for f in forms),
        lower=tuple(k - w for k, w in zip(kappa, widths)),
        upper=tuple(k + w for k, w in zip(kappa, widths)),
    )
    _check_density(p)
    return p


def draw_interval(rng: random.Random, i: int, b1_lower=B1_LOWER) -> Problem:
    """Even slots draw a toric interval, odd slots a B1 interval whose lower
    end cycles through ``b1_lower``, so each lower end has a fixed share;
    with no lower ends every slot draws a toric interval."""
    if i % 2 == 0 or not b1_lower:
        return interval("toric", -rng.choice(TORIC_ENDS), rng.choice(TORIC_ENDS))
    return interval("b1", b1_lower[(i // 2) % len(b1_lower)], rng.choice(B1_UPPER))


def draw_box(rng: random.Random, i: int) -> Problem:
    families = sorted(BOX_FAMILIES)
    return box(families[i % len(families)], [rng.choice(HALF_WIDTHS) for _ in range(3)])


def intervals(seed: int, count: int, non_einstein: bool = False,
              b1_lower=B1_LOWER) -> list[Problem]:
    """1-D draws.  With ``non_einstein`` the draw for a slot is repeated
    while the interval is Einstein (R = 1, decided exactly from the input):
    the zero-field path has no divergence point to estimate there."""
    rng = random.Random(f"intervals:{seed}")
    out = []
    for i in range(count):
        p = draw_interval(rng, i, b1_lower)
        while non_einstein and p.einstein():
            p = draw_interval(rng, i, b1_lower)
        out.append(p)
    return out


def boxes(seed: int, count: int) -> list[Problem]:
    rng = random.Random(f"boxes:{seed}")
    return [draw_box(rng, i) for i in range(count)]


def mixed(seed: int, count: int, grid: int) -> list[Problem]:
    """Alternating 1-D draws off the density wall, solved on the given
    continuity grid, and r = 3 draws (these never reach the 1-D solver, so
    they are the control for its lazy imports)."""
    ones = [
        dataclasses.replace(p, key=f"{p.key}@grid{grid}", grid=grid)
        for p in intervals(seed, (count + 1) // 2, b1_lower=B1_OFF_WALL)
    ]
    threes = boxes(seed, count // 2)
    out = []
    for i in range(count):
        out.append(ones[i // 2] if i % 2 == 0 else threes[i // 2])
    return out
