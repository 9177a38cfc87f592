"""The bundle of data defining one Fano horospherical manifold."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as Q

from .dh import DHDensity, MomentData, dh_barycenter, dh_volume, density_from_forms
from .errors import MathValidationError
from .polytopes import Polytope
from .rationals import Vec, zero_vec
from .roots import ParabolicDatum, RootDatum


@dataclass(frozen=True)
class HorosphericalProblem:
    """Moment polytope, shift vector kappa and density in one coordinate space.

    Group data enter only through kappa and the density forms, so a problem
    built from root data and a synthetic one (tests, toric cases) are alike.
    Construction runs ``validate``, so every problem is valid, and the
    problem holds the moment data that its ``dh`` integrals share.
    """

    moment: Polytope
    kappa: Vec
    density: DHDensity

    @property
    def a1_dim(self) -> int:
        return self.moment.dim

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if len(self.kappa) != self.moment.dim:
            raise MathValidationError(
                "kappa dimension does not match the moment polytope",
                condition="dimension",
            )
        if not self.moment.contains(self.kappa, strict=True):
            raise MathValidationError(
                "kappa is not interior to the moment polytope",
                condition="kappa_interior",
            )
        if not self.density.nonnegative_on(self.moment):
            raise MathValidationError(
                "density is negative on the moment polytope",
                condition="density_nonneg",
            )

    @functools.cached_property
    def moment_data(self) -> MomentData:
        return MomentData(self.moment, self.density)

    @functools.cached_property
    def volume(self) -> Q:
        return dh_volume(self)

    @functools.cached_property
    def barycenter(self) -> Vec:
        return dh_barycenter(self)


def problem_from_root_data(
    rd: RootDatum, pd: ParabolicDatum, moment: Polytope
) -> HorosphericalProblem:
    """Assemble a problem from group combinatorics plus the moment polytope.

    The polytope must live in the same coordinate space as the root data
    (the toric-fiber directions coincide with the full character space here;
    a torus splitting is not reconstructed from group data).
    """
    if moment.dim != rd.dim:
        raise MathValidationError(
            f"moment polytope dimension {moment.dim} != character space dimension {rd.dim}",
            condition="dimension",
        )
    # the scalar product is the identity, so each root is its own linear form
    return HorosphericalProblem(
        moment=moment,
        kappa=pd.kappa,
        density=density_from_forms(pd.phi_Q_plus),
    )


def synthetic_problem(moment: Polytope, kappa=None, forms=()) -> HorosphericalProblem:
    """A problem given directly by polytope data (toric and test cases)."""
    kappa = (
        zero_vec(moment.dim) if kappa is None else tuple(Q(c) for c in kappa)
    )
    return HorosphericalProblem(
        moment=moment, kappa=kappa, density=density_from_forms(forms)
    )
