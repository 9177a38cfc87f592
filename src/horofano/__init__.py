"""Canonical-metric invariants of Fano horospherical manifolds.

From the combinatorial data of a manifold (root system, Levi subset, moment
polytope) the package computes the solitonic vector field, the exact
Einstein-criterion test, the greatest Ricci lower bound, and runs a desk-scale
continuity method for the reduced real Monge-Ampere equation.
"""

from .continuity import (
    ContinuityOptions,
    ContinuityState,
    ContinuityTrace,
    continuity_sweep,
    estimate_rm_numeric,
)
from .dh import (
    DHDensity,
    WeightedMoments,
    density_from_forms,
    dh_barycenter,
    dh_volume,
    weighted_moments,
)
from .errors import (
    HorofanoError,
    MathValidationError,
    QuadratureError,
    SchemaError,
    SolverError,
)
from .polytopes import (
    Polytope,
    Simplex,
    delta_from_moment,
    dual_polytope,
    from_halfspaces,
    from_vertices,
    moment_polytope,
    triangulate,
    validate_reflective,
)
from .problem import HorosphericalProblem, problem_from_root_data, synthetic_problem
from .ricci import RicciBoundResult, greatest_ricci_lower_bound, ray_exit
from .roots import ParabolicDatum, RootDatum, build_root_system, coroot, parabolic_data
from .soliton import SolitonSolution, kahler_einstein_test, solve_soliton, weighted_mass

__version__ = "0.1.0"

__all__ = [
    "ContinuityOptions",
    "ContinuityState",
    "ContinuityTrace",
    "DHDensity",
    "HorofanoError",
    "HorosphericalProblem",
    "MathValidationError",
    "ParabolicDatum",
    "Polytope",
    "QuadratureError",
    "RicciBoundResult",
    "RootDatum",
    "SchemaError",
    "Simplex",
    "SolitonSolution",
    "SolverError",
    "WeightedMoments",
    "build_root_system",
    "continuity_sweep",
    "coroot",
    "delta_from_moment",
    "density_from_forms",
    "dh_barycenter",
    "dh_volume",
    "dual_polytope",
    "estimate_rm_numeric",
    "from_halfspaces",
    "from_vertices",
    "greatest_ricci_lower_bound",
    "kahler_einstein_test",
    "moment_polytope",
    "parabolic_data",
    "problem_from_root_data",
    "ray_exit",
    "solve_soliton",
    "synthetic_problem",
    "triangulate",
    "validate_reflective",
    "weighted_mass",
    "weighted_moments",
    "__version__",
]
