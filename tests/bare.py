"""Problems built from a bare polytope and density forms, for the tests of
the ``dh`` entry points, which take the problem."""

from fractions import Fraction as Q

from horofano import synthetic_problem


def bare_problem(polytope, forms=()):
    """The problem of ``polytope`` with the density of ``forms`` and kappa the
    vertex centroid, which is interior to every full-dimensional polytope."""
    n = len(polytope.vertices)
    kappa = [sum(c, Q(0)) / n for c in zip(*polytope.vertices)]
    return synthetic_problem(polytope, kappa=kappa, forms=forms)
