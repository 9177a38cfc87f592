from fractions import Fraction as Q
from itertools import combinations

import pytest

from horofano import MathValidationError, build_root_system, coroot, parabolic_data
from horofano.rationals import solve_square, vadd, vdot


def closure_from_cartan(cartan):
    """Independent oracle: positive roots as coefficient vectors over the
    simple roots, grown height by height with the root-string rule.

    ``cartan[i][j]`` is the pairing of the i-th simple root with the j-th
    simple coroot.  For a root b of the current height, the string through
    the i-th simple root extends upward iff p - <b, a_i-coroot> >= 1, where
    p counts how far the string continues downward.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    current = list(simple)
    while current:
        nxt = []
        for beta in current:
            for i in range(n):
                pairing = sum(c * cartan[j][i] for j, c in enumerate(beta))
                p = 0
                while True:
                    probe = tuple(
                        c - (1 if j == i else 0) * (p + 1) for j, c in enumerate(beta)
                    )
                    if all(c >= 0 for c in probe) and probe in roots:
                        p += 1
                    else:
                        break
                if p - pairing >= 1:
                    up = tuple(c + (1 if j == i else 0) for j, c in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        current = nxt
    return roots


def test_a1_standard_realization():
    rd = build_root_system([("A", 1)])
    assert len(rd.simple_roots) == 1
    assert rd.positive_roots == rd.simple_roots
    alpha = rd.simple_roots[0]
    assert rd.pairing(alpha, alpha) == 2


def test_torus_only():
    rd = build_root_system([], torus_rank=2)
    assert rd.dim == 2
    assert rd.positive_roots == ()
    assert rd.simple_roots == ()


def root_of(rd, coeffs):
    """The root with the given coefficients over the simple roots."""
    return tuple(
        sum((c * s[i] for c, s in zip(coeffs, rd.simple_roots)), Q(0))
        for i in range(rd.dim)
    )


def cartan_of(rd):
    return [
        [
            int(2 * rd.pairing(a, b) / rd.pairing(b, b))
            for b in rd.simple_roots
        ]
        for a in rd.simple_roots
    ]


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 3)])
def test_positive_roots_match_cartan_closure(family, rank):
    rd = build_root_system([(family, rank)])
    expected = closure_from_cartan(cartan_of(rd))
    assert set(rd.positive_roots) == {root_of(rd, c) for c in expected}


def test_a2_has_three_positive_roots():
    rd = build_root_system([("A", 2)])
    assert len(rd.positive_roots) == 3
    a1, a2 = rd.simple_roots
    assert vadd(a1, a2) in rd.positive_roots


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 3, 6), ("B", 2, 4), ("B", 3, 9), ("C", 2, 4), ("C", 3, 9), ("D", 3, 6)],
)
def test_positive_root_counts(family, rank, count):
    rd = build_root_system([(family, rank)])
    assert len(rd.positive_roots) == count


def test_positive_roots_are_nonneg_simple_combinations():
    rd = build_root_system([("B", 3), ("A", 2)], torus_rank=1)
    gram = [[vdot(a, b) for b in rd.simple_roots] for a in rd.simple_roots]
    for root in rd.positive_roots:
        coeffs = solve_square(gram, [vdot(a, root) for a in rd.simple_roots])
        assert root_of(rd, coeffs) == root
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)


def test_rejects_bad_input():
    with pytest.raises(MathValidationError):
        build_root_system([("E", 6)])
    with pytest.raises(MathValidationError):
        build_root_system([("A", 0)])
    with pytest.raises(MathValidationError):
        build_root_system([], torus_rank=-1)


def test_coroot_normalization_exact():
    rd = build_root_system([("B", 2)])
    for alpha in rd.positive_roots:
        assert vdot(alpha, coroot(rd, alpha)) == 2


def test_coroot_examples():
    # short root of B2 has squared length 1, so its coroot is twice itself
    rd = build_root_system([("B", 2)])
    short = (Q(0), Q(1))
    assert coroot(rd, short) == (Q(0), Q(2))
    # all A-type roots share one length: alpha1+alpha2 is its own coroot
    rd2 = build_root_system([("A", 2)])
    long_root = vadd(rd2.simple_roots[0], rd2.simple_roots[1])
    assert coroot(rd2, long_root) == long_root
    with pytest.raises(MathValidationError):
        coroot(rd2, (Q(1), Q(1), Q(1)))


def test_parabolic_a2_levi_1():
    rd = build_root_system([("A", 2)])
    pd = parabolic_data(rd, [1])
    a1, a2 = rd.simple_roots
    assert set(pd.phi_Q_plus) == {a2, vadd(a1, a2)}
    assert pd.kappa == vadd(a1, vadd(a2, a2))
    assert all(a == 3 for a in pd.a_alpha.values())


def test_parabolic_full_levi_degenerate():
    rd = build_root_system([("A", 2)])
    pd = parabolic_data(rd, [1, 2])
    assert pd.phi_Q_plus == ()
    assert all(c == 0 for c in pd.kappa)


def test_parabolic_a1_empty_levi():
    rd = build_root_system([("A", 1)])
    pd = parabolic_data(rd, [])
    alpha = rd.simple_roots[0]
    assert pd.phi_Q_plus == (alpha,)
    assert pd.kappa == alpha
    assert pd.a_alpha[alpha] == 2


@pytest.mark.parametrize("levi", [[], [1], [2], [1, 3], [2, 3]])
def test_kappa_dominant_and_a_positive(levi):
    rd = build_root_system([("A", 3)])
    pd = parabolic_data(rd, levi)
    for i, beta in enumerate(rd.simple_roots, start=1):
        pairing = rd.pairing(pd.kappa, beta)
        assert pairing >= 0
        if i not in pd.levi_subset:
            assert pairing > 0
    assert all(a > 0 for a in pd.a_alpha.values())


PARABOLIC_CASES = [
    *(([(fam, rank)], 0) for fam in "ABC" for rank in (1, 2, 3, 4)),
    *(([("D", rank)], 0) for rank in (2, 3, 4)),
    ([("B", 3), ("A", 2)], 1),
    ([("A", 1), ("A", 1)], 0),
    ([("A", 2)], 1),
]


@pytest.mark.parametrize(
    "factors,torus_rank",
    PARABOLIC_CASES,
    ids=["+".join(f"{f}{r}" for f, r in fs) + f"+T{t}" for fs, t in PARABOLIC_CASES],
)
def test_parabolic_data_matches_cartan_closure(factors, torus_rank):
    # a Levi root is a closure coefficient vector supported in the Levi,
    # mapped to a root through the simple roots
    rd = build_root_system(factors, torus_rank=torus_rank)
    n = len(rd.simple_roots)
    closure = closure_from_cartan(cartan_of(rd))
    assert set(rd.positive_roots) == {root_of(rd, c) for c in closure}
    for size in range(n + 1):
        for levi in combinations(range(1, n + 1), size):
            levi_roots = {
                root_of(rd, c)
                for c in closure
                if all(k + 1 in levi for k, x in enumerate(c) if x)
            }
            phi_q = tuple(r for r in rd.positive_roots if r not in levi_roots)
            kappa = tuple(sum((r[i] for r in phi_q), Q(0)) for i in range(rd.dim))
            pd = parabolic_data(rd, levi)
            assert pd.phi_Q_plus == phi_q
            assert pd.kappa == kappa
            assert pd.a_alpha == {r: 2 * vdot(kappa, r) / vdot(r, r) for r in phi_q}


def test_levi_index_out_of_range():
    rd = build_root_system([("A", 2)])
    with pytest.raises(MathValidationError):
        parabolic_data(rd, [3])
