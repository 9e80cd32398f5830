"""Gauss sums, the trivializing phase, and the shifted cocycle."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacover import (IntegerSymplectic, Mu8, beta_tilde, coset_split,
                        f_shift, lambda_bar, lambda_multiplier,
                        make_generator, modified_cocycle,
                        random_word_element, rao_cocycle, snap_mu8,
                        subgroup_membership, symplectic_gauss_sum)
import exact_reference as ref
from thetacover import exactla as xla
from thetacover.cocycle import CoverElement

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def gword(m, seed, length=6):
    return random_word_element(m, "Gamma1_2", length=length, seed=seed)[0]


def test_classical_rank_one_sums():
    # G(1, c) = sqrt(c) e^{i pi/4} for even c > 0
    for c in (2, 4, 6, 8, 10):
        want = c ** 0.5 * cmath.exp(1j * cmath.pi / 4)
        assert abs(symplectic_gauss_sum([[1]], [[c]]) - want) < 1e-12


def box_representatives(c) -> list[list[int]]:
    """Coset representatives of Z^r modulo the row lattice of square c,
    one per point of the HNF box (see ``exactla.box_sides``)."""
    reps: list[list[int]] = [[]]
    for d in xla.box_sides(xla.hnf_with_transform(c)[0]):
        reps = [rep + [k] for rep in reps for k in range(d)]
    return reps


def reference_gauss_sum(d, c) -> complex:
    """The per-class Fraction loop that the integer kernel replaced."""
    q = xla.mat_mul(ref.inv(c), d)
    total = 0j
    for x in box_representatives(c):
        ph = Fraction(0)
        for i, xi in enumerate(x):
            for j, xj in enumerate(x):
                ph += q[i][j] * xi * xj
        total += cmath.exp(1j * cmath.pi * float(ph % 2))
    return total


def test_gauss_sum_matches_fraction_reference():
    # seeded Gamma(1,2) words with invertible c, |det c| from 1 past 1000
    for m in (1, 2, 3):
        largest = 0
        for seed in range(40):
            g = random_word_element(m, "Gamma1_2", length=15 * (1 + seed % 4),
                                    seed=seed)[0]
            det = abs(int(xla.det(g.c)))
            if not 0 < det <= 20000:
                continue
            largest = max(largest, det)
            got = symplectic_gauss_sum(g.d, g.c)
            want = reference_gauss_sum(g.d, g.c)
            assert abs(got - want) <= 1e-12 * abs(want)
            assert snap_mu8(got / det ** 0.5).value == \
                snap_mu8(want / det ** 0.5).value
        assert largest >= 1000


def test_gauss_sum_at_the_class_guard():
    # 10**6 classes is the largest allowed: G(1, 1000)^2 = (sqrt(1000) e^{i pi/4})^2
    one = [[1, 0], [0, 1]]
    got = symplectic_gauss_sum(one, [[1000, 0], [0, 1000]])
    assert abs(got - 1000j) < 1e-9
    with pytest.raises(ValueError, match="residue system too large"):
        symplectic_gauss_sum(one, [[1000, 0], [0, 1002]])


@pytest.mark.parametrize("d, c", [
    ([[1]], [[3]]),                              # odd diagonal of c d^T
    ([[1, 0], [1, 1]], [[2, 0], [0, 2]]),        # c d^T not symmetric
    ([[1, 0], [0, 1]], [[2]]),                   # sizes differ
    ([[1]], [[0]]),                              # c singular
])
def test_gauss_sum_rejects_ill_defined_blocks(d, c):
    with pytest.raises(ValueError):
        symplectic_gauss_sum(d, c)


def test_snap_rejects_generic_values():
    with pytest.raises(ArithmeticError):
        snap_mu8(0.9 + 0.1j)
    root = snap_mu8(cmath.exp(1j * cmath.pi / 4) * (1 + 1e-13))
    assert root.value == Mu8(1) and root.residual < 1e-9


def test_beta_degenerate_anchors():
    # c singular: identity-like elements through the lattice-quotient path
    for m in (1, 2):
        assert beta_tilde(IntegerSymplectic.identity(m)).value == Mu8(0)
        assert beta_tilde(make_generator("omega_S", m, S={1})).value == Mu8(0)
        u2 = make_generator("u_ij", m, i=1, j=1, t=2)
        assert beta_tilde(u2).value == Mu8(0)
    off = make_generator("u_minus_ij", 2, i=1, j=2, t=4)   # even off-diagonal
    assert beta_tilde(off).value == Mu8(0)
    minus = make_generator("h", 2, a=[[-1, 0], [0, -1]])
    assert beta_tilde(minus).value == Mu8(0)


def reference_beta_quotient_sum(g) -> tuple[complex, int]:
    """(value, index) of the per-class Fraction quotient sum for beta_tilde,
    which beta_tilde reduces to one Gauss sum G(d', W).

    Sum over [L cap (X*+Y*)] / [(X* cap L) + (Y* cap L)], Y* = X* g with
    rows (c | d): each class l splits as x_l + x*_l along the standard
    frame, giving the parity sign, and as x* + y* along X* + Y*, giving the
    solved phase.
    """
    m = g.m
    c_rows, d_rows = g.c, g.d
    xstar = ref.x_star(m)
    ystar = [list(c_rows[i]) + list(d_rows[i]) for i in range(m)]
    numerator = ref.saturation(xstar + ystar)
    h, _ = xla.hnf_with_transform(xstar + ref.saturation(ystar))
    denominator = [row for row in h if any(row)]
    coords = ref.lattice_coordinates(numerator, denominator)
    index = abs(int(ref.det(coords)))
    total = 0j
    for xi in box_representatives(coords):
        l = [sum(xi[k] * numerator[k][j] for k in range(len(xi)))
             for j in range(2 * m)]
        lx, lxs = l[:m], l[m:]
        parity = sum(a * b for a, b in zip(lx, lxs)) % 2
        t = ref.solve_left(c_rows, lx)
        assert t is not None, "class outside the x-image of the second row space"
        s = [Fraction(lxs[j]) - sum(t[k] * d_rows[k][j] for k in range(m))
             for j in range(m)]
        ph = sum((sj * xj for sj, xj in zip(s, lx)), Fraction(0))
        total += (-1) ** parity * cmath.exp(1j * cmath.pi * float(ph % 2))
    return index ** -0.5 * total, index


def test_beta_singular_c_matches_quotient_reference():
    # seeded Gamma(1,2) words with singular c; every rank 0 < j < m at
    # m = 2, 3 must occur with a quotient of index > 1
    seen = set()
    for m in (1, 2, 3):
        for seed in range(150):
            g = random_word_element(m, "Gamma1_2", length=20 + seed % 20,
                                    seed=seed)[0]
            j = ref.rank(g.c)
            if j == m:
                continue
            want, index = reference_beta_quotient_sum(g)
            got = beta_tilde(g)
            assert got.value == snap_mu8(want).value
            assert abs(got.raw - want) < 1e-12
            if index > 1:
                seen.add((m, j))
    assert {(2, 1), (3, 1), (3, 2)} <= seen


def test_one_class_quotients_are_exactly_one():
    # with one residue class, x = 0, the sum is e^0 = 1 + 0j exactly, and
    # beta_tilde's raw value is exactly 1 with residual 0
    for d, c in [([[0]], [[1]]), ([[0]], [[-1]]), ([[4]], [[1]]),
                 ([[2, 1], [1, 0]], [[1, 0], [0, 1]]),
                 ([[0, 0], [0, 0]], [[1, 1], [0, 1]])]:
        got = symplectic_gauss_sum(d, c)
        assert repr(got) == "(1+0j)" and got == reference_gauss_sum(d, c)
    seen = set()
    for m in (1, 2, 3):
        for s in ([1], list(range(1, m + 1))):
            got = beta_tilde(make_generator("omega_S", m, S=s))
            assert got.raw == 1 + 0j and got.residual == 0.0
        for seed in range(150):
            g = gword(m, seed, length=4 + seed % 20)
            j = ref.rank(g.c)
            if j == m:
                index = abs(ref.det(g.c))
            else:
                index = reference_beta_quotient_sum(g)[1] if j else 1
            if index != 1:
                continue
            if j == m:
                got = symplectic_gauss_sum(g.d, g.c)
                assert repr(got) == "(1+0j)"
                assert got == reference_gauss_sum(g.d, g.c)
            beta = beta_tilde(g)
            assert beta.raw == 1 + 0j and beta.residual == 0.0
            seen.add((m, 0 < j < m, j == m))
    assert {(1, False, True), (2, False, True), (3, False, True),
            (3, True, False)} <= seen


def test_beta_rejects_outside_subgroup():
    u1 = make_generator("u_ij", 1, i=1, j=1, t=1)
    with pytest.raises(ValueError):
        beta_tilde(u1)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_trivialization_identity(seed):
    # beta(r1) beta(r2) c~(r1, r2) = beta(r1 r2), exact after snapping
    m = 1 + seed % 2
    r1, r2 = gword(m, seed), gword(m, seed + 1)
    lhs = beta_tilde(r1).value * beta_tilde(r2).value * rao_cocycle(r1, r2)
    assert lhs == beta_tilde(r1 @ r2).value


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_multiplier_is_a_character(seed):
    # lambda(r1 r2) = lambda(r1) lambda(r2) cbar(r1, r2)
    m = 1 + seed % 2
    r1, r2 = gword(m, seed), gword(m, seed + 1)
    from thetacover import cbar_cocycle
    sign = Mu8(0) if cbar_cocycle(r1, r2) == 1 else Mu8(4)
    assert lambda_multiplier(r1 @ r2) == \
        lambda_multiplier(r1) * lambda_multiplier(r2) * sign


def test_lambda_bar_respects_the_sign():
    r = gword(2, 3)
    plus = lambda_bar(CoverElement(r, 1))
    minus = lambda_bar(CoverElement(r, -1))
    assert minus == plus * Mu8(4)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_coset_split_factors(seed):
    m = 1 + seed % 2
    g = random_word_element(m, "Sp", length=6, seed=seed)[0]
    r, rec = coset_split(g)
    assert subgroup_membership(r, "Gamma1_2")
    assert r @ rec.M == g


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_shifted_cocycle_trivial_on_subgroup_left(seed):
    m = 1 + seed % 2
    r = gword(m, seed)
    g = random_word_element(m, "Sp", length=6, seed=seed + 1)[0]
    assert modified_cocycle(r, g) == Mu8(0)


def test_shift_extends_trivializing_phase():
    r = gword(2, 9)
    assert f_shift(r) == beta_tilde(r).value
