"""Lattice sums, branch bookkeeping, automorphy factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacover import (CapacityError, CoverElement, IntegerSymplectic,
                        SiegelPoint, ThetaParams, big_theta, coset_table,
                        det_invsqrt, epsilon_factor, gamma_pair, j_half,
                        j_half_bar, j_matrix, j_three_half, make_generator,
                        mobius_act, random_word_element, sqrt_det,
                        theta_component, theta_series, truncation_radius)
from thetacover import exactla as xla
from thetacover.cocycle import cbar_cocycle, rao_cocycle
from thetacover.harness import sample_point

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def word(m, seed, length=6):
    return random_word_element(m, "Sp", length=length, seed=seed)[0]


# sqrt_det off the base point, where the branch of the rank-j minor root
# is not trivial: (g rows, X, Y, value) with c-rank j = 1..m for m = 1, 2, 3
# and four j = 0 elements.  The values were recorded from the earlier
# implementation, which continued the minor root along a segment by
# bisection; the closed form must reproduce them.
PINNED_SQRT_DET = [
    ([[-1, -1], [2, 1]], [[0.172]], [[0.427]],
     1.2116874745297885 + 0.35240110092390176j),
    ([[-1, -1, 0, 0], [0, 0, -1, 1], [0, 0, -1, 0], [0, -1, 1, -1]],
     [[-0.493, 0.34], [0.34, -0.27]], [[0.254, -0.089], [-0.089, 0.302]],
     0.8717805147058271 + 0.17320873482811583j),
    ([[0, 0, 0, -1], [0, 0, 1, -1], [1, 1, -3, -2], [-1, 0, 2, 1]],
     [[-0.349, -0.351], [-0.351, -0.444]], [[1.008, 0.316], [0.316, 1.093]],
     -1.3754982241671336 + 1.1520105749023912j),
    ([[-1, 0, 0, 1, 0, 0], [-1, -1, 1, 1, 0, 0], [1, 1, -2, -1, 0, 0],
      [0, 0, 0, -1, 1, 0], [0, 0, 1, 0, -2, -1], [0, 0, 1, 0, -1, -1]],
     [[-1.851, -0.242, -0.345], [-0.242, -0.565, 0.315],
      [-0.345, 0.315, -0.651]],
     [[1.867, 1.228, -0.946], [1.228, 1.645, -1.332],
      [-0.946, -1.332, 1.607]],
     0.5713860233733457 + 1.4062297065936291j),
    ([[-1, 0, -1, 0, 0, 0], [0, -1, 1, 0, 0, 0], [0, 0, -1, 0, 0, 0],
      [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, -1, 0], [1, 0, -1, 1, -1, -1]],
     [[-1.352, -0.495, 0.058], [-0.495, -0.19, -0.04],
      [0.058, -0.04, -1.043]],
     [[0.921, 0.199, 0.009], [0.199, 0.836, -0.231],
      [0.009, -0.231, 0.888]],
     -0.9668053292887272 + 1.108921793789393j),
    ([[0, 0, 0, -1, 0, 0], [0, 0, -1, 0, 0, 0], [0, -1, 0, 1, 1, 0],
      [1, -1, 0, 1, 0, 0], [0, 1, -1, -1, -1, -1], [0, 0, 1, -1, -1, 0]],
     [[-0.351, -0.567, 0.392], [-0.567, 0.466, -0.544],
      [0.392, -0.544, 1.249]],
     [[4.787, -1.155, -1.151], [-1.155, 1.101, -0.251],
      [-1.151, -0.251, 0.838]],
     -5.231722648804475 + 4.185327301420247j),
    ([[1, 0, 2, 1], [0, 1, 1, -1], [0, 0, 1, 0], [0, 0, 0, 1]],
     [[0.3, -0.1], [-0.1, 0.2]], [[1.2, 0.4], [0.4, 0.7]], 1 + 0j),
    ([[-1, 0, 0, -1], [0, 1, 1, 2], [0, 0, -1, 0], [0, 0, 0, 1]],
     [[0.3, -0.1], [-0.1, 0.2]], [[1.2, 0.4], [0.4, 0.7]],
     -1.8369701987210297e-16 - 1j),
    ([[0, 1, 1, 2], [1, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0]],
     [[0.3, -0.1], [-0.1, 0.2]], [[1.2, 0.4], [0.4, 0.7]],
     -1.8369701987210297e-16 - 1j),
    ([[2, 1, 1, 4], [1, 1, 1, 3], [0, 0, 1, -1], [0, 0, -1, 2]],
     [[0.3, -0.1], [-0.1, 0.2]], [[1.2, 0.4], [0.4, 0.7]], 1 + 0j),
]


def test_sqrt_det_pinned_at_generic_points():
    ranks = []
    for rows, X, Y, want in PINNED_SQRT_DET:
        g = IntegerSymplectic(rows)
        ranks.append((g.m, xla.rank(g.c)))
        assert abs(sqrt_det(g, SiegelPoint(X, Y)) - want) < 1e-13
    assert set(ranks) == {(1, 1), (2, 0), (2, 1), (2, 2),
                          (3, 1), (3, 2), (3, 3)}


def test_truncation_radius_certifies_tail():
    params = ThetaParams(tail_tol=1e-12)
    for y in ([[1.0]], [[0.3]], [[2.0, 0.3], [0.3, 0.5]]):
        Y = np.array(y)
        r = truncation_radius(Y, params)
        z = SiegelPoint(np.zeros_like(Y), Y)
        big = theta_series(z, "half", ThetaParams(tail_tol=1e-15))
        small = theta_series(z, "half", params)
        assert abs(big - small) < 1e-11


def test_truncation_capacity_guard():
    with pytest.raises(CapacityError):
        truncation_radius(np.array([[1e-6]]), ThetaParams())
    with pytest.raises(ValueError):
        truncation_radius(np.array([[-1.0]]), ThetaParams())
    with pytest.raises(ValueError):
        ThetaParams(tail_tol=0.0)


def test_det_invsqrt_validation():
    with pytest.raises(ValueError):
        det_invsqrt([[1.0, 0.0]])
    with pytest.raises(ValueError):
        det_invsqrt([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        det_invsqrt([[-1.0]])
    # multiplicative on commuting positive pieces
    a = det_invsqrt(np.diag([2.0, 3.0]))
    assert abs(a - 6 ** -0.5) < 1e-12


def test_periodicity_in_even_integer_shifts():
    z = SiegelPoint([[0.2]], [[0.9]])
    u2 = make_generator("u_ij", 1, i=1, j=1, t=2)
    w = mobius_act(u2, z)
    assert abs(theta_series(w, "half") - theta_series(z, "half")) < 1e-11


def test_component_zero_label_is_plain_sum():
    for m in (1, 2):
        z = SiegelPoint.z0(m)
        rec = coset_table(m)[0]
        assert rec.q == (0,) * (2 * m)
        comp = theta_component(rec, 1, z, "half")
        assert abs(comp.value - theta_series(z, "half")) < 1e-12


def test_component_lift_sign():
    z = SiegelPoint.z0(2)
    rec = coset_table(2)[3]
    plus = theta_component(rec, 1, z, "half").value
    minus = theta_component(rec, -1, z, "half").value
    assert abs(plus) > 0.1
    assert abs(plus + minus) < 1e-12


def test_moment_sums_vanish_identically():
    # the odd moment cancels under n -> -n - shift on every label
    pts = [SiegelPoint([[0.3]], [[0.8]]),
           SiegelPoint([[0.1, -0.2], [-0.2, 0.4]],
                       [[1.1, 0.3], [0.3, 0.9]])]
    for z in pts:
        assert np.max(np.abs(theta_series(z, "three_half"))) < 1e-10
        for comp in big_theta(z, "three_half"):
            assert np.max(np.abs(comp.value)) < 1e-10


def test_big_theta_order_and_length():
    vals = big_theta(SiegelPoint.z0(2), "half")
    assert len(vals) == 10
    assert [v.q for v in vals] == [rec.q for rec in coset_table(2)]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_sqrt_det_squares_to_determinant(seed):
    m = 1 + seed % 2
    g = word(m, seed)
    z = sample_point(m, np.random.default_rng(seed))
    val = sqrt_det(g, z)
    want = complex(np.linalg.det(j_matrix(g, z)))
    assert abs(val * val - want) < 1e-9 * max(1.0, abs(want))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_sqrt_det_chain_defect_is_the_sign_cocycle(seed):
    m = 1 + seed % 2
    g1, g2 = word(m, seed), word(m, seed + 1)
    z = sample_point(m, np.random.default_rng(seed))
    ratio = sqrt_det(g1 @ g2, z) / (sqrt_det(g1, mobius_act(g2, z)) * sqrt_det(g2, z))
    assert abs(ratio - cbar_cocycle(g1, g2)) < 1e-9


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_half_factor_chain_defect_is_the_full_cocycle(seed):
    m = 1 + seed % 2
    g1, g2 = word(m, seed), word(m, seed + 1)
    z = sample_point(m, np.random.default_rng(seed))
    ratio = j_half(g1 @ g2, z) / (j_half(g1, mobius_act(g2, z)) * j_half(g2, z))
    assert abs(ratio - rao_cocycle(g1, g2).value) < 1e-9


def test_half_factor_on_positive_parabolic():
    # block upper triangular with positive a: value |det a|^{-1/2}, both paths
    p_int = make_generator("u", 2, b=[[2, 1], [1, 0]])
    z = SiegelPoint.z0(2)
    assert abs(j_half(p_int, z) - 1.0) < 1e-12
    p_real = np.array([[2.0, 0, 0, 0], [0, 0.5, 0, 0],
                       [0, 0, 0.5, 0], [0, 0, 0, 2.0]])
    assert abs(j_half(p_real, z) - 1.0) < 1e-12


def test_half_factor_cover_and_three_half():
    g = word(2, 11)
    z = sample_point(2, np.random.default_rng(11))
    plus = j_half_bar(CoverElement(g, 1), z)
    minus = j_half_bar(CoverElement(g, -1), z)
    assert abs(plus + minus) < 1e-12 * max(1.0, abs(plus))
    jv = j_three_half(g, z)
    assert np.max(np.abs(jv - j_half(g, z) * j_matrix(g, z))) < 1e-12


def test_kernel_ratio_is_unimodular():
    g = word(1, 4).to_float()
    z1 = SiegelPoint([[0.1]], [[1.3]])
    z2 = SiegelPoint([[-0.4]], [[0.7]])
    assert abs(abs(epsilon_factor(g, z1, z2)) - 1) < 1e-10
    assert abs(gamma_pair(z1, z1) - 1) < 1e-12


def test_base_point_determinant_identity():
    # det(ci+d) det(-ci+d) det(Im g(i)) = 1
    for m in (1, 2):
        z0 = SiegelPoint.z0(m)
        for seed in range(5):
            g = word(m, 100 + seed)
            jm = j_matrix(g, z0)
            y = mobius_act(g, z0).Y
            val = np.linalg.det(jm) * np.linalg.det(np.conj(jm)) * np.linalg.det(y)
            assert abs(val - 1) < 1e-9
