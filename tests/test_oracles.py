"""Anchored constants, hand-computed and frozen before the implementation.

Every value below was derived independently (classical theta constants,
one-variable Gauss sums, direct residue enumeration) and must be
reproduced exactly or to machine precision.  Nothing in this file uses
randomness.
"""

import cmath

from thetacover import (IntegerSymplectic, SiegelPoint, Mu8, beta_tilde,
                        coset_table, det_invsqrt, gamma_pair, j_half,
                        lambda_multiplier, m_xstar, make_generator,
                        modified_cocycle, rao_cocycle, sqrt_det,
                        symplectic_gauss_sum, theta_component, theta_series)

TOL = 5e-13

Z0 = SiegelPoint.z0(1)
OMEGA = make_generator("omega", 1)


def test_plain_theta_at_i():
    # sum e^{-pi n^2} over Z
    assert abs(theta_series(Z0, "half") - 1.0864348112133082) < TOL


def test_alternating_theta_at_i():
    # sum (-1)^n e^{-pi n^2}; the (0,1)-label component at z = i
    rec = [r for r in coset_table(1) if r.q == (0, 1)][0]
    val = theta_component(rec, Z0, "half").value
    assert abs(val - 0.9135791381561169) < TOL


def test_shifted_equals_alternating_at_i():
    # sum e^{-pi (n+1/2)^2} coincides with the alternating sum at z = i
    rec = [r for r in coset_table(1) if r.q == (1, 0)][0]
    val = theta_component(rec, Z0, "half").value
    assert abs(val - 0.9135791381561169) < TOL


def test_pair_kernel_value():
    assert abs(gamma_pair(SiegelPoint([[0]], [[4]]), Z0) - 2 / 5 ** 0.5) < TOL
    z1 = SiegelPoint([[0.1]], [[1.3]])
    assert abs(gamma_pair(z1, z1) - 1) < TOL


def test_inverse_sqrt_det_branch():
    want = 2 ** -0.25 * cmath.exp(1j * cmath.pi / 8)
    assert abs(det_invsqrt([[1 - 1j]]) - want) < TOL


def test_rank_one_gauss_sum():
    want = 2 * cmath.exp(-1j * cmath.pi / 4)
    assert abs(symplectic_gauss_sum([[1]], [[-4]]) - want) < TOL


def test_beta_anchor_values():
    um4 = make_generator("u_minus_ij", 1, i=1, j=1, t=4)
    root = beta_tilde(um4)
    assert root.value == Mu8(1)
    assert root.residual < 1e-9
    g = IntegerSymplectic(((-3, 4), (-4, 5)))
    root = beta_tilde(g)
    assert root.value == Mu8(5)
    assert root.residual < 1e-9


def test_multiplier_anchor_values():
    assert lambda_multiplier(OMEGA) == Mu8(7)
    u2 = make_generator("u_ij", 1, i=1, j=1, t=2)
    assert lambda_multiplier(u2) == Mu8(0)
    um2 = make_generator("u_minus_ij", 1, i=1, j=1, t=2)
    assert lambda_multiplier(um2) == Mu8(0)


def test_cocycle_anchor_value():
    u1 = make_generator("u_ij", 1, i=1, j=1, t=1)
    assert rao_cocycle(OMEGA @ u1, OMEGA) == Mu8(1)


def test_rank_two_block_cocycle_chain():
    # at m = 2: c(u1 u2, w)^{-1} = c(u2, w)^{-1} = m(u2) = m(u1 u2) = e^{-i pi/4}
    u1 = make_generator("u", 2, b=[[-1, 0], [0, -1]])
    u2 = make_generator("u_minus", 2, c=[[1, 1], [1, 1]])
    om2 = make_generator("omega", 2)
    assert rao_cocycle(u1 @ u2, om2).inv() == Mu8(7)
    assert rao_cocycle(u2, om2).inv() == Mu8(7)
    assert m_xstar(u2) == Mu8(7)
    assert m_xstar(u1 @ u2) == Mu8(7)


def test_sqrt_det_anchor_at_base_point():
    assert abs(sqrt_det(OMEGA, Z0) - cmath.exp(1j * cmath.pi / 4)) < TOL


def test_half_weight_factor_unity_at_base_point():
    for m in (1, 2, 3):
        om = make_generator("omega", m)
        assert abs(j_half(om, SiegelPoint.z0(m)) - 1) < TOL


def test_negative_lift_representative_branch():
    # the one m=2 representative whose plus-lift chain carries sign -1
    recs = [r for r in coset_table(2) if r.kappa == -1]
    assert [r.q for r in recs] == [(1, 1, 0, 0)]
    val = sqrt_det(recs[0].M, SiegelPoint.z0(2))
    assert abs(val - (-1 + 1j)) < TOL


def test_minus_one_witness():
    u1 = make_generator("iota", 2, i=1, g=((1, 1), (0, 1)))
    um4 = make_generator("iota", 2, i=1, g=((1, 0), (-4, 1)))
    assert modified_cocycle(u1, um4) == Mu8(4)
