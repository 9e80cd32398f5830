"""Lattice sums, branch bookkeeping, automorphy factors."""

import cmath
import dataclasses
import itertools
import math
import random
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference as ref
from thetacover import (CapacityError, CoverElement, IntegerSymplectic,
                        SiegelPoint, ThetaParams, big_theta, coset_table,
                        det_invsqrt, gamma_pair, j_half, j_half_bar, j_matrix,
                        make_generator, mobius_act, pws_decompose,
                        random_word_element, sqrt_det, theta_component,
                        theta_series, theta_vector, truncation_radius)
from thetacover import exactla as xla
from thetacover import harness, symplectic, theta
from thetacover.cocycle import _rank_normal_form, cbar_cocycle, rao_cocycle
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


def reference_half_factor(fac, z) -> complex:
    """m_{X*}(g) sqrt_det(g, z) from the factorization g = p1 omega p2.

    The construction that the rank normal form replaced: |det a(p1)
    det a(p2)|^{-1/2} / det^{-1/2}(-i T), T the rank-j minor of p2(z)
    (1 when j = 0).
    """
    m = len(fac.p1) // 2
    det1 = xla.det([row[:m] for row in fac.p1[:m]])
    det2 = xla.det([row[:m] for row in fac.p2[:m]])
    scale = float(abs(det1 * det2)) ** -0.5
    if fac.j == 0:
        return complex(scale)
    p2f = np.array([[float(x) for x in row] for row in fac.p2])
    idx = tuple(range(fac.j))
    t = mobius_act(p2f, z).z[np.ix_(idx, idx)]
    return scale / det_invsqrt(-1j * t)


def mixed_rank_words(m, count):
    """Seeded w1 omega_S w2 with |S| = seed mod (m + 1), w1, w2 short words."""
    for seed in range(count):
        s = random.Random(seed).sample(range(1, m + 1), seed % (m + 1))
        w1, w2 = (word(m, 2 * seed + k, length=1 + (seed + k) % 5)
                  for k in (0, 1))
        yield w1 @ make_generator("omega_S", m, S=s) @ w2


def test_sqrt_det_matches_factorization_reference():
    # every rank j = 0..m at m = 1..4; measured maximum 2.6e-15
    worst, ranks = 0.0, set()
    for m in (1, 2, 3, 4):
        rng = np.random.default_rng(m)
        for g in mixed_rank_words(m, 40):
            z = sample_point(m, rng)
            fac = pws_decompose(g)
            half = reference_half_factor(fac, z)
            sd_ref = fac.m_xstar.inv().value * half
            ranks.add((m, ref.rank(g.c)))
            for got, want in ((j_half(g, z), half), (sqrt_det(g, z), sd_ref)):
                worst = max(worst, abs(got - want) / abs(want))
    assert ranks == {(m, j) for m in (1, 2, 3, 4) for j in range(m + 1)}
    assert worst < 1e-13


def test_sqrt_det_rejects_dimension_mismatch():
    # and so do the cofactor and the action: genus-2 elements at a genus-1
    # point, and a genus-1 element at a genus-2 point
    for g, m in ((make_generator("u_ij", 2, i=1, j=1, t=2), 1),
                 (make_generator("omega", 2), 1),
                 (make_generator("omega", 1), 2)):
        for fn in (sqrt_det, j_half, j_matrix, mobius_act):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fn(g, SiegelPoint.z0(m))


def test_gamma_pair_rejects_dimension_mismatch():
    # at genus 1 against 2 numpy would broadcast the 1 x 1 block silently
    for m1, m2 in ((1, 2), (2, 1), (2, 3), (3, 2)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gamma_pair(SiegelPoint.z0(m1), SiegelPoint.z0(m2))
    assert abs(gamma_pair(SiegelPoint.z0(2), SiegelPoint.z0(2)) - 1) < 1e-14


def test_sqrt_det_pinned_at_generic_points():
    ranks = []
    for rows, X, Y, want in PINNED_SQRT_DET:
        g = IntegerSymplectic(rows)
        ranks.append((g.m, ref.rank(g.c)))
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
    for tol in (0.0, -1e-12, 1.0, 2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tail_tol must lie in"):
            ThetaParams(tail_tol=tol)


def test_tail_tol_that_is_not_a_number_is_refused():
    # a ValueError like every other entry check, not the comparison's TypeError
    for tol in ("0.5", None, [0.5], 0.5j, b"0.5"):
        with pytest.raises(ValueError, match=r"tail_tol must lie in \(0, 1\), got"):
            ThetaParams(tail_tol=tol)
    assert ThetaParams(tail_tol=np.float64(0.5)).tail_tol == 0.5


def test_truncation_radius_at_subnormal_tail_tol():
    # -log(tol), not log(1 / tol), which overflows below about 5.6e-309;
    # the lattice sums then run with their floor at _LOG_TINY
    Y = np.array([[1.0]])
    for tol in (1e-320, 5e-324):
        params = ThetaParams(tail_tol=tol)
        assert truncation_radius(Y, params) == 18
        z = SiegelPoint([[0.0]], Y)
        want = theta_series(z, "half")
        assert abs(theta_series(z, "half", params) - want) < 1e-15
        assert abs(theta_vector(z, params)[0][0] - want) < 1e-15


def test_truncation_radius_past_float_range():
    # a lambda_min below about 5e-308 makes the root inf, on which ceil
    # raises OverflowError; the refusal is a CapacityError with a short message
    for y, needed in ((1e-308, math.inf), (3e-308, math.inf),
                      (1e-310, math.inf), (5e-324, math.inf),
                      (1e-300, 2.965674828188878e150)):
        with pytest.raises(CapacityError) as err:
            truncation_radius(np.array([[y]]), ThetaParams())
        assert err.value.cap == 64
        assert err.value.needed == pytest.approx(needed)
        assert len(str(err.value)) < 50, str(err.value)
        # a point there is refused by its radius before its crop forms
        # 1 / lambda_min, which overflows: no numpy warning on the way
        z = SiegelPoint([[0.0]], [[y]])
        for size in (theta._crop, theta_vector):
            with pytest.raises(CapacityError, match="^truncation radius"):
                size(z, ThetaParams())
        assert not harness._workable(z, z, ThetaParams())
    # on both sides of the cap the rule is R = ceil(root) + 2
    tol = ThetaParams().tail_tol
    for radius in (60, 63, 64, 65, 66, 100):
        for step in (-0.5, -1e-9, 0.0):
            root = radius - 2 + step
            lam = -math.log(tol) / (math.pi * root * root)
            want = math.ceil(math.sqrt(-math.log(tol) / (math.pi * lam))) + 2
            if want <= 64:
                assert truncation_radius(np.array([[lam]]), ThetaParams()) == want
            else:
                with pytest.raises(CapacityError) as err:
                    truncation_radius(np.array([[lam]]), ThetaParams())
                assert err.value.needed == want
                assert str(err.value) == f"truncation radius {want} exceeds cap 64"


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


INF, NAN = float("inf"), float("nan")
EPS = np.finfo(float).eps


@pytest.mark.parametrize("m", [1, 2, 3])
def test_det_invsqrt_refusals_are_named_without_a_warning(m):
    # m <= 2 takes the closed form, m = 3 numpy.linalg; numpy raised
    # LinAlgError on nan and warned on inf - inf before
    one = np.eye(m, dtype=complex)
    cases = []
    for bad in (NAN, INF, -INF, complex(0, INF), complex(NAN, 1)):
        s = one.copy()
        s[-1, 0] = bad
        cases.append((s, "S must be finite"))
    cases += [(-one, "Re S must be positive definite"),       # negative definite
              (np.diag([0.0] + [1.0] * (m - 1)) + 1j * one,  # singular
               "Re S must be positive definite")]
    if m > 1:
        s = one.copy()
        s[0, 1] = 0.5
        cases += [(s, "S must be symmetric"),
                  (np.diag([-1.0] + [2.0] * (m - 1)) + 1j * one,  # indefinite
                   "Re S must be positive definite")]
    for s, error in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{error}$"):
                det_invsqrt(s)


def det_invsqrt_oracle(s) -> tuple:
    """(prod of the principal lam^{-1/2} over numpy.linalg.eigvals, its error
    bound): eigvals is backward stable, so each lam moves by at most a few
    eps kappa(V) ||S||, and lam^{-1/2} by half that relative to |lam|."""
    lam, vec = np.linalg.eig(s)
    value = complex(np.prod(1 / np.sqrt(lam)))
    bound = 4 * EPS * np.linalg.cond(vec) * np.linalg.norm(s, 2) \
        * float(np.sum(1 / abs(lam)))
    return value, bound


def test_det_invsqrt_closed_form_matches_the_eigenvalue_product():
    # 1 / sqrt(det S) at n <= 2: det S = s00 s11 - s01 s10 rounds on terms
    # of size |s00 s11| and |s01 s10|, so its relative error is a few eps
    # (|s00 s11| + |s01 s10|) / |det S|, half of which reaches the root
    rng = np.random.default_rng(17)
    # one or both eigenvalues delta from the imaginary axis, both on one
    # side of the real axis (arguments summing to nearly +-pi) or not,
    # as given and turned by a real rotation q
    q = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    cases = []
    for delta in (1e-9, 1e-6):
        for pair in ((delta + 1j, 1 + 0.5j), (delta + 4j, delta + 3j),
                     (delta - 4j, delta - 3j), (delta + 4j, delta - 3j)):
            cases += [(q @ np.diag(pair) @ q.T, pair), (np.diag(pair), pair)]
    for n in (1, 2):
        for _ in range(300):
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            cases.append((a @ a.T + 0.05 * np.eye(n) + 1.5j * (b + b.T), None))
    for s, pair in cases:
        got = det_invsqrt(s)
        want, oracle_bound = det_invsqrt_oracle(s)
        if len(s) == 1:
            terms = abs(s[0, 0])
        else:
            terms = abs(s[0, 0] * s[1, 1]) + abs(s[0, 1] * s[1, 0])
        closed_bound = 4 * EPS * terms / abs(np.linalg.det(s))
        assert abs(got - want) <= (closed_bound + oracle_bound + 4 * EPS) * abs(want)
        if pair is not None:         # the product of the principal roots
            exact = 1 / (cmath.sqrt(pair[0]) * cmath.sqrt(pair[1]))
            assert abs(got - exact) <= (closed_bound + 4 * EPS) * abs(exact)
    # across the float range, where det S itself would underflow or overflow
    for m in (1, 2):
        for scale in (1e-200, 1e200):
            want = (scale * (2 - 1j)) ** (-m / 2)
            got = det_invsqrt(np.eye(m) * scale * (2 - 1j))
            assert abs(got - want) <= 8 * EPS * abs(want)


def test_periodicity_in_even_integer_shifts():
    z = SiegelPoint([[0.2]], [[0.9]])
    u2 = make_generator("u_ij", 1, i=1, j=1, t=2)
    w = mobius_act(u2, z)
    assert abs(theta_series(w, "half") - theta_series(z, "half")) < 1e-11


def test_direct_sum_forms_z_once(monkeypatch):
    # the point forms X + iY once, when it is built; the sum reads it once,
    # not m^2 times (the point is built before the slot is wrapped)
    reads = []
    z = SiegelPoint(np.zeros((3, 3)), np.eye(3))
    slot = SiegelPoint.z
    monkeypatch.setattr(SiegelPoint, "z",
                        property(lambda p: reads.append(1) or slot.__get__(p)))
    theta_series(z, "three_half")
    assert len(reads) == 1


def direct_sum_cases():
    """(m, z, params): sampled points with radius up to 12 (m < 4) under the
    default tail_tol, and rescaled sampled points at radius 3 and 4 under a
    coarse one, where the box edge carries weight."""
    coarse = ThetaParams(tail_tol=0.5)
    for m in (1, 2, 3, 4):
        rng = np.random.default_rng(40 + m)
        kept = 0
        while m < 4 and kept < 3:
            z = sample_point(m, rng)
            if truncation_radius(z.Y, ThetaParams()) <= 12:
                kept += 1
                yield m, z, ThetaParams()
        for radius in (3, 4):
            yield m, point_at_radius(m, radius, coarse, 40 + radius), coarse


def test_direct_sum_matches_whole_box():
    # the terms the direct sum drops are below 2^-60 of its largest term,
    # and its kept terms have the whole-box sum's phases bit for bit and a
    # pair-summed magnitude, so only they, the magnitude's rounding and the
    # grouping of the sum move the value (worst 1.2e-15 here)
    worst, cases = 0.0, 0
    for m, z, params in direct_sum_cases():
        for rec in coset_table(m):
            for weight in ("half", "three_half"):
                want = ref.box_sum(z, rec.m_q, rec.eps_q, weight, params)
                got = theta_component(rec, z, weight, params).value
                worst = max(worst, float(np.max(np.abs(got - want)))
                            / max(1.0, float(np.max(np.abs(want)))))
                cases += 1
    assert cases == 2 * (3 * 5 + 10 * 5 + 36 * 5 + 136 * 2)
    assert worst <= 2e-15, worst


def test_direct_sum_log_magnitude_is_the_form_and_even():
    # at the zero label, against -pi n Y n^T by einsum over the box, for a Y
    # with both triangles apart by 1e-13; at -n it must agree bit for bit,
    # as the pass's exponent does
    rng = np.random.default_rng(31)
    for m in (1, 2, 3, 4):
        for radius in (2, 5, 9):
            a = np.eye(m) + 0.3 * rng.uniform(-1, 1, (m, m))
            Y = a @ a.T + 1e-13 * np.triu(rng.uniform(-1, 1, (m, m)), 1)
            n = np.arange(-radius, radius + 1)
            got = theta._box_log_magnitude(
                Y, [n.reshape((-1,) + (1,) * (m - 1 - k)) for k in range(m)])
            v = np.stack(np.meshgrid(*[n] * m, indexing="ij"), axis=-1)
            want = -math.pi * np.einsum("...k,kl,...l->...", v, Y, v)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            assert np.array_equal(got[(slice(None, None, -1),) * m], got)


# Law-free identities: checks that read no transformation law, only the
# sums' definitions.  Jacobi's quartic at genus 1, and at block-diagonal z
# the factorization of every component into lower-genus ones; Riemann's
# theta formula is not among them.

def block_diagonal(z1, z2):
    """diag(z1, z2) as one point."""
    k, m = z1.m, z1.m + z2.m
    X, Y = np.zeros((m, m)), np.zeros((m, m))
    X[:k, :k], X[k:, k:] = z1.X, z2.X
    Y[:k, :k], Y[k:, k:] = z1.Y, z2.Y
    return SiegelPoint(X, Y)


def characteristic(rec):
    """(|eps_q| mod 2, |m_q| mod 2): theta[-a, b] = (-1)^{a . b} theta[a, b],
    so on an even characteristic the sign of a shift does not matter."""
    return (tuple(abs(e) % 2 for e in rec.eps_q),
            tuple(abs(x) % 2 for x in rec.m_q))


def vector_half(z):
    return theta_vector(z)[0]


def component_half(z):
    return [theta_component(rec, z, "half").value for rec in coset_table(z.m)]


def identity_bound(z, power):
    """128 ulp of S^power, S = sum of |terms| at z = theta_series(iY).

    S bounds every component at z: a half shift only lowers the plain sum
    at iY (by Poisson summation, whose coefficients are positive).  A
    component is its sum to within 8 ulp of S, so a product or a fourth
    power of such values is within power * 8 ulp of S^power, and the
    identities add three of them plus the rounding of their arithmetic.
    """
    s = theta_series(SiegelPoint(np.zeros_like(z.Y), z.Y), "half").real
    bound = 2.0 ** -46 * s ** power
    assert bound <= 1e-13, bound
    return bound


GENUS_ONE = (SiegelPoint([[0.31]], [[0.83]]), SiegelPoint([[-0.17]], [[1.07]]))
GENUS_TWO = SiegelPoint([[0.2, -0.35], [-0.35, 0.1]], [[0.9, 0.25], [0.25, 0.7]])


def test_jacobi_quartic_identity():
    # theta00^4 = theta01^4 + theta10^4, the labels (eps_q, m_q) = (0, 0),
    # (0, 1) and (1, 0) of coset_table(1)
    assert {(rec.eps_q, rec.m_q) for rec in coset_table(1)} \
        == {((0,), (0,)), ((0,), (1,)), ((1,), (0,))}
    for z in GENUS_ONE + (SiegelPoint([[0.5]], [[0.6]]), SiegelPoint.z0(1)):
        bound = identity_bound(z, 4)
        for values_of in (vector_half, component_half):
            theta = {(rec.eps_q, rec.m_q): value
                     for rec, value in zip(coset_table(1), values_of(z))}
            t00, t01, t10 = (theta[(e,), (x,)] for e, x in ((0, 0), (0, 1), (1, 0)))
            assert abs(t00 ** 4 - t01 ** 4 - t10 ** 4) <= bound


def test_components_factor_at_block_diagonal_points():
    # at z = diag(z1, z2) the sum over Z^m splits into sums over the two
    # blocks: a label whose pieces are even characteristics is the product
    # of the lower-genus components, and one whose pieces are odd vanishes
    # (its pieces' parities add to that of the label, which is even)
    products = odd = 0
    for z1, z2 in ((GENUS_ONE[0], GENUS_ONE[1]), (GENUS_ONE[0], GENUS_TWO),
                   (GENUS_TWO, GENUS_ONE[1])):
        z, k = block_diagonal(z1, z2), z1.m
        bound = identity_bound(z, 1)
        for values_of in (vector_half, component_half):
            lower = [{characteristic(rec): value for rec, value
                      in zip(coset_table(w.m), values_of(w))} for w in (z1, z2)]
            for rec, value in zip(coset_table(z.m), values_of(z)):
                eps, sign = characteristic(rec)
                pieces = ((eps[:k], sign[:k]), (eps[k:], sign[k:]))
                parities = {sum(a * b for a, b in zip(*p)) % 2 for p in pieces}
                assert len(parities) == 1
                if parities == {0}:
                    want = lower[0][pieces[0]] * lower[1][pieces[1]]
                    products += 1
                else:
                    want = 0
                    odd += 1
                assert abs(value - want) <= bound, (rec.q, value, want)
    assert products == 2 * (9 + 30 + 30) and odd == 2 * (1 + 6 + 6)


def test_component_zero_label_is_plain_sum():
    for m in (1, 2):
        z = SiegelPoint.z0(m)
        rec = coset_table(m)[0]
        assert rec.q == (0,) * (2 * m)
        comp = theta_component(rec, z, "half")
        assert abs(comp.value - theta_series(z, "half")) < 1e-12


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


def point_at_radius(m, radius, params, seed):
    """A sampled point with Y rescaled so that truncation_radius is radius."""
    z = sample_point(m, np.random.default_rng(seed))
    lam = float(np.linalg.eigvalsh(z.Y)[0])
    # midway inside the ceil step that the rule maps to radius
    target = math.log(1 / params.tail_tol) / (math.pi * (radius - 2.5) ** 2)
    w = SiegelPoint(z.X, z.Y * (target / lam))
    assert truncation_radius(w.Y, params) == radius
    return w


def theta_vector_cases():
    """(m, z, params): sampled points with radius up to 12 (m < 4), and
    rescaled sampled points at radius 3..12 (3..5 at m = 4; the rule never
    gives less than 3) under the default tail_tol and at radius 3..6 under a
    coarse one, where the box edge carries weight and the moment sums are
    far from their vanishing limit."""
    for m in (1, 2, 3, 4):
        rng = np.random.default_rng(10 + m)
        kept = 0
        while m < 4 and kept < 3:
            z = sample_point(m, rng)
            if truncation_radius(z.Y, ThetaParams()) <= 12:
                kept += 1
                yield m, z, ThetaParams()
        # the oracle sums (2 R + 1)^m points for each of 2 N components
        for tol, top in ((1e-12, 12 if m < 4 else 5), (0.5, 6)):
            params = ThetaParams(tail_tol=tol)
            for radius in range(3, top + 1):
                yield m, point_at_radius(m, radius, params, radius), params


# pi to the 64-bit mantissa of np.longdouble on x86
PI_EXTENDED = 4 * np.arctan(np.longdouble(1))


def extended_components(z, params):
    """theta_vector's (half, three_half) as direct box sums in np.clongdouble.

    pi and v z v^T are formed in extended precision, and e^{i pi v z v^T}
    once per shift class s: a label with eps_q = -2 s sums the negated box
    of s, where E(-v) = E(v) and (-1)^{m_q . n} is unchanged, so its
    weight-1/2 sum is that of s and its moment sum the negative.
    """
    radius = truncation_radius(z.Y, params)
    ns = np.indices((2 * radius + 1,) * z.m).reshape(z.m, -1).T - radius
    X, Y = z.X.astype(np.longdouble), z.Y.astype(np.longdouble)
    table = coset_table(z.m)
    half = np.empty(len(table), dtype=np.clongdouble)
    three_half = np.empty((len(table), z.m), dtype=np.clongdouble)
    boxes = {}
    for k, rec in enumerate(table):
        shift = max(rec.eps_q, tuple(-e for e in rec.eps_q))
        if shift not in boxes:
            v = ns.astype(np.longdouble) + np.array(shift, dtype=np.longdouble) / 2
            vzv = np.einsum("ni,ij,nj->n", v, X, v) \
                + 1j * np.einsum("ni,ij,nj->n", v, Y, v)
            boxes[shift] = v, np.exp(1j * PI_EXTENDED * vzv)
        v, e = boxes[shift]
        w = (1 - 2 * ((ns @ np.array(rec.m_q)) & 1)) * e
        half[k] = w.sum()
        three_half[k] = (1 if rec.eps_q == shift else -1) * np.einsum("ni,n->i", v, w)
    return half, three_half


def relative_errors(got, want):
    """Per component, max |got - want| over its entries / max(1, max |want|)."""
    got, want = got.reshape(len(got), -1), want.reshape(len(want), -1)
    return np.abs(got - want).max(axis=1) / np.maximum(1, np.abs(want).max(axis=1))


def test_theta_vector_matches_components():
    # against theta_component on every case; on the coarse m = 4 cases,
    # where the box edge carries weight, both the kernel and theta_component
    # also against the sum in extended precision, which measures each alone
    worst = {"component": 0.0, "extended": 0.0, "oracle": 0.0}
    for m, z, params in theta_vector_cases():
        half, three_half = theta_vector(z, params)
        table = coset_table(m)
        assert half.shape == (len(table),)
        assert three_half.shape == (len(table), m)
        oracle = tuple(np.array([theta_component(rec, z, weight, params).value
                                 for rec in table])
                       for weight in ("half", "three_half"))
        for got, want in zip((half, three_half), oracle):
            worst["component"] = max(worst["component"],
                                     float(relative_errors(got, want).max()))
        if m == 4 and params.tail_tol == 0.5:
            extended = extended_components(z, params)
            for key, values in (("extended", (half, three_half)),
                                ("oracle", oracle)):
                for got, want in zip(values, extended):
                    worst[key] = max(worst[key],
                                     float(relative_errors(got, want).max()))
    assert worst["extended"] > 0, "the extended-precision cases did not run"
    assert worst["component"] < 1e-13
    assert worst["extended"] < 1e-13
    assert worst["oracle"] < 1e-13


def test_theta_at_the_fixed_point_is_exact():
    # law-free values at z0 = i 1_m.  z0 is block-diagonal, and at genus 1
    # theta_01(i) = theta_10(i) = 2^(-1/4) theta_00(i) and theta_11(i) = 0
    # (tau -> -1/tau and Jacobi's quartic; Mumford, Tata I, ch. I), so
    # theta_q(z0) / theta_0(z0) = 2^(-k(q)/4), k(q) the label's (01) and
    # (10) axes (eps_k, m_k) mod 2, and 0 on a label with a (11) axis.
    # Every weight-3/2 entry is 0: on its axis the terms of v and -v cancel,
    # unless that axis is (11), and then a second (11) axis (labels have an
    # even number) gives the factor theta_11(i) = 0.
    # Bound: the terms are +-e^{-a}, a = pi |v|^2, summing in absolute value
    # to at most theta_0(z0).  Each a is formed with an error of at most
    # (m^2 + 2) a u, u = 2^-53, and sum a e^{-a} <= m theta_0(z0), so the
    # terms are within ((m^2 + 2) m + 1) u theta_0(z0) together, and
    # summing N = (2R + 1)^m of them adds at most N u theta_0(z0).  The
    # tail past R = 5 is below e^{-25 pi}.  Both theta_q and theta_0 move,
    # so a ratio moves by at most twice that; a moment |v_k| <= R + 1/2.
    u = 2.0 ** -53
    for m in (1, 2, 3, 4):
        z, params = SiegelPoint.z0(m), ThetaParams()
        radius = truncation_radius(z.Y, params)
        bound = 2 * ((2 * radius + 1) ** m + (m * m + 2) * m + 1) * u
        half, three_half = theta_vector(z, params)
        base = half[0].real
        for k, rec in enumerate(coset_table(m)):
            axes = [(rec.q[i] % 2, rec.q[m + i] % 2) for i in range(m)]
            want = 0.0 if (1, 1) in axes else \
                2 ** (-sum(a != b for a, b in axes) / 4)
            comp = [theta_component(rec, z, w, params).value
                    for w in ("half", "three_half")]
            for got in (half[k], comp[0]):
                assert abs(got / base - want) <= bound, (m, rec.q)
            for got in (three_half[k], comp[1]):
                assert np.abs(got).max() <= (radius + 0.5) * bound * base


def test_theta_vector_bit_identical_and_read_by_big_theta():
    # two points built from one X and Y: two passes, not one kept pair
    for m in (1, 2, 3):
        z = sample_point(m, np.random.default_rng(m))
        half, three_half = theta_vector(z)
        again = theta_vector(SiegelPoint(z.X, z.Y))
        assert again[0] is not half
        assert np.array_equal(half, again[0])
        assert np.array_equal(three_half, again[1])
        for weight, values in (("half", half), ("three_half", three_half)):
            comps = big_theta(z, weight)
            assert [c.q for c in comps] == [rec.q for rec in coset_table(m)]
            assert np.array_equal(np.array([c.value for c in comps]), values)


def test_theta_vector_is_kept_read_only():
    z = sample_point(2, np.random.default_rng(5))
    half, three_half = theta_vector(z)
    assert theta_vector(z)[0] is half
    for arr in (half, three_half):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_theta_vector_is_kept_per_params():
    # radius 6 at tail_tol 0.5 and 24 at 1e-12: visibly different sums
    for m in (2, 3):
        z = point_at_radius(m, 6, ThetaParams(tail_tol=0.5), m)
        kept = {tol: theta_vector(z, ThetaParams(tail_tol=tol))
                for tol in (1e-12, 0.5)}
        for tol, (half, three_half) in kept.items():
            fresh = theta_vector(SiegelPoint(z.X, z.Y), ThetaParams(tail_tol=tol))
            assert np.array_equal(half, fresh[0])
            assert np.array_equal(three_half, fresh[1])
        assert np.max(np.abs(kept[1e-12][0] - kept[0.5][0])) > 1e-6


def test_big_theta_at_both_weights_makes_one_pass(monkeypatch):
    passes = []
    real_pass = theta._theta_pass

    def counted(z, params):
        passes.append(params)
        return real_pass(z, params)

    monkeypatch.setattr(theta, "_theta_pass", counted)
    z = sample_point(3, np.random.default_rng(3))
    for weight in ("half", "three_half", "half"):
        big_theta(z, weight)
    theta_vector(z)
    assert passes == [ThetaParams()]
    big_theta(z, "half", ThetaParams(tail_tol=1e-6))
    assert len(passes) == 2


def test_theta_vector_on_flat_and_tall_points():
    # Y = diag(20, 0.05): R = 16 and (Y s)_1 = 10, so a per-axis magnitude
    # factor e^{2 pi n_1 (Y s)_1} would overflow; Y = diag(3000, 1): every
    # term with a half shift in the first coordinate is below e^{-2000} and
    # the oracle's sum is exactly 0
    X = [[0.31, -0.17], [-0.17, 0.23]]
    for Y in ([[20.0, 0.0], [0.0, 0.05]], [[3000.0, 0.0], [0.0, 1.0]]):
        z = SiegelPoint(X, Y)
        half, three_half = theta_vector(z)
        scale = max(1.0, float(np.max(np.abs(half))))
        for k, rec in enumerate(coset_table(2)):
            for weight, got in (("half", half[k]),
                                ("three_half", three_half[k])):
                want = theta_component(rec, z, weight).value
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - want)) < 1e-13 * scale
                if Y[0][0] > 1000 and rec.eps_q[0] % 2:
                    assert np.all(want == 0) and np.all(got == 0)


def test_shift_classes_fold_opposite_shifts():
    # 2, 5, 14, 41 distinct half shifts eps_q at m = 1..4; eps and -eps
    # share a box
    for m, count in ((1, 2), (2, 4), (3, 11), (4, 31)):
        classes = theta._shift_classes(m)
        assert len(classes.shifts) == count
        assert set(classes.of_label) == set(range(count))
        for rec, c, flip in zip(coset_table(m), classes.of_label,
                                classes.flips):
            assert np.array_equal(rec.eps_q, 2 * flip * classes.shifts[c])


def patterns_of(m):
    """{parity pattern: its classes' normalized eps (first odd entry +1)},
    from coset_table(m) alone."""
    found = {}
    for rec in coset_table(m):
        eps = max(rec.eps_q, tuple(-e for e in rec.eps_q))
        found.setdefault(tuple(e % 2 for e in eps), set()).add(eps)
    return found


def test_shift_classes_group_into_parity_patterns():
    # 2, 4, 8, 16, 32 patterns at m = 1..5; a class is its pattern's shift
    # moved by an integer vector t in {0, 1}^m; classes and patterns are
    # contiguous per group, whose patterns share variant count and reach
    for m, count in ((1, 2), (2, 4), (3, 8), (4, 16), (5, 32)):
        classes = theta._shift_classes(m)
        found = patterns_of(m)
        assert len(classes.patterns) == len(found) == count
        assert np.array_equal(
            classes.patterns[classes.pattern_of] - classes.shifts,
            classes.moves)
        assert set(np.unique(classes.moves)) <= {0, 1}
        halves = (2 * classes.patterns).astype(int)
        assert {tuple(row) for row in halves.tolist()} == set(found)
        seen_patterns = seen_classes = 0
        for patterns, members, below in classes.groups:
            assert (patterns.start, members.start) == (seen_patterns, seen_classes)
            variants = (members.stop - members.start) \
                // (patterns.stop - patterns.start)
            for p in range(patterns.start, patterns.stop):
                mine = np.nonzero(classes.pattern_of == p)[0]
                assert len(mine) == variants
                assert len(found[tuple(halves[p].tolist())]) == variants
                assert tuple(classes.moves[mine].max(axis=0)) == below
            seen_patterns, seen_classes = patterns.stop, members.stop
        assert (seen_patterns, seen_classes) == (count, len(classes.shifts))
        assert classes.below == tuple(
            max(group[2][k] for group in classes.groups) for k in range(m))
        if m <= 2:
            assert np.array_equal(classes.shifts, classes.patterns)
        else:
            assert len(classes.shifts) > count


def edge_points(m, count, seed):
    """Near-isotropic flat points, at tail_tol 0.5 R = 4 or 5: the crop is
    the whole box, so it reaches +-R on every axis."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = np.linalg.qr(rng.normal(size=(m, m)))[0]
        Y = q @ np.diag(rng.uniform(0.05, 0.08, m)) @ q.T
        X = rng.uniform(-0.5, 0.5, (m, m))
        yield SiegelPoint((X + X.T) / 2, (Y + Y.T) / 2)


@pytest.mark.parametrize("m", [3, 4])
def test_pattern_pass_matches_components_at_the_box_edge(m):
    # where a pattern's classes differ on a half axis the union box reaches
    # one step past the crop, and on flat points at tail_tol 0.5 the terms
    # there are large: a variant that counted a term outside its own crop,
    # read its weights at n0, or took its own constant with its pattern's
    # tables would be off by far more than rounding
    params = ThetaParams(tail_tol=0.5)
    classes = theta._shift_classes(m)
    differ = [k for k in range(m) if classes.below[k]]
    assert differ
    table = coset_table(m)
    picked = range(len(table)) if m == 3 else range(0, len(table), 3)
    worst, cases = 0.0, 0
    for z in edge_points(m, 3 if m == 3 else 1, 61 + m):
        radius, _, radii, _ = theta._crop(z, params)
        cases += any(radii[k] == radius for k in differ)
        half, three_half = theta_vector(z, params)
        for weight, got in (("half", half), ("three_half", three_half)):
            want = np.array([theta_component(table[k], z, weight, params).value
                             for k in picked])
            worst = max(worst, float(relative_errors(got[list(picked)], want).max()))
    assert cases > 0
    assert worst < 1e-13


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pass_exponentiates_each_union_box_once(monkeypatch, m):
    # the points _exponent sees in one pass: at m >= 3 one union box per
    # pattern, each the bounding box of its classes' crops in v, fewer than
    # one crop per class; below m = 3 one crop per class, as before
    seen = []
    real = theta._exponent

    def counted(*args):
        out = real(*args)
        seen.append(out.size)
        return out

    monkeypatch.setattr(theta, "_exponent", counted)
    params = ThetaParams(tail_tol=0.5)
    z = next(edge_points(m, 1, 5 + m))
    theta_vector(z, params)
    _, _, radii, points = theta._crop(z, params)
    found = patterns_of(m)
    unions = sum(math.prod(2 * r + 1 + (len({e[k] for e in eps}) > 1)
                           for k, r in enumerate(radii))
                 for eps in found.values())
    classes = sum(len(eps) for eps in found.values())
    assert sum(seen) == unions
    if m >= 3:
        assert unions < classes * points
    else:
        assert unions == classes * points


def test_pass_exponents_are_the_class_exponents_bit_for_bit(monkeypatch):
    # each point of each class's crop gets, in its pattern's union box, the
    # exponent that _exponent gives it on the class's own box, bit for bit,
    # and so the same floor decision
    blocks = []
    real = theta._exponent

    def kept(twice, terms, box, out=None):
        result = real(twice, terms, box, out)
        blocks.append((twice, box, result.copy()))
        return result

    monkeypatch.setattr(theta, "_exponent", kept)
    for m in (3, 4):
        blocks.clear()
        params = ThetaParams(tail_tol=0.5)
        z = next(edge_points(m, 1, 17 + m))
        theta_vector(z, params)
        values = {}
        for twice, box, result in blocks:
            for p in range(len(twice)):
                grid = np.meshgrid(*[twice[p, k, b] for k, b in enumerate(box)],
                                   indexing="ij")
                for key, value in zip(zip(*[g.ravel().tolist() for g in grid]),
                                      result[p].ravel().tolist()):
                    assert values.setdefault(key, value) == value
        _, _, radii, _ = theta._crop(z, params)
        for s in theta._shift_classes(m).shifts:
            twice = 2 * (s[None, :, None] + np.arange(-max(radii), max(radii) + 1))
            box = [slice(max(radii) - r, max(radii) + r + 1) for r in radii]
            want = real(twice, theta._axis_terms(z.Y, theta._axial(twice)), box)
            grid = np.meshgrid(*[twice[0, k, b] for k, b in enumerate(box)],
                               indexing="ij")
            for key, value in zip(zip(*[g.ravel().tolist() for g in grid]),
                                  want[0].ravel().tolist()):
                assert values[key] == value


def test_component_value_is_frozen_and_slotted():
    value = big_theta(sample_point(2, np.random.default_rng(3)), "half")[0]
    assert type(value).__slots__ == ("q", "value")
    assert not hasattr(value, "__dict__")
    for name in ("q", "value"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)


# per-axis radii of the boxes the pass helpers are tested on: cubes, and
# the ragged boxes a crop gives
BOXES = {m: [(radius,) * m for radius in (1, 2, 3, 4)]
         + [(1, 4, 2)[:m], (3, 0, 2)[:m]] for m in (1, 2, 3)}


def test_character_sums_match_the_box():
    # against the box sum of e . prod_k t_k(n_k) . prod_k w_{r_k}(n_k),
    # broadcast here term by term, at column sum_k r_k 4^k, on cubes and
    # ragged boxes
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        for radii in BOXES[m]:
            for width in (1, 2, 3):
                sides = [2 * r + 1 for r in radii]
                shape = (width, *sides)
                e = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                tables = [np.exp(2j * math.pi * rng.random((width, side)))
                          for side in sides]
                rows = []
                for r in radii:
                    n = np.arange(-r, r + 1)
                    rows.append((np.ones(2 * r + 1), (-1.0) ** n, n, (-1.0) ** n * n))
                want = np.empty((width, 4 ** m), dtype=complex)
                for column in range(4 ** m):
                    term = e
                    for k in range(m):
                        along = (sides[k] if j == k else 1 for j in range(m))
                        axis = tables[k] * rows[k][column // 4 ** k % 4]
                        term = term * axis.reshape(width, *along)
                    want[:, column] = term.reshape(width, -1).sum(axis=1)
                axes = [table[:, :, None] * np.array(row).T
                        for table, row in zip(tables, rows)]
                got = theta._character_sums(e, axes)
                assert got.shape == want.shape
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def pass_exponent(Y, twice, box, out=None):
    """_exponent on the sub-box box of twice[p, k, j] = 2 v_k, with its
    axis terms formed from Y."""
    terms = theta._axis_terms(Y, theta._axial(twice))
    return theta._exponent(twice, terms, box, out)


def test_exponent_is_the_form_and_even():
    # against -pi v Y v^T by einsum over the box, for every shift class and
    # a Y with both triangles apart; at -v it must agree bit for bit, the
    # evenness that keeps the weight-3/2 sums at rounding level
    # (on cubes and on ragged boxes)
    rng = np.random.default_rng(23)
    for m in (1, 2, 3, 4):
        shifts = theta._shift_classes(m).shifts
        for radii in [(2,) * m, (5,) * m, (1, 4, 2, 3)[:m]]:
            a = np.eye(m) + 0.3 * rng.uniform(-1, 1, (m, m))
            Y = a @ a.T + 0.1 * rng.uniform(-1, 1, (m, m))
            top = max(radii)
            n = np.arange(-top, top + 1)
            twice = 2 * (shifts[:, :, None] + n)
            box = [slice(top - r, top + r + 1) for r in radii]
            got = pass_exponent(Y, twice, box)
            v = np.stack(np.meshgrid(*[n[b] for b in box], indexing="ij"),
                         axis=-1)
            v = v + shifts.reshape((len(shifts),) + (1,) * m + (m,))
            want = -math.pi * np.einsum("...k,kl,...l->...", v, Y, v)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            flipped = pass_exponent(Y, -twice, box)
            # without an output each call makes its own array, so the
            # comparison above cannot read one array twice
            assert not np.shares_memory(flipped, got)
            assert np.array_equal(flipped, got)
            out = np.full(got.shape, np.nan)
            assert pass_exponent(Y, twice, box, out) is out
            assert np.array_equal(out, got)


def reference_phases(X, radius, classes, crop):
    """(tables, cross, consts) of _phases and _cross with one _cis call per
    kind of factor: the halves on n, the diagonal on n^2 and each pair on
    n_k n_l, the last on the steps that crop keeps, in _pairs(m) order."""
    m = len(X)
    hi, lo = theta._split(X)
    pair_hi, pair_lo = hi + hi.T, lo + lo.T
    steps = np.arange(-radius, radius + 1)
    halves = theta._cis(pair_hi[..., None] / 4, pair_lo[..., None] / 4, steps)
    powers = np.stack([np.ones_like(halves), halves])
    axes = np.arange(m)
    tables = theta._cis(np.diag(hi)[:, None] / 2, np.diag(lo)[:, None] / 2,
                        steps * steps) \
        * powers[(2 * classes.patterns).astype(int)[:, None, :], axes[:, None],
                 axes].prod(axis=2)
    shifts = classes.patterns
    consts = np.exp(1j * math.pi * np.sum((shifts @ X) * shifts, axis=1))
    cross = np.ones((1,) * (m + 1))
    for k, l in zip(*theta._pairs(m)):
        shape = [1] * (m + 1)
        shape[1 + k], shape[1 + l] = len(steps[crop[k]]), len(steps[crop[l]])
        factor = theta._cis(pair_hi[k, l] / 2, pair_lo[k, l] / 2,
                            np.outer(steps[crop[k]], steps[crop[l]]))
        cross = cross * factor.reshape(shape)
    return tables, cross, consts


def test_fused_phases_match_one_call_per_factor():
    # bit for bit: _cis works entry by entry; X's triangles differ by 1e-13;
    # the pair factors on the whole box and on a ragged crop of it
    rng = np.random.default_rng(29)
    for m in (1, 2, 3, 4):
        classes = theta._shift_classes(m)
        for radius in (1, 3, 6, 11):
            X = rng.uniform(-3, 3, (m, m))
            X = (X + X.T) / 2 + 1e-13 * np.triu(rng.uniform(-1, 1, (m, m)), 1)
            ragged = [slice(radius - r, radius + r + 1)
                      for r in (radius, radius // 2, 0, radius - 1)[:m]]
            for crop in ([slice(None)] * m, ragged):
                tables, pairs, consts = theta._phases(X, radius, classes)
                got = tables, theta._cross(pairs, crop), consts
                want = reference_phases(X, radius, classes, crop)
                for a, b in zip(got, want):
                    assert a.shape == b.shape
                    assert np.array_equal(a, b), (m, radius)


def seeded_forms(m, rng):
    """(kind, Y): a diagonal Y, and a rotated, a flat (one eigenvalue near
    0.15) and a tall (one near 40) Y, each turned by a random rotation."""
    q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    for kind, low, high in (("diagonal", 0.5, 3.0), ("rotated", 0.5, 3.0),
                            ("flat", 0.13, 0.18), ("tall", 30.0, 50.0)):
        lam = rng.uniform(0.5, 3.0, m)
        lam[0] = rng.uniform(low, high)
        Y = np.diag(lam) if kind == "diagonal" else q @ np.diag(lam) @ q.T
        yield kind, (Y + Y.T) / 2


def whole_box_exponents(Y, radius):
    """Per shift class s, the exponent -pi v Y v^T over the whole box
    [-R, R]^m, from _exponent (one class at a time, to keep it small)."""
    n = np.arange(-radius, radius + 1)
    for s in theta._shift_classes(len(Y)).shifts:
        yield s, pass_exponent(Y, 2 * (s[None, :, None] + n),
                               [slice(None)] * len(Y))[0]


def test_axis_radii_hold_every_term_above_the_floor():
    # every point of the whole box, of every shift class, whose exponent
    # exceeds the pass's floor lies in the crop; and the crop is sharp: on
    # many axes a term above the floor sits on its edge |n_k| = r_k.  The
    # radius and floor are the ones the rules give on Y, and the count is
    # that of the crop.
    rng = np.random.default_rng(37)
    axes = on_edge = 0
    for m in (1, 2, 3, 4):
        classes = len(theta._shift_classes(m).shifts)
        for _ in range(4 if m < 4 else 1):
            for kind, Y in seeded_forms(m, rng):
                for tol in (1e-12, 0.5):
                    params = ThetaParams(tail_tol=tol)
                    radius, floor, radii, points = theta._crop(
                        SiegelPoint(np.zeros_like(Y), Y), params)
                    assert radius == truncation_radius(Y, params)
                    assert floor == theta._floor(
                        tol, classes * (2 * radius + 1) ** m)
                    assert points == math.prod(2 * r + 1 for r in radii)
                    reach = np.zeros(m, dtype=int)
                    for _, e in whole_box_exponents(Y, radius):
                        above = np.nonzero(e > floor)
                        reach = np.maximum(reach, [np.abs(j - radius).max(initial=0)
                                                   for j in above])
                    assert np.all(reach <= radii), (m, kind, tol, reach, radii)
                    assert all(0 <= r <= radius for r in radii)
                    axes += m
                    on_edge += int(np.sum(reach == radii))
    assert on_edge > axes // 2, (on_edge, axes)


def test_floor_drops_at_most_an_ulp_of_the_tail():
    # over the whole box, the terms at or below the floor sum to at most
    # 2^-53 tail_tol per shift class, and their moments |v_k| E to R + 1/2
    # times that; below tail_tol of about 1e-283 the floor is _LOG_TINY
    worst = 0.0
    for m in (1, 2, 3):
        classes = len(theta._shift_classes(m).shifts)
        rng = np.random.default_rng(43 + m)
        for tol in (0.5, 1e-3, 1e-12):
            params = ThetaParams(tail_tol=tol)
            for _ in range(3):
                Y = sample_point(m, rng).Y
                radius = truncation_radius(Y, params)
                floor = theta._floor(tol, classes * (2 * radius + 1) ** m)
                assert floor > theta._LOG_TINY
                bound = 2.0 ** -53 * tol
                for s, e in whole_box_exponents(Y, radius):
                    dropped = np.where(e <= floor, np.exp(e), 0.0)
                    worst = max(worst, float(dropped.sum()) / bound)
                    for k in range(m):
                        v = np.abs(np.arange(-radius, radius + 1) + s[k])
                        along = [1] * m
                        along[k] = -1
                        moment = float((v.reshape(along) * dropped).sum())
                        assert moment <= (radius + 0.5) * bound
    assert 0 < worst <= 1, worst
    for tol in (1e-290, 1e-320, 5e-324):
        assert theta._floor(tol, 10) == theta._LOG_TINY


def crop_fraction(z, params):
    """The share of the box [-R, R]^m that the pass's crop keeps at z."""
    radius, _, _, points = theta._crop(z, params)
    return points / (2 * radius + 1) ** z.m


def test_theta_vector_on_strong_crops():
    # points whose crop keeps at most a third of the box: the pass sums the
    # sub-box, the oracle the whole box, term by term
    rng = np.random.default_rng(41)
    params = ThetaParams()
    worst, cases = 0.0, set()
    for lam in ((5.0, 0.3), (4.0, 4.0, 0.3), (3.0, 3.0, 3.0, 0.8)):
        m = len(lam)
        for angle in (0.0, 0.15):
            turn = np.eye(m)
            turn[0, 0] = turn[-1, -1] = math.cos(angle)
            turn[0, -1], turn[-1, 0] = math.sin(angle), -math.sin(angle)
            X = rng.uniform(-0.5, 0.5, (m, m))
            z = SiegelPoint((X + X.T) / 2, turn @ np.diag(lam) @ turn.T)
            assert crop_fraction(z, params) <= 1 / 3
            cases.add(m)
            half, three_half = theta_vector(z, params)
            for weight, got in (("half", half), ("three_half", three_half)):
                want = np.array([theta_component(rec, z, weight, params).value
                                 for rec in coset_table(m)])
                worst = max(worst, float(relative_errors(got, want).max()))
    assert cases == {2, 3, 4}
    assert worst < 1e-13


def test_pass_grids_are_read_only_and_kept():
    for m in (1, 2, 3):
        for radius in (1, 4, 9):
            grid = theta._grid(m, radius)
            assert theta._grid(m, radius) is grid
            arrays = [value for value in vars(grid).values()
                      if isinstance(value, np.ndarray)] + list(grid.powers)
            assert len(arrays) == 10
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.flat[0] = 0


def test_pass_grids_expand_the_distinct_products():
    # the full (coefficient, multiplier) table of _phases's one _cis call,
    # built here entry by entry, is the grid's distinct entries expanded
    # by its index; each entry is kept once, and some are repeats
    for m in (1, 2, 3):
        for radius in (1, 4, 9):
            steps = list(range(-radius, radius + 1))
            full = [(k, n / 4) for k in range(m * m) for n in steps]
            full += [(m * m + k * (m + 1), n * n / 2)
                     for k in range(m) for n in steps]
            full += [(k * m + l, a * b / 2)
                     for k, l in itertools.combinations(range(m), 2)
                     for a in steps for b in steps]
            grid = theta._grid(m, radius)
            distinct = list(zip(grid.coefficients.tolist(),
                                grid.multipliers.tolist()))
            assert len(set(distinct)) == len(distinct)
            assert [distinct[j] for j in grid.expand.tolist()] == full
            if radius >= 2:
                assert len(distinct) < len(full)
    grid = theta._grid(3, 9)
    assert (len(grid.multipliers), len(grid.expand)) == (393, 1311)


# the names of a thread's work arrays: a block's product, its exponent,
# the pair factors over the hull and a group's copy of them (from m = 3 on)
WORK = ("block", "exponent", "cross", "union")


def this_threads_work():
    """The calling thread's work arrays, in WORK order."""
    return tuple(getattr(theta._work, name) for name in WORK)


def work_arrays():
    """The calling thread's work arrays, made by passes at m = 2 and 3 if
    it has none."""
    for m in (2, 3):
        theta._theta_pass(sample_point(m, np.random.default_rng(0)),
                          ThetaParams())
    return this_threads_work()


def test_pass_output_does_not_alias_the_block_buffer():
    buffers = work_arrays()
    assert [(b.shape, b.dtype) for b in buffers] \
        == [((theta._BLOCK,), complex), ((theta._BLOCK,), float),
            ((theta._BLOCK,), complex), ((theta._BLOCK,), complex)]
    for m in (1, 2, 3, 4):
        z = point_at_radius(m, 5, ThetaParams(), m)
        for arrays in (theta._theta_pass(z, ThetaParams()), theta_vector(z)):
            assert all(a is b for a, b in zip(this_threads_work(), buffers))
            for arr, buffer in itertools.product(arrays, buffers):
                assert not np.shares_memory(arr, buffer)


def buffer_cases():
    """(z, params) at m = 1..4 and several radii, the genera interleaved."""
    coarse = ThetaParams(tail_tol=0.5)
    cases = [(point_at_radius(m, radius, params, 7 * m + radius), params)
             for radius, params in ((3, coarse), (6, coarse), (4, ThetaParams()),
                                    (9, ThetaParams()))
             for m in (1, 2, 3, 4) if m < 4 or radius <= 6]
    return cases + cases[::-1]


def pass_in_a_fresh_thread(z, params):
    """theta._theta_pass(z, params), run in a new thread."""
    out = []
    thread = threading.Thread(
        target=lambda: out.append(theta._theta_pass(SiegelPoint(z.X, z.Y), params)))
    thread.start()
    thread.join()
    return out[0]


def test_interleaved_passes_match_a_fresh_thread():
    # each pass overwrites the work arrays that the one before it left
    # behind; poisoned before each pass, they must not reach its sums
    cases = buffer_cases()
    buffers = work_arrays()
    here = []
    for z, params in cases:
        for buffer in buffers:
            buffer[:] = np.nan
        here.append(theta._theta_pass(SiegelPoint(z.X, z.Y), params))
        assert all(a is b for a, b in zip(this_threads_work(), buffers))
    for (z, params), got in zip(cases, here):
        want = pass_in_a_fresh_thread(z, params)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_block_larger_than_the_buffer_matches_components():
    # the cropped box alone outgrows _BLOCK: one class per block, each in a
    # fresh array
    cases = [SiegelPoint([[0.1, 0.02, -0.03], [0.02, -0.2, 0.05],
                          [-0.03, 0.05, 0.3]], 0.05 * np.eye(3)),
             SiegelPoint(0.1 * np.eye(4), 0.5 * np.eye(4))]
    work_arrays()
    for z in cases:
        params = ThetaParams()
        assert theta._crop(z, params)[3] > theta._BLOCK
        half, three_half = theta._theta_pass(z, params)
        table = coset_table(z.m)
        picked = range(0, len(table), 1 if z.m < 4 else 9)
        for weight, got in (("half", half), ("three_half", three_half)):
            want = np.array([theta_component(table[k], z, weight, params).value
                             for k in picked])
            assert relative_errors(got[list(picked)], want).max() < 1e-13


def test_threads_have_their_own_buffers():
    cases = buffer_cases()
    serial = [theta._theta_pass(SiegelPoint(z.X, z.Y), params)
              for z, params in cases]
    mine = work_arrays()
    start = threading.Barrier(3)
    results = {}

    def run(k):
        start.wait()
        # each thread reads the cases from another place in the list
        order = cases[k:] + cases[:k]
        got = [theta._theta_pass(SiegelPoint(z.X, z.Y), params)
               for z, params in order]
        results[k] = got[len(cases) - k:] + got[:len(cases) - k], \
            this_threads_work()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    buffers = [*mine] + [b for k in range(3) for b in results[k][1]]
    assert len(buffers) == 4 * len(WORK)
    for a, b in itertools.combinations(buffers, 2):
        assert not np.shares_memory(a, b)
    for k in range(3):
        for got, want in zip(results[k][0], serial):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_one_eigendecomposition_per_point(monkeypatch):
    # radius 6 at tail_tol 0.5 and 24 at 1e-12, read in both orders: the
    # point's radius is truncation_radius's on its Y
    z = point_at_radius(2, 6, ThetaParams(tail_tol=0.5), 4)
    both = [ThetaParams(tail_tol=0.5), ThetaParams(tail_tol=1e-12)]
    for order in (both, both[::-1]):
        point = SiegelPoint(z.X, z.Y)
        for params in order + order:
            assert theta._radius(point, params) \
                == truncation_radius(point.Y, params)
    assert truncation_radius(z.Y, both[0]) != truncation_radius(z.Y, both[1])
    # one eigendecomposition per point, whoever sizes it: the constructor's
    # positive-definiteness test, sample_point's cond(Y), the workable test,
    # the pass and the direct sums, at both params; neither an SVD nor
    # another eigenvalue solve nor a Cholesky test sizes a point
    SiegelPoint.z0(2)                       # kept per genus
    points = []
    real = symplectic._spectrum_of
    monkeypatch.setattr(symplectic, "_spectrum_of",
                        lambda a: points.append(a.tolist()) or real(a))
    for name in ("svd", "eigvalsh", "cond", "cholesky"):
        monkeypatch.setattr(np.linalg, name, None)
    rng = np.random.default_rng(5)
    z = sample_point(2, rng)
    assert len(points) == 1
    rz = mobius_act(word(2, 5), z)
    for params in both + both:
        assert harness._workable(z, rz, params)
        for point in (z, rz):
            theta_vector(point, params)
            theta_series(point, "half", params)
    assert points == [z.Y.tolist(), rz.Y.tolist()]


def _raise_linalg(monkeypatch, keep=()) -> None:
    """Replace every numpy.linalg function but those named in keep by one
    that raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    for name in dir(np.linalg):
        value = getattr(np.linalg, name)
        if not (name.startswith("_") or name in keep or isinstance(value, type)
                or not callable(value)):
            monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("m", [1, 2])
def test_trials_below_genus_3_call_no_numpy_linalg(monkeypatch, m):
    # below m = 3 the float layer takes its closed forms: a vector-law and
    # a scalar-law run, gamma_pair and det_invsqrt make no numpy.linalg
    # call (the parent made 9.8 a genus-2 vector-law trial)
    SiegelPoint.z0(m)
    coset_table(m)
    _raise_linalg(monkeypatch)
    assert harness.verify_vector_law(m, trials=3, seed=7).passed
    assert harness.verify_scalar_law(m, trials=2, seed=7).passed
    z = sample_point(m, np.random.default_rng(1))
    assert abs(gamma_pair(z, z) - 1) < 1e-12
    assert abs(det_invsqrt(np.eye(m) * (2 - 1j)) - (2 - 1j) ** (-m / 2)) < 1e-15
    assert truncation_radius(np.eye(m), ThetaParams()) > 0


def test_a_genus_3_point_reaches_eigh(monkeypatch):
    # from m = 3 on numpy.linalg sizes a point: one eigh, no Cholesky
    calls = []
    real = np.linalg.eigh
    _raise_linalg(monkeypatch, keep=("eigh",))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.tolist()) or real(a))
    y = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
    z = SiegelPoint(np.zeros((3, 3)), y)
    assert calls == [y.tolist()]
    assert z._spectrum()[0][0] > 0 and len(calls) == 1


def test_point_budget_is_checked_before_the_arrays_are_made(monkeypatch):
    # past the budget the pass (cropped box) and the direct sum (whole box)
    # raise CapacityError naming the count, before any array of the box:
    # the pass never reaches _phases.  Each sum runs on a fresh point, as
    # z0(2) is kept, with its pass.
    def point():
        return SiegelPoint(np.zeros((2, 2)), np.eye(2))

    side = 2 * theta._radius(point(), ThetaParams()) + 1

    def no_phases(*args):
        raise AssertionError("the pass made its arrays")

    monkeypatch.setattr(theta, "_POINT_BUDGET", 100)
    monkeypatch.setattr(theta, "_phases", no_phases)
    with pytest.raises(CapacityError, match=r"^point count of one lattice "
                                            r"array \d+ exceeds cap 100$"):
        theta_vector(point())
    for weight in ("half", "three_half"):
        with pytest.raises(CapacityError) as err:
            theta_series(point(), weight)
        assert (err.value.needed, err.value.cap) == (side ** 2, 100)
        assert str(err.value) == (f"point count of one lattice array "
                                  f"{side ** 2} exceeds cap 100")
    # the budget is inclusive
    monkeypatch.setattr(theta, "_POINT_BUDGET", side ** 2)
    assert abs(theta_series(point(), "half")) > 1


def test_point_budget_admits_every_workable_box():
    # the budget holds the whole box at m = 4 and the workable radius, so
    # no verifier draw at m <= 4 reaches it
    assert theta._POINT_BUDGET >= (2 * harness.WORKABLE_RADIUS + 1) ** 4


def test_capacity_error_is_raised_on_every_call():
    flat = SiegelPoint(np.zeros((2, 2)), 1e-5 * np.eye(2))
    for _ in range(2):
        with pytest.raises(CapacityError):
            theta_vector(flat)
        with pytest.raises(CapacityError):
            theta_series(flat, "half")
        assert not harness._workable(flat, flat, ThetaParams())


def reference_j_half(g, z) -> complex:
    """j_half with P formed as Fraction rows P[k] = p[k] / den[k]."""
    j, x, p, den, _ = _rank_normal_form(g)
    big_p = [[Fraction(v, k) for v in row] for row, k in zip(p, den)]
    scale = float(abs(x)) ** -0.5
    if j == 0:
        return complex(scale)
    w = np.array(xla.mat_mul(big_p[:j], g.c), dtype=float)
    pd = np.array(big_p[:j], dtype=float) @ np.array(g.d, dtype=float)
    t = (w @ z.z + pd) @ w.T
    return scale / det_invsqrt(-1j * t)


def test_j_half_reads_p_in_ints_bit_for_bit():
    # seeded words of all three samplers (every rank of c) and the coset
    # representatives, at m = 1..4
    ranks = set()
    for m in (1, 2, 3, 4):
        z = sample_point(m, np.random.default_rng(40 + m))
        words = [random_word_element(m, group, length=1 + seed % 25,
                                     seed=seed)[0]
                 for group in ("Sp", "Gamma(1,2)", "Gamma2")
                 for seed in range(30)]
        words += list(mixed_rank_words(m, 20))
        words += [rec.M for rec in coset_table(m)] if m < 4 else []
        for g in words:
            assert j_half(g, z) == reference_j_half(g, z), g
            ranks.add((m, _rank_normal_form(g)[0]))
    assert ranks == {(m, j) for m in (1, 2, 3, 4) for j in range(m + 1)}


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
    # block upper triangular with positive a: value |det a|^{-1/2}
    p_int = make_generator("u", 2, b=[[2, 1], [1, 0]])
    z = SiegelPoint.z0(2)
    assert abs(j_half(p_int, z) - 1.0) < 1e-12


def test_half_factor_on_the_cover():
    g = word(2, 11)
    z = sample_point(2, np.random.default_rng(11))
    plus = j_half_bar(CoverElement(g, 1), z)
    minus = j_half_bar(CoverElement(g, -1), z)
    assert abs(plus + minus) < 1e-12 * max(1.0, abs(plus))


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
