"""Lattice sums, branch bookkeeping, automorphy factors."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacover import (CapacityError, CoverElement, IntegerSymplectic,
                        SiegelPoint, ThetaParams, big_theta, coset_table,
                        det_invsqrt, j_half, j_half_bar, j_matrix,
                        make_generator, mobius_act, pws_decompose,
                        random_word_element, sqrt_det, theta_component,
                        theta_series, theta_vector, truncation_radius)
from thetacover import exactla as xla
from thetacover import harness, theta
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
            ref = reference_half_factor(fac, z)
            sd_ref = fac.m_xstar.inv().value * ref
            ranks.add((m, xla.rank(g.c)))
            for got, want in ((j_half(g, z), ref), (sqrt_det(g, z), sd_ref)):
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
    for tol in (0.0, -1e-12, 1.0, 2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tail_tol must lie in"):
            ThetaParams(tail_tol=tol)


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


def test_character_sums_match_the_box():
    # against the box sum of e . prod_k t_k(n_k) . prod_k w_{r_k}(n_k),
    # broadcast here term by term, at column sum_k r_k 4^k
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        for radius in (1, 2, 3, 4):
            for width in (1, 2, 3):
                side = 2 * radius + 1
                shape = (width,) + (side,) * m
                e = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                tables = np.exp(2j * math.pi * rng.random((width, m, side)))
                n = np.arange(-radius, radius + 1)
                rows = (np.ones(side), (-1.0) ** n, n, (-1.0) ** n * n)
                want = np.empty((width, 4 ** m), dtype=complex)
                for column in range(4 ** m):
                    term = e
                    for k in range(m):
                        along = (side if j == k else 1 for j in range(m))
                        axis = tables[:, k] * rows[column // 4 ** k % 4]
                        term = term * axis.reshape(width, *along)
                    want[:, column] = term.reshape(width, -1).sum(axis=1)
                got = theta._character_sums(e, radius, tables)
                assert got.shape == want.shape
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_exponent_is_the_form_and_even():
    # against -pi v Y v^T by einsum over the box, for every shift class and
    # a Y with both triangles apart; at -v it must agree bit for bit, the
    # evenness that keeps the weight-3/2 sums at rounding level
    rng = np.random.default_rng(23)
    for m in (1, 2, 3, 4):
        shifts = theta._shift_classes(m).shifts
        for radius in (2, 5):
            a = np.eye(m) + 0.3 * rng.uniform(-1, 1, (m, m))
            Y = a @ a.T + 0.1 * rng.uniform(-1, 1, (m, m))
            n = np.arange(-radius, radius + 1)
            twice = 2 * (shifts[:, :, None] + n)
            got = theta._exponent(Y, twice)
            v = np.stack(np.meshgrid(*([n] * m), indexing="ij"), axis=-1)
            v = v + shifts.reshape((len(shifts),) + (1,) * m + (m,))
            want = -math.pi * np.einsum("...k,kl,...l->...", v, Y, v)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            assert np.array_equal(theta._exponent(Y, -twice), got)


def reference_phases(X, radius, classes):
    """(tables, cross, consts) of _phases with one _cis call per kind of
    factor: the halves on n, the diagonal on n^2 and each pair on n_k n_l."""
    m = len(X)
    hi, lo = theta._split(X)
    pair_hi, pair_lo = hi + hi.T, lo + lo.T
    steps = np.arange(-radius, radius + 1)
    halves = theta._cis(pair_hi[..., None] / 4, pair_lo[..., None] / 4, steps)
    powers = np.stack([halves.conj(), np.ones_like(halves), halves])
    axes = np.arange(m)
    tables = theta._cis(np.diag(hi)[:, None] / 2, np.diag(lo)[:, None] / 2,
                        steps * steps) \
        * powers[classes.offsets[:, None, :], axes[:, None], axes].prod(axis=2)
    shifts = classes.shifts
    consts = np.exp(1j * math.pi * np.sum((shifts @ X) * shifts, axis=1))
    cross = np.ones((1,) * (m + 1))
    for k, l in itertools.combinations(range(m), 2):
        shape = [1] * (m + 1)
        shape[1 + k] = shape[1 + l] = len(steps)
        factor = theta._cis(pair_hi[k, l] / 2, pair_lo[k, l] / 2,
                            np.outer(steps, steps))
        cross = cross * factor.reshape(shape)
    return tables, cross, consts


def test_fused_phases_match_one_call_per_factor():
    # bit for bit: _cis works entry by entry; X's triangles differ by 1e-13
    rng = np.random.default_rng(29)
    for m in (1, 2, 3, 4):
        classes = theta._shift_classes(m)
        for radius in (1, 3, 6, 11):
            X = rng.uniform(-3, 3, (m, m))
            X = (X + X.T) / 2 + 1e-13 * np.triu(rng.uniform(-1, 1, (m, m)), 1)
            got = theta._phases(X, radius, classes)
            want = reference_phases(X, radius, classes)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a, b), (m, radius)


def test_pass_grids_are_read_only_and_kept():
    for m in (1, 2, 3):
        for radius in (1, 4, 9):
            grid = theta._grid(m, radius)
            assert theta._grid(m, radius) is grid
            arrays = [value for value in vars(grid).values()
                      if isinstance(value, np.ndarray)] + list(grid.powers)
            assert len(arrays) == 7
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.flat[0] = 0


def test_radius_is_kept_per_params(monkeypatch):
    # radius 6 at tail_tol 0.5 and 24 at 1e-12, read in both orders
    z = point_at_radius(2, 6, ThetaParams(tail_tol=0.5), 4)
    both = [ThetaParams(tail_tol=0.5), ThetaParams(tail_tol=1e-12)]
    for order in (both, both[::-1]):
        point = SiegelPoint(z.X, z.Y)
        for params in order + order:
            assert theta._radius(point, params) \
                == truncation_radius(point.Y, params)
    assert truncation_radius(z.Y, both[0]) != truncation_radius(z.Y, both[1])
    # one eigenvalue solve per point and params, whoever reads the radius
    solves = []
    real = theta.truncation_radius
    monkeypatch.setattr(theta, "truncation_radius",
                        lambda Y, params: solves.append(1) or real(Y, params))
    point = SiegelPoint(z.X, z.Y)
    theta_vector(point)
    theta_series(point, "half")
    assert harness._workable(point, point, ThetaParams())
    assert len(solves) == 1


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
    j, x, (p, den), _ = _rank_normal_form(g)
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
