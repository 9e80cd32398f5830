"""Induced monomial representation and the randomized law harness."""

import dataclasses
import functools
import itertools
import json
import operator

import numpy as np
import pytest

from thetacover import (CoverElement, IntegerSymplectic, MonomialMatrix, Mu8,
                        cbar_cocycle, coset_profile, coset_table, cover_inv,
                        cover_mul, induced_rep_matrix, lambda_bar,
                        make_generator, random_word_element, sample_gamma48,
                        sample_point, subgroup_membership, verify_scalar_law,
                        verify_vector_law)
from thetacover import (CapacityError, SiegelPoint, ThetaParams, harness,
                        j_matrix, theta, theta_vector)
from thetacover.cocycle import word_lift
from thetacover.harness import _rel_err


def rand_monomial(n, rng):
    perm = tuple(int(x) for x in rng.permutation(n))
    exponents = tuple(int(k) for k in rng.integers(0, 8, n))
    return MonomialMatrix(n, perm, exponents)


def dense(G):
    """G as a dense complex matrix, entry by entry from Mu8.value."""
    out = np.zeros((G.n, G.n), dtype=complex)
    for i, (p, e) in enumerate(zip(G.perm, G.exponents)):
        out[i, p] = Mu8(e).value
    return out


def eye(n):
    return MonomialMatrix(n, tuple(range(n)), (0,) * n)


def test_monomial_group_laws():
    rng = np.random.default_rng(0)
    e = eye(5)
    for _ in range(20):
        a = rand_monomial(5, rng)
        b = rand_monomial(5, rng)
        c = rand_monomial(5, rng)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ e == a and e @ a == a
        assert a @ a.inv() == e and a.inv() @ a == e
        # dense image respects the product
        assert np.allclose(dense(a @ b), dense(a) @ dense(b))
        # the product of many factors is the product of pairs, and the
        # inverse with sign -1 that of the matrix times -Id, exponent 4
        assert MonomialMatrix._product((a, b, c)) == (a @ b) @ c
        minus = MonomialMatrix(5, tuple(range(5)), (4,) * 5)
        assert a.inv(-1) == (a @ minus).inv() == minus @ a.inv()
        assert a.inv(-1) != a.inv()


def test_monomial_validation():
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 1), (0,))
    with pytest.raises(ValueError):
        MonomialMatrix(1, (0,), (0.5,))
    with pytest.raises(ValueError):
        MonomialMatrix(1, (0,), (Mu8(0),))
    with pytest.raises(ValueError):
        eye(2).inv(0)
    # exponents follow Mu8's rule: read as ints and kept mod 8
    assert MonomialMatrix(2, (1, 0), (9, 7.0)).exponents == (1, 7)
    assert MonomialMatrix(2, (1, 0), (-1, 8)) == MonomialMatrix(2, (1, 0), (7, 0))
    with pytest.raises(ValueError):
        eye(2) @ eye(3)


def test_induced_rep_identity_and_center():
    for m in (1, 2):
        n = len(coset_table(m))
        one = IntegerSymplectic.identity(m)
        assert induced_rep_matrix(CoverElement(one, 1)) == eye(n)
        center = induced_rep_matrix(CoverElement(one, -1))
        assert center.perm == tuple(range(n))
        assert center.exponents == (4,) * n


def test_induced_rep_is_multiplicative():
    for m, pairs, length in ((1, 8, 5), (2, 4, 4)):
        for s in range(pairs):
            g1, _ = random_word_element(m, "Sp", length=length, seed=10 * s)
            g2, _ = random_word_element(m, "Sp", length=length, seed=10 * s + 1)
            a = CoverElement(g1, 1 if s % 2 == 0 else -1)
            b = CoverElement(g2, 1 if s % 3 == 0 else -1)
            lhs = induced_rep_matrix(cover_mul(a, b))
            rhs = induced_rep_matrix(a) @ induced_rep_matrix(b)
            assert lhs == rhs


def relators(m):
    """(name, letters) of words whose product is 1.

    At m = 1 they present SL_2(Z) on omega and u: omega^4 and
    (omega u)^3 omega^2, with omega^2 = -1 central, and u u^{-1}.  At m = 2
    and 3 the relators of Sp_2m(Z) are necessary, not sufficient: omega^4,
    a commutator of two u's ([u_12, u_11], and [u_13, u_23] at m = 3) and
    omega^2 v_12 omega^{-2} v_12^{-1}.  At m = 3 the Steinberg relation
    [v_12, v_23] = v_13 joins them, with [x, y] = x y x^{-1} y^{-1} and the
    letters multiplied in word order, as they act on row vectors
    (w -> w l_1 ... l_k): v_ij(t) = h(1 + t E_ij), h is a homomorphism, and
    (1 + E_12)(1 + E_23)(1 - E_12)(1 - E_23) = 1 + E_13.
    """
    om = make_generator("omega", m)
    if m == 1:
        u, u_inv = (make_generator("u_ij", 1, i=1, j=1, t=t) for t in (1, -1))
        return [("omega^4", [om] * 4),
                ("(omega u)^3 omega^2", [om, u] * 3 + [om, om]),
                ("u u^-1", [u, u_inv])]

    def pair(kind, i, j):
        return [make_generator(kind, m, i=i, j=j, t=t) for t in (1, -1)]

    u12, u12_inv = pair("u_ij", 1, 2)
    u11, u11_inv = pair("u_ij", 1, 1)
    v12, v12_inv = pair("v_ij", 1, 2)
    om_inv = om.inverse()
    words = [("omega^4", [om] * 4),
             ("[u_12, u_11]", [u12, u11, u12_inv, u11_inv]),
             ("omega^2 v_12 omega^-2 v_12^-1",
              [om, om, v12, om_inv, om_inv, v12_inv])]
    if m == 3:
        u13, u13_inv = pair("u_ij", 1, 3)
        u23, u23_inv = pair("u_ij", 2, 3)
        v23, v23_inv = pair("v_ij", 2, 3)
        v13_inv = pair("v_ij", 1, 3)[1]
        words += [("[u_13, u_23]", [u13, u23, u13_inv, u23_inv]),
                  ("[v_12, v_23] v_13^-1",
                   [v12, v23, v12_inv, v23_inv, v13_inv])]
    return words


def test_letter_images_satisfy_relators():
    # on a relator the letters' plus lifts multiply to (1, s), so the
    # letter images multiply to gamma_bar(1, s) = s Id exactly; each prefix
    # is checked too, which is where word_lift's m(P_k)^{-1} shows
    signs = {}
    for m in (1, 2, 3):
        n = len(coset_table(m))
        for name, letters in relators(m):
            images = itertools.accumulate(map(harness._letter_image, letters),
                                          operator.matmul)
            for k, image in enumerate(images, 1):
                assert image == induced_rep_matrix(word_lift(letters[:k]))
            lift = word_lift(letters)
            assert functools.reduce(operator.matmul, letters) \
                == lift.g == IntegerSymplectic.identity(m)
            assert image == MonomialMatrix(n, tuple(range(n)),
                                           (0 if lift.eps == 1 else 4,) * n)
            signs[m, name] = lift.eps
    assert signs[1, "omega^4"] == signs[1, "(omega u)^3 omega^2"] == -1


def test_induced_rep_diagonal_on_stabilized_labels():
    # theta-group elements fix the zero label, with coefficient the
    # inverse multiplier of the conjugated element
    table = coset_table(2)
    for s in range(6):
        r, _ = random_word_element(2, "Gamma12", length=4, seed=s)
        rbar = CoverElement(r, 1)
        G = induced_rep_matrix(rbar)
        assert G.perm[0] == 0
        assert Mu8(G.exponents[0]) == lambda_bar(rbar).inv()
        for i, rec in enumerate(table):
            if G.perm[i] != i:
                continue
            mbar = CoverElement(rec.M, rec.kappa)
            lam = lambda_bar(cover_mul(cover_mul(mbar, rbar), cover_inv(mbar)))
            assert Mu8(G.exponents[i]) == lam.inv()


def test_trial_word_is_the_sampler_word():
    # the trials draw their words as random_word_element does: from the
    # same length and seed, the same element, and the letters its word names
    for m in (1, 2, 3):
        for group in ("Sp", "Gamma(1,2)", "Gamma2"):
            for state in range(6):
                g = harness._random_word(
                    m, group, np.random.default_rng((state, m)))
                letters = harness._random_letters(
                    m, group, np.random.default_rng((state, m)))
                rng = np.random.default_rng((state, m))
                want, word = random_word_element(
                    m, group, length=int(rng.integers(1, 9)),
                    seed=int(rng.integers(2**63)))
                assert g == want
                assert letters == [make_generator(kind, m, **params)
                                   for kind, params in word]


def test_word_path_matches_definition_on_acceptance_seeds():
    # every trial criterion 07 draws (seed 0, 100 trials), at m = 1..3: the
    # letter path, with the word's sign in closed form, gives
    # gamma_bar(rbar^{-1}) exactly as the definition does
    lifts = set()
    for m in (1, 2, 3):
        for t in range(100):
            _, letters, rbar, sign = harness._vector_draw(m, 0, t)
            lifts.add(rbar.eps)
            want = induced_rep_matrix(cover_inv(rbar))
            assert harness._word_rep_inv(letters, sign) == want
    assert lifts == {1, -1}


def test_float_word_is_the_exact_product_bit_for_bit():
    # sample_point reads its word as floats only: the product of the
    # letters' kept float arrays is the exact product's to_float(), every
    # bit, and the kept arrays stay read-only while to_float hands out a
    # fresh writable copy
    for m in (1, 2, 3, 4, 5):
        for state in range(40):
            letters = harness._random_letters(
                m, "Sp", np.random.default_rng((state, m)))
            exact = functools.reduce(operator.matmul, letters).to_float()
            floats = harness._float_word(letters)
            assert floats.tobytes() == exact.tobytes()
            assert exact.flags.writeable
            assert not any(g._floats().flags.writeable for g in letters)


def vector_trials(ms=(1, 2, 3), trials=6, seed=3):
    """(G, th_z, v_z, J) of the vector-law trials at the seed, as the
    trial draws them."""
    params = ThetaParams()
    for m in ms:
        for t in range(trials):
            rng, letters, rbar, sign = harness._vector_draw(m, seed, t)
            z, _ = harness._workable_point(m, rbar.g, rng, params)
            th_z, v_z = theta_vector(z, params)
            yield (harness._word_rep_inv(letters, sign), th_z, v_z,
                   j_matrix(rbar.g, z))


def test_monomial_scatter_is_the_dense_product():
    # the trial applies G by a scatter and a phase lookup; that is exactly
    # the dense product formed with numpy's own complex products (a column
    # of G has one nonzero entry), and the BLAS matmul and the einsum the
    # trial used before agree to rounding
    exponents = set()
    for G, th_z, v_z, J in vector_trials():
        g_dense = dense(G)
        exponents.update(G.exponents)
        got = G._apply(th_z[:, None])[:, 0]
        assert np.array_equal(got, (th_z[:, None] * g_dense).sum(axis=0))
        assert np.allclose(got, th_z @ g_dense, rtol=0, atol=1e-15)
        vj = v_z @ J.T
        got_v = G._apply(vj)
        assert np.array_equal(got_v, (vj[:, None, :] * g_dense[:, :, None]).sum(axis=0))
        scale = max(1.0, abs(v_z).max())
        assert np.allclose(got_v, np.einsum("ab,jb,ji->ia", J, v_z, g_dense),
                           rtol=0, atol=1e-15 * scale)
        # both rows at once, as the trial applies them
        both = G._apply(np.column_stack((th_z, vj)))
        assert np.array_equal(both[:, 0], got)
        assert np.array_equal(both[:, 1:], got_v)
    assert exponents == set(range(8))


def test_vector_law_report_same_through_definition(monkeypatch):
    # the verifier's report does not change when G comes from the definition
    fast = [drop_clock(verify_vector_law(m, trials=6, seed=3)) for m in (1, 2)]
    drawn = []
    draw = harness._vector_draw

    def recording_draw(m, seed, t):
        out = draw(m, seed, t)
        drawn.append(out[2])
        return out

    def by_definition(letters, sign):
        return induced_rep_matrix(cover_inv(drawn[-1]))

    monkeypatch.setattr(harness, "_vector_draw", recording_draw)
    monkeypatch.setattr(harness, "_word_rep_inv", by_definition)
    slow = [drop_clock(verify_vector_law(m, trials=6, seed=3)) for m in (1, 2)]
    assert len(drawn) == 12 and fast == slow


def test_induced_rep_scalar_on_gamma48():
    # Igusa's quotient: on the level-(4,8) group gamma_bar is the scalar
    # lambda_bar(kbar)^{-1} Id, for both lifts.  Some elements need more
    # Gauss-sum classes than the 10**6 guard allows and are refused; their
    # number is pinned for this seed.
    evaluated, refused = 0, 0
    for m, count in ((1, 20), (2, 20), (3, 12)):
        rng = np.random.default_rng(7)
        n = len(coset_table(m))
        for s in range(count):
            k = sample_gamma48(m, rng, factors=1 + s % 3)
            lifts = [CoverElement(k, 1), CoverElement(k, -1)]
            try:
                images = [induced_rep_matrix(kbar) for kbar in lifts]
            except ValueError as exc:
                assert "residue system too large" in str(exc)
                refused += 1
                continue
            evaluated += 1
            for kbar, image in zip(lifts, images):
                lam = lambda_bar(kbar).inv()
                assert image == MonomialMatrix(n, tuple(range(n)),
                                               (lam.exponent,) * n)
    assert refused == 4
    assert evaluated >= 45


def test_lambda_bar_is_a_character():
    # lambda_bar(abar bbar) = lambda_bar(abar) lambda_bar(bbar) on the cover
    # of Gamma(1,2), both lifts of each factor
    signs = set()
    for m in (1, 2, 3):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a, b = (random_word_element(m, "Gamma12",
                                        length=int(rng.integers(1, 9)),
                                        seed=int(rng.integers(2**63)))[0]
                    for _ in range(2))
            signs.add(cbar_cocycle(a, b))
            for eps_a in (1, -1):
                for eps_b in (1, -1):
                    abar, bbar = CoverElement(a, eps_a), CoverElement(b, eps_b)
                    assert (lambda_bar(cover_mul(abar, bbar))
                            == lambda_bar(abar) * lambda_bar(bbar))
    # the cover sign is exercised, not only the plain product
    assert signs == {1, -1}


def nan_like(arr):
    return np.full_like(arr, np.nan)


def assert_fails_on_trial_0(rep):
    # a nan error fails the run, names its trial and still serializes
    assert rep.passed is False and rep.max_rel_error == np.inf
    assert rep.worst_case["trial"] == 0
    d = json.loads(json.dumps(rep.as_dict()))
    assert d["passed"] is False and d["worst_case"]["trial"] == 0


@pytest.mark.parametrize("weight", ["half", "three_half"])
def test_vector_law_fails_on_nan(monkeypatch, weight):
    real = harness.theta_vector

    def nan_theta(z, params=None):
        half, three_half = real(z, params)
        return ((nan_like(half), three_half) if weight == "half"
                else (half, nan_like(three_half)))

    monkeypatch.setattr(harness, "theta_vector", nan_theta)
    rep = verify_vector_law(2, trials=3, seed=0)
    assert_fails_on_trial_0(rep)
    assert np.isnan(rep.worst_case[f"rel_error_{weight}"])


@pytest.mark.parametrize("weight", ["half", "three_half"])
def test_scalar_law_fails_on_nan(monkeypatch, weight):
    if weight == "half":
        monkeypatch.setattr(harness, "theta_series",
                            lambda *args: complex("nan"))
    else:
        real = harness.theta_component

        def nan_component(*args):
            out = real(*args)
            return dataclasses.replace(out, value=nan_like(out.value))

        monkeypatch.setattr(harness, "theta_component", nan_component)
    rep = verify_scalar_law(1, trials=3, seed=0)
    assert_fails_on_trial_0(rep)
    assert np.isnan(rep.worst_case[f"rel_error_{weight}"])


def test_rel_err_convention():
    assert _rel_err(0.0, 0.0) == (0.0, 0.0)
    a, r = _rel_err(1e-14, 0.0)
    assert a == r == pytest.approx(1e-14)
    a, r = _rel_err(200.0, 100.0)
    assert a == pytest.approx(100.0) and r == pytest.approx(0.5)


def test_scalar_law_small_run():
    rep = verify_scalar_law(1, trials=6, tol=1e-8, seed=5)
    assert rep.passed and rep.max_rel_error < 1e-8
    assert rep.theorem == "scalar-law" and rep.trials == 6
    d = rep.as_dict()
    assert set(d) >= {"theorem", "m", "trials", "max_rel_error", "passed"}


@pytest.mark.parametrize("verify", [verify_scalar_law, verify_vector_law])
@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1e-8,
                                 "x", None, 1e-8 + 0j])
def test_verifiers_refuse_a_tol_that_checks_nothing(verify, tol):
    # an infinite bound passes every error and nan, 0 or a negative one
    # fails every run: neither is a check; a tol that is not a real number
    # would fail in the comparison with a TypeError
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        verify(1, trials=2, tol=tol)


def test_vector_law_small_run():
    rep = verify_vector_law(1, trials=4, tol=1e-8, seed=5)
    assert rep.passed and rep.max_rel_error < 1e-8
    assert rep.theorem == "vector-law"


def drop_clock(rep):
    d = rep.as_dict()
    d.pop("elapsed_seconds")
    return d


def test_reports_deterministic_given_seed():
    r1 = verify_scalar_law(1, trials=3, seed=7)
    r2 = verify_scalar_law(1, trials=3, seed=7)
    assert drop_clock(r1) == drop_clock(r2)
    v1 = verify_vector_law(1, trials=2, seed=9)
    v2 = verify_vector_law(1, trials=2, seed=9)
    assert drop_clock(v1) == drop_clock(v2)


def test_sample_point_is_workable():
    rng = np.random.default_rng(1)
    for m in (1, 2, 3):
        z = sample_point(m, rng)
        assert z.m == m
        assert np.linalg.cond(z.Y) <= 1e4


def test_sample_point_budget(monkeypatch):
    # cond(Y) >= 1 always, so no draw can pass
    monkeypatch.setattr(harness, "COND_CAP", 0.5)
    with pytest.raises(RuntimeError, match="sample_point"):
        sample_point(1, np.random.default_rng(0))


@pytest.mark.parametrize("verify", [verify_scalar_law, verify_vector_law])
def test_workable_point_budget(monkeypatch, verify):
    monkeypatch.setattr(harness, "_workable", lambda *args: False)
    monkeypatch.setattr(harness, "WORKABLE_BUDGET", 50)
    with pytest.raises(RuntimeError, match="_workable_point"):
        verify(1, trials=1, seed=0)


def test_workable_asks_for_the_pass_sizing(monkeypatch):
    # with the point budget patched small, a point whose radius is workable
    # but whose pass's crop is over the budget is not, and the resampling
    # loop draws another point: the run completes and passes
    monkeypatch.setattr(theta, "_POINT_BUDGET", 300)
    params = ThetaParams()
    z = SiegelPoint(np.zeros((2, 2)), 0.2 * np.eye(2))
    with pytest.raises(CapacityError, match="point count"):
        theta_vector(z, params)
    assert theta._radius(z, params) <= harness.WORKABLE_RADIUS
    assert not harness._workable(z, z, params)
    draws = []
    real = harness._workable
    monkeypatch.setattr(harness, "_workable",
                        lambda *args: draws.append(real(*args)) or draws[-1])
    report = verify_vector_law(2, trials=10, seed=1, params=params)
    assert report.passed and report.trials == 10
    assert draws.count(True) == 10 and draws.count(False) >= 3


def test_laws_meet_a_stated_error_ceiling():
    # a stated ceiling, not a derived error budget: over seeds 0..5 the
    # largest error seen was 2.1e-13 (scalar law, m = 1, seed 2), and a
    # right-hand side off by 1e-9 relative reads about 1e-9.  A derived
    # bound from independent high-precision sums is to replace it.
    for m in (1, 2):
        for report in (verify_scalar_law(m, trials=60, seed=2),
                       verify_vector_law(m, trials=60, seed=5)):
            assert report.max_rel_error < 1e-10, (m, report.theorem,
                                                  report.max_rel_error)


def test_scalar_law_stabilizer_budget(monkeypatch):
    # with no shifted label ever fixed a trial would compare nothing at
    # weight 3/2; the search must raise, not pass vacuously
    monkeypatch.setattr(harness, "coset_profile", lambda g: None)
    with pytest.raises(RuntimeError, match="no element fixing a shifted label"):
        verify_scalar_law(1, trials=1, seed=0)


@pytest.mark.parametrize("verify", [verify_scalar_law, verify_vector_law])
def test_verifiers_take_trials_by_the_integer_rule(verify):
    for bad in (2.5, "2", float("nan")):
        with pytest.raises(ValueError, match="trials must be an integer"):
            verify(1, trials=bad)
    # True and 2.0 equal the integers 1 and 2; the report holds the int
    for ok, want in ((True, 1), (2.0, 2)):
        rep = verify(1, trials=ok, seed=0).as_dict()
        assert rep["trials"] == want and type(rep["trials"]) is int
    # and so is m, which every trial uses: 2.0 runs as 2
    with pytest.raises(ValueError, match="m must be an integer"):
        verify(1.5, trials=1)
    reps = [verify(m, trials=2, seed=0).as_dict() for m in (2, 2.0)]
    for rep in reps:
        del rep["elapsed_seconds"]
    assert reps[0] == reps[1] and type(reps[1]["m"]) is int


@pytest.mark.parametrize("verify", [verify_scalar_law, verify_vector_law])
def test_verifiers_take_seed_by_the_integer_rule(verify):
    # numpy would refuse these with messages that name no argument
    for bad in (1.5, None, "3", float("nan")):
        with pytest.raises(ValueError, match="seed must be an integer"):
            verify(1, trials=1, seed=bad)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        verify(1, trials=1, seed=-1)
    # an integral float seed draws as its int
    reps = [drop_clock(verify(1, trials=1, seed=s)) for s in (3, 3.0)]
    assert reps[0] == reps[1]


def test_samplers_take_counts_by_the_integer_rule():
    draws = {"m": lambda x: repr(sample_point(x, np.random.default_rng(5))),
             "factors": lambda x: sample_gamma48(2, np.random.default_rng(5),
                                                 factors=x)}
    for name, draw in draws.items():
        assert draw(2.0) == draw(2)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            draw(2.5)


def test_deep_level_sampler():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = sample_gamma48(2, rng)
        assert subgroup_membership(g, "Gamma4_8")
        assert subgroup_membership(g, "Gamma1_2")
        assert coset_profile(g) == (0,) * 4
    for factors in (0, -1):
        with pytest.raises(ValueError, match="commutator factor"):
            sample_gamma48(2, rng, factors=factors)
