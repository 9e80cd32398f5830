"""Induced monomial representation and the randomized law harness."""

import functools
import itertools
import operator

import numpy as np
import pytest

from thetacover import (CoverElement, IntegerSymplectic, MonomialMatrix, Mu8,
                        cbar_cocycle, coset_profile, coset_table, cover_inv,
                        cover_mul, induced_rep_matrix, lambda_bar,
                        make_generator, random_word_element, sample_gamma48,
                        sample_point, subgroup_membership, verify_scalar_law,
                        verify_vector_law)
from thetacover import harness
from thetacover.cocycle import word_lift
from thetacover.harness import _rel_err


def rand_monomial(n, rng):
    perm = tuple(int(x) for x in rng.permutation(n))
    coeffs = tuple(Mu8(int(k)) for k in rng.integers(0, 8, n))
    return MonomialMatrix(n, perm, coeffs)


def eye(n):
    return MonomialMatrix(n, tuple(range(n)), (Mu8(0),) * n)


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
        assert np.allclose((a @ b).to_array(), a.to_array() @ b.to_array())


def test_monomial_validation():
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 0), (Mu8(0), Mu8(0)))
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 1), (Mu8(0),))
    with pytest.raises(ValueError):
        MonomialMatrix(1, (0,), (0,))
    with pytest.raises(ValueError):
        eye(2) @ eye(3)


def test_induced_rep_identity_and_center():
    for m in (1, 2):
        n = len(coset_table(m))
        one = IntegerSymplectic.identity(m)
        assert induced_rep_matrix(CoverElement(one, 1)) == eye(n)
        center = induced_rep_matrix(CoverElement(one, -1))
        assert center.perm == tuple(range(n))
        assert all(c == Mu8(4) for c in center.coeffs)


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
    the relators of Sp_4(Z) are necessary, not sufficient: omega^4, the
    commutator [u_12, u_11] and omega^2 v_12 omega^{-2} v_12^{-1}.
    """
    om = make_generator("omega", m)
    if m == 1:
        u, u_inv = (make_generator("u_ij", 1, i=1, j=1, t=t) for t in (1, -1))
        return [("omega^4", [om] * 4),
                ("(omega u)^3 omega^2", [om, u] * 3 + [om, om]),
                ("u u^-1", [u, u_inv])]
    u12, u12_inv, u11, u11_inv = (make_generator("u_ij", 2, i=1, j=j, t=t)
                                  for j in (2, 1) for t in (1, -1))
    v12, v12_inv = (make_generator("v_ij", 2, i=1, j=2, t=t) for t in (1, -1))
    om_inv = om.inverse()
    return [("omega^4", [om] * 4),
            ("[u_12, u_11]", [u12, u11, u12_inv, u11_inv]),
            ("omega^2 v_12 omega^-2 v_12^-1",
             [om, om, v12, om_inv, om_inv, v12_inv])]


def test_letter_images_satisfy_relators():
    # on a relator the letters' plus lifts multiply to (1, s), so the
    # letter images multiply to gamma_bar(1, s) = s Id exactly; each prefix
    # is checked too, which is where word_lift's m(P_k)^{-1} shows
    signs = {}
    for m in (1, 2):
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
                                           (Mu8(0 if lift.eps == 1 else 4),) * n)
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
        assert G.coeffs[0] == lambda_bar(rbar).inv()
        for i, rec in enumerate(table):
            if G.perm[i] != i:
                continue
            mbar = CoverElement(rec.M, rec.kappa)
            lam = lambda_bar(cover_mul(cover_mul(mbar, rbar), cover_inv(mbar)))
            assert G.coeffs[i] == lam.inv()


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
                assert image == MonomialMatrix(n, tuple(range(n)), (lam,) * n)
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
