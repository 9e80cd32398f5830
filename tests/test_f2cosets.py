"""Mod-2 coset geometry: labels, representatives, table invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference as ref
from thetacover import (Mu8, coset_index_of, coset_profile, coset_table,
                        enumerate_isotropic, m_xstar, make_generator,
                        q0_eval, random_word_element, subgroup_membership,
                        transvection_rep)
from thetacover.cocycle import CoverElement, cover_mul

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def word(m, sub, seed, length=6):
    return random_word_element(m, sub, length=length, seed=seed)[0]


def test_isotropic_counts():
    for m, n in ((1, 3), (2, 10), (3, 36), (4, 136)):
        vs = enumerate_isotropic(m)
        assert len(vs) == n == (2 ** m + 1) * 2 ** (m - 1)
        assert all(q0_eval(v) == 0 for v in vs)


def test_q0_eval_takes_integer_entries():
    # int() would truncate 1.9 and parse "1"; the as_int rule refuses both
    for bad in ((1.9, 1), ("1", 1), (1, 1, 1, 0.5)):
        with pytest.raises(ValueError, match="entries must be integers"):
            q0_eval(bad)
    with pytest.raises(ValueError, match="even length"):
        q0_eval((1, 0, 1))
    assert q0_eval((1.0, True)) == 1
    assert q0_eval((3, -1, 2, 5)) == 1 and q0_eval((3, -1, 2, 4)) == 0


def test_cached_builders_key_on_the_integer():
    # m follows the as_int rule before the cache: no second table
    for same in (2.0, np.int64(2)):
        assert coset_table(same) is coset_table(2)
        assert enumerate_isotropic(same) is enumerate_isotropic(2)
    assert coset_table(True) is coset_table(1)
    for build in (coset_table, enumerate_isotropic):
        with pytest.raises(ValueError, match="m must be an integer"):
            build(2.5)


def test_q0_rules_match_the_block_references():
    # membership is Q0 on the rows and the label is Q0 on the columns; the
    # block formulas they replaced agree on every representative and on
    # seeded words of all three samplers
    for m in (1, 2, 3, 4):
        gs = [g for rec in coset_table(m) for g in (rec.M, rec.M_prime)]
        gs += [word(m, sub, seed, length=1 + seed % 12)
               for sub in ("Sp", "Gamma1_2", "Gamma2") for seed in range(25)]
        for g in gs:
            assert subgroup_membership(g, "Gamma(1,2)") == ref.theta_group_by_blocks(g)
            assert coset_profile(g) == ref.label_by_blocks(g)


def test_transvection_reps_land_in_their_own_coset():
    for m in (1, 2):
        for q in enumerate_isotropic(m):
            assert coset_profile(transvection_rep(q)) == q


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_profile_constant_on_cosets(seed):
    m = 1 + seed % 2
    r = word(m, "Gamma1_2", seed)
    g = word(m, "Sp", seed + 1)
    assert coset_profile(r @ g) == coset_profile(g)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_profile_zero_is_membership(seed):
    m = 1 + seed % 2
    g = word(m, "Sp", seed, length=7)
    zero = (0,) * (2 * m)
    assert (coset_profile(g) == zero) == subgroup_membership(g, "Gamma1_2")


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_right_action_on_labels(seed):
    # the label of g g' depends on (label of g, g' mod 2) only
    m = 2
    g1 = word(m, "Sp", seed)
    g2 = word(m, "Sp", seed + 1)
    r = word(m, "Gamma1_2", seed + 2)
    assert coset_profile((r @ g1) @ g2) == coset_profile(g1 @ g2)


def test_table_is_indexed_by_labels():
    for m in (1, 2):
        table = coset_table(m)
        assert [rec.q for rec in table] == list(enumerate_isotropic(m))
        for k, rec in enumerate(table):
            assert coset_index_of(rec.M) == k
            assert coset_index_of(rec.M_prime) == k


def test_shift_data_matches_label_support():
    for rec in coset_table(2):
        x, xs = rec.q[:2], rec.q[2:]
        for i in range(2):
            if x[i] and xs[i]:
                assert rec.eps_q[i] == -1 and rec.m_q[i] == -1
            elif xs[i]:
                assert rec.m_q[i] == 1 and rec.eps_q[i] == 0
            elif x[i]:
                assert rec.eps_q[i] == 1 and rec.m_q[i] == 0
            else:
                assert rec.m_q[i] == 0 and rec.eps_q[i] == 0


def test_lift_sign_reproduces_direct_constant():
    # the plus-lift chain times kappa must equal the direct constant
    for m in (1, 2):
        for rec in coset_table(m):
            mm = rec.m_xstar_q if rec.kappa == 1 else rec.m_xstar_q * Mu8(4)
            assert m_xstar(rec.M) == mm


def test_pair_label_uses_unipotent_block_rep():
    rec = [r for r in coset_table(2) if r.q == (1, 1, 1, 1)][0]
    # coordinates 1 and 2 form one anisotropic pair; no coordinate is single
    assert rec.m_q == (-1, -1) and rec.eps_q == (-1, -1)
    # both representatives sit in the same coset but differ as matrices
    assert rec.M != rec.M_prime


def test_pair_block_factors_the_transvection():
    # full = theta_part upper lower with theta_part in the theta subgroup,
    # and the refined representative is upper lower
    full = transvection_rep((1, 1, 1, 1))
    upper = make_generator("u", 2, b=[[-1, 0], [0, -1]])
    lower = make_generator("u_minus", 2, c=[[1, 1], [1, 1]])
    theta_part = full @ (upper @ lower).inverse()
    assert subgroup_membership(theta_part, "Gamma1_2")
    assert theta_part @ upper @ lower == full
    rec = [r for r in coset_table(2) if r.q == (1, 1, 1, 1)][0]
    assert rec.M == upper @ lower
    assert rec.M_prime == full


def test_cover_lift_of_identity_record():
    rec = coset_table(2)[0]
    lift = CoverElement(rec.M, rec.kappa)
    sq = cover_mul(lift, lift)
    assert sq.g == rec.M @ rec.M
