"""Eighth-root cocycle, exact factorization, sign cover."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacover import (CoverElement, IntegerSymplectic, Lagrangian, Mu8,
                        cbar_cocycle, coset_table, cover_inv, cover_mul, m_xstar,
                        make_generator, maslov_signature, pws_decompose,
                        random_word_element, rao_cocycle, x_star)
from thetacover import exactla as xla
from thetacover.cocycle import _rank_normal_form

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def word(m, seed, length=6):
    return random_word_element(m, "Sp", length=length, seed=seed)[0]


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_mu8_group_laws(a, b):
    x, y = Mu8(a), Mu8(b)
    assert (x * y).exponent == (a + b) % 8
    assert x * x.inv() == Mu8(0)
    assert (x ** 3) == x * x * x
    assert abs(x.value * y.value - (x * y).value) < 1e-12


def test_mu8_sign_guard():
    assert Mu8(4).as_sign() == -1
    assert Mu8(0).as_sign() == 1
    with pytest.raises(ValueError, match="not a sign"):
        Mu8(1).as_sign()


def test_lagrangian_validation():
    Lagrangian([[1, 0, 0, 0], [0, 1, 0, 0]])        # the X plane
    assert x_star(2).rows == ((0, 0, 1, 0), (0, 0, 0, 1))
    assert x_star(2) is x_star(2)                   # built and validated once
    with pytest.raises(ValueError):
        Lagrangian([[1, 0, 0, 0], [2, 0, 0, 0]])    # dependent rows
    with pytest.raises(ValueError):
        Lagrangian([[1, 0, 0, 0], [0, 0, 1, 0]])    # form does not vanish


def test_maslov_alternating_in_cyclic_order():
    xs = x_star(1)
    om = make_generator("omega", 1)
    u = make_generator("u_ij", 1, i=1, j=1, t=1)
    l2, l3 = xs.act(om), xs.act(u @ om)
    s = maslov_signature(xs, l2, l3)
    assert maslov_signature(l2, l3, xs) == s
    assert maslov_signature(xs, l3, l2) == -s


def test_rao_cocycle_matches_lagrangian_oracle():
    # the blocks (c1 | d1) and (-c2^T | a2^T) against validated images of X*
    for m in (1, 2, 3):
        xs = x_star(m)
        for seed in range(150):
            length = 1 + seed % 12
            g1 = random_word_element(m, "Sp", length, seed=2 * seed)[0]
            g2 = random_word_element(m, "Sp", length, seed=2 * seed + 1)[0]
            want = maslov_signature(xs, xs.act(g2.inverse()), xs.act(g1))
            assert rao_cocycle(g1, g2) == Mu8(want)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_cocycle_identity(seed):
    m = 1 + seed % 2
    g1, g2, g3 = (word(m, seed + k) for k in range(3))
    lhs = rao_cocycle(g1, g2) * rao_cocycle(g1 @ g2, g3)
    rhs = rao_cocycle(g1, g2 @ g3) * rao_cocycle(g2, g3)
    assert lhs == rhs


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_normalized_cocycle_is_sign(seed):
    m = 1 + seed % 2
    g1, g2 = word(m, seed), word(m, seed + 1)
    sign = cbar_cocycle(g1, g2)
    assert sign in (1, -1)
    # the defining relation: c~ = cbar * m(g1 g2) / (m(g1) m(g2))
    recon = Mu8(0 if sign == 1 else 4) * m_xstar(g1 @ g2) \
        * m_xstar(g1).inv() * m_xstar(g2).inv()
    assert recon == rao_cocycle(g1, g2)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_factorization_reconstructs(seed):
    m = 1 + seed % 3
    g = word(m, seed)
    fac = pws_decompose(g)
    om = make_generator("omega_S", m, S=set(fac.S))
    omq = [[Fraction(x) for x in row] for row in om.rows]
    recon = xla.mat_mul(xla.mat_mul([list(r) for r in fac.p1], omq),
                        [list(r) for r in fac.p2])
    assert xla.mat_eq(recon, [[Fraction(x) for x in row] for row in g.rows])
    assert fac.j == xla.rank(g.c)
    assert fac.x_sign in (1, -1)


def test_factorization_known_cases():
    m1 = make_generator("u_minus_ij", 1, i=1, j=1, t=1)   # c = -1
    assert pws_decompose(m1).x_sign == -1
    om = make_generator("omega", 2)
    fac = pws_decompose(om)
    assert fac.S == frozenset({1, 2}) and fac.x_sign == 1


def test_normalizing_constant_values():
    assert m_xstar(IntegerSymplectic.identity(2)) == Mu8(0)
    assert m_xstar(make_generator("omega", 1)) == Mu8(7)
    assert m_xstar(make_generator("omega", 3)) == Mu8(5)
    # h(a) with det a < 0 flips the sign part
    h = make_generator("h", 2, a=[[0, 1], [1, 0]])
    assert m_xstar(h) == Mu8(2)


def assert_matches_factorization(words):
    """m_xstar, computed cold and then cached, equals the oracle on words.

    Returns the ranks j of the c blocks seen, per m.
    """
    ranks = {}
    for g in words:
        fac = pws_decompose(g)
        _rank_normal_form.cache_clear()
        cold = m_xstar(g)
        warm = m_xstar(IntegerSymplectic(g.rows))      # an equal, new key
        assert _rank_normal_form.cache_info().hits == 1
        assert cold == warm == fac.m_xstar, g
        ranks.setdefault(g.m, set()).add(fac.j)
    return ranks


def test_normalizing_constant_matches_factorization():
    # 1200 words: m = 1..3, both samplers, lengths 1..30
    words = [random_word_element(m, group, length=1 + seed % 30, seed=seed)[0]
             for m in (1, 2, 3) for group in ("Sp", "Gamma(1,2)")
             for seed in range(200)]
    ranks = assert_matches_factorization(words)
    assert ranks == {m: set(range(m + 1)) for m in (1, 2, 3)}


def test_normalizing_constant_on_coset_representatives():
    assert_matches_factorization([rec.M for m in (1, 2, 3)
                                  for rec in coset_table(m)])


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_cover_is_associative_group(seed):
    m = 1 + seed % 2
    xs = [CoverElement(word(m, seed + k), 1 if k % 2 else -1) for k in range(3)]
    a = cover_mul(cover_mul(xs[0], xs[1]), xs[2])
    b = cover_mul(xs[0], cover_mul(xs[1], xs[2]))
    assert a.g == b.g and a.eps == b.eps
    e = cover_mul(xs[0], cover_inv(xs[0]))
    assert e.g == IntegerSymplectic.identity(m) and e.eps == 1
