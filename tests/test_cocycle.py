"""Eighth-root cocycle, exact factorization, sign cover."""

import collections
import functools
import operator

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacover import (CoverElement, IntegerSymplectic, Mu8,
                        cbar_cocycle, coset_table, cover_inv, cover_mul, m_xstar,
                        make_generator, pws_decompose,
                        random_word_element, rao_cocycle)
import exact_reference as ref
from thetacover import exactla as xla
from thetacover.cocycle import _frames, _rank_normal_form, word_lift
from thetacover.symplectic import _draw_word

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def word(m, seed, length=6):
    return random_word_element(m, "Sp", length=length, seed=seed)[0]


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_mu8_group_laws(a, b):
    x, y = Mu8(a), Mu8(b)
    assert (x * y).exponent == (a + b) % 8
    assert x * x.inv() == Mu8(0)
    assert abs(x.value * y.value - (x * y).value) < 1e-12


def test_mu8_sign_guard():
    assert Mu8(4).as_sign() == -1
    assert Mu8(0).as_sign() == 1
    with pytest.raises(ValueError, match="not a sign"):
        Mu8(1).as_sign()


def test_maslov_reference_checks_its_planes():
    x_plane = [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert ref.x_star(2) == [[0, 0, 1, 0], [0, 0, 0, 1]]
    assert ref.maslov_signature(x_plane, ref.x_star(2), x_plane) == 0
    for bad in ([[1, 0, 0, 0], [2, 0, 0, 0]],       # dependent rows
                [[1, 0, 0, 0], [0, 0, 1, 0]],       # form does not vanish
                [[1, 0, 0, 0]]):                    # not 2 x 4
        with pytest.raises(ValueError):
            ref.maslov_signature(x_plane, bad, ref.x_star(2))


def test_maslov_alternating_in_cyclic_order():
    xs = ref.x_star(1)
    om = make_generator("omega", 1)
    u = make_generator("u_ij", 1, i=1, j=1, t=1)
    l2, l3 = ref.x_star_image(om), ref.x_star_image(u @ om)
    s = ref.maslov_signature(xs, l2, l3)
    assert ref.maslov_signature(l2, l3, xs) == s
    assert ref.maslov_signature(xs, l3, l2) == -s


def parabolic_element(m, seed):
    """A seeded word in the Siegel parabolic: u_ij and v_ij letters only."""
    letters = [letter for kind, _, letter in _draw_word(m, "Sp", 12, seed)
               if kind != "omega_S"]
    return functools.reduce(operator.matmul, letters, IntegerSymplectic.identity(m))


def first_invertible_pairing(g1, g2):
    """The branch rao_cocycle takes on a pair outside the parabolic: the
    index of the first invertible one of the pairings (A, B, C) of
    (X*, X* g2^{-1}, X* g1), read off the planes, or 3 when none is."""
    xs = ref.x_star(g1.m)
    l2, l3 = ref.x_star_image(g2.inverse()), ref.x_star_image(g1)
    pairings = (ref.pairing(xs, l2), ref.pairing(l2, l3), ref.pairing(l3, xs))
    return next((k for k, p in enumerate(pairings) if ref.det(p)), 3)


def test_rao_cocycle_matches_lagrangian_oracle():
    # the blocks (c1 | d1) and (-c2^T | a2^T) against the images X* g:
    # pairs with one Siegel-parabolic argument (c = 0), in both orders,
    # where rao_cocycle computes no signature; and outside it, the m x m
    # form of the first invertible pairing and the 3m Gram kept when none
    # is, on seeded pairs in both orders, pairs with a singular c
    # (p omega_S q, S proper) and triples built to have no invertible
    # pairing (omega_S twice: c = x, and c1 a2 + d1 c2 = x(1 - x) + (1 - x)x = 0)
    pairs = []
    for m in (1, 2, 3):
        for seed in range(150):
            length = 1 + seed % 12
            g1 = random_word_element(m, "Sp", length, seed=2 * seed)[0]
            g2 = random_word_element(m, "Sp", length, seed=2 * seed + 1)[0]
            p = parabolic_element(m, seed)
            assert not any(map(any, p.c))
            pairs += [(g1, g2), (p, g1), (g1, p), (p, p)]
    for m in (1, 2, 3, 4):
        for sub in ("Sp", "Gamma(1,2)"):
            for seed in range(40):
                length = 8 + seed % 16
                g1 = random_word_element(m, sub, length, seed=2 * seed)[0]
                g2 = random_word_element(m, sub, length, seed=2 * seed + 1)[0]
                pairs += [(g1, g2), (g2, g1)]
        omega = make_generator("omega", m)
        for size in range(1, m):
            omega_s = make_generator("omega_S", m, S=set(range(1, size + 1)))
            pairs += [(omega_s, omega_s), (omega, omega_s), (omega_s, omega)]
            for seed in range(8):
                g = parabolic_element(m, seed) @ omega_s @ parabolic_element(m, seed + 50)
                h = word(m, seed, length=12)
                pairs += [(g, h), (h, g), (g, g), (g, omega_s)]
    branches = collections.Counter()
    for a, b in pairs:
        want = ref.maslov_signature(ref.x_star(a.m), ref.x_star_image(b.inverse()),
                                    ref.x_star_image(a))
        assert rao_cocycle(a, b) == Mu8(want)
        if any(map(any, a.c)) and any(map(any, b.c)):
            branches[first_invertible_pairing(a, b)] += 1
    # A first, B first, C first and the kept Gram all occur
    assert set(branches) == {0, 1, 2, 3}, branches


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
    m = 1 + seed % 4
    g = word(m, seed)
    fac = pws_decompose(g)
    om = make_generator("omega_S", m, S=set(fac.S))
    omq = [[Fraction(x) for x in row] for row in om.rows]
    recon = xla.mat_mul(xla.mat_mul([list(r) for r in fac.p1], omq),
                        [list(r) for r in fac.p2])
    assert xla.mat_eq(recon, [[Fraction(x) for x in row] for row in g.rows])
    assert fac.j == ref.rank(g.c)
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


def reference_rank_normal(c):
    """Fraction full-pivot elimination: (P, Q, j) with P c Q = diag(1_j, 0).

    The elimination the library ran before it went fraction-free; each
    pivot is the first nonzero entry of the remaining block, row by row.
    """
    m = len(c)
    work = [[Fraction(x) for x in row] for row in c]
    p = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    q = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    k = 0
    while k < m:
        pr, pc = None, None
        for i in range(k, m):
            for j in range(k, m):
                if work[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        work[k], work[pr] = work[pr], work[k]
        p[k], p[pr] = p[pr], p[k]
        for i in range(m):
            work[i][k], work[i][pc] = work[i][pc], work[i][k]
        for i in range(m):
            q[i][k], q[i][pc] = q[i][pc], q[i][k]
        piv = work[k][k]
        work[k] = [x / piv for x in work[k]]
        p[k] = [x / piv for x in p[k]]
        for i in range(m):
            if i != k and work[i][k] != 0:
                f = work[i][k]
                work[i] = [x - f * y for x, y in zip(work[i], work[k])]
                p[i] = [x - f * y for x, y in zip(p[i], p[k])]
        for j in range(m):
            if j != k and work[k][j] != 0:
                f = work[k][j]
                for i in range(m):
                    work[i][j] -= f * work[i][k]
                    q[i][j] -= f * q[i][k]
        k += 1
    return p, q, k


def reference_rank_normal_form(g):
    """(j, x, P, Q) from the Fraction elimination, x = det P det a22 / det Q."""
    p, q, j = reference_rank_normal(g.c)
    x = ref.det(p) / ref.det(q)
    if j < g.m:
        rows = xla.transpose(ref.inv(p))[j:]
        cols = [row[j:] for row in q]
        x *= ref.det(xla.mat_mul(xla.mat_mul(rows, g.a), cols))
    return j, x, tuple(map(tuple, p)), tuple(map(tuple, q))


def test_rank_normal_form_matches_fraction_elimination():
    # 480 words (m = 1..4, three samplers, lengths 1..30) and the coset
    # representatives; every rank of c occurs at every m
    words = [random_word_element(m, group, length=1 + seed % 30, seed=seed)[0]
             for m in (1, 2, 3, 4) for group in ("Sp", "Gamma(1,2)", "Gamma2")
             for seed in range(40)]
    words += [rec.M for m in (1, 2, 3) for rec in coset_table(m)]
    ranks = {}
    for g in words:
        want_j, want_x, want_p, want_q = reference_rank_normal_form(g)
        want = (want_j, want_x, want_p, ref.inv(want_q))
        j, x, p, row_den, _ = _rank_normal_form(g)
        assert all(type(v) is int for v in row_den + sum(p, ()))
        # P[k] = p[k] / row_den[k]
        p = tuple(tuple(Fraction(v, k) for v in row) for row, k in zip(p, row_den))
        # the oracle's P^T and its Q^{-1}, which it reads without forming Q
        pws_j, a1, q_inv = _frames(g)
        assert pws_j == j and a1 == xla.transpose(p)
        got = (j, x, p, q_inv)
        assert got == want, g
        assert all(type(v) is Fraction for mat in (a1, q_inv) for row in mat for v in row)
        ranks.setdefault(g.m, set()).add(j)
    assert ranks == {m: set(range(m + 1)) for m in (1, 2, 3, 4)}


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


def test_cover_element_takes_eps_by_the_as_int_rule():
    g = word(2, 5)
    x = CoverElement(g, 1.0)
    assert type(x.eps) is int and x.eps == 1
    y = cover_mul(x, CoverElement(g, -1.0))
    assert type(y.eps) is int and y == cover_mul(CoverElement(g, 1),
                                                  CoverElement(g, -1))
    for bad in (0, 2, 1.5, "1", None, 1 + 0j):
        with pytest.raises(ValueError, match="eps must be"):
            CoverElement(g, bad)


def test_word_lift_matches_cover_walk():
    # the closed-form sign of a word's plus lifts against walking the word
    # on the cover with cover_mul, from either lift of the first letter:
    # 1440 seeded words, m = 1..4, the three alphabets, 1..30 letters
    with_two_signatures = 0
    for m in (1, 2, 3, 4):
        for group in ("Sp", "Gamma(1,2)", "Gamma2"):
            for seed in range(60):
                letters = [letter for *_, letter in
                           _draw_word(m, group, 1 + seed % 30, seed)]
                lift = word_lift(letters)
                for eps in (1, -1):
                    walk = CoverElement(letters[0], eps)
                    for letter in letters[1:]:
                        walk = cover_mul(walk, CoverElement(letter, 1))
                    assert walk.g == lift.g and walk.eps == eps * lift.eps
                # the letters whose Rao factor takes a signature
                signed = [g for g in letters[1:] if any(map(any, g.c))]
                with_two_signatures += len(signed) >= 2
    assert with_two_signatures >= 400
