"""Properties of the exact integer/rational linear algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacover import exactla as xla
from thetacover import random_word_element, x_star
from thetacover.cocycle import _maslov_gram

small_int = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@given(st.one_of(square(2), square(3), square(4)))
@settings(max_examples=60, deadline=None)
def test_det_matches_float(mat):
    exact = xla.det(mat)
    approx = np.linalg.det(np.array(mat, dtype=float))
    assert abs(float(exact) - approx) < 1e-6


@given(square(3), square(3))
@settings(max_examples=60, deadline=None)
def test_det_multiplicative(a, b):
    assert xla.det(xla.mat_mul(a, b)) == xla.det(a) * xla.det(b)


@given(square(3))
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(mat):
    if xla.det(mat) == 0:
        return
    assert xla.mat_eq(xla.mat_mul(mat, xla.inv(mat)),
                      xla.identity(3, one=Fraction(1)))


@given(st.one_of(square(2), square(3)))
@settings(max_examples=80, deadline=None)
def test_hnf_transform_exact(mat):
    h, u = xla.hnf_with_transform(mat)
    assert xla.mat_eq(xla.mat_mul(u, mat), h)
    assert abs(xla.det(u)) == 1
    # pivots positive, zero rows at the bottom
    nonzero = [row for row in h if any(row)]
    assert h[:len(nonzero)] == nonzero
    pivots = [next(j for j, x in enumerate(row) if x) for row in nonzero]
    assert pivots == sorted(pivots)
    assert all(row[p] > 0 for row, p in zip(nonzero, pivots))


@given(square(3))
@settings(max_examples=60, deadline=None)
def test_rank_agrees_with_float(mat):
    assert xla.rank(mat) == np.linalg.matrix_rank(np.array(mat, dtype=float))


@given(square(2))
@settings(max_examples=60, deadline=None)
def test_residue_box_size(mat):
    d = xla.det(mat)
    if d == 0:
        return
    sides = xla.box_sides(xla.hnf_with_transform(mat)[0])
    assert math.prod(sides) == abs(int(d))


@given(square(3))
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates(mat):
    for row in xla.int_row_kernel(mat):
        assert all(x == 0 for x in xla.mat_mul([row], mat)[0])


@given(square(3))
@settings(max_examples=40, deadline=None)
def test_saturation_contains_rows(mat):
    if all(x == 0 for row in mat for x in row):
        return
    sat = xla.saturation(mat)
    # every original row must have integer coordinates in the saturation
    coords = xla.lattice_coordinates(sat, [row for row in mat if any(row)])
    rebuilt = xla.mat_mul(coords, sat)
    assert xla.mat_eq(rebuilt, [row for row in mat if any(row)])


def test_solve_left_consistency():
    a = [[1, 2, 0], [0, 1, 1]]
    x = xla.solve_left(a, [1, 3, 1])
    assert x is not None
    assert xla.mat_mul([x], a)[0] == [1, 3, 1]
    assert xla.solve_left([[1, 0, 0]], [0, 1, 0]) is None


def reference_signature(s):
    """The Fraction elimination that the integer one replaced."""
    a = xla.to_fractions(s)
    n = len(a)
    active = list(range(n))
    pos = neg = 0
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            k = i
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            if a[i][k] != 0:
                f = a[i][k] / p
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return pos, neg


def test_signature_of_diagonal():
    assert xla.congruence_signature([[2, 0], [0, -3]]) == (1, 1)
    assert xla.congruence_signature([[0, 1], [1, 0]]) == (1, 1)
    assert xla.congruence_signature([[0, 0], [0, 0]]) == (0, 0)


@given(square(3))
@settings(max_examples=60, deadline=None)
def test_signature_matches_eigenvalues(mat):
    sym = xla.mat_add(mat, xla.transpose(mat))
    pos, neg = xla.congruence_signature(sym)
    eig = np.linalg.eigvalsh(np.array(sym, dtype=float))
    assert pos == int(np.sum(eig > 1e-9))
    assert neg == int(np.sum(eig < -1e-9))


@given(st.one_of(square(3), square(4)),
       st.lists(st.integers(min_value=1, max_value=12), min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_signature_of_fractions_matches_reference(mat, dens):
    n = len(mat)
    sym = [[Fraction(mat[i][j] + mat[j][i], dens[min(i, j) * 4 + max(i, j)])
            for j in range(n)] for i in range(n)]
    assert xla.congruence_signature(sym) == reference_signature(sym)


@pytest.mark.parametrize("s", [
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 3, 0], [3, 0, 0], [0, 0, 0]],
    [[0, 1, 2], [1, 0, -1], [2, -1, 0]],
    [[0, 0, 0, 2], [0, 0, 5, 0], [0, 5, 0, 0], [2, 0, 0, 0]],
    [[1, 0, 0], [0, 0, 0], [0, 0, -4]],
    [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]],
])
def test_signature_zero_diagonal_blocks(s):
    assert xla.congruence_signature(s) == reference_signature(s)


def test_signature_of_maslov_grams_matches_reference():
    # the 3m x 3m Gram matrices that rao_cocycle hands to the signature
    for m in (1, 2, 3):
        xs = x_star(m)
        for seed in range(400):
            length = 1 + seed % 12
            g1 = random_word_element(m, "Sp", length, seed=2 * seed)[0]
            g2 = random_word_element(m, "Sp", length, seed=2 * seed + 1)[0]
            gram = _maslov_gram(xs.rows, xs.act(g2.inverse()).rows,
                                xs.act(g1).rows)
            assert xla.congruence_signature(gram) == reference_signature(gram)
