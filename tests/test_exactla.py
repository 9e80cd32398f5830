"""Properties of the exact integer/rational linear algebra.

det, the adjugate, inv and the rank (the number of pivots) come from one
fraction-free kernel, the adjugate from closed forms up to 2 x 2; they are
checked against the Fraction Gauss-Jordan references of
``exact_reference``, whose lattice helpers are checked here too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact_reference as ref
from thetacover import exactla as xla
from thetacover import Mu8, random_word_element
from thetacover.cocycle import _maslov_gram

small_int = st.integers(min_value=-6, max_value=6)
# half zeros, so that singular and low-rank matrices are common
sparse_int = st.one_of(st.just(0), small_int)
sparse_fraction = st.builds(Fraction, sparse_int,
                            st.integers(min_value=1, max_value=12))


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def matrices(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


int_or_fraction = st.sampled_from([sparse_int, sparse_fraction])


def pivot_rank(mat):
    """The rank as the library reads it: the number of pivots of _pivoting."""
    return len(xla._pivoting(xla._integral(mat)[0])[0])


@given(st.tuples(st.integers(min_value=0, max_value=5), int_or_fraction)
       .flatmap(lambda t: matrices(t[1], t[0], t[0])))
@settings(max_examples=300, deadline=None)
def test_elimination_matches_fraction_reference(mat):
    want = ref.det(mat)
    got = xla.det(mat)
    assert type(got) is Fraction and got == want
    assert pivot_rank(mat) == ref.rank(mat)
    if want == 0:
        with pytest.raises(ValueError, match="singular"):
            xla.inv(mat)
        return
    inverse = xla.inv(mat)
    assert inverse == ref.inv(mat)
    assert all(type(x) is Fraction for row in inverse for x in row)


def check_adjugate(mat):
    det, adj = xla._adjugate(mat)
    assert type(det) is int and det == ref.det(mat)
    if det == 0:
        assert adj is None
        return
    assert all(type(x) is int for row in adj for x in row)
    assert adj == [[det * x for x in row] for row in ref.inv(mat)]


@given(st.integers(min_value=0, max_value=5)
       .flatmap(lambda n: matrices(sparse_int, n, n)))
@settings(max_examples=300, deadline=None)
def test_adjugate_matches_fraction_reference(mat):
    # the closed forms at n <= 2 and the elimination above, all in ints
    check_adjugate(mat)


@pytest.mark.parametrize("mat", [
    [], [[0]], [[-3]], [[1, 2], [3, 4]], [[0, 5], [-2, 0]], [[2, 4], [1, 2]],
    [[0, 0], [0, 0]], [[2, 1, 0], [0, 0, 3], [1, 0, 1]],
    [[1, 2, 3], [2, 4, 6], [0, 1, 5]],
    [[1, 2, 3], [0, 0, 0], [4, 5, 6]], [[1, 0, 3], [2, 0, 6], [4, 0, 5]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -3, 0]],
])
def test_adjugate_examples(mat):
    # every size up to 4 x 4: singular ones, a zero row or column, zero diagonals
    check_adjugate(mat)


@given(st.tuples(st.integers(min_value=1, max_value=4), int_or_fraction)
       .flatmap(lambda t: matrices(t[1], t[0], 2 * t[0])))
@settings(max_examples=200, deadline=None)
def test_rank_of_wide_matrices_matches_fraction_reference(mat):
    # the m x 2m row bases, as the Maslov reference ranks its planes
    assert pivot_rank(mat) == ref.rank(mat)
    assert pivot_rank(xla.transpose(mat)) == ref.rank(mat)


@given(st.integers(min_value=1, max_value=5)
       .flatmap(lambda n: matrices(sparse_int, n, n)))
@settings(max_examples=300, deadline=None)
def test_nonsingular_elimination_swaps_no_row(mat):
    # so the column-swap sign that _pivoting returns is the sign of det
    want = ref.det(mat)
    assume(want != 0)
    pivots, sign, order, _, _ = xla._pivoting(mat)
    assert order == list(range(len(mat)))
    assert sign * pivots[-1] == want


@given(st.tuples(st.integers(min_value=1, max_value=4),
                 st.integers(min_value=1, max_value=4))
       .flatmap(lambda t: matrices(sparse_int, *t)))
@settings(max_examples=200, deadline=None)
def test_elimination_carries_the_row_transform(mat):
    # eliminating (c | 1) pivots in c alone, leaves c's elimination as it
    # is, and its right block p carries every row operation: the columns
    # of p c in the order cols are the left block
    n = len(mat[0])
    pivots, sign, order, cols, rows = xla._pivoting(xla._augmented(mat), n)
    assert len(pivots) == ref.rank(mat)
    assert xla._pivoting(mat) == (pivots, sign, order, cols,
                                  [row[:n] for row in rows])
    pc = xla.mat_mul([row[n:] for row in rows], mat)
    assert [[row[t] for t in cols] for row in pc] == [row[:n] for row in rows]


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
    assert xla.mat_eq(xla.mat_mul(mat, xla.inv(mat)), xla.identity(3))


def zero_lines(drawn):
    """The drawn matrix with row i and column j set to zero where asked."""
    mat, i, j, zero_row, zero_col = drawn
    return [[0 if (zero_row and r == i) or (zero_col and c == j) else x
             for c, x in enumerate(row)] for r, row in enumerate(mat)]


# rectangular and rank-deficient, up to 5 x 5, often with a zero row or column
hnf_inputs = (st.tuples(st.integers(min_value=1, max_value=5),
                        st.integers(min_value=1, max_value=5))
              .flatmap(lambda t: st.tuples(matrices(sparse_int, *t),
                                           st.integers(0, t[0] - 1),
                                           st.integers(0, t[1] - 1),
                                           st.booleans(), st.booleans()))
              .map(zero_lines))


@given(hnf_inputs)
@settings(max_examples=300, deadline=None)
def test_hnf_transform_exact(mat):
    h, u = xla.hnf_with_transform(mat)
    assert xla.mat_eq(xla.mat_mul(u, mat), h)
    assert abs(xla.det(u)) == 1
    # zero rows at the bottom, one per rank deficiency
    nonzero = [row for row in h if any(row)]
    assert h[:len(nonzero)] == nonzero and len(nonzero) == ref.rank(mat)
    # pivots strictly left to right and positive, zeros below each, and the
    # entries above each pivot reduced into [0, pivot)
    pivots = [next(j for j, x in enumerate(row) if x) for row in nonzero]
    assert pivots == sorted(set(pivots))
    for k, p in enumerate(pivots):
        assert h[k][p] > 0
        assert all(h[i][p] == 0 for i in range(k + 1, len(h)))
        assert all(0 <= h[i][p] < h[k][p] for i in range(k))


@given(square(3))
@settings(max_examples=60, deadline=None)
def test_rank_agrees_with_float(mat):
    assert pivot_rank(mat) == np.linalg.matrix_rank(np.array(mat, dtype=float))


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
    for row in ref.int_row_kernel(mat):
        assert all(x == 0 for x in xla.mat_mul([row], mat)[0])


@given(square(3))
@settings(max_examples=40, deadline=None)
def test_saturation_contains_rows(mat):
    if all(x == 0 for row in mat for x in row):
        return
    sat = ref.saturation(mat)
    # every original row must have integer coordinates in the saturation
    coords = ref.lattice_coordinates(sat, [row for row in mat if any(row)])
    rebuilt = xla.mat_mul(coords, sat)
    assert xla.mat_eq(rebuilt, [row for row in mat if any(row)])


def test_solve_left_consistency():
    a = [[1, 2, 0], [0, 1, 1]]
    x = ref.solve_left(a, [1, 3, 1])
    assert x is not None
    assert xla.mat_mul([x], a)[0] == [1, 3, 1]
    assert ref.solve_left([[1, 0, 0]], [0, 1, 0]) is None


def reference_signature(s):
    """The Fraction elimination that the integer one replaced."""
    a = ref.to_fractions(s)
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


def pairing(l1, l2):
    """<l1, l2> = x1 y*^T - x1* y^T on the row bases of two Lagrangians."""
    m = len(l1)
    x, xs = [r[:m] for r in l1], [r[m:] for r in l1]
    y, ys = [r[:m] for r in l2], [r[m:] for r in l2]
    return xla.mat_add(xla.mat_mul(x, xla.transpose(ys)),
                       xla.mat_neg(xla.mat_mul(xs, xla.transpose(y))))


def test_signature_of_maslov_grams_matches_reference():
    # the 3m x 3m Gram matrices that rao_cocycle hands to the signature
    for m in (1, 2, 3):
        xs = ref.x_star(m)
        for seed in range(400):
            length = 1 + seed % 12
            g1 = random_word_element(m, "Sp", length, seed=2 * seed)[0]
            g2 = random_word_element(m, "Sp", length, seed=2 * seed + 1)[0]
            l2, l3 = ref.x_star_image(g2.inverse()), ref.x_star_image(g1)
            gram = _maslov_gram(pairing(xs, l2), pairing(l2, l3),
                                pairing(l3, xs))
            assert xla.congruence_signature(gram) == reference_signature(gram)


@pytest.mark.parametrize("x", [float("inf"), -float("inf"), float("nan"),
                               1.5, "1", "one", None, 1 + 0j, [1]])
def test_as_int_refuses_non_integers_alike(x):
    # int() raises OverflowError at +-inf, TypeError at None, a complex or
    # a list, and messages of its own at nan and "one"; each must reach
    # the caller as the documented ValueError
    with pytest.raises(ValueError, match="entries must be integers"):
        xla.as_int(x)
    with pytest.raises(ValueError, match="exponent must be an integer"):
        Mu8(x)


def test_from_blocks_reads_rows_of_blocks():
    a, b = [[1, 2], [3, 4]], ((5,), (6,))
    assert xla.from_blocks([[a, b], [[[7, 8]], [[9]]]]) == \
        [[1, 2, 5], [3, 4, 6], [7, 8, 9]]
    assert xla.from_blocks([[a]]) == a and xla.from_blocks([[a]]) is not a
    with pytest.raises(ValueError):            # blocks of one row, two heights
        xla.from_blocks([[a, [[5]]]])
