"""Exact linear algebra over Python ints and fractions.

Everything here operates on matrices given as lists (or tuples) of rows.
Entries are ints or Fractions; no floats ever enter these routines, so
results are exact.  The congruence signature eliminates fraction-free over
Python ints.  Matrices are tiny (at most ~25 x 25), which keeps the
classical O(n^3) algorithms comfortably fast.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = Sequence
Matrix = Sequence[Row]


# --- basic constructors and arithmetic ---

def identity(n: int, one=1) -> list[list]:
    return [[one if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list]:
    return [[0] * c for _ in range(r)]


def transpose(m: Matrix) -> list[list]:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_add(a: Matrix, b: Matrix) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> list[list]:
    return [[-x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def to_fractions(m: Matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i))


# --- Gaussian elimination over Q ---

def rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    a = to_fractions(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def det(m: Matrix) -> Fraction:
    a = to_fractions(m)
    n = len(a)
    assert all(len(row) == n for row in a), "determinant needs a square matrix"
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def inv(m: Matrix) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(map(Fraction, row)) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    assert pivots[:n] == list(range(n)), "matrix is singular"
    return [row[n:] for row in red]


def solve_left(a: Matrix, b: Row) -> list[Fraction] | None:
    """One rational solution x of x . a = b, or None if inconsistent.

    a is r x n, b has length n, x has length r.  When the system is
    underdetermined an arbitrary consistent solution is returned.
    """
    at = transpose(a)                      # n x r, solving at . x^T = b^T
    aug = [list(map(Fraction, row)) + [Fraction(bi)] for row, bi in zip(at, b)]
    red, pivots = rref(aug)
    r = len(a)
    if r in pivots:
        return None                        # pivot in the constant column
    x = [Fraction(0)] * r
    for i, c in enumerate(pivots):
        x[c] = red[i][r]
    return x


# --- integer Hermite normal form with transform ---

def hnf_with_transform(m: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with U unimodular and U . m = H.

    H has pivots left to right with positive pivot entries, entries above a
    pivot reduced into [0, pivot), and zero rows collected at the bottom.
    """
    h = [[int(x) for x in row] for row in m]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows)
    r = 0
    for c in range(cols):
        # push all weight in column c below row r into row r via Euclid
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r >= rows or h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):                 # reduce entries above the pivot
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return h, u


def int_row_kernel(m: Matrix) -> list[list[int]]:
    """Basis of the saturated lattice {x in Z^r : x . m = 0}."""
    h, u = hnf_with_transform(m)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def saturation(m: Matrix) -> list[list[int]]:
    """Basis of {x in Z^n : x in Q-rowspan(m)} (the saturated row lattice)."""
    ker_cols = int_row_kernel(transpose(m))    # rows k with m . k^T = 0
    if not ker_cols:
        return identity(len(m[0]))
    return int_row_kernel(transpose(ker_cols))


def lattice_coordinates(basis: Matrix, sub: Matrix) -> list[list[int]]:
    """Integer coordinate matrix C with sub = C . basis (asserted exact)."""
    coords = []
    for row in sub:
        x = solve_left(basis, row)
        assert x is not None, "vector outside the lattice span"
        assert all(f.denominator == 1 for f in x), "non-integer coordinates"
        coords.append([int(f) for f in x])
    return coords


def box_sides(h: Matrix, guard: int = 10**6) -> list[int]:
    """Side lengths of the residue box of Z^r modulo a full-rank row lattice.

    h is the lattice's HNF from ``hnf_with_transform``.  With h upper
    triangular the products of [0, h_ii) enumerate the quotient exactly
    once, so the product of the sides is the index |det|.  Raises if that
    index exceeds guard.
    """
    sides = [h[i][i] for i in range(len(h))]
    assert all(d > 0 for d in sides), "row lattice does not have full rank"
    index = math.prod(sides)
    if index > guard:
        raise ValueError(f"residue system too large: {index} classes > {guard}")
    return sides


# --- signatures of symmetric rational forms ---

def congruence_signature(s: Matrix) -> tuple[int, int]:
    """(positives, negatives) of a symmetric rational matrix, kernel dropped.

    Fraction-free symmetric elimination over Python ints.  Rational input is
    first scaled by the lcm of its denominators, which is positive and so
    keeps the signature.  After pivot p on row a of the active block A, the
    new active block is p A - a a^T: p times the Schur complement, so each
    negative pivot swaps the roles of positive and negative from then on.
    Dividing the block by the gcd of its entries (positive) keeps them
    small.  With a zero diagonal, row+column addition creates a pivot.
    """
    assert is_symmetric(s), "signature needs a symmetric matrix"
    a = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in s]
    scale = math.lcm(*(x.denominator for row in a for x in row))
    a = [[int(x * scale) for x in row] for row in a]
    pos = neg = 0
    flipped = False                 # active block is a negative multiple
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                         if a[i][j]), None)
            if pair is None:
                break                       # remaining block is zero
            i, j = pair                     # row_i += row_j, col_i += col_j
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            k = i
        pivot_row = a[k]
        p = pivot_row[k]
        if (p > 0) != flipped:
            pos += 1
        else:
            neg += 1
        if p < 0:
            flipped = not flipped
        a = [[p * x - row[k] * y
              for t, (x, y) in enumerate(zip(row, pivot_row)) if t != k]
             for r, row in enumerate(a) if r != k]
        g = math.gcd(*(x for row in a for x in row))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return pos, neg
