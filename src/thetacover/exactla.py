"""Exact linear algebra over Python ints and fractions.

Everything here operates on matrices given as lists (or tuples) of rows,
which from_blocks assembles from blocks.  Entries are ints or Fractions;
no floats ever enter these routines, so results are exact.  There is one
elimination, the fraction-free full-pivot Bareiss elimination over
Python ints (_pivoting): det, rank and inv read it, and so does the rank
normal form of the cocycle module.  It does each row operation once, and
a transform rides along as the columns of (m | 1), as in the Hermite
normal form; inv and the Gauss-sum kernel share one triangular solve.
Rational input is first scaled to ints by the lcm of its denominators.
Matrices are tiny (at most ~25 x 25), which keeps the classical O(n^3)
algorithms comfortably fast.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Row = Sequence
Matrix = Sequence[Row]


# --- basic constructors and arithmetic ---

def identity(n: int) -> list[list]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list]:
    return [[0] * c for _ in range(r)]


def as_int(x) -> int:
    """int(x) for an entry of outside input; ValueError unless int(x) == x."""
    try:
        n = int(x)
    except (OverflowError, ValueError):      # +-inf, nan, a non-numeric str
        n = None
    if n is None or n != x:
        raise ValueError(f"entries must be integers, got {x!r}")
    return n


def as_int_arg(x, name: str) -> int:
    """as_int(x) for the argument called name; its ValueError names it."""
    try:
        return as_int(x)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def transpose(m: Matrix) -> list[list]:
    return [list(col) for col in zip(*m)]


def from_blocks(grid) -> list[list]:
    """The matrix with the given rows of blocks, e.g. [[a, b], [c, d]].

    The blocks of one row of the grid have its height; ValueError if not.
    """
    return [[x for part in parts for x in part]
            for blocks in grid for parts in zip(*blocks, strict=True)]


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_add(a: Matrix, b: Matrix) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> list[list]:
    return [[-x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i))


# --- fraction-free full-pivot elimination ---

def _integral(m: Matrix) -> tuple[list[list[int]], int]:
    """(L m, L) as fresh int rows, L > 0 the lcm of the entries' denominators.

    Int input is only copied (L = 1); it never takes the Fraction pass.
    """
    if all(isinstance(x, int) for row in m for x in row):
        return [list(row) for row in m], 1
    a = [[Fraction(x) for x in row] for row in m]
    scale = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row]
            for row in a], scale


def _augmented(a: Matrix) -> list[list[int]]:
    """(a | 1) as fresh rows: a transform rides its elimination as columns."""
    return [[*row, *e] for row, e in zip(a, identity(len(a)))]


def _pivoting(c: Matrix, n: int | None = None) -> tuple:
    """Fraction-free full-pivot elimination of an r x N int matrix, in ints.

    Pivots are the first nonzero entry of the remaining block, row by row,
    in the first n columns (all by default), swapped to the diagonal; pivot
    k is the leading (k+1)-minor of the permuted c.  Each Bareiss row
    operation (piv * x - f * y) / prev divides exactly (Bareiss, Math.
    Comp. 22, 1968) and runs once over whole rows, so columns past n ride
    along.  Returns (pivots, sign, order, cols, rows): j = len(pivots) is
    the rank, order[k] and cols[k] the row and column of c moved to k, sign
    that of the column swaps.  For (c | 1) and d = piv_{j-1} (1 if j = 0),
    P c Q = diag(1_j, 0) has P[k] = p[k] / piv_k (k < j) and p[k] / d
    (k >= j), p the right block of rows, and Q^{-1} is (P c)[:j] over the
    unit rows at cols[j:].  A row swap happens only when row k of the
    remaining block is zero, so for a nonsingular square c no row moves and
    det c = sign * d.
    """
    r = len(c)
    n = (len(c[0]) if r else 0) if n is None else n
    work = [list(row) for row in c]
    order, cols = list(range(r)), list(range(n))
    pivots, sign, prev = [], 1, 1
    for k in range(min(r, n)):
        pivot = next(((i, t) for i in range(k, r) for t in range(k, n)
                      if work[i][t]), None)
        if pivot is None:
            break
        pr, pc = pivot
        if pr != k:
            work[k], work[pr] = work[pr], work[k]
            order[k], order[pr] = order[pr], order[k]
        if pc != k:
            for row in work:
                row[k], row[pc] = row[pc], row[k]
            cols[k], cols[pc] = cols[pc], cols[k]
            sign = -sign
        top = work[k]
        piv = top[k]
        for i in range(k + 1, r):
            f = work[i][k]
            work[i] = [(piv * x - f * y) // prev for x, y in zip(work[i], top)]
        pivots.append(piv)
        prev = piv
    return pivots, sign, order, cols, work


def _upper_solve(u: Matrix, b: Matrix, d: int) -> list[list[int]]:
    """The int rows x with u x = d b, u square upper triangular, by back
    substitution; every division is exact when d u^{-1} b is integral."""
    x = [None] * len(u)
    for i in reversed(range(len(u))):
        row = [d * v - sum(u[i][t] * x[t][s] for t in range(i + 1, len(u)))
               for s, v in enumerate(b[i])]
        assert all(v % u[i][i] == 0 for v in row), "d u^-1 b is not integral"
        x[i] = [v // u[i][i] for v in row]
    return x


def _square(m: Matrix, what: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{what} needs a square matrix")
    return n


def rank(m: Matrix) -> int:
    return len(_pivoting(_integral(m)[0])[0])


def det(m: Matrix) -> Fraction:
    """det m = sign * (last pivot) / L^n for m = (L m) / L."""
    n = _square(m, "determinant")
    a, scale = _integral(m)
    pivots, sign, *_ = _pivoting(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * (pivots[-1] if n else 1), scale ** n)


def inv(m: Matrix) -> list[list[Fraction]]:
    """m^{-1} as Fraction rows, from the elimination (U | p) of (L m | 1).

    Column k of U is column cols[k] of p (L m), so row cols[k] of
    (L m)^{-1} is row k of U^{-1} p; d (L m)^{-1} = +-adj(L m) is integral
    for d the last pivot, so m^{-1} = L X / d with X = d U^{-1} p in ints.
    """
    n = _square(m, "inverse")
    a, scale = _integral(m)
    pivots, _, _, cols, rows = _pivoting(_augmented(a), n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    d = pivots[-1] if n else 1
    x = _upper_solve([row[:n] for row in rows], [row[n:] for row in rows], d)
    return [[Fraction(v * scale, d) for v in row] for _, row in sorted(zip(cols, x))]


# --- integer Hermite normal form with transform ---

def hnf_with_transform(m: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with U unimodular and U . m = H.

    H has pivots left to right with positive pivot entries, entries above a
    pivot reduced into [0, pivot), and zero rows collected at the bottom;
    U is the right block of the reduced rows (m | 1).  Entries follow as_int.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = _augmented([list(map(as_int, row)) for row in m])
    r = 0
    for c in range(cols):
        # push all weight in column c below row r into row r via Euclid
        while nz := [i for i in range(r, rows) if h[i][c]]:
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    done = done and not h[i][c]
            if done:
                break
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):                 # reduce entries above the pivot
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
        if r == rows:
            break
    return [row[:cols] for row in h], [row[cols:] for row in h]


# Largest residue system box_sides enumerates; the Gauss-sum kernel's int64
# bound rests on it.
MAX_CLASSES = 10**6


def box_sides(h: Matrix) -> list[int]:
    """Side lengths of the residue box of Z^r modulo a full-rank row lattice.

    h is the lattice's HNF from ``hnf_with_transform``.  With h upper
    triangular the products of [0, h_ii) enumerate the quotient exactly
    once, so the product of the sides is the index |det|.  ValueError
    unless h has full rank and that index is at most MAX_CLASSES.
    """
    sides = [h[i][i] for i in range(len(h))]
    if not all(d > 0 for d in sides):
        raise ValueError("row lattice does not have full rank")
    index = math.prod(sides)
    if index > MAX_CLASSES:
        raise ValueError(f"residue system too large: {index} classes > {MAX_CLASSES}")
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
    if not is_symmetric(s):
        raise ValueError("signature needs a symmetric matrix")
    a, _ = _integral(s)
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
