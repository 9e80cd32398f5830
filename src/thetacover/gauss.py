"""Gauss sums and the trivializing phase on the even-diagonal subgroup.

On the subgroup of integer symplectic matrices with diag(a b^T) and
diag(c d^T) even, the eighth-root pairing cocycle is a coboundary: there
is a phase beta_tilde(g), itself an eighth root of unity, with
c~(h1, h2) = beta_tilde(h1)^{-1} beta_tilde(h2)^{-1} beta_tilde(h1 h2).
It is one normalized conjugate Gauss sum for every rank j of c.  The
lattice-quotient sum attached to the pair of row Lagrangians (0 | 1) and
(c | d) reduces to G(d', W), W the j x j block of c in a basis of its
saturated row lattice (when c is invertible, W is the Hermite form of c).
The Gauss sum G(d, c) is put over the common denominator D = |det c|:
with the integer matrix Q = D c^{-1} d every phase is e^{i pi k / D} for
an integer k mod 2D, so the residue classes are counted by k in exact
int64 arithmetic (D is at most 10**6 classes, which keeps every
intermediate below 2m 10**12) and floats enter only in the final sum of
counts times phases.  When D = 1 the quotient has one class, x = 0, whose
phase is e^0, so the sum is exactly 1 + 0j and no phase is counted.  The
sum is defined when c d^T is symmetric with an even diagonal, exactly the
condition that makes the phase a class function.  The multiplier
lambda = m_xstar * beta_tilde^{-1} is what the holomorphic transformation
law of the theta series picks up on this subgroup.

f_shift and modified_cocycle push beta_tilde from the subgroup to the
whole group along the coset representatives: f(g) = beta_tilde(r) c~(r, M)
for the factorization g = r M, and c~'(g1,g2) = c~(g1,g2) f(g1) f(g2)
f(g1 g2)^{-1}.  The shifted cocycle is trivial whenever the first argument
lies in the subgroup, but is not identically one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import exactla as xla
from .cocycle import CoverElement, Mu8, m_xstar, rao_cocycle
from .f2cosets import coset_index_of, coset_table
from .symplectic import IntegerSymplectic, subgroup_membership

SNAP_TOL = 1e-9


def _int_rows(mat) -> list[list[int]]:
    if isinstance(mat, IntegerSymplectic):
        raise TypeError("pass a plain block matrix, not a symplectic matrix")
    return [list(map(xla.as_int, row)) for row in mat]


def symplectic_gauss_sum(d, c) -> complex:
    """G(d, c) = sum of e^{i pi x c^{-1} d x^T} over x in Z^m mod rows of c.

    Defined when d and c are square of one size and c d^T is symmetric with
    an even diagonal, which is exactly when the phase is a class function
    (raises ValueError otherwise, and past 10**6 classes).  Over the common
    denominator D = |det c| the phase is e^{i pi k / D} with the integer
    k = x Q x^T mod 2D, Q = D c^{-1} d: the classes are counted by k
    exactly, and floats enter only in the final sum of counts times phases.
    With |det c| = 1 there is one class, x = 0, and the sum is exactly
    1 + 0j.
    """
    c_rows = _int_rows(c)
    d_rows = _int_rows(d)
    m = len(c_rows)
    if len(d_rows) != m or any(len(r) != m for r in c_rows + d_rows):
        raise ValueError("Gauss sum needs square blocks d and c of one size")
    cdt = xla.mat_mul(c_rows, xla.transpose(d_rows))
    if not xla.is_symmetric(cdt) or any(cdt[i][i] % 2 for i in range(m)):
        raise ValueError("Gauss sum needs c d^T symmetric with an even diagonal")
    h, u = xla.hnf_with_transform(c_rows)          # u c = h, u unimodular
    if not all(h[i][i] for i in range(m)):
        raise ValueError("Gauss sum needs an invertible lower-left block")
    return _gauss_sum_hnf(h, xla.mat_mul(u, d_rows))[0]


def _gauss_sum_hnf(h, ud) -> tuple:
    """(G(d, c), D) from the HNF u c = h and u d, with D = |det c| = det h.

    The kernel of symplectic_gauss_sum: the rows of h span the lattice of
    c and h^{-1} u d = c^{-1} d, so G(d, c) = G(u d, h).  The pair is not
    validated; h must be square with a positive diagonal, which box_sides
    checks with the class guard.  D = 1 is one class, x = 0, with phase
    e^0: it returns (1 + 0j, 1) there, before any solve or count.
    """
    m = len(h)
    sides = xla.box_sides(h)
    den = math.prod(sides)                          # D = |det c| = det h
    if den == 1:                    # one class, x = 0, whose phase is e^0
        return 1 + 0j, 1
    # h Q = D u d: Q = D c^{-1} d = D h^{-1} u d is integral (D h^{-1} = adj h)
    q = xla._upper_solve(h, ud, den)
    # Entries of Q mod 2D and of x stay below 2D, and D <= 10**6 (the class
    # guard), so x Q and (x Q mod 2D) . x stay below 2m 10**12 in int64.
    two_den = 2 * den
    qmod = np.array([[x % two_den for x in row] for row in q],
                    dtype=np.int64).reshape(m, m)
    x = np.indices(sides, dtype=np.int64).reshape(m, den)   # one class a column
    k = ((qmod @ x) % two_den * x).sum(axis=0) % two_den
    counts = np.bincount(k, minlength=two_den)
    # e^{i pi (k + D) / D} = -e^{i pi k / D}
    folded = counts[:den] - counts[den:]
    return complex(folded @ np.exp(1j * np.pi * np.arange(den) / den)), den


@dataclass(frozen=True)
class SnappedRoot:
    """An eighth root of unity recovered from a floating computation."""
    value: Mu8
    raw: complex
    residual: float


def snap_mu8(raw: complex) -> SnappedRoot:
    # the root nearest by angle is the root nearest by distance
    best = round(4 * cmath.phase(raw) / math.pi) % 8
    residual = abs(raw - Mu8(best).value)
    if residual >= SNAP_TOL:
        raise ArithmeticError(
            f"value {raw!r} is not an eighth root of unity "
            f"(residual {residual:.3e} >= {SNAP_TOL})")
    return SnappedRoot(value=Mu8(best), raw=raw, residual=residual)


def beta_tilde(g: IntegerSymplectic) -> SnappedRoot:
    """Trivializing phase of the pairing cocycle on the even-diagonal subgroup.

    One formula for every rank j of c: with the HNF u c = h, the nonzero
    rows c1 = h[:j] and d1 = (u d)[:j] are reduced to a full-rank j x j pair
    (W, d') by a basis S of the saturated row lattice of c1, c1 = W S and
    d' = d1 S^T (S = 1 when c is invertible, so W = h).  When 0 < j < m, W
    and S come from one more HNF, v c1^T = H: W = H[:j]^T and
    S = (v^{-1}[:, :j])^T, v^{-1} the integer inverse of a unimodular
    matrix.  The quotient sat(c1) / <c1> and the histogram of its integer
    phases do not depend on the basis S.  Then
    beta_tilde(g) = |det W|^{-1/2} conj(G(d', W)), and 1 when c = 0.  The
    value is an exact eighth root of unity; the float computation is
    snapped and the residual reported.
    """
    if not subgroup_membership(g, "Gamma(1,2)"):
        raise ValueError("beta_tilde needs diag(a b^T) and diag(c d^T) even")
    h, u = xla.hnf_with_transform(g.c)             # u c = h, zero rows last
    j = sum(1 for row in h if any(row))
    if not j:
        return snap_mu8(1 + 0j)
    w, d1 = h[:j], xla.mat_mul(u, g.d)[:j]
    if j < g.m:
        # X* = (0 | 1) lies in the quotient's denominator, so every class
        # has a representative (x | 0), x in sat(c1) / <c1>, with no parity
        # term; c1 d2^T = 0 by the symmetry of c d^T, so the sum is G(d', W).
        # W d'^T = c1 d1^T is a principal block of u c d^T u^T, so the pair
        # meets the Gauss-sum condition unchecked; the kernel takes W in
        # Hermite form.  The rows of S extend to the basis v^{-T} of Z^m, so
        # they span sat(c1).
        hc, v = xla.hnf_with_transform(xla.transpose(w))
        s_t = [[int(x) for x in row[:j]] for row in xla.inv(v)]   # S^T
        w, d1 = xla.transpose(hc[:j]), xla.mat_mul(d1, s_t)
        w, uw = xla.hnf_with_transform(w)
        d1 = xla.mat_mul(uw, d1)
    gauss, den = _gauss_sum_hnf(w, d1)              # den = |det W|
    return snap_mu8(den ** -0.5 * gauss.conjugate())


def lambda_multiplier(r: IntegerSymplectic) -> Mu8:
    """Theta multiplier on the even-diagonal subgroup: m_xstar * beta_tilde^{-1}."""
    return _lambda_of(r, beta_tilde(r))


def _lambda_of(r: IntegerSymplectic, root: SnappedRoot) -> Mu8:
    """lambda_multiplier(r) from root = beta_tilde(r), already computed."""
    return m_xstar(r) * root.value.inv()


def lambda_bar(rbar: CoverElement) -> Mu8:
    """Multiplier of a sign-cover element: lambda(r) scaled by the sign."""
    lam = lambda_multiplier(rbar.g)
    return lam if rbar.eps == 1 else lam * Mu8(4)


def coset_split(g: IntegerSymplectic):
    """Factor g = r M with M the tabulated representative of g's coset.

    r lands in the even-diagonal subgroup because the coset label is a
    left-invariant of that subgroup.
    """
    rec = coset_table(g.m)[coset_index_of(g)]
    r = g @ rec.M.inverse()
    assert subgroup_membership(r, "Gamma(1,2)")
    return r, rec


def f_shift(g: IntegerSymplectic) -> Mu8:
    """Extension of beta_tilde along coset representatives.

    f(g) = beta_tilde(r) c~(r, M) for g = r M; restricted to the
    even-diagonal subgroup (M = 1) this is beta_tilde itself.
    """
    r, rec = coset_split(g)
    return beta_tilde(r).value * rao_cocycle(r, rec.M)


def modified_cocycle(g1: IntegerSymplectic, g2: IntegerSymplectic) -> Mu8:
    """The pairing cocycle shifted by f: c~(g1,g2) f(g1) f(g2) f(g1 g2)^{-1}.

    Trivial whenever g1 lies in the even-diagonal subgroup; on general
    pairs it measures the failure of f to extend the trivialization.
    """
    return (rao_cocycle(g1, g2) * f_shift(g1) * f_shift(g2)
            * f_shift(g1 @ g2).inv())
