"""Eighth-root cocycle on the symplectic group and its two-fold reduction.

The cocycle value on a pair (g1, g2) is exp(i pi tau / 4) where tau is the
signature of the triple-overlap quadratic form attached to the Lagrangian
row spans (X*, X* g2^{-1}, X* g1), X* = (0 | 1_m).  The normalizing function
m(g) = exp(i pi (-j + 2 [x(g) < 0]) / 4) needs only j = rank c and the sign
of x(g) = det(a1 a2) mod squares, both read off the rank normal form
P c Q = diag(1_j, 0) of the c block.  That form, computed once per g, also
fixes the square root of det(cz + d) in the theta module.  The full
factorization g = p1 omega_S p2 with p1, p2 block upper triangular over Q,
below, derives the same constant and branch independently, from m x m
block formulas on the same form; no library path calls it, and it is kept
as the oracle of the tests.  Dividing the cocycle
by the m coboundary leaves a sign, which is the multiplication rule of the
nontrivial double cover.

All arithmetic here is exact (int / Fraction), so cocycle values are honest
elements of the cyclic group of order eight, not floats.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exactla as xla
from .symplectic import IntegerSymplectic, make_generator


class Mu8:
    """Eighth root of unity exp(i pi k / 4), stored as the exponent k mod 8.

    k follows the xla.as_int rule: 7.0 acts as 7, and 1.5, "3" or inf
    raise ValueError.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        if type(exponent) is not int:       # ints, nearly every call, skip the check
            exponent = xla.as_int_arg(exponent, "exponent")
        object.__setattr__(self, "exponent", exponent % 8)

    def __setattr__(self, *a):
        raise AttributeError("Mu8 is immutable")

    def __mul__(self, other: "Mu8") -> "Mu8":
        return Mu8(self.exponent + other.exponent)

    def inv(self) -> "Mu8":
        return Mu8(-self.exponent)

    @property
    def value(self) -> complex:
        return cmath.exp(1j * cmath.pi * self.exponent / 4)

    def as_sign(self) -> int:
        if self.exponent not in (0, 4):
            raise ValueError(f"not a sign: exponent {self.exponent}")
        return 1 if self.exponent == 0 else -1

    def __eq__(self, other):
        return isinstance(other, Mu8) and self.exponent == other.exponent

    def __hash__(self):
        return hash(("Mu8", self.exponent))

    def __repr__(self):
        return f"Mu8({self.exponent})"


def _maslov_gram(p12, p23, p31) -> list[list[int]]:
    """Twice the Gram matrix of the Maslov form of three Lagrangians l1, l2, l3.

    p12, p23 and p31 are the m x m pairings <l1, l2>, <l2, l3>, <l3, l1> of
    their row bases under the form <w1, w2> = x1 x2*^T - x1* x2^T.
    """
    m, t = len(p12), xla.transpose
    z = xla.zeros(m, m)
    return xla.from_blocks([[z, p12, t(p31)], [t(p12), z, p23], [p31, t(p23), z]])


def rao_cocycle(g1: IntegerSymplectic, g2: IntegerSymplectic) -> Mu8:
    """The eighth-root two-cocycle attached to the base Lagrangian X*.

    tau is the Maslov signature of (X*, X* g2^{-1}, X* g1).  X* g1 has rows
    (c1 | d1), and X* g2^{-1} = (-c2^T | a2^T) by g^{-1} = (d^T -b^T; -c^T a^T);
    both are Lagrangian because g1, g2 are symplectic.  So the pairings are
    read off the blocks: <X*, X* g2^{-1}> = c2, <X* g1, X*> = c1, and
    <X* g2^{-1}, X* g1> = -c2^T d1^T - a2^T c1^T = -(c1 a2 + d1 c2)^T.

    When either argument lies in the Siegel parabolic (c = 0) the value is
    Mu8(0), returned without a signature.  Then X* g1 = X* or
    X* g2^{-1} = X*, so two of the three Lagrangians agree, and a unipotent
    congruence (d1^T, resp. a2^T, times the repeated block added to the
    other) turns the Gram matrix into the hyperbolic form ((0, C), (C^T, 0))
    plus zeros, C the pairing of the two distinct Lagrangians, whose
    signature is exactly 0.
    """
    if g1.m != g2.m:
        raise ValueError("genus mismatch")
    if _parabolic(g2) or _parabolic(g1):
        return Mu8(0)
    c1 = g1.c
    p23 = xla.mat_neg(xla.transpose(xla.mat_add(xla.mat_mul(c1, g2.a),
                                                xla.mat_mul(g1.d, g2.c))))
    pos, neg = xla.congruence_signature(_maslov_gram(g2.c, p23, c1))
    return Mu8(pos - neg)


def _parabolic(g: IntegerSymplectic) -> bool:
    """g lies in the Siegel parabolic: its c block is zero."""
    return not any(map(any, g.c))


# --- factorization through the partial involutions ---

@dataclass(frozen=True)
class PwsFactorization:
    """g = p1 omega_S p2 with p1, p2 rational block upper triangular.

    p1 and p2 are 2m x 2m Fraction matrices, S = {1, ..., j} where j is the
    rank of the c block, and x_sign is the sign of det(a(p1)) det(a(p2)).
    """
    p1: tuple
    p2: tuple
    S: frozenset
    j: int
    x_sign: int

    @property
    def m_xstar(self) -> Mu8:
        return _normalizing_constant(self.j, self.x_sign)


def _normalizing_constant(j: int, x) -> Mu8:
    """m(g) = exp(i pi (-j + 2 [x < 0]) / 4) with j = rank c, x = x(g)."""
    return Mu8(-j + (2 if x < 0 else 0))


def pws_decompose(g: IntegerSymplectic) -> PwsFactorization:
    """Factor g = p1 omega_{S_j} p2 exactly, j = rank of the c block.

    Everything is read off m x m blocks.  With (j, a1, a2) = (j, P^T,
    Q^{-1}) from _frames, a' = a1^{-1} a a2^{-1} has a12 = 0, and
    delta^{-1} = (1_j 0; a21 a22) is read straight off it.  With
    E = delta^{-1} a2, b3 = a1^{-1} b a2^T delta^{-T} = a1^{-1} b E^T and
    d3 = a1^T d E^T; sigma = diag(a11, 0), and rho + tau has the first j
    rows of d3 over (d3[:j, j:]^T | b3[j:, j:]).  Then
        p1 = (a1, a1 sigma; 0, a1^{-T}),  p2 = (E, (rho + tau) E^{-T}; 0, E^{-T}),
    and x_sign = sign(det a1 det a2 det a22), since det delta = 1 / det a22.
    The reconstruction p1 omega p2 == g, the one 2m x 2m product, is
    asserted, so a wrong branch can never return silently.
    """
    m = g.m
    j, a1, a2 = _frames(g)                          # P c Q = E_j
    a1_inv = xla.inv(a1)
    ap = xla.mat_mul(xla.mat_mul(a1_inv, g.a), xla.inv(a2))
    assert not any(x for row in ap[:j] for x in row[j:]), "a12 != 0"
    delta_inv = [[Fraction(i == t) for t in range(m)] for i in range(j)] + ap[j:]
    e = xla.mat_mul(delta_inv, a2)
    e_t = xla.transpose(e)
    b3 = xla.mat_mul(xla.mat_mul(a1_inv, g.b), e_t)
    d3 = xla.mat_mul(xla.mat_mul(xla.transpose(a1), g.d), e_t)
    sigma = [row[:j] + [0] * (m - j) for row in ap[:j]] + xla.zeros(m - j, m)
    rho_tau = d3[:j] + [[row[i] for row in d3[:j]] + b3[i][j:] for i in range(j, m)]
    e_inv_t = xla.transpose(xla.inv(e))
    zero = [[Fraction(0)] * m for _ in range(m)]
    p1 = xla.from_blocks([[a1, xla.mat_mul(a1, sigma)], [zero, xla.transpose(a1_inv)]])
    p2 = xla.from_blocks([[e, xla.mat_mul(rho_tau, e_inv_t)], [zero, e_inv_t]])
    omega = make_generator("omega_S", m, S=set(range(1, j + 1)))
    recon = xla.mat_mul(xla.mat_mul(p1, omega.rows), p2)
    assert xla.mat_eq(recon, g.rows), "factorization does not reconstruct g"

    x = xla.det(a1) * xla.det(a2) * xla.det([row[j:] for row in ap[j:]])
    return PwsFactorization(
        p1=tuple(tuple(row) for row in p1),
        p2=tuple(tuple(row) for row in p2),
        S=frozenset(range(1, j + 1)),
        j=j,
        x_sign=1 if x > 0 else -1,
    )


def _frames(g: IntegerSymplectic) -> tuple:
    """(j, a1, a2) = (j, P^T, Q^{-1}) in Fraction rows, for P c Q = diag(1_j, 0).

    Q^{-1}[:j] = (P c)[:j], and the elimination leaves Q^{-1}[k] the unit
    row at cols[k] for k >= j (see ``exactla._pivoting``).
    """
    j, _, p, den, cols = _rank_normal_form(g)
    big_p = [[Fraction(v, k) for v in row] for row, k in zip(p, den)]
    units = [[Fraction(t == k) for t in range(g.m)] for k in cols[j:]]
    return j, xla.transpose(big_p), xla.mat_mul(big_p[:j], g.c) + units


@lru_cache(maxsize=256)
def _rank_normal_form(g: IntegerSymplectic) -> tuple:
    """(j, x, p, den, cols): P c Q = diag(1_j, 0) and x = x(g), once per g.

    h(P^{-T}) g h(Q) has c block diag(1_j, 0) and a block P^{-T} a Q, whose
    lower right (m - j) block a22 is invertible, and x = det P det a22 /
    det Q (no a22 when j = m).  Mod squares it is the x = det a(p1) det a(p2)
    of the whole factorization g = p1 omega_S p2, and as a number
    det(cz + d) = det T / x, T = (W z + P[:j] d) W^T with W = (P c)[:j]
    (see ``theta.sqrt_det``).  In integers, from one elimination
    ``exactla._pivoting`` of the rows (c | 1), with d its last pivot and
    s = +-1 the sign of its swaps, det P / det Q = s / d and
    det a22 = s det K / d for K the rows of c at the j pivot rows and of a
    at the others, so x = det K / d^2.  P stays in ints, P[k] = p[k] / den[k]
    (``theta.j_half`` reads P[:j] in float), and Q is never formed: the
    oracle reads Q^{-1} off p, den and the column order cols (``_frames``).
    """
    m, c = g.m, g.c
    pivots, sign, order, cols, rows = xla._pivoting(xla._augmented(c), m)
    j = len(pivots)
    d = pivots[-1] if j else 1
    if j == m:
        det_k = sign * d
    else:
        pivot_rows = set(order[:j])
        mixed = [row if i in pivot_rows else a_row
                 for i, (row, a_row) in enumerate(zip(c, g.a))]
        pivots_k, sign_k, *_ = xla._pivoting(mixed)
        det_k = sign_k * pivots_k[-1]
    return (j, Fraction(det_k, d * d), tuple(tuple(row[m:]) for row in rows),
            tuple(pivots + [d] * (m - j)), tuple(cols))


def m_xstar(g: IntegerSymplectic) -> Mu8:
    """Normalizing function m(g), read off the rank normal form of c.

    The whole factorization g = p1 omega_S p2 derives it too and is the
    oracle for this one.
    """
    j, x, *_ = _rank_normal_form(g)
    return _normalizing_constant(j, x)


def cbar_cocycle(g1: IntegerSymplectic, g2: IntegerSymplectic) -> int:
    """Sign-valued reduction m(g1 g2)^{-1} m(g1) m(g2) c~(g1, g2); checks +-1.

    This is the two-letter case of word_lift, which computes it.
    """
    return word_lift((g1, g2)).eps


# --- the two-fold cover ---

@dataclass(frozen=True)
class CoverElement:
    """Pair (g, eps) with eps = +-1, multiplied through the sign cocycle."""
    g: IntegerSymplectic
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


def cover_mul(x: CoverElement, y: CoverElement) -> CoverElement:
    """(g1, e1) (g2, e2): word_lift of (g1, g2), the sign cocycle, times e1 e2."""
    plus = word_lift((x.g, y.g))
    return CoverElement(plus.g, x.eps * y.eps * plus.eps)


def cover_inv(x: CoverElement) -> CoverElement:
    gi = x.g.inverse()
    return CoverElement(gi, x.eps * cbar_cocycle(x.g, gi))


def word_lift(letters) -> CoverElement:
    """The product (l_1, 1) (l_2, 1) ... (l_k, 1) on the cover, in closed form.

    With P_i = l_1 ... l_i the prefixes, each cbar_cocycle(P_{i-1}, l_i) is
    m(P_i)^{-1} m(P_{i-1}) m(l_i) c~(P_{i-1}, l_i), and Mu8 is abelian, so
    the m factors telescope: the product is (P_k, s) with
        s = m(P_k)^{-1} prod_i m(l_i) prod_{i >= 2} c~(P_{i-1}, l_i).
    m(l_i) reads the letter's cached rank normal form, and c~(P_{i-1}, l_i)
    costs a signature only when neither P_{i-1} nor l_i lies in the Siegel
    parabolic (see rao_cocycle).  The prefixes are formed once, and the
    last is the product itself.  With two letters s is the sign cocycle
    cbar_cocycle(l_1, l_2), so cbar_cocycle and cover_mul read it here;
    the cover_mul walk, a chain of such pairs, is the telescoping's oracle.
    """
    first, *rest = letters
    prefix, val = first, m_xstar(first)
    for letter in rest:
        val = val * m_xstar(letter) * rao_cocycle(prefix, letter)
        prefix = prefix @ letter
    return CoverElement(prefix, (m_xstar(prefix).inv() * val).as_sign())
