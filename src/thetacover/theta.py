"""Analytic layer: determinant branches, automorphy factors, theta sums.

Two determinant branches live here.  The Gaussian-integral branch
det^{-1/2} is defined by principal roots of eigenvalues (all of which
stay in the right half plane on our domain); from it we build the kernel
gamma(z', z).

The genuine square root of det(cz+d) on integer symplectic matrices is
pinned by the rank normal form P c Q = diag(1_j, 0) of the c block, the
form that also gives the normalizing constant m_{X*}(g).  It splits
det(cz+d) = det T / x(g) into the exact rational x(g) and the rank-j
minor T = (W z + P[:j] d) W^T with W = Q^{-1}[:j] = (P c)[:j], the only
z-dependent piece.  T has the closed-form root e^{i pi j/4} / det^{-1/2}(-i T):
Re(-i T) = Im T is positive definite, so that branch is continuous from
T = i.1.  Multiplied by m_{X*}(g)^{-1} |x(g)|^{-1/2}, its square is
det(cz+d) and its composition defect is the sign cocycle of the cocycle
module; without m_{X*}(g)^{-1} it is the half-weight factor whose defect
is the full degree-8 cocycle.

Theta sums are box sums over n in [-R, R]^m, R from ``truncation_radius``
(a heuristic radius, not a certified tail bound: see there).  Every sum
reads the box in one fixed order, as a tensor of shape (2R + 1,)^m in lex
order, so results are bit-identical run to run.  ``theta_component`` sums
one box term by term, with a complex exp per point, and forms no point
list; ``theta_series`` is the same direct sum at the zero label.  They are
the oracles.  ``theta_vector`` gives every component at both weights from
one pass that evaluates each half shift once and sums it against the
characters of n mod 2.  Its terms are one real exp of an exponent
broadcast from the coordinates 2v, times the phases of the pairs of axes;
the per-axis phases ride the character weights.  The pass is kept on the
point, so a point pays for at most one pass per ThetaParams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exactla as xla
from .cocycle import CoverElement, _rank_normal_form, m_xstar
# bound here only so that perfbench's tracer test can read theta.pws_decompose
from .cocycle import pws_decompose  # noqa: F401
from .f2cosets import CosetRecord, coset_table
from .symplectic import IntegerSymplectic, SiegelPoint

__all__ = [
    "CapacityError",
    "ThetaParams",
    "ThetaComponentValue",
    "truncation_radius",
    "det_invsqrt",
    "gamma_pair",
    "j_half",
    "sqrt_det",
    "j_half_bar",
    "theta_series",
    "theta_component",
    "theta_vector",
    "big_theta",
]


class CapacityError(RuntimeError):
    """The truncation radius exceeds MAX_RADIUS."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"truncation radius {needed} exceeds cap {cap}")
        self.needed = needed
        self.cap = cap


# Largest truncation radius a lattice sum may use.
MAX_RADIUS = 64


@dataclass(frozen=True)
class ThetaParams:
    """Accuracy knob for the truncated lattice sums.

    0 < tail_tol < 1: truncation_radius takes log(1 / tail_tol), which is
    not positive from 1 on.
    """

    tail_tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.tail_tol < 1:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")


def truncation_radius(Y: np.ndarray, params: ThetaParams) -> int:
    """Box radius R = ceil(sqrt(log(1/tol) / (pi * lambda_min(Y)))) + 2.

    A heuristic, not a certified bound: the first term brings the Gaussian
    e^{-pi lambda_min R^2} of one point on the boundary down to tail_tol,
    and the +2 margin is meant to absorb the number of points per shell
    and half-integral shifts, which it does not always do.  At tail_tol
    1e-12, for Y = lambda_min 1 with a half shift and the smallest
    lambda_min mapped to R, the exact tail beyond the box is 3.3e-12 at
    m = 3, R = 32, and 2.4e-12, 4.4e-11 and 8.6e-9 at m = 4, R = 24, 32
    and 64.  Relative to the sum it stays below 5e-14.
    """
    lam = float(np.linalg.eigvalsh((Y + Y.T) / 2)[0])
    if lam <= 0:
        raise ValueError("Y must be positive definite")
    r = math.ceil(math.sqrt(math.log(1.0 / params.tail_tol) / (math.pi * lam))) + 2
    if r > MAX_RADIUS:
        raise CapacityError(r, MAX_RADIUS)
    return r


# --- determinant branch ---

def det_invsqrt(S) -> complex:
    """det^{-1/2}(S) for complex symmetric S with positive definite Re S.

    Equals the Gaussian integral of e^{-pi x S x^T} over R^m.  Computed as
    the product of principal inverse square roots of the eigenvalues; the
    numerical range of S lies in the right half plane, so no eigenvalue
    can cross the branch cut.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.T)) > 1e-10 * scale:
        raise ValueError("S must be symmetric")
    re = (S.real + S.real.T) / 2
    if float(np.linalg.eigvalsh(re)[0]) <= 0:
        raise ValueError("Re S must be positive definite")
    eig = np.linalg.eigvals(S)
    return complex(np.prod(1.0 / np.sqrt(eig)))


def gamma_pair(z1: SiegelPoint, z2: SiegelPoint) -> complex:
    """det^{-1/2}((z1 - conj(z2))/2i) * det(Im z1)^{1/4} * det(Im z2)^{1/4}."""
    s = (z1.z - np.conj(z2.z)) / 2j
    return det_invsqrt(s) * float(np.linalg.det(z1.Y)) ** 0.25 \
        * float(np.linalg.det(z2.Y)) ** 0.25


def sqrt_det(g: IntegerSymplectic, z: SiegelPoint) -> complex:
    """Genuine square root of det(cz+d), branch fixed by exact bookkeeping.

    With P c Q = diag(1_j, 0) the rank normal form of the c block,
    det(cz+d) = det T / x(g) for the exact rational x(g) of ``m_xstar``
    and the rank-j minor T = (W z + P[:j] d) W^T, W = Q^{-1}[:j] = (P c)[:j],
    whose root is continued from det(i.1)^{1/2} = e^{i pi j/4}.  In closed form,
    sqrt_det(g, z) = m_{X*}(g)^{-1} |x(g)|^{-1/2} / det^{-1/2}(-i T).
    Satisfies sqrt_det(g, z)^2 = det(cz+d), and its composition defect is
    the sign cocycle.
    """
    return m_xstar(g).inv().value * j_half(g, z)


def j_half(g: IntegerSymplectic, z: SiegelPoint) -> complex:
    """Half-weight automorphy factor m_{X*}(g) sqrt_det(g, z).

    In closed form |x(g)|^{-1/2} / det^{-1/2}(-i T) (see ``sqrt_det``);
    its composition defect is the degree-8 cocycle.
    """
    if z.m != g.m:
        raise ValueError("dimension mismatch")
    j, x, p, _ = _rank_normal_form(g)
    scale = float(abs(x)) ** -0.5
    if j == 0:
        return complex(scale)
    # P c = diag(1_j, 0) Q^{-1}, so W = Q^{-1}[:j] is exactly (P c)[:j]
    w = np.array(xla.mat_mul(p[:j], g.c), dtype=float)
    pd = np.array(p[:j], dtype=float) @ np.array(g.d, dtype=float)
    t = (w @ z.z + pd) @ w.T
    return scale / det_invsqrt(-1j * t)


def j_half_bar(gbar: CoverElement, z: SiegelPoint) -> complex:
    """Automorphy factor of a sign-cover element; multiplicative on the cover."""
    return gbar.eps * sqrt_det(gbar.g, z)


# --- lattice sums ---

def _box_sum(z: SiegelPoint, m_q: tuple, eps_q: tuple, weight: str,
             params: ThetaParams | None):
    """Direct sum of (-1)^{m_q . n} e^{i pi v z v^T}, v = n + eps_q/2, over
    the box, one complex exp per point; weight "three_half" inserts the
    moment vector v^T.  The box is a tensor of shape (2R + 1,)^m in lex
    order, as in the pass, with v_k along axis k: the terms are broadcast
    from per-axis vectors, so no point list is formed and nothing is kept.
    """
    if weight not in ("half", "three_half"):
        raise ValueError(f"unknown weight {weight!r}")
    m, zz = z.m, z.z                       # z.z forms X + iY on each read
    radius = truncation_radius(z.Y, params or ThetaParams())
    n = np.arange(-radius, radius + 1)
    along = [(-1,) + (1,) * (m - 1 - k) for k in range(m)]   # axis k's shape
    v = [(n + e / 2).reshape(along[k]) for k, e in enumerate(eps_q)]
    w = np.exp(1j * math.pi * sum(zz[k, l] * v[k] * v[l]
                                  for k in range(m) for l in range(m)))
    for k, x in enumerate(m_q):
        if x % 2:
            w *= (1 - 2 * (n & 1)).reshape(along[k])
    if weight == "half":
        return complex(w.sum())
    return np.array([np.sum(v[k] * w) for k in range(m)])


def theta_series(z: SiegelPoint, weight: str, params: ThetaParams | None = None):
    """Plain theta sum over Z^m: the zero label's direct sum (m_q = eps_q = 0).

    weight "half": sum of e^{i pi n z n^T} (scalar).
    weight "three_half": sum of n^T e^{i pi n z n^T} (m-vector; identically
    zero by the n <-> -n symmetry, kept as an honest computation).
    """
    return _box_sum(z, (0,) * z.m, (0,) * z.m, weight, params)


@dataclass(frozen=True)
class ThetaComponentValue:
    """One entry of the theta vector: the label q and its value at the
    plus lift of the label's representative."""

    q: tuple
    value: object


def theta_component(rec: CosetRecord, z: SiegelPoint, weight: str,
                    params: ThetaParams | None = None) -> ThetaComponentValue:
    """Sign-twisted, half-shifted theta sum attached to one coset label.

    Computes sum (-1)^{m_q . n} e^{i pi (n + eps_q/2) z (n + eps_q/2)^T}, the
    component at the plus lift (weight "three_half" inserts the moment
    vector (n + eps_q/2)^T).
    """
    if z.m != rec.M.m:
        raise ValueError("dimension mismatch")
    return ThetaComponentValue(
        q=rec.q, value=_box_sum(z, rec.m_q, rec.eps_q, weight, params))


@dataclass(frozen=True)
class _ShiftClasses:
    """The labels of coset_table(m) grouped by their half shift up to sign.

    Class c holds the labels with eps_q = +-2 shifts[c], and
    offsets[c] = 2 shifts[c] + 1.  Label k is in class of_label[k].  Its
    sign (-1)^{m_q . n} is the character of n mod 2 that _character_sums
    puts at row half_index[k]; rows moment_index[k] hold the same sums with
    n_j E in place of E.  Its component is the character sum of E at weight
    1/2 and flips[k] times that of v E at weight 3/2, for the shift of its
    class; flips[k] is -1 when eps_q = -2 shifts[c]: that box is the
    negated box of shifts[c], and E(-v) = E(v).
    """

    shifts: np.ndarray
    offsets: np.ndarray
    of_label: np.ndarray
    half_index: np.ndarray
    moment_index: np.ndarray
    flips: np.ndarray


@lru_cache(maxsize=None)
def _shift_classes(m: int) -> _ShiftClasses:
    table = coset_table(m)
    keys = [max(rec.eps_q, tuple(-e for e in rec.eps_q)) for rec in table]
    index = {key: c for c, key in enumerate(dict.fromkeys(keys))}
    half_index = (np.array([rec.m_q for rec in table]) % 2) @ 4 ** np.arange(m)
    classes = _ShiftClasses(
        shifts=np.array(list(index), dtype=float) / 2,
        offsets=np.array(list(index)) + 1,
        of_label=np.array([index[key] for key in keys]),
        half_index=half_index,
        moment_index=half_index[:, None] + 2 * 4 ** np.arange(m),
        flips=np.array([1.0 if rec.eps_q == key else -1.0
                        for rec, key in zip(table, keys)]))
    for arr in vars(classes).values():
        arr.setflags(write=False)
    return classes


# Terms of modulus below e^{_LOG_TINY} (about 1e-304) count as 0 in
# theta_vector: they are far below the rounding of any sum, and an exp that
# underflows or goes subnormal costs 15 to 100 times one that does not.
_LOG_TINY = -700.0

# Points times shift classes per block of a pass: keeps each of the pass's
# temporary arrays near 256 kB, so that a block's arrays stay in a core's
# cache (timed on theta-m3, m = 3, R = 8..10: 2^14 beat 2^13, 2^15 and
# 2^16 by 2-15 % in items/s).
_BLOCK = 1 << 14


def _split(x: np.ndarray) -> tuple:
    """x = hi + lo with hi the top 39 bits of x (Veltkamp's split)."""
    t = x * 16385.0                              # 2^14 + 1
    hi = t - (t - x)
    return hi, x - hi


def _cis(hi, lo, k) -> np.ndarray:
    """e^{2 pi i (hi + lo) k} for a coefficient split as by _split, or a sum
    of two such hi on one grid, scaled by a power of 2, and integers
    |k| <= 2^12, broadcast against each other; to about 1e-16.

    Rounding c k itself would put an error of order 1e-16 |c k| on the
    angle, and a table entry is shared by every lattice point that reads
    it, so those errors add up in the moment sums.  hi k is exact (at most
    40 + 13 bits), and so is its reduction mod 1; only lo k, about
    2^-39 |c k| in size, is rounded.
    """
    whole = hi * k
    return np.exp(2j * math.pi * ((whole - np.rint(whole)) + lo * k))


def _exponent(Y: np.ndarray, twice: np.ndarray) -> np.ndarray:
    """-pi v Y v^T over the box for a block of shift classes.

    twice[c, k, j] = 2 v_k = 2 (n_k + s_k), n_k = j - R, holds exact
    integers.  The result, of shape (classes,) + (2R + 1,) * m, adds
    form_kk (2 v_k)^2 and (2 form_ik 2 v_i) 2 v_k for i < k, with
    form = -pi (Y + Y^T) / 8, in one fixed order.  At -v each product
    rounds the same exact factors up to sign, so the values at v and -v
    are equal bit for bit, as in the oracles.  It is formed from v, not as
    n Y n^T + 2 n.Ys + s Y s^T, whose terms grow with |n| and cancel, and
    which rounds other terms at -v = (-n - 2s) + s, a point of the same class.
    """
    width, m, side = twice.shape
    form = -math.pi / 8 * (Y + Y.T)
    v = [twice[:, k].reshape((width,) + (1,) * k + (side,) + (1,) * (m - 1 - k))
         for k in range(m)]                     # 2 v_k along axis k
    out = form[0, 0] * (v[0] * v[0])
    for k in range(1, m):
        out = out + form[k, k] * (v[k] * v[k])
        # out now spans axes 0..k, so the pairs with axis k add in place
        for i in range(k):
            out += (2 * form[i, k] * v[i]) * v[k]
    return out


def _phases(X: np.ndarray, radius: int, classes: _ShiftClasses) -> tuple:
    """(tables, cross, consts): the factors of e^{i pi v X v^T}, v = n + s.

    tables[c, k, j] is the axis-k factor at n_k = j - R for shift class c:
    e^{i pi X_kk n_k^2} times e^{+-i pi (X_kl + X_lk) n_k / 2} for each l
    with s_l = +-1/2, which _character_sums puts into axis k's weights.
    cross, the only factor multiplied over the box, of shape
    (1,) + (2R + 1,) * m, holds e^{i pi (X_kl + X_lk) n_k n_l} for the
    pairs k < l (all ones at m = 1), and consts[c] = e^{i pi s X s^T}.
    Both triangles of X are read, as the oracles' v z v^T does: X is
    symmetric only to 1e-12.  hi + hi^T is exact, its two terms being on
    one grid.
    """
    m = len(X)
    hi, lo = _split(X)
    pair_hi, pair_lo = hi + hi.T, lo + lo.T
    steps = np.arange(-radius, radius + 1)
    halves = _cis(pair_hi[..., None] / 4, pair_lo[..., None] / 4, steps)
    powers = np.stack([halves.conj(), np.ones_like(halves), halves])
    axes = np.arange(m)
    tables = _cis(np.diag(hi)[:, None] / 2, np.diag(lo)[:, None] / 2,
                  steps * steps) \
        * powers[classes.offsets[:, None, :], axes[:, None], axes].prod(axis=2)
    shifts = classes.shifts
    consts = np.exp(1j * math.pi * np.sum((shifts @ X) * shifts, axis=1))
    cross = np.ones((1,) * (m + 1))
    for k, l in itertools.combinations(range(m), 2):
        shape = [1] * (m + 1)
        shape[1 + k] = shape[1 + l] = len(steps)
        factor = _cis(pair_hi[k, l] / 2, pair_lo[k, l] / 2, np.outer(steps, steps))
        cross = cross * factor.reshape(shape)
    return tables, cross, consts


def _character_sums(e: np.ndarray, radius: int, tables: np.ndarray) -> np.ndarray:
    """Sums of w_0(n_0) t_0(n_0) ... w_{m-1}(n_{m-1}) t_{m-1}(n_{m-1}) E(n)
    over the box, for e of shape (classes,) + (2R + 1,) * m, n_k = j_k - R,
    and t_k(n_k) = tables[c, k, j_k], the axis factors of _phases.

    Each w_k is one of 1, (-1)^{n_k}, n_k and (-1)^{n_k} n_k, rows 0 to 3;
    column sum_k r_k 4^k of the result, of shape (classes, 4^m), takes row
    r_k on axis k.  The axes are contracted last to first against t_k w_k,
    each by one matrix product batched over the classes, the first over the
    whole box and each next one over a box 4 / (2R + 1) the size.
    """
    side = 2 * radius + 1
    n = np.arange(-radius, radius + 1)
    sign = 1 - 2 * (n & 1)
    weights = np.array([np.ones_like(n), sign, n, sign * n]).T
    t = e.reshape(len(e), 1, -1)
    for k in reversed(range(e.ndim - 1)):
        t = t.reshape(len(e), side ** k, side, -1).transpose(0, 1, 3, 2)
        t = t.reshape(len(e), -1, side) @ (tables[:, k, :, None] * weights)
    return t.reshape(len(e), -1)


def _theta_pass(z: SiegelPoint, params: ThetaParams) -> tuple:
    """One lattice pass: (half, three_half) of theta_vector, computed.

    E(v) = e^{i pi v z v^T} is one real exp of the whole exponent, formed
    from twice[c, k, j] = 2 (n_k + s_k) (see _exponent; the per-axis
    factors e^{-2 pi n_k (Ys)_k} alone overflow on flat points) times a
    product of unimodular factors (see _phases), so no complex exp is
    taken per point; only the pair factors are multiplied over the box,
    and _character_sums takes the per-axis ones.  The shift
    classes go through the pass side by side, in blocks of at most _BLOCK
    points times classes.
    """
    m = z.m
    radius = truncation_radius(z.Y, params)
    classes = _shift_classes(m)
    shifts = classes.shifts
    tables, cross, consts = _phases(z.X, radius, classes)
    twice = 2 * (shifts[:, :, None] + np.arange(-radius, radius + 1))
    sums = np.empty((len(shifts), 4 ** m), dtype=complex)
    width = max(1, _BLOCK // (2 * radius + 1) ** m)
    for first in range(0, len(shifts), width):
        block = slice(first, first + width)
        e = _exponent(z.Y, twice[block])
        kept = e > _LOG_TINY
        np.maximum(e, _LOG_TINY, out=e)
        np.exp(e, out=e)
        e *= kept
        sums[block] = _character_sums(e * cross, radius, tables[block])
    sums *= consts[:, None]
    of_label = classes.of_label
    half = sums[of_label, classes.half_index]
    # the sum of (n + s) E is the sum of n E plus s times the sum of E
    three_half = classes.flips[:, None] * (
        sums[of_label[:, None], classes.moment_index]
        + half[:, None] * shifts[of_label])
    return half, three_half


def theta_vector(z: SiegelPoint, params: ThetaParams | None = None) -> tuple:
    """Every component at both weights, from one pass over the lattice.

    Returns (half, three_half), read-only arrays of shape (N,) and (N, m) in
    coset_table(m) order with the plus lift: half[k] and three_half[k]
    are theta_component(coset_table(m)[k], z, weight, params).value up
    to rounding, on the same points (n + eps_q/2, n in [-R, R]^m).  The
    labels fall into a few classes of shifts +-eps/2; per class s, E(v) =
    e^{i pi v z v^T} and n E(v) (v = n + s) are summed over the box against
    each character (-1)^{p . n} of n mod 2, and each component is the sum
    for its sign (-1)^{m_q . n} (see _ShiftClasses); the sum of v E is the
    sum of n E plus s times the sum of E.  |E| is one real exp of the whole
    exponent -pi v Y v^T, broadcast from the exact coordinates 2v so that
    it is equal at v and -v bit for bit, as in the oracles, which keeps the
    vanishing weight-3/2 sums at rounding level;
    arg E is a product of unimodular factors read off tables of 2R + 1
    (per axis) and (2R + 1)^2 (per pair of axes) entries, so no complex exp
    is taken per point; only the pair factors are multiplied over the box,
    and the per-axis ones ride the character weights.  Terms below
    e^{_LOG_TINY} count as 0.

    The pair is kept on z per params: a second call at the same point, or
    big_theta at the other weight, costs no pass.
    """
    params = params or ThetaParams()
    memo = z._theta_memo()
    if params not in memo:
        half, three_half = _theta_pass(z, params)
        half.setflags(write=False)
        three_half.setflags(write=False)
        memo[params] = half, three_half
    return memo[params]


def big_theta(z: SiegelPoint, weight: str,
              params: ThetaParams | None = None) -> tuple:
    """All coset components in the fixed label order (plus lifts).

    Read off theta_vector, which computes both weights in one pass and keeps
    them on z, so big_theta at both weights at one point costs one pass;
    entry k is theta_component(coset_table(m)[k], z, weight, params) up to
    rounding, the per-component oracle.
    """
    if weight not in ("half", "three_half"):
        raise ValueError(f"unknown weight {weight!r}")
    half, three_half = theta_vector(z, params)
    values = half if weight == "half" else three_half
    return tuple(ThetaComponentValue(q=rec.q, value=value)
                 for rec, value in zip(coset_table(z.m), values))
