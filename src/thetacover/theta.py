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
order, so results are bit-identical run to run.  R is kept on the point per
ThetaParams (``_radius``), so a point pays for one eigenvalue solve however
many sums and checks read it.  ``theta_component`` sums one box term by
term and forms no point list; ``theta_series`` is the same direct sum at
the zero label.  They are the oracles.  Over the whole box they form only
the real log-magnitude -pi v Y v^T, 8 bytes a point; a term at or below
max - 60 log 2 - log(N w) (N box points, w the largest moment factor)
counts as 0, so the dropped terms are below 2^-60 of the largest one, and
only the kept points get a phase and a complex exp (``_box_sum``).  Each
kept term is bit for bit the one of the whole-box sum.  They share nothing
with the pass below but the radius.  ``theta_vector`` gives every
component at both weights from one pass that evaluates each half shift
once and sums it against the characters of n mod 2.  Its terms are one
real exp of an exponent broadcast from the coordinates 2v, times the
phases of the pairs of axes; the per-axis phases ride the character
weights.  What a pass reads that depends on m and R alone, from the exact
coordinates 2v to the grid of its phase factors, is built once per (m, R)
and kept read-only (``_grid``); the factors that depend on X are then one vectorized
exponential.  Terms of the pass at or below a floor derived from
ThetaParams.tail_tol count as 0; together they are at most 2^-53 tail_tol
per component (``_floor``).  So the pass reads only the sub-box
prod_k [-r_k, r_k] of the box that holds every term above the floor, with
per-axis radii r_k <= R read off (Y + Y^T)^-1 (``_axis_radii``): its
counted terms are those of the whole box above the floor.  The pass is kept
on the point, so a point pays for at most one pass per ThetaParams.

Each thread keeps one complex work array of _BLOCK entries (256 kB), made
on its first pass, into which the pass writes a block's product of
magnitudes and pair phases (``_times_cross``).  A fresh product per block
would be freed, trimmed off the top of the heap by malloc and faulted back
in by the next block: a median of 56 minor page faults per genus-3 pass
on theta-m3 (126 per item), against 0.01 with the kept array.  A block
larger than _BLOCK gets a fresh array; nothing a pass returns shares
memory with the work array.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
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
    """The truncation radius exceeds MAX_RADIUS.

    needed is the radius the rule asks for, an int, or inf when it
    overflows a float; the message gives it in 3 digits from 10^6 on.
    """

    def __init__(self, needed, cap: int):
        shown = needed if needed < 10 ** 6 else f"{needed:.3g}"
        super().__init__(f"truncation radius {shown} exceeds cap {cap}")
        self.needed = needed
        self.cap = cap


# Largest truncation radius a lattice sum may use.
MAX_RADIUS = 64


@dataclass(frozen=True)
class ThetaParams:
    """Accuracy knob for the truncated lattice sums.

    0 < tail_tol < 1, a real number: truncation_radius takes -log(tail_tol),
    which is not positive from 1 on.
    """

    tail_tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.tail_tol, numbers.Real) and 0 < self.tail_tol < 1):
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")


def truncation_radius(Y: np.ndarray, params: ThetaParams) -> int:
    """Box radius R = ceil(sqrt(-log(tol) / (pi * lambda_min(Y)))) + 2.

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
    # -log(tol), not log(1 / tol): 1 / tol overflows below about 5.6e-309
    root = math.sqrt(-math.log(params.tail_tol) / (math.pi * lam))
    # compared before ceil, which raises OverflowError on the inf that a
    # lambda_min below about 5e-308 gives; R > MAX_RADIUS iff this holds
    if root > MAX_RADIUS - 2:
        needed = math.ceil(root) + 2 if math.isfinite(root) else math.inf
        raise CapacityError(needed, MAX_RADIUS)
    return math.ceil(root) + 2


def _radius(z: SiegelPoint, params: ThetaParams) -> int:
    """truncation_radius(z.Y, params), kept on z per params.

    Every lattice sum and the verifiers' workable test read the radius here,
    so a point pays for one eigenvalue solve per params.  A CapacityError
    (or ValueError) is not kept: it is raised again on every call.
    """
    radii = z._radii
    if params not in radii:
        radii[params] = truncation_radius(z.Y, params)
    return radii[params]


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
    if z1.m != z2.m:
        raise ValueError("dimension mismatch")
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
    j, x, p, den, _ = _rank_normal_form(g)
    scale = float(abs(x)) ** -0.5
    if j == 0:
        return complex(scale)
    # P c = diag(1_j, 0) Q^{-1}, so W = Q^{-1}[:j] is exactly (P c)[:j].
    # P[k] = p[k] / den[k]; an int / int division rounds correctly, as
    # float(Fraction) does, so both are read off the int rows.
    w = np.array([[v / k for v in row]
                  for row, k in zip(xla.mat_mul(p[:j], g.c), den)])
    pd = np.array([[v / k for v in row] for row, k in zip(p[:j], den)]) \
        @ np.array(g.d, dtype=float)
    t = (w @ z.z + pd) @ w.T
    return scale / det_invsqrt(-1j * t)


def j_half_bar(gbar: CoverElement, z: SiegelPoint) -> complex:
    """Automorphy factor of a sign-cover element; multiplicative on the cover."""
    return gbar.eps * sqrt_det(gbar.g, z)


# --- lattice sums ---

# A term of a direct sum whose log-magnitude is at or below
# max - _DROP_BITS log 2 - log(N w) counts as 0 (_box_sum), N being the
# (2R + 1)^m points of the box, and w = R + 1/2 at weight 3/2, w = 1 at
# weight 1/2.  Each dropped term is at most 2^-_DROP_BITS / (N w) of the
# largest term, a moment factor |v_k| <= R + 1/2 multiplies it by at most w,
# and there are fewer than N of them: together they are below 2^-60 of the
# largest term, under 1/128 ulp of it.
_DROP_BITS = 60


def _box_sum(z: SiegelPoint, m_q: tuple, eps_q: tuple, weight: str,
             params: ThetaParams | None):
    """Direct sum of (-1)^{m_q . n} e^{i pi v z v^T}, v = n + eps_q/2, over
    the box [-R, R]^m; weight "three_half" inserts the moment vector v^T.

    Only the real log-magnitude -pi v Y v^T is formed over the whole box, a
    tensor of shape (2R + 1,)^m in lex order with v_k along axis k, at 8
    bytes a point.  Terms whose log-magnitude is at or below max -
    _DROP_BITS log 2 - log(N w) count as 0: together they are below 2^-60
    of the largest term (see _DROP_BITS).  The kept points, gathered in lex
    order, get the phase pi v X v^T and one complex exp each.  Both sums add
    z's entries over (k, l) in one order from 0, so every kept term, sign
    and moment is bit for bit the one of the whole-box sum; the value moves
    only by the dropped terms and the grouping of the final sum.  The sum
    shares nothing with the pass but the radius, and keeps nothing.
    """
    if weight not in ("half", "three_half"):
        raise ValueError(f"unknown weight {weight!r}")
    m, zz = z.m, z.z
    Y, X = zz.imag, zz.real
    radius = _radius(z, params or ThetaParams())
    n = np.arange(-radius, radius + 1)
    along = [(-1,) + (1,) * (m - 1 - k) for k in range(m)]   # axis k's shape
    axes = [n + e / 2 for e in eps_q]                        # v_k on axis k
    v = [a.reshape(along[k]) for k, a in enumerate(axes)]
    size = (2 * radius + 1) ** m
    reach = radius + 0.5 if weight == "three_half" else 1.0
    log_mag = -math.pi * sum(Y[k, l] * v[k] * v[l]
                             for k in range(m) for l in range(m))
    cut = log_mag.max() - _DROP_BITS * math.log(2) - math.log(size * reach)
    kept = np.nonzero(log_mag > cut)
    u = [a[i] for a, i in zip(axes, kept)]                 # v_k at kept points
    phase = math.pi * sum(X[k, l] * u[k] * u[l]
                          for k in range(m) for l in range(m))
    w = np.exp(log_mag[kept] + 1j * phase)
    for k, x in enumerate(m_q):
        if x % 2:
            w *= 1 - 2 * (n[kept[k]] & 1)
    if weight == "half":
        return complex(w.sum())
    return np.array([np.sum(u[k] * w) for k in range(m)])


def theta_series(z: SiegelPoint, weight: str, params: ThetaParams | None = None):
    """Plain theta sum over Z^m: the zero label's direct sum (m_q = eps_q = 0).

    weight "half": sum of e^{i pi n z n^T} (scalar).
    weight "three_half": sum of n^T e^{i pi n z n^T} (m-vector; identically
    zero by the n <-> -n symmetry, kept as an honest computation).
    Over the box [-R, R]^m, as _box_sum: terms at or below 2^-60 / (N w)
    of the largest one count as 0 and sum to below 2^-60 of it; every kept
    term is bit for bit the whole-box sum's.
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
    vector (n + eps_q/2)^T), over the box [-R, R]^m as _box_sum: only the
    real log-magnitude is formed over the box, terms at or below 2^-60 /
    (N w) of the largest one count as 0 and sum to below 2^-60 of it, and
    every kept term, sign and moment is bit for bit the whole-box sum's.
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


# The pass's floor (_floor) never goes below e^{_LOG_TINY}, about 1e-304:
# an exp that underflows or goes subnormal costs 15 to 100 times one that
# does not.
_LOG_TINY = -700.0

# Relative widening of the per-axis radii (_axis_radii), for the rounding of
# the exponent and of (S^-1)_kk: each is off by about m^2 cond(S) 2^-53
# relative, well below 2^-20 while cond(S) < 1e8.
_MARGIN = 2.0 ** -20

# Points times shift classes per block of a pass, and the length of the
# thread's complex work array (_times_cross): 256 kB, with each float
# temporary of a block half that.  Re-timed with the kept work array on
# theta-m3 (m = 3, R = 8..10; 8 seeds of 200 items, one process per size
# and seed): 2^14 ran 304 items/s in the median, ahead of 2^13 (267) and
# 2^15 (274) on 7 of 8 seeds each; at 2^15 the float temporaries of a
# block reach 256 kB and are again trimmed and faulted back in, about 109
# minor faults per item against a median under 1 at 2^13 and 2^14.  The m = 2
# passes of vector-law-m2 (at most 11956 points times classes) fit one
# block at 2^14.
_BLOCK = 1 << 14

# Per thread, the complex work array that a pass's block product goes into.
_work = threading.local()


def _floor(tail_tol: float, terms: int) -> float:
    """The log of the pass's floor: a term E with log|E| <= floor counts as 0.

    floor = max(_LOG_TINY, log(tail_tol) - 53 log 2 - log(terms)), terms
    being the points times shift classes of the pass.  A component reads
    the box of one class, so the terms it drops sum to at most 2^-53
    tail_tol in modulus, and those of a moment sum, where |v_k| <= R + 1/2,
    to R + 1/2 times that: below one ulp of the tail the radius accepts.
    Below tail_tol of about 1e-283 the max picks _LOG_TINY, and the bound
    is terms e^{_LOG_TINY} instead.
    """
    return max(_LOG_TINY,
               math.log(tail_tol) - 53 * math.log(2) - math.log(terms))


def _axis_radii(Y: np.ndarray, radius: int, floor: float) -> list:
    """Radii r_k <= R of the box prod_k [-r_k, r_k] that holds every term
    of the pass above floor, for every shift class.

    With S = (Y + Y^T) / 2, the form the exponent reads, the minimum of
    v S v^T over the other coordinates is v_k^2 / (S^-1)_kk, so
    -pi v S v^T > floor gives |v_k| < sqrt(-floor (S^-1)_kk / pi), and
    v_k = n_k + s_k with |s_k| <= 1/2 gives |n_k| <= r_k = min(R,
    floor(sqrt(-floor (S^-1)_kk / pi) + 1/2)), the root widened by
    _MARGIN.  (S^-1)_kk comes from Gauss-Jordan on Python floats, without
    pivots since S is positive definite: at m = 2 a few scalar operations,
    which cost less than np.linalg.inv alone.
    """
    s = Y.tolist()
    m = len(s)
    for i in range(m):
        for k in range(i):
            s[i][k] = s[k][i] = (s[i][k] + s[k][i]) / 2
    for p in range(m):                          # s becomes S^-1
        row = s[p]
        pivot = 1 / row[p]
        for i in range(m):
            if i != p:
                other = s[i]
                f = other[p] * pivot
                for j in range(m):
                    other[j] -= f * row[j]
                other[p] = -f
        for j in range(m):
            row[j] *= pivot
        row[p] = pivot
    scale = -floor / math.pi * (1 + _MARGIN) ** 2
    return [min(radius, int(math.sqrt(scale * s[k][k]) + 0.5)) for k in range(m)]


def _split(x: np.ndarray) -> tuple:
    """x = hi + lo with hi the top 39 bits of x (Veltkamp's split)."""
    t = x * 16385.0                              # 2^14 + 1
    hi = t - (t - x)
    return hi, x - hi


def _cis(hi, lo, k) -> np.ndarray:
    """e^{2 pi i (hi + lo) k} for a coefficient split as by _split, or a sum
    of two such hi on one grid, and integers |k| <= 2^12 scaled by a power
    of 2, broadcast against each other; to about 1e-16.

    Rounding c k itself would put an error of order 1e-16 |c k| on the
    angle, and a table entry is shared by every lattice point that reads
    it, so those errors add up in the moment sums.  hi k is exact (at most
    40 + 13 bits), and so is its reduction mod 1; only lo k, about
    2^-39 |c k| in size, is rounded.
    """
    whole = hi * k
    return np.exp(2j * math.pi * ((whole - np.rint(whole)) + lo * k))


def _exponent(Y: np.ndarray, twice: list) -> np.ndarray:
    """-pi v Y v^T over a box for a block of shift classes.

    twice[k][c, j] = 2 v_k = 2 (n_k + s_k) at the j-th n_k of axis k holds
    exact integers; each axis has its own length.  The result, of shape
    (classes, len_0, ..., len_{m-1}), adds form_kk (2 v_k)^2 and
    (2 form_ik 2 v_i) 2 v_k for i < k, with form = -pi (Y + Y^T) / 8, in
    one fixed order.  At -v each product
    rounds the same exact factors up to sign, so the values at v and -v
    are equal bit for bit, as in the oracles.  It is formed from v, not as
    n Y n^T + 2 n.Ys + s Y s^T, whose terms grow with |n| and cancel, and
    which rounds other terms at -v = (-n - 2s) + s, a point of the same class.
    """
    m = len(twice)
    form = -math.pi / 8 * (Y + Y.T)
    v = [t.reshape(t.shape[:1] + (1,) * k + t.shape[1:] + (1,) * (m - 1 - k))
         for k, t in enumerate(twice)]          # 2 v_k along axis k
    out = form[0, 0] * (v[0] * v[0])
    for k in range(1, m):
        out = out + form[k, k] * (v[k] * v[k])
        # out now spans axes 0..k, so the pairs with axis k add in place
        for i in range(k):
            out += (2 * form[i, k] * v[i]) * v[k]
    return out


@dataclass(frozen=True)
class _Grid:
    """What a pass at genus m and radius R reads that depends on (m, R) alone.

    twice[c, k, j] = 2 (n_k + s_k), n_k = j - R, for shift class c (see
    _exponent); weights[j] holds the character weights 1, (-1)^n, n and
    (-1)^n n at n = j - R (see _character_sums); powers indexes each class's
    half-pair factors (see _phases).  multipliers is the grid of the one
    _cis call of _phases, in its order: n / 4 for the m^2 halves, n^2 / 2
    for the m diagonal entries and n_k n_l / 2 for the pairs k < l.  Entry
    i is multiplied by entry coefficients[i] of the flat 2m x m table
    (X + X^T; X) that _phases forms from each part of X's split.  Every
    array is read-only.
    """

    twice: np.ndarray
    weights: np.ndarray
    powers: tuple
    multipliers: np.ndarray
    coefficients: np.ndarray


# Unbounded in form, but a pass only asks for R <= MAX_RADIUS, so there
# are at most MAX_RADIUS grids per genus.
@lru_cache(maxsize=None)
def _grid(m: int, radius: int) -> _Grid:
    classes = _shift_classes(m)
    side = 2 * radius + 1
    steps = np.arange(-radius, radius + 1)
    sign = 1 - 2 * (steps & 1)
    axes = np.arange(m)
    upper = [k * m + l for k, l in itertools.combinations(range(m), 2)]
    grid = _Grid(
        twice=2 * (classes.shifts[:, :, None] + steps),
        weights=np.array([np.ones_like(steps), sign, steps, sign * steps]).T,
        powers=(classes.offsets[:, None, :], axes[:, None], axes),
        multipliers=np.concatenate([np.tile(steps / 4, m * m),
                                    np.tile(steps * steps / 2, m),
                                    np.tile(np.outer(steps, steps).ravel() / 2,
                                            len(upper))]),
        coefficients=np.concatenate([np.repeat(np.arange(m * m), side),
                                     np.repeat(m * m + axes * (m + 1), side),
                                     np.repeat(np.array(upper, dtype=int),
                                               side * side)]))
    for arr in (grid.twice, grid.weights, grid.multipliers, grid.coefficients,
                *grid.powers):
        arr.setflags(write=False)
    return grid


def _phases(X: np.ndarray, radius: int, classes: _ShiftClasses,
            crop: list) -> tuple:
    """(tables, cross, consts): the factors of e^{i pi v X v^T}, v = n + s.

    tables[c, k, j] is the axis-k factor at n_k = j - R for shift class c:
    e^{i pi X_kk n_k^2} times e^{+-i pi (X_kl + X_lk) n_k / 2} for each l
    with s_l = +-1/2, which the pass puts into axis k's weights.  cross,
    the only factor multiplied over the box, holds e^{i pi (X_kl + X_lk)
    n_k n_l} for the pairs k < l on the sub-box that crop[k], a slice of
    j, keeps on axis k: its shape is (1, len_0, ..., len_{m-1}), with 1 on
    the axes that no pair reaches (all ones at m = 1).  consts[c] =
    e^{i pi s X s^T}.
    Both triangles of X are read, as the oracles' v z v^T does: X is
    symmetric only to 1e-12.  hi + hi^T is exact, its two terms being on
    one grid.  Every factor comes from one _cis call over the grid's
    multipliers; _cis works entry by entry, and scaling k or c by a power
    of 2 is exact, so that is the same as one call per kind of factor.
    """
    m, side = len(X), 2 * radius + 1
    grid = _grid(m, radius)
    parts = np.array(_split(X))                 # hi, lo
    pairs = parts + parts.transpose(0, 2, 1)    # hi + hi^T, lo + lo^T
    table = np.concatenate([pairs, parts], axis=1)
    factors = _cis(*table.reshape(2, -1).take(grid.coefficients, axis=1),
                   grid.multipliers)
    diagonal = m * m * side                 # where the diagonal factors start
    cross_at = diagonal + m * side          # and where the pair factors start
    halves = factors[:diagonal].reshape(m, m, side)
    powers = np.array([halves.conj(), halves, halves])
    powers[1] = 1
    tables = factors[diagonal:cross_at].reshape(m, side) \
        * powers[grid.powers].prod(axis=2)
    shifts = classes.shifts
    consts = np.exp(1j * math.pi * ((shifts @ X) * shifts).sum(axis=1))
    cross = np.ones((1,) * (m + 1))
    for factor, (k, l) in zip(factors[cross_at:].reshape(-1, side, side),
                              itertools.combinations(range(m), 2)):
        part = factor[crop[k], crop[l]]
        shape = [1] * (m + 1)
        shape[1 + k], shape[1 + l] = part.shape
        cross = cross * part.reshape(shape)
    return tables, cross, consts


def _character_sums(e: np.ndarray, axes: list) -> np.ndarray:
    """Sums of a_0(n_0, r_0) ... a_{m-1}(n_{m-1}, r_{m-1}) E(n) over a box,
    for e of shape (classes, len_0, ..., len_{m-1}) and axes[k] of shape
    (classes, len_k, 4): a_k(n_k, r) is the axis-k factor of _phases times
    character weight r, one of 1, (-1)^{n_k}, n_k and (-1)^{n_k} n_k.

    Column sum_k r_k 4^k of the result, of shape (classes, 4^m), takes row
    r_k on axis k.  The axes are contracted last to first, each by one
    matrix product batched over the classes, the first over the whole box
    and each next one over a box 4 / len_k the size.
    """
    width, m = len(e), e.ndim - 1
    t = e
    for k in reversed(range(m)):
        side = e.shape[1 + k]
        t = t.reshape(width, -1, side, 4 ** (m - 1 - k)).transpose(0, 1, 3, 2)
        t = t.reshape(width, -1, side) @ axes[k]
    return t.reshape(width, -1)


def _times_cross(e: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """e * cross, written into this thread's work array when e fits it.

    The work array, _BLOCK complex entries made on the thread's first pass,
    is overwritten by the next block, so only the block's character sums
    may read the product; a larger e gets a fresh array.
    """
    if e.size > _BLOCK:
        out = np.empty(e.shape, dtype=complex)
    else:
        buffer = getattr(_work, "block", None)
        if buffer is None:
            buffer = _work.block = np.empty(_BLOCK, dtype=complex)
        out = buffer[:e.size].reshape(e.shape)
    return np.multiply(e, cross, out=out)


def _theta_pass(z: SiegelPoint, params: ThetaParams) -> tuple:
    """One lattice pass: (half, three_half) of theta_vector, computed.

    E(v) = e^{i pi v z v^T} is one real exp of the whole exponent, formed
    from twice[c, k, j] = 2 (n_k + s_k) (see _exponent; the per-axis
    factors e^{-2 pi n_k (Ys)_k} alone overflow on flat points) times a
    product of unimodular factors (see _phases), so no complex exp is
    taken per point; only the pair factors are multiplied over the box,
    and _character_sums takes the per-axis ones with the character
    weights.  Terms at or below the floor (_floor) count as 0, and the pass
    reads only the sub-box prod_k [-r_k, r_k] of [-R, R]^m that holds every
    term above it (_axis_radii): the counted terms are those of the whole
    box above the floor, whatever the crop.  The shift classes go through
    the pass side by side, in blocks of at most _BLOCK points of the
    sub-box times classes.  R is the point's kept radius (_radius), and
    everything that depends on (m, R) alone comes from _grid(m, R).  Each
    block's product of E and the pair factors goes into the thread's work
    array (_times_cross), which the block's character sums read and the
    next block overwrites; the returned sums are fresh arrays.
    """
    m = z.m
    radius = _radius(z, params)
    classes = _shift_classes(m)
    shifts = classes.shifts
    grid = _grid(m, radius)
    floor = _floor(params.tail_tol, len(shifts) * (2 * radius + 1) ** m)
    radii = _axis_radii(z.Y, radius, floor)
    crop = [slice(radius - r, radius + r + 1) for r in radii]
    tables, cross, consts = _phases(z.X, radius, classes, crop)
    axes = [tables[:, k, c, None] * grid.weights[c] for k, c in enumerate(crop)]
    width = max(1, _BLOCK // math.prod(2 * r + 1 for r in radii))
    sums = np.empty((len(shifts), 4 ** m), dtype=complex)
    for first in range(0, len(shifts), width):
        block = slice(first, first + width)
        e = _exponent(z.Y, [grid.twice[block, k, c] for k, c in enumerate(crop)])
        kept = e > floor
        np.maximum(e, floor, out=e)
        np.exp(e, out=e)
        e *= kept
        sums[block] = _character_sums(_times_cross(e, cross),
                                      [a[block] for a in axes])
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
    and the per-axis ones ride the character weights.  Terms at or below
    a floor derived from params.tail_tol count as 0 (see _floor): they
    sum to at most 2^-53 tail_tol per component, and to R + 1/2 times that
    per moment sum.  The pass reads only the sub-box of [-R, R]^m that
    holds every term above the floor (see _axis_radii).

    The pair is kept on z per params: a second call at the same point, or
    big_theta at the other weight, costs no pass.  So is the truncation
    radius, which the verifiers' workable test has usually read first; the
    pass's radius-only arrays are kept per (m, R).
    """
    params = params or ThetaParams()
    memo = z._theta
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
