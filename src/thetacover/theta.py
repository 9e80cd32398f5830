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
order, so results are bit-identical run to run.  R is read off lambda_min
of the one eigendecomposition of Y that the point keeps, however many sums
and checks read it (``_radius``).  ``theta_component`` sums one box term by
term and forms no point list; ``theta_series`` is the same direct sum at
the zero label.  They are the oracles.  Over the whole box they form only
the real log-magnitude -pi v Y v^T, 8 bytes a point, from its m diagonal
and m (m - 1) / 2 pair-summed terms (``_box_log_magnitude``); a term at or
below max - 60 log 2 - log(N w) (N box points, w the largest moment factor)
counts as 0, so the dropped terms are below 2^-60 of the largest one, and
only the kept points get a phase and a complex exp (``_box_sum``).  Each
kept phase is bit for bit the whole-box sum's, and the magnitude moves at
rounding level: on the cases of the tests, every component lies within
1.2e-15 relative of the whole-box reference (2e-15 is the bound).  They
share nothing with the pass below but the radius.  ``theta_vector``
gives every component at both weights from one pass that evaluates each
parity pattern once and sums it against the characters of n mod 2.  The
labels' half shifts eps_q / 2 fall into shift classes up to sign, and the
classes into parity patterns, the axes that carry a half: classes of one
pattern differ by an integer vector t, so they sum over the same coset of
points and differ only by a character sign and the edge of their boxes
(Mumford, Tata Lectures on Theta I, ch. II 5).  The pass forms each
pattern's terms once, over the union of its classes' boxes, and each class
contracts them with its own character weights, read at its own n and
zeroed outside its own box, so it counts exactly its own terms.  The terms
are one real exp of an exponent broadcast from the coordinates 2v, times
the phases of the pairs of axes; the per-axis phases ride the character
weights.  What a pass reads that depends on m and R alone, from the exact
coordinates 2v to the grid of its phase factors, is built once per (m, R)
and kept read-only (``_grid``); the factors that depend on X are then one
vectorized exponential over the grid's distinct products, gathered by its
index.  Terms of the pass at or below a floor derived from
ThetaParams.tail_tol count as 0; together they are at most 2^-53 tail_tol
per component (``_floor``).  So each class reads only the sub-box
prod_k [-r_k, r_k] of the box that holds every term above the floor, with
per-axis radii r_k <= R read off the same spectrum (``_crop``, which the
verifiers' workable test asks too): its counted terms are those of the
whole box above the floor.  The pass is kept on the point per ThetaParams.

Each thread keeps up to four work arrays of _BLOCK entries, made on its
first use (``_work_array``): a complex one (512 kB), into which the pass
writes a block's product of magnitudes and pair phases, a float one (256
kB) that holds the block's exponent, floored and exponentiated in place,
and two complex ones for the pair phases over the hull of the union boxes
and a group's contiguous copy of them (``_theta_pass``).  A fresh array
per block would be freed, trimmed off the top of the heap by malloc and
faulted back in by the next block: a median of 56 minor page faults per
genus-3 pass on theta-m3 (126 per item) without the complex array, and 27
per item against 2.1 without and with the float one (200 items of seed
5); fresh arrays for the hull and the copy took 54 to 72 per item, and
6 to 12 are left with them kept.  A block larger than _BLOCK gets fresh
arrays, and a group that large reads the hull's phases in place; nothing
a pass returns shares memory with a work array.
"""

from __future__ import annotations

import cmath
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
from .symplectic import IntegerSymplectic, SiegelPoint, _det, _spectrum_of

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
    """A lattice sum would pass a cap: the truncation radius MAX_RADIUS, or
    _POINT_BUDGET, the points one of its arrays may hold.

    needed is what the sum asks for, an int, or inf when a radius overflows
    a float; the message names it after what, in 3 digits from 10^15 on.
    """

    def __init__(self, needed, cap: int, what: str = "truncation radius"):
        shown = needed if needed < 10 ** 15 else f"{needed:.3g}"
        super().__init__(f"{what} {shown} exceeds cap {cap}")
        self.needed = needed
        self.cap = cap


# Largest truncation radius a lattice sum may use.
MAX_RADIUS = 64

# Most lattice points that one array of a sum may hold: the box of a direct
# sum (_box_sum) or the cropped box of a pass (_theta_pass), counted before
# the array is made.  A pattern's union box adds at most a layer per axis
# to the crop, (2 r + 2) / (2 r + 1) of it, 1.06 times it at the budget's
# m = 4, r = 32.  65^4 is the whole box at m = 4 and R = 32, the
# verifiers' workable radius, so no verifier draw at m <= 4 reaches it.
# The memory it allows: about 90 bytes a point at the peak of a direct sum
# and 45 of a pass (peak RSS growth at m = 4, R = 24), so about 1.6 GB and
# 0.8 GB at the budget.
_POINT_BUDGET = 65 ** 4


def _check_points(points: int) -> None:
    if points > _POINT_BUDGET:
        raise CapacityError(points, _POINT_BUDGET,
                            "point count of one lattice array")


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
    and 64.  Relative to the sum it stays below 5e-14.  lambda_min is read
    off the eigendecomposition a point keeps, so R is _radius's bit for bit.
    """
    return _radius_at(float(_spectrum_of(Y)[0][0]), params)


def _radius_at(lam: float, params: ThetaParams) -> int:
    """truncation_radius's rule on lambda_min = lam."""
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
    """truncation_radius(z.Y, params), off the spectrum z keeps."""
    return _radius_at(float(z._spectrum()[0][0]), params)


# --- determinant branch ---

def det_invsqrt(S) -> complex:
    """det^{-1/2}(S) for complex symmetric S with positive definite Re S.

    Equals the Gaussian integral of e^{-pi x S x^T} over R^m, the product
    of the principal inverse square roots of the eigenvalues of S.  Each
    eigenvalue lam of S has Re lam = x^* (Re S) x / x^* x > 0 for its
    eigenvector x, so none lies on the branch cut.  At m <= 2 this is
    1 / sqrt(det S) with the principal root: the two arguments lie in
    (-pi/2, pi/2), so their sum lies in (-pi, pi) and is the argument of
    det S, whose principal root is then the product of theirs.  There Re S
    is tested by its leading minors and det S is symplectic._det's closed
    form, both on S / max |S_ij|; from m = 3 on numpy.linalg's eigvalsh
    tests Re S and eigvals gives the eigenvalues.  A non-finite entry, an
    unsymmetric S and one whose Re S is not positive definite raise
    ValueError by name, before any arithmetic that numpy would warn on.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    if not np.isfinite(S).all():
        raise ValueError("S must be finite")
    top = float(np.max(np.abs(S)))
    if np.max(np.abs(S - S.T)) > 1e-10 * max(1.0, top):
        raise ValueError("S must be symmetric")
    re = (S.real + S.real.T) / 2
    if len(S) <= 2:
        # det S = top^m det(S / top), whose det neither overflows nor
        # underflows where S's entries would
        if not (re[0, 0] > 0 and _det(re / top) > 0):
            raise ValueError("Re S must be positive definite")
        return 1 / (math.sqrt(top) ** len(S) * cmath.sqrt(_det(S / top)))
    if float(np.linalg.eigvalsh(re)[0]) <= 0:
        raise ValueError("Re S must be positive definite")
    eig = np.linalg.eigvals(S)
    return complex(np.prod(1.0 / np.sqrt(eig)))


def gamma_pair(z1: SiegelPoint, z2: SiegelPoint) -> complex:
    """det^{-1/2}((z1 - conj(z2))/2i) * det(Im z1)^{1/4} * det(Im z2)^{1/4},
    each det(Im z) the product of the eigenvalues the point keeps."""
    if z1.m != z2.m:
        raise ValueError("dimension mismatch")
    s = (z1.z - np.conj(z2.z)) / 2j
    return det_invsqrt(s) * math.prod(z1._spectrum()[0].tolist()) ** 0.25 \
        * math.prod(z2._spectrum()[0].tolist()) ** 0.25


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


def _box_log_magnitude(Y: np.ndarray, v: list) -> np.ndarray:
    """-pi v Y v^T over a direct sum's box, v[k] holding v_k along axis k.

    It adds the m diagonal terms (-pi Y_kk) v_k^2 and, for each pair k < l,
    (-pi (Y_kl + Y_lk) v_k) v_l, which reads both triangles of Y: m (m + 1)
    / 2 broadcast products, each added onto the partial sum over the axes
    so far, the pairs in place.  At -v every product rounds the same
    factors up to sign, so at the zero label the values at n and -n are
    equal bit for bit.  The pass's _exponent forms the same quantity; the
    two share no code, so the direct sums stay an independent oracle.
    """
    m = len(v)
    log_mag = (-math.pi * Y[0, 0]) * (v[0] * v[0])
    for k in range(1, m):
        log_mag = log_mag + (-math.pi * Y[k, k]) * (v[k] * v[k])
        # log_mag now spans axes 0..k, so the pairs with axis k add in place
        for i in range(k):
            log_mag += (-math.pi * (Y[i, k] + Y[k, i]) * v[i]) * v[k]
    return log_mag


def _box_sum(z: SiegelPoint, m_q: tuple, eps_q: tuple, weight: str,
             params: ThetaParams | None):
    """Direct sum of (-1)^{m_q . n} e^{i pi v z v^T}, v = n + eps_q/2, over
    the box [-R, R]^m; weight "three_half" inserts the moment vector v^T.

    Only the real log-magnitude -pi v Y v^T is formed over the whole box, a
    tensor of shape (2R + 1,)^m in lex order with v_k along axis k, at 8
    bytes a point, from m (m + 1) / 2 products (_box_log_magnitude).  Terms
    whose log-magnitude is at or below max - _DROP_BITS log 2 - log(N w)
    count as 0: together they are below 2^-60 of the largest term (see
    _DROP_BITS).  The kept points, gathered in lex order, get the phase
    pi v X v^T, adding X's m^2 entries over (k, l) in one order from 0 as
    the whole-box sum does, and one complex exp each.  So every kept phase,
    sign and moment is bit for bit the whole-box sum's, and the magnitude,
    pair-summed, moves at rounding level: the worst deviation of a sum from
    the whole-box reference on the tests' cases is 1.2e-15 relative.  The
    sum shares nothing with the pass but the radius, and keeps nothing.  A
    box of more than _POINT_BUDGET points raises CapacityError before it is
    made.
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
    _check_points(size)
    reach = radius + 0.5 if weight == "three_half" else 1.0
    log_mag = _box_log_magnitude(Y, v)
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
    phase is bit for bit the whole-box sum's, and the pair-summed magnitude
    keeps the sum within 1.2e-15 relative of it on the tests' cases.
    """
    return _box_sum(z, (0,) * z.m, (0,) * z.m, weight, params)


@dataclass(frozen=True, slots=True)
class ThetaComponentValue:
    """One entry of the theta vector: the label q and its value at the
    plus lift of the label's representative.  Slotted: big_theta builds one
    per label and weight, 144 a genus-3 point at both weights."""

    q: tuple
    value: object


def theta_component(rec: CosetRecord, z: SiegelPoint, weight: str,
                    params: ThetaParams | None = None) -> ThetaComponentValue:
    """Sign-twisted, half-shifted theta sum attached to one coset label.

    Computes sum (-1)^{m_q . n} e^{i pi (n + eps_q/2) z (n + eps_q/2)^T}, the
    component at the plus lift (weight "three_half" inserts the moment
    vector (n + eps_q/2)^T), over the box [-R, R]^m as _box_sum: only the
    real log-magnitude is formed over the box, terms at or below 2^-60 /
    (N w) of the largest one count as 0 and sum to below 2^-60 of it,
    every kept phase, sign and moment is bit for bit the whole-box sum's,
    and the pair-summed magnitude keeps the value within 1.2e-15 relative
    of it on the tests' cases.
    """
    if z.m != rec.M.m:
        raise ValueError("dimension mismatch")
    return ThetaComponentValue(
        q=rec.q, value=_box_sum(z, rec.m_q, rec.eps_q, weight, params))


@dataclass(frozen=True)
class _ShiftClasses:
    """The labels of coset_table(m) grouped by their half shift up to sign,
    and the shift classes by parity pattern.

    Class c holds the labels with eps_q = +-2 shifts[c].  Label k is in
    class of_label[k].  Its sign (-1)^{m_q . n} is the character of n mod 2
    that _character_sums puts in one column of its class's row: half_at[k]
    is that sum's place in the pass's flat array of sums, and moment_at[k]
    are the places of the same sums with n_j E in place of E.  Its
    component is the character sum of E at weight 1/2 and flips[k] times
    that of v E at weight 3/2, for the shift of its class; flips[k] is -1
    when eps_q = -2 shifts[c]: that box is the negated box of shifts[c],
    and E(-v) = E(v).

    The pattern of a class is the set of axes its shift puts a half on.
    Pattern p's representative shift patterns[p] is 1/2 on those axes and
    0 elsewhere.  Class c is a variant of pattern p = pattern_of[c]:
    moves[c] = patterns[p] - shifts[c] is an integer vector t in {0, 1}^m
    (the entries of eps_q are -1, 0 and 1, and a shift's first half is
    +1/2), so its points v = n + shifts[c] are the representative's v = n0
    + patterns[p] at n0 = n - t, and its sums read the character weights
    at n = n0 + t.  Classes are ordered by pattern and patterns by group;
    each entry (patterns, classes, below) of groups is a slice of each and
    the reach of its union box: over the crop prod_k [-r_k, r_k] of n, the
    group's classes' points have n0_k in [-r_k - below[k], r_k], below =
    max t over them.  Every pattern of a group has the same number of
    variants.  below is the largest reach of any group, that of the hull,
    the box that holds every union box.
    Below m = 3 every pattern has one class, and the order is the classes'.
    """

    shifts: np.ndarray
    patterns: np.ndarray
    pattern_of: np.ndarray
    moves: np.ndarray
    groups: tuple
    below: tuple
    of_label: np.ndarray
    half_at: np.ndarray
    moment_at: np.ndarray
    flips: np.ndarray


@lru_cache(maxsize=None)
def _shift_classes(m: int) -> _ShiftClasses:
    table = coset_table(m)
    keys = [max(rec.eps_q, tuple(-e for e in rec.eps_q)) for rec in table]
    members = {}                      # pattern -> its classes, as seen
    for key in dict.fromkeys(keys):
        members.setdefault(tuple(e % 2 for e in key), []).append(key)
    moves = {p: np.array([[(a - e) // 2 for a, e in zip(p, key)]
                          for key in keys_p])
             for p, keys_p in members.items()}
    group_of = {p: (len(t), tuple(t.max(axis=0).tolist()))
                for p, t in moves.items()}
    # patterns by group, each group in the order its first pattern is seen
    ordered = [p for key in dict.fromkeys(group_of.values())
               for p in members if group_of[p] == key]
    order = [key for p in ordered for key in members[p]]
    index = {key: c for c, key in enumerate(order)}
    groups, first, start = [], 0, 0
    for key in dict.fromkeys(group_of.values()):
        count = sum(group_of[p] == key for p in members)
        variants, below = key
        groups.append((slice(first, first + count),
                       slice(start, start + count * variants), below))
        first, start = first + count, start + count * variants
    of_label = np.array([index[key] for key in keys])
    half_at = of_label * 4 ** m \
        + (np.array([rec.m_q for rec in table]) % 2) @ 4 ** np.arange(m)
    classes = _ShiftClasses(
        shifts=np.array(order, dtype=float) / 2,
        patterns=np.array(ordered, dtype=float) / 2,
        pattern_of=np.array([ordered.index(tuple(e % 2 for e in key))
                             for key in order]),
        moves=np.concatenate([moves[p] for p in ordered]),
        groups=tuple(groups),
        below=tuple(max(g[2][k] for g in groups) for k in range(m)),
        of_label=of_label,
        half_at=half_at,
        moment_at=half_at[:, None] + 2 * 4 ** np.arange(m),
        flips=np.array([1.0 if rec.eps_q == key else -1.0
                        for rec, key in zip(table, keys)]))
    for arr in vars(classes).values():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return classes


# The pass's floor (_floor) never goes below e^{_LOG_TINY}, about 1e-304:
# an exp that underflows or goes subnormal costs 15 to 100 times one that
# does not.
_LOG_TINY = -700.0

# Relative widening of the per-axis radii (_crop), for the rounding of
# the exponent and of (S^-1)_kk: each is off by about m^2 cond(S) 2^-53
# relative, well below 2^-20 while cond(S) < 1e8.
_MARGIN = 2.0 ** -20

# Points times patterns per block of a pass (a class per pattern below
# m = 3), and the length of each of the thread's work arrays
# (_work_array): 512 kB complex, 256 kB float.
# Timed per class on theta-m3 (m = 3, R = 8..10; 8 seeds of 200 items):
# 2^14 ran 304 items/s in the median, ahead of 2^13 (267) and 2^15 (274),
# whose float temporaries were then trimmed and faulted back in.  With a
# pass per pattern none are left: 2^15 takes 10 to 12 minor faults per
# item against 6.4 at 2^14, and 2.07 blocks per pass against 2.63 (2.48 per
# class at 2^14), and ran theta-m3 2.2 % faster in the median of 5
# alternating perfbench pairs (5 of 5).  The m = 2 passes of
# vector-law-m2 (at most 11956 points times classes) fit one block.
_BLOCK = 1 << 15

# Per thread, the work arrays of a pass, by name (_work_array): "block",
# complex, and "exponent", float, of its blocks, and "cross" and "union",
# complex, of its pair phases.
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


def _crop(z: SiegelPoint, params: ThetaParams) -> tuple:
    """(R, floor, radii, points) of a pass at z: its radius (_radius), the
    log of its floor (_floor), the radii r_k <= R of the sub-box prod_k
    [-r_k, r_k] that holds every term above floor, for every shift class,
    and the sub-box's point count, checked against _POINT_BUDGET.

    With S = (Y + Y^T) / 2, the form the exponent reads, the minimum of
    v S v^T over the other coordinates is v_k^2 / (S^-1)_kk, so -pi v S v^T
    > floor gives |v_k| < sqrt(-floor (S^-1)_kk / pi), and v_k = n_k + s_k
    with |s_k| <= 1/2 gives |n_k| <= r_k = min(R, floor(sqrt(-floor
    (S^-1)_kk / pi) + 1/2)), the root widened by _MARGIN.  (S^-1)_kk =
    sum_i V_ki^2 / lam_i, off z's spectrum once R is within its cap: the
    cap refuses every lam_min whose inverse would overflow.

    The crop is kept on z per params, as its theta pair is, so the
    workable test of a verifier draw and the pass at the same point size
    it once; a refusal is not kept, and raises again on the next call."""
    memo = z._crops
    if params not in memo:
        radius = _radius(z, params)
        lam, vec = z._spectrum()
        floor = _floor(params.tail_tol,
                       len(_shift_classes(z.m).shifts) * (2 * radius + 1) ** z.m)
        scale = -floor / math.pi * (1 + _MARGIN) ** 2
        radii = tuple(min(radius, int(math.sqrt(scale * d) + 0.5))
                      for d in ((vec * vec) @ (1 / lam)).tolist())
        points = math.prod(2 * r + 1 for r in radii)
        _check_points(points)
        memo[params] = radius, floor, radii, points
    return memo[params]


def _split(x: np.ndarray) -> tuple:
    """x = hi + lo with hi the top 39 bits of x (Veltkamp's split)."""
    t = x * 16385.0                              # 2^14 + 1
    hi = t - (t - x)
    return hi, x - hi


def _cis(hi, lo, k) -> np.ndarray:
    """e^{2 pi i (hi + lo) k} for a coefficient split as by _split, or a sum
    of two such hi on one grid, and integers |k| < 2^13 scaled by a power
    of 2 (a pass's grid reaches |n| = MAX_RADIUS + 1, so |n_k n_l| <= 65^2),
    broadcast against each other; to about 1e-16.

    Rounding c k itself would put an error of order 1e-16 |c k| on the
    angle, and a table entry is shared by every lattice point that reads
    it, so those errors add up in the moment sums.  hi k is exact (at most
    40 + 13 bits), and so is its reduction mod 1; only lo k, about
    2^-39 |c k| in size, is rounded.
    """
    whole = hi * k
    return np.exp(2j * math.pi * ((whole - np.rint(whole)) + lo * k))


def _axial(twice: np.ndarray) -> np.ndarray:
    """The rows of _axis_terms before their scales, for twice[p, k, j] =
    2 v_k, all exact: twice[p, k]^2 for k < m - 1, a row of ones at m - 1,
    twice[p, m - 1]^2 at m and twice[p, i] for the q-th pair (i, k) of
    _pairs(m) at m + 1 + q."""
    m = twice.shape[1]
    square = twice * twice
    return np.concatenate([square[:, :m - 1], np.ones_like(twice[:, :1]),
                           square[:, m - 1:], twice[:, _pairs(m)[0]]], axis=1)


def _axis_terms(Y: np.ndarray, axial: np.ndarray) -> np.ndarray:
    """The factors of _exponent that lie on one axis, from the exact rows
    axial of _axial: terms[p, k, j] = form_kk (2 v_k)^2 at the row of axis
    k (k for k < m - 1, m for k = m - 1), the row of ones at m - 1, and
    terms[p, m + 1 + q, j] = 2 form_ik 2 v_i for the q-th pair (i, k) of
    _pairs(m), with form = -pi (Y + Y^T) / 8.

    A pass forms them once, for every pattern, and its blocks read them
    (_exponent).
    """
    m = len(Y)
    rows, cols, twos = _form_entries(m)
    form = -math.pi / 8 * (Y + Y.T)
    scales = form[rows, cols] * twos
    scales[m - 1] = 1.0
    return scales[:, None] * axial


@lru_cache(maxsize=None)
def _form_entries(m: int) -> tuple:
    """(rows, cols, twos): the entries of form that _axis_terms scales the
    rows of _axial by, and 1 or 2 for each; the row of ones reads any."""
    first, second = _pairs(m)
    axes = list(range(m - 1)) + [0, m - 1]
    twos = np.array([1.0] * (m + 1) + [2.0] * len(first))
    twos.setflags(write=False)
    return axes + first, axes + second, twos


@lru_cache(maxsize=None)
def _pairs(m: int) -> tuple:
    """(first, second): the pairs (i, k), i < k, in the order _exponent adds
    them, k by k and, within k, i by i."""
    pairs = [(i, k) for k in range(1, m) for i in range(k)]
    return [i for i, _ in pairs], [k for _, k in pairs]


def _exponent(twice: np.ndarray, terms: np.ndarray, box: list,
              out: np.ndarray | None = None) -> np.ndarray:
    """-pi v Y v^T over the sub-box prod_k box[k] of a grid for a block of
    patterns, written into out when one is given (of the result's shape),
    else into a fresh array.

    twice holds the grid's 2 v for the block's patterns and terms their
    _axis_terms, and box[k] is a slice of the grid on axis k.  The result,
    of shape (patterns, len_0, ..., len_{m-1}), adds form_kk (2 v_k)^2 and
    (2 form_ik 2 v_i) 2 v_k for i < k, with form = -pi (Y + Y^T) / 8, in
    one fixed order, so each point's value depends on its v alone, not on
    the box or block it is read in.  At -v each product rounds the same
    exact factors up to sign, so the values at v and -v are equal bit for
    bit, as in the oracles.  It is formed from v, not as n Y n^T + 2 n.Ys +
    s Y s^T, whose terms grow with |n| and cancel, and which rounds other
    terms at -v = (-n - 2s) + s, a point of the same class.  The one sum
    that first spans the whole box, of the partial sum over axes 0..m-2
    and axis m - 1's term, is a matrix product with inner length 2, whose
    each entry is that one rounded addition.
    """
    m = len(box)

    def along(rows, row, k):            # rows[:, row, box[k]] along axis k
        return rows[(slice(None), row) + (None,) * k + (box[k],)
                    + (None,) * (m - 1 - k)]

    # axis k's row of terms; the row of ones sits before axis m - 1's
    total = along(terms, 0 if m > 1 else 1, 0)
    pair = m + 1
    # only the last partial sum spans the whole box, so only it goes to out
    for k in range(1, m):
        if k < m - 1:
            total = total + along(terms, k, k)
        else:
            # the outer sum of the partial sum over axes 0..m-2, lead, and
            # axis k's row, as the matrix product [lead, 1] [1; row]: each
            # entry adds lead 1 + 1 row, which rounds as lead + row does in
            # either order, and it runs about 3 times as fast as np.add
            width = len(total)
            last = terms[:, m - 1:m + 1, box[k]]
            if m == 2:                  # rows 0 and 1: axis 0's and ones
                lead = terms[:, :2, box[0]].swapaxes(1, 2)
            else:
                lead = np.empty((width, total[0].size, 2))
                lead[..., 0] = total.reshape(width, -1)
                lead[..., 1] = 1.0
            flat = np.matmul(lead, last, out=None if out is None else
                             out.reshape(width, -1, last.shape[2]))
            total = out if out is not None else \
                flat.reshape(total.shape[:-1] + last.shape[2:])
        # total now spans axes 0..k, so the pairs with axis k add in place
        v = along(twice, k, k)
        for i in range(k):
            total += along(terms, pair, i) * v
            pair += 1
    # at m = 1 total is still a view of terms
    return np.positive(total, out=out) if m == 1 else total


@dataclass(frozen=True)
class _Grid:
    """What a pass reads that depends on the genus m and the steps n in
    [-R, R] alone; a pass reads the smallest grid that holds its patterns'
    union boxes, which reach one step past the crop (see _theta_pass).

    twice[p, k, j] = 2 (n_k + s_k), n_k = j - R, for the representative
    shift s of pattern p; axial[p] holds its squares, a row of ones and
    twice[p, i] for the pairs (i, k) of _pairs(m) (see _axial, _axis_terms
    and _exponent).  moved[c, k, :, j] holds the character weights 1, (-1)^n, n
    and (-1)^n n that class c reads at n0_k = j - R, at n = n0_k + t_k for
    its move t (see _ShiftClasses and _character_sums), and 0 where n
    passes R; reach[c, k, j] = |n| there.
    powers indexes each pattern's half-pair factors (see _phases).  The
    factors of _phases are, in its
    order, the products of n / 4 for the m^2 halves, n^2 / 2 for the m
    diagonal entries and n_k n_l / 2 for the pairs k < l with an entry of
    the flat 2m x m table (X + X^T; X) that _phases forms from each part
    of X's split.  multipliers[i] and coefficients[i] are the distinct
    (multiplier, table entry) pairs among them, 393 of 1311 at m = 3 and
    R = 9, and factor j is the product at expand[j].  Every array is
    read-only.
    """

    twice: np.ndarray
    axial: np.ndarray
    moved: np.ndarray
    reach: np.ndarray
    powers: tuple
    multipliers: np.ndarray
    coefficients: np.ndarray
    expand: np.ndarray


# Unbounded in form, but a pass only asks for a radius up to
# MAX_RADIUS + 1, so there are at most MAX_RADIUS + 2 grids per genus.
@lru_cache(maxsize=None)
def _grid(m: int, radius: int) -> _Grid:
    classes = _shift_classes(m)
    side = 2 * radius + 1
    steps = np.arange(-radius, radius + 1)
    sign = 1 - 2 * (steps & 1)
    axes = np.arange(m)
    upper = [i * m + k for i, k in zip(*_pairs(m))]
    # 4 times a multiplier is an int, so each product is keyed exactly
    quarters = np.concatenate([np.tile(steps, m * m),
                               np.tile(2 * steps * steps, m),
                               np.tile(2 * np.outer(steps, steps).ravel(),
                                       len(upper))])
    entries = np.concatenate([np.repeat(np.arange(m * m), side),
                              np.repeat(m * m + axes * (m + 1), side),
                              np.repeat(np.array(upper, dtype=int),
                                        side * side)])
    distinct, expand = np.unique(np.stack([entries, quarters], axis=1),
                                 axis=0, return_inverse=True)
    twice = 2 * (classes.patterns[:, :, None] + steps)
    weights = np.zeros((4, side + 1), dtype=np.int8)  # a step of 0 past R
    weights[:, :side] = [np.ones_like(steps), sign, steps, sign * steps]
    moved = np.array([weights[:, :side], weights[:, 1:]])[classes.moves]
    grid = _Grid(
        twice=twice,
        axial=_axial(twice),
        moved=moved,
        reach=np.abs(moved[:, :, 2]),
        powers=((2 * classes.patterns).astype(int)[:, None, :], axes[:, None],
                axes),
        multipliers=distinct[:, 1] / 4,
        coefficients=distinct[:, 0],
        expand=expand.ravel())
    for arr in (grid.twice, grid.axial, grid.moved, grid.reach,
                grid.multipliers, grid.coefficients, grid.expand, *grid.powers):
        arr.setflags(write=False)
    return grid


def _phases(X: np.ndarray, radius: int, classes: _ShiftClasses) -> tuple:
    """(tables, pairs, consts): the factors of e^{i pi v X v^T}, v = n + s,
    for the representative shift s of each pattern (see _ShiftClasses).

    tables[p, k, j] is the axis-k factor at n_k = j - R for pattern p:
    e^{i pi X_kk n_k^2} times e^{i pi (X_kl + X_lk) n_k / 2} for each l
    with s_l = 1/2, which the pass puts into axis k's weights.  pairs[q,
    j, j'] is e^{i pi (X_ik + X_ki) n_i n_k} for the q-th pair (i, k) of
    _pairs(m) at n_i = j - R, n_k = j' - R, the only factor multiplied over
    a box (_cross).  consts[p] = e^{i pi s X s^T}.
    Both triangles of X are read, as the oracles' v z v^T does: X is
    symmetric only to 1e-12.  hi + hi^T is exact, its two terms being on
    one grid.  Every factor comes from one _cis call over the grid's
    distinct products, gathered by its index expand; _cis works entry by
    entry, and scaling k or c by a power of 2 is exact, so that is the same
    as one call per kind of factor.
    """
    m, side = len(X), 2 * radius + 1
    grid = _grid(m, radius)
    parts = np.array(_split(X))                 # hi, lo
    pairs = parts + parts.transpose(0, 2, 1)    # hi + hi^T, lo + lo^T
    table = np.concatenate([pairs, parts], axis=1)
    factors = _cis(*table.reshape(2, -1).take(grid.coefficients, axis=1),
                   grid.multipliers)[grid.expand]
    diagonal = m * m * side                 # where the diagonal factors start
    cross_at = diagonal + m * side          # and where the pair factors start
    halves = factors[:diagonal].reshape(m, m, side)
    powers = np.array([halves, halves])
    powers[0] = 1
    tables = factors[diagonal:cross_at].reshape(m, side) \
        * powers[grid.powers].prod(axis=2)
    shifts = classes.patterns
    consts = np.exp(1j * math.pi * ((shifts @ X) * shifts).sum(axis=1))
    return tables, factors[cross_at:].reshape(-1, side, side), consts


def _cross(pairs: np.ndarray, box: list,
           out: np.ndarray | None = None) -> np.ndarray:
    """The pair factors of _phases multiplied over the sub-box prod_k box[k]
    of their grid, box[k] a slice of j on axis k, in the order of
    _pairs(m): of shape (1, len_0, ..., len_{m-1}), with 1 on the axes that
    no pair reaches (all ones at m = 1).  The pairs come axis by axis, so
    only those with the last axis are multiplied over the whole box; from
    m = 2 on they are written into out when one is given (of the result's
    shape)."""
    m = len(box)
    cross = np.ones((1,) * (m + 1))
    for factor, i, k in zip(pairs, *_pairs(m)):
        part = factor[box[i], box[k]]
        shape = [1] * (m + 1)
        shape[1 + i], shape[1 + k] = part.shape
        cross = np.multiply(cross, part.reshape(shape),
                            out=out if k == m - 1 else None)
    return cross


def _character_sums(e: np.ndarray, axes: list) -> np.ndarray:
    """Sums of a_0(n_0, r_0) ... a_{m-1}(n_{m-1}, r_{m-1}) E(n) over a box,
    for e of shape (patterns, len_0, ..., len_{m-1}) and axes[k] of shape
    (classes, len_k, 4), classes = patterns * variants: class c reads
    pattern c // variants, and a_k(n_k, r) is its axis-k factor of _phases
    times character weight r, one of 1, (-1)^{n_k}, n_k and (-1)^{n_k} n_k.

    Column sum_k r_k 4^k of the result, of shape (classes, 4^m), takes row
    r_k on axis k.  The axes are contracted last to first, each by one
    matrix product batched over the classes, the first over the whole box,
    its pattern's, which the variants of a pattern share by broadcasting,
    and each next one over a box 4 / len_k the size.
    """
    patterns, classes, m = len(e), len(axes[0]), e.ndim - 1
    side = e.shape[-1]
    t = e.reshape(patterns, 1, -1, side) \
        @ axes[-1].reshape(patterns, classes // patterns, side, 4)
    for k in reversed(range(m - 1)):
        side = e.shape[1 + k]
        t = t.reshape(classes, -1, side, 4 ** (m - 1 - k)).transpose(0, 1, 3, 2)
        t = t.reshape(classes, -1, side) @ axes[k]
    return t.reshape(classes, -1)


def _work_array(name: str, shape: tuple, dtype) -> np.ndarray:
    """This thread's work array `name`, of _BLOCK entries of dtype made on
    its first use, viewed in shape; a fresh array when shape outgrows it.

    The next block of a pass overwrites it, so only the block itself may
    read what it holds.
    """
    size = math.prod(shape)
    if size > _BLOCK:
        return np.empty(shape, dtype=dtype)
    buffer = getattr(_work, name, None)
    if buffer is None:
        buffer = np.empty(_BLOCK, dtype=dtype)
        setattr(_work, name, buffer)
    return buffer[:size].reshape(shape)


def _contiguous(view: np.ndarray, name: str) -> np.ndarray:
    """view copied into this thread's work array name (_work_array), or
    view itself when it outgrows the work array: a fresh copy would add an
    array of its size to the pass's peak."""
    if view.size > _BLOCK:
        return view
    out = _work_array(name, view.shape, view.dtype)
    out[...] = view
    return out


def _theta_pass(z: SiegelPoint, params: ThetaParams) -> tuple:
    """One lattice pass: (half, three_half) of theta_vector, computed.

    E(v) = e^{i pi v z v^T} is one real exp of the whole exponent, formed
    from the exact 2v (see _exponent; the per-axis factors e^{-2 pi n_k
    (Ys)_k} alone overflow on flat points) times a product of unimodular
    factors (see _phases), so no complex exp is taken per point; only the
    pair factors are multiplied over the box, and _character_sums takes the
    per-axis ones with the character weights.  Terms at or below the floor
    (_floor) count as 0, and each shift class reads only the sub-box prod_k
    [-r_k, r_k] of n in [-R, R]^m that holds every term above it (_crop,
    which raises CapacityError for a sub-box of more than _POINT_BUDGET
    points before any array of it is made): the counted terms are those of
    the whole box above the floor, whatever the crop.

    The per-point stage runs once per parity pattern, not once per class
    (see _ShiftClasses): the classes of a pattern differ by integer vectors
    t, so they share the points v = n0 + s of its representative shift s,
    and the pattern's exponent, floor test, exp and pair phases are formed
    once over the union box of its classes' crops, in n0 = n - t.  It adds
    a layer only on the axes where its classes' t differ, and the pass
    reads the smallest grid that holds every union box, of steps up to
    max_k r_k + 1 <= R + 1.  Each class keeps its own contraction: its
    per-axis tables are its pattern's phase factors times its own
    character weights read at n = n0 + t, zeroed where n leaves its crop,
    and its sums take its pattern's constant.  So each class sums exactly
    the terms it summed on its own crop, each with the same exponent, bit
    for bit, and the same floor decision; only the phases' rounding moves.
    Below m = 3 every pattern has one class and the pass does the
    per-class arithmetic bit for bit.

    Patterns of one union shape, a group, go through the pass side by side
    in blocks of at most _BLOCK points of their union box times patterns,
    and everything that depends on (m, R) alone comes from the grid.  The
    pair factors are multiplied once over the hull, the box that holds
    every union box (_cross), into the thread's "cross" work array; a
    group whose union box is smaller reads a copy of its part in the
    "union" one, contiguous, on which the block's product runs about 1.7
    times as fast (_contiguous).  Each block's exponent goes into the
    thread's float work array, where it is floored and exponentiated in
    place, and its product with the pair factors into the complex one,
    which the block's character sums read (_work_array); the next block
    overwrites both, and the returned sums are fresh arrays.
    """
    m = z.m
    radius, floor, radii, _ = _crop(z, params)
    classes = _shift_classes(m)
    shifts = classes.shifts
    # the smallest grid that holds every union box; n0 = j - edge on it
    edge = max(r + b for r, b in zip(radii, classes.below))
    grid = _grid(m, edge)
    tables, pairs, consts = _phases(z.X, edge, classes)
    terms = _axis_terms(z.Y, grid.axial)
    # class c's tables: its pattern's phase factors times its weights, 0
    # where n = n0 + t leaves the crop (which only a moved class can do);
    # each class's (len_k, 4) table is laid out by columns, as the
    # per-class pass laid it out, so that at m <= 2 the contractions add
    # in its order
    axes = tables[classes.pattern_of]
    if any(classes.below):
        axes = axes * (grid.reach <= np.array(radii)[:, None])
    axes = (axes[:, :, None, :] * grid.moved).transpose(0, 1, 3, 2)
    hull = [slice(edge - r - b, edge + r + 1)
            for r, b in zip(radii, classes.below)]
    cross = _cross(pairs, hull, _work_array(
        "cross", (1, *(h.stop - h.start for h in hull)), complex))
    sums = np.empty((len(shifts), 4 ** m), dtype=complex)
    for patterns, members, below in classes.groups:
        union, within = hull, cross
        if below != classes.below:
            union = [slice(edge - r - b, edge + r + 1)
                     for r, b in zip(radii, below)]
            within = _contiguous(cross[(slice(None),) + tuple(
                slice(top - b, None) for top, b in zip(classes.below, below))],
                "union")
        shape = [u.stop - u.start for u in union]
        points = math.prod(shape)
        width = max(1, _BLOCK // points)    # max(points, _BLOCK) a block
        variants = (members.stop - members.start) \
            // (patterns.stop - patterns.start)
        # the first contraction makes 4 sums per row of the last axis and
        # class: where a block holds one pattern it takes its variants a
        # few at a time, so that they hold at most max(one class's, _BLOCK)
        chunk = width * variants if width > 1 \
            else max(1, _BLOCK // (4 * points // shape[-1]))
        for first in range(patterns.start, patterns.stop, width):
            block = slice(first, min(first + width, patterns.stop))
            rows = slice(members.start + (first - patterns.start) * variants,
                         members.start + (block.stop - patterns.start) * variants)
            e = _exponent(grid.twice[block], terms[block], union,
                          _work_array("exponent", (block.stop - first, *shape),
                                      float))
            kept = e > floor
            np.maximum(e, floor, out=e)
            np.exp(e, out=e)
            e *= kept
            product = np.multiply(e, within,
                                  out=_work_array("block", e.shape, complex))
            for start in range(rows.start, rows.stop, chunk):
                some = slice(start, min(start + chunk, rows.stop))
                sums[some] = _character_sums(
                    product, [axes[some, k, u] for k, u in enumerate(union)])
    sums *= consts.take(classes.pattern_of)[:, None]
    flat = sums.ravel()
    half = flat[classes.half_at]
    # the sum of (n + s) E is the sum of n E plus s times the sum of E
    three_half = classes.flips[:, None] * (
        flat[classes.moment_at] + half[:, None] * shifts[classes.of_label])
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
    sum of n E plus s times the sum of E.  Classes whose shifts agree mod 1,
    a parity pattern, sum over the same coset of points, so each pattern's
    E is formed once, over the union of its classes' boxes, and each class
    reads it with its own weights (see _theta_pass).  |E| is one real exp
    of the whole exponent -pi v Y v^T, broadcast from the exact
    coordinates 2v so that it is equal at v and -v bit for bit, as in the
    oracles, which keeps the vanishing weight-3/2 sums at rounding level;
    arg E is a product of unimodular factors read off tables of at most 2R + 3
    (per axis) and (2R + 3)^2 (per pair of axes) entries, so no complex exp
    is taken per point; only the pair factors are multiplied over the box,
    and the per-axis ones ride the character weights.  Terms at or below
    a floor derived from params.tail_tol count as 0 (see _floor): they
    sum to at most 2^-53 tail_tol per component, and to R + 1/2 times that
    per moment sum.  Each class reads only the sub-box of [-R, R]^m that
    holds every term above the floor (see _crop).

    The pair is kept on z per params: a second call at the same point, or
    big_theta at the other weight, costs no pass; so are the spectrum of Y
    and the crop (_crop) that size it, and its radius-only arrays are kept
    per (m, R).
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
    return tuple(map(ThetaComponentValue, _labels(z.m), values))


@lru_cache(maxsize=None)
def _labels(m: int) -> tuple:
    """The labels q of coset_table(m), in its order."""
    return tuple(rec.q for rec in coset_table(m))
