"""Randomized end-to-end verification of the theta transformation laws.

The induced monomial representation gamma_bar is built with the fixed
lifts of the coset representatives: entry (i, j) of gamma_bar(rbar) is
lambda_bar(Mbar_i rbar Mbar_j^{-1})^{-1} in the unique column
j = index(label_i . r).  The transformation law multiplies the row
vector of components on the right by gamma_bar(rbar^{-1}).  This
left/right bookkeeping was calibrated against the one-component case,
which must reproduce the scalar law, and is frozen; the three sign/arg
variants fail at order one.

induced_rep_matrix is that definition, and the oracle of everything built
on it.  The vector-law verifier does not call it per trial.  Every element
it draws is a word of letters l_1 ... l_k of a fixed alphabet, drawn as
random_word_element draws it, and gamma_bar is a homomorphism on the
cover, so it multiplies the images of the letters' plus lifts (each built
by induced_rep_matrix once per genus and letter, on first use) and
inverts the product.  MonomialMatrix holds gamma_bar as a permutation
with one Mu8 exponent per row, as ints, and is the only code that
composes, inverts and applies one: a trial applies the inverse to its
rows of components as one scatter by the permutation, times the eighth
roots of unity looked up by exponent in one table (the one Mu8.value
reads); it is never made dense.  The plus lifts multiply to
(l_1 ... l_k, s), and cocycle.word_lift gives s in closed form: the m
factors of the sign cocycle telescope along the word, and Rao's cocycle
needs a signature only at letters outside the Siegel parabolic, which in
the Sp alphabet is omega alone.  The same fold of prefixes gives the
element; walking the word with cover_mul is the oracle.

Error convention: every comparison is reported as
|lhs - rhs| / max(1, |lhs|, |rhs|), so laws whose two sides vanish
identically (the weight-3/2 components on even labels) are compared in
absolute terms instead of dividing noise by noise.  Reports carry the
magnitudes so a trivially satisfied law is visible as such.

Both verifiers run one trial loop; each supplies only how one trial is
drawn and compared.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce

import numpy as np

from . import exactla as xla
from .cocycle import (_ROOTS_OF_UNITY, CoverElement, cover_inv, cover_mul,
                      word_lift)
from .f2cosets import CosetRecord, coset_index_of, coset_profile, coset_table
from .gauss import lambda_bar, lambda_multiplier
from .symplectic import (IntegerSymplectic, SiegelPoint, _draw_word, _mobius,
                         j_matrix, mobius_act, random_word_element,
                         subgroup_membership)
from .theta import (CapacityError, ThetaParams, _crop, j_half_bar, sqrt_det,
                    theta_component, theta_series, theta_vector)

__all__ = [
    "MonomialMatrix",
    "VerificationReport",
    "induced_rep_matrix",
    "sample_point",
    "sample_gamma48",
    "verify_scalar_law",
    "verify_vector_law",
]


@dataclass(frozen=True)
class MonomialMatrix:
    """Square matrix with exactly one eighth root of unity per row.

    Row i carries exp(i pi exponents[i] / 4) in column perm[i]; perm is a
    permutation, so columns are covered exactly once as well.  Exponents
    follow Mu8's rule: read by xla.as_int (7.0 acts as 7; 0.5 or a Mu8
    raises ValueError) and kept mod 8.  This class alone composes
    (_product, of which @ is the two-factor case), inverts (inv) and
    applies (_apply) a monomial matrix, on the permutation and the
    exponents as ints.  Every instance, including each result, passes the
    constructor's check.
    """

    n: int
    perm: tuple
    exponents: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation")
        if len(self.exponents) != self.n:
            raise ValueError("need one exponent per row")
        object.__setattr__(self, "exponents", tuple([
            (e if type(e) is int else xla.as_int_arg(e, "exponent")) % 8
            for e in self.exponents]))

    @staticmethod
    def _product(factors) -> "MonomialMatrix":
        """The product of factors, in their order, folded in ints and built
        once.  Row i of A @ B is row i of A carried on by row p = A.perm[i]
        of B: column B.perm[p], exponent A's at i plus B's at p."""
        first, *rest = factors
        perm, exps = first.perm, first.exponents
        for factor in rest:
            if factor.n != first.n:
                raise ValueError("size mismatch")
            exps = [e + factor.exponents[p] for e, p in zip(exps, perm)]
            perm = [factor.perm[p] for p in perm]
        return MonomialMatrix(first.n, tuple(perm), tuple(exps))

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        return MonomialMatrix._product((self, other))

    def inv(self, sign: int = 1) -> "MonomialMatrix":
        """The inverse of sign times this matrix, sign = 1 or -1.

        gamma_bar(1, -1) = -Id, exponent 4 on every row, is central, so
        sign = -1 shifts every exponent of the inverse by 4.
        """
        if sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        shift = 0 if sign == 1 else 4
        perm, exps = [0] * self.n, [0] * self.n
        for i, (p, e) in enumerate(zip(self.perm, self.exponents)):
            perm[p], exps[p] = i, -e - shift
        return MonomialMatrix(self.n, tuple(perm), tuple(exps))

    def _apply(self, rows: np.ndarray) -> np.ndarray:
        """G^T rows for an n x k array rows, i.e. column c of the result is
        rows[:, c] times G as a dense matrix: row i, times the root of
        exponent i looked up in one table, lands in row perm[i] by one
        scatter."""
        phases = _ROOTS_OF_UNITY[list(self.exponents)]
        out = np.empty_like(rows)
        out[list(self.perm)] = rows * phases[:, None]
        return out


@lru_cache(maxsize=None)
def _inv_lift(m: int, k: int) -> CoverElement:
    rec = coset_table(m)[k]
    return cover_inv(CoverElement(rec.M, rec.kappa))


def _conjugate(rec: CosetRecord, rbar: CoverElement) -> tuple:
    """(j, lambda_bar(Mbar_i rbar Mbar_j^{-1})) for the label i of rec.

    Mbar is the fixed lift (M, kappa) of each coset representative and
    j = index(label_i . r) is read off the cover product Mbar_i rbar, so
    the conjugated element lands in the theta group (asserted).
    """
    mi_r = cover_mul(CoverElement(rec.M, rec.kappa), rbar)
    j = coset_index_of(mi_r.g)
    sbar = cover_mul(mi_r, _inv_lift(rbar.g.m, j))
    assert subgroup_membership(sbar.g, "Gamma(1,2)"), "coset bookkeeping broke"
    return j, lambda_bar(sbar)


def induced_rep_matrix(rbar: CoverElement) -> MonomialMatrix:
    """Monomial matrix of the induced representation at a cover element.

    Row i has lambda_bar(Mbar_i rbar Mbar_j^{-1})^{-1} in the column
    j = index(label_i . r), both read from _conjugate.  Exact in
    Mu8.  Each row makes two cover products: Mbar_i rbar, whose matrix
    M_i r also gives the column label, and the product with Mbar_j^{-1}.

    This is the definition and the oracle.  The vector-law verifier calls
    it only for the letters of its words (_letter_image) and multiplies
    their images along each word (_word_rep_inv).
    """
    rows = [_conjugate(rec, rbar) for rec in coset_table(rbar.g.m)]
    return MonomialMatrix(len(rows), tuple(j for j, _ in rows),
                          tuple(lam.inv().exponent for _, lam in rows))


@dataclass(frozen=True)
class VerificationReport:
    """Summary of one randomized law verification run."""

    theorem: str
    m: int
    trials: int
    max_abs_error: float
    max_rel_error: float
    worst_case: dict
    tol: float
    passed: bool
    elapsed: float

    def as_dict(self) -> dict:
        d = asdict(self)
        d["elapsed_seconds"] = d.pop("elapsed")
        return d


def _rel_err(lhs, rhs) -> tuple:
    # as 1-d arrays: numpy's abs of a complex scalar may round differently
    lhs, rhs = np.asarray(lhs).ravel(), np.asarray(rhs).ravel()
    abs_err = float(abs(lhs - rhs).max())
    scale = max(1.0, float(abs(lhs).max()), float(abs(rhs).max()))
    return abs_err, abs_err / scale


# Draw budgets of the resampling loops.  Over 125k sampled verifier trials
# (m = 1..3) sample_point always passed on its first draw, and the workable
# loop took at most 978 draws (rare scalar-law elements at m = 1 whose image
# points are mostly flat).  A loop that reaches its budget raises instead of
# spinning.
SAMPLE_BUDGET = 1000
WORKABLE_BUDGET = 10_000

# Largest cond(Y) that sample_point accepts: flat Y makes the truncation
# radius explode.
COND_CAP = 1e4


def _random_letters(m: int, subgroup: str, rng) -> list:
    """The letters of a word of 1 to 8 letters, drawn as random_word_element
    draws them from the same length and seed."""
    entries = _draw_word(m, subgroup, int(rng.integers(1, 9)),
                         int(rng.integers(2**63)))
    return [letter for *_, letter in entries]


def _random_word(m: int, subgroup: str, rng) -> IntegerSymplectic:
    """The element of the word _random_letters draws, formed from its first
    letter on as random_word_element forms it."""
    return reduce(operator.matmul, _random_letters(m, subgroup, rng))


def _float_word(letters: list) -> np.ndarray:
    """The letters' product as floats, from their kept float arrays, formed
    from the first letter on as _random_word forms the exact product.

    For the Sp letters, whose entries are 0 and +-1, and at most 8 of them,
    every partial sum is an integer far below 2**53, so this is the exact
    product's to_float() bit for bit.  Read-only for a single letter.
    """
    return reduce(np.matmul, [g._floats() for g in letters])


def sample_point(m: int, rng) -> SiegelPoint:
    """Random z = p(g(z0)): integer word then a generic real parabolic.

    Resamples until cond(Y) <= COND_CAP, at most SAMPLE_BUDGET times.  The
    word g is only read as floats, so it is multiplied in floats
    (_float_word), bit for bit its exact product; g(z0) stays an array (z0
    itself is built once per genus), so a draw builds and validates one
    SiegelPoint, the candidate z.  cond(Y) is lam_max / lam_min of the
    spectrum that z keeps, which later sizes its lattice sums.
    """
    m = xla.as_int_arg(m, "m")
    z0 = SiegelPoint.z0(m)
    for _ in range(SAMPLE_BUDGET):
        w = _mobius(_float_word(_random_letters(m, "Sp", rng)), z0)
        a = np.eye(m) + 0.2 * rng.uniform(-1, 1, (m, m))
        if abs(np.linalg.det(a)) < 0.3:
            continue
        b = rng.uniform(-1, 1, (m, m))
        b = np.round((b + b.T) / 2, 6)
        z = SiegelPoint(a @ w.real @ a.T + b, a @ w.imag @ a.T)
        lam = z._spectrum()[0]
        if 0 < lam[0] and lam[-1] / lam[0] <= COND_CAP:
            return z
    raise RuntimeError(f"sample_point: no point with cond(Y) <= {COND_CAP} "
                       f"in {SAMPLE_BUDGET} draws")


# Both sides of a law must stay within a modest lattice radius, else a
# single skewed image point dominates the whole run's budget.
WORKABLE_RADIUS = 32


def _workable(z: SiegelPoint, rz: SiegelPoint, params: ThetaParams) -> bool:
    """True if theta._crop sizes both passes, each with R <= WORKABLE_RADIUS."""
    try:
        return all(_crop(p, params)[0] <= WORKABLE_RADIUS for p in (z, rz))
    except CapacityError:
        return False


def _workable_point(m: int, r: IntegerSymplectic, rng,
                    params: ThetaParams) -> tuple:
    """(z, r z) for the first sampled z on which both sides are workable."""
    for _ in range(WORKABLE_BUDGET):
        z = sample_point(m, rng)
        rz = mobius_act(r, z)
        if _workable(z, rz, params):
            return z, rz
    raise RuntimeError(f"_workable_point: no workable point in "
                       f"{WORKABLE_BUDGET} draws")


def _verify(theorem: str, m: int, trials: int, tol: float, seed: int,
            params: ThetaParams | None, trial) -> VerificationReport:
    """The trial loop both verifiers share.

    trial(t, m, seed, params) draws trial t from its own seeded rng, at the
    int m and int seed validated here, and returns (r, z, half, three_half,
    magnitude, extra): the element, the point, the (abs, rel) error pair of
    each weight, the largest weight-3/2 magnitude at r z and any further
    worst-case fields.
    """
    # a run that compares nothing must not report "passed", and one whose
    # bound no error can exceed (or none can meet) checks nothing
    m, trials = xla.as_int_arg(m, "m"), xla.as_int_arg(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    seed = xla.as_int_arg(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    params = params or ThetaParams()
    coset_table(m)                  # checks m's range, built before the clock starts
    t_start = time.time()
    max_abs = 0.0
    max_rel = -1.0
    worst = {}
    for t in range(trials):
        r, z, (abs12, rel12), (abs32, rel32), mag32, extra = \
            trial(t, m, seed, params)
        # max() and > drop nan: a non-finite error counts as infinite, so
        # it fails the run and the first such trial is the worst case
        if all(map(math.isfinite, (abs12, rel12, abs32, rel32))):
            rel = max(rel12, rel32)
            max_abs = max(max_abs, abs12, abs32)
        else:
            rel = max_abs = math.inf
        if rel > max_rel:
            max_rel = rel
            worst = {
                "trial": t,
                "element": [list(row) for row in r.rows],
                **extra,
                "z_X": z.X.tolist(),
                "z_Y": z.Y.tolist(),
                "rel_error_half": rel12,
                "rel_error_three_half": rel32,
                "three_half_magnitude": mag32,
            }
    return VerificationReport(
        theorem=theorem, m=m, trials=trials,
        max_abs_error=max_abs, max_rel_error=max_rel, worst_case=worst,
        tol=tol, passed=bool(max_rel < tol), elapsed=time.time() - t_start)


def verify_scalar_law(m: int, trials: int = 200, tol: float = 1e-8,
                      seed: int = 0, params: ThetaParams | None = None) -> VerificationReport:
    """Scalar transformation law over the theta group, both weights.

    Weight 1/2: theta(rz) = lambda(r) sqrt_det(r, z) theta(z) on the plain
    sum.  Weight 3/2: the single-component law on a shifted component
    whose label r fixes,
    theta_q(rz) = sqrt_det(r,z) (cz+d) theta_q(z) lambda_bar(Mbar_q rbar Mbar_q^{-1})
    (these components vanish identically, so this comparison is absolute;
    the report's worst_case records the magnitudes).
    """
    def trial(t, m, seed, params):
        rng = np.random.default_rng((seed, t))
        table = coset_table(m)
        # up to 51 draws for an r that fixes some shifted label (stab holds
        # their indices); without one the trial would compare nothing
        for _ in range(51):
            r = _random_word(m, "Gamma(1,2)", rng)
            stab = [k for k, rec in enumerate(table)
                    if any(rec.eps_q) and coset_profile(rec.M @ r) == rec.q]
            if stab:
                break
        else:
            raise RuntimeError("verify_scalar_law: no element fixing a "
                               "shifted label in 51 draws")
        z, rz = _workable_point(m, r, rng, params)
        sd = sqrt_det(r, z)

        lhs = theta_series(rz, "half", params)
        rhs = lambda_multiplier(r).value * sd * theta_series(z, "half", params)
        half = _rel_err(lhs, rhs)

        k = stab[int(rng.integers(len(stab)))]
        rec = table[k]
        _, lam = _conjugate(rec, CoverElement(r, 1))
        v_z = theta_component(rec, z, "three_half", params).value
        v_rz = theta_component(rec, rz, "three_half", params).value
        rhs_v = sd * (j_matrix(r, z) @ v_z) * lam.value
        return (r, z, half, _rel_err(v_rz, rhs_v), float(abs(v_rz).max()),
                {})

    return _verify("scalar-law", m, trials, tol, seed, params, trial)


def _vector_draw(m: int, seed: int, t: int) -> tuple:
    """(rng, letters, rbar, sign) of vector-law trial t: the word's letters,
    the element rbar = (l_1 ... l_k, eps) with a random lift eps, and the
    sign with rbar = (l_1, 1) ... (l_k, 1) (1, sign); the point comes next
    from rng."""
    rng = np.random.default_rng((seed, 1_000_000 + t))
    letters = _random_letters(m, "Sp", rng)
    eps = 1 if rng.integers(2) == 0 else -1
    plus = word_lift(letters)
    return rng, letters, CoverElement(plus.g, eps), eps * plus.eps


@lru_cache(maxsize=None)
def _letter_image(letter: IntegerSymplectic) -> MonomialMatrix:
    """gamma_bar of a letter's plus lift, by the definition, on first use."""
    return induced_rep_matrix(CoverElement(letter, 1))


def _word_rep_inv(letters: list, sign: int) -> MonomialMatrix:
    """gamma_bar(rbar^{-1}) for rbar = (l_1, 1) ... (l_k, 1) (1, sign).

    gamma_bar(rbar) is gamma_bar(l_1, 1) ... gamma_bar(l_k, 1) times
    gamma_bar(1, sign) = sign Id, so this is the letter images' product,
    folded in ints by MonomialMatrix._product, inverted with the sign by
    inv.  The trial's element (r, eps) is this rbar with sign = eps s, s
    the sign of the plus lifts' product (r, s) = word_lift(letters).
    induced_rep_matrix(cover_inv(rbar)) is the oracle.
    """
    return MonomialMatrix._product(map(_letter_image, letters)).inv(sign)


def verify_vector_law(m: int, trials: int = 100, tol: float = 1e-8,
                      seed: int = 0, params: ThetaParams | None = None) -> VerificationReport:
    """Vector transformation law over the full integer symplectic group.

    Weight 1/2: Theta(rbar z) = j_half_bar(rbar, z) Theta(z) gamma_bar(rbar^{-1})
    as row vectors of components, where j_half_bar(rbar, z) =
    eps sqrt_det(r, z).  Weight 3/2: the same with the extra (cz+d) acting
    on the coordinate index (identically vanishing components, compared
    absolutely).  gamma_bar(rbar^{-1}) is built from the letters of the
    drawn word (_word_rep_inv), not from its definition, and applied to
    both weights at once as a permutation with phases (MonomialMatrix._apply).
    """
    def trial(t, m, seed, params):
        rng, letters, rbar, sign = _vector_draw(m, seed, t)
        r = rbar.g
        z, rz = _workable_point(m, r, rng, params)
        jb = j_half_bar(rbar, z)
        G = _word_rep_inv(letters, sign)

        th_z, v_z = theta_vector(z, params)
        th_rz, v_rz = theta_vector(rz, params)
        # the weight-1/2 row and the rows of v_z J^T, through G at once
        both = jb * G._apply(np.column_stack((th_z, v_z @ j_matrix(r, z).T)))
        return (r, z, _rel_err(th_rz, both[:, 0]), _rel_err(v_rz, both[:, 1:]),
                float(abs(v_rz).max()), {"lift": rbar.eps})

    return _verify("vector-law", m, trials, tol, seed, params, trial)


def sample_gamma48(m: int, rng, factors: int = 2) -> IntegerSymplectic:
    """Random element of the level-(4,8) group as a product of commutators.

    Commutators of level-2 elements land in the level-(4,8) group; the
    membership predicate is asserted as a cross-check of both the sampler
    and the predicate.  factors must be an integer, at least 1.
    """
    factors = xla.as_int_arg(factors, "factors")
    if factors < 1:
        raise ValueError(f"need at least one commutator factor, got {factors}")
    out = None
    for _ in range(factors):
        x, _ = random_word_element(m, "Gamma2", length=int(rng.integers(1, 5)),
                                   seed=int(rng.integers(2**63)))
        y, _ = random_word_element(m, "Gamma2", length=int(rng.integers(1, 5)),
                                   seed=int(rng.integers(2**63)))
        comm = x @ y @ x.inverse() @ y.inverse()
        out = comm if out is None else out @ comm
    assert subgroup_membership(out, "Gamma4_8"), "commutator left the subgroup"
    return out
