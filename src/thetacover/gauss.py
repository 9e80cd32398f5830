"""Gauss sums and the trivializing phase on the even-diagonal subgroup.

On the subgroup of integer symplectic matrices with diag(a b^T) and
diag(c d^T) even, the eighth-root pairing cocycle is a coboundary: there
is a phase beta_tilde(g), itself an eighth root of unity, with
c~(h1, h2) = beta_tilde(h1)^{-1} beta_tilde(h2)^{-1} beta_tilde(h1 h2).
It is one normalized conjugate Gauss sum for every rank j of c.  The
lattice-quotient sum attached to the pair of row Lagrangians (0 | 1) and
(c | d) reduces to G(d', W), W the j x j block of c in a basis of its
saturated row lattice (W = c when c is invertible).  Its classes form the
finite quadratic module (Z^j / Z^j W, x -> x W^{-1} d' x^T / 2 mod 1), so
beta_tilde is the conjugate of that module's Weil index, computed exactly
in ints: a Smith form of W puts the module on sum_i Z/e_i, which splits
into p-parts, each an orthogonal sum of Jordan components with a closed
Gauss sum (Conway-Sloane, SPLAG ch. 15).  Only e_{j-1} is factored; the
rest of e_j is cyclic and takes a Jacobi symbol.  No class is counted, no
float is formed and no size is refused.

symplectic_gauss_sum(d, c), the public sum, counts instead: over the
common denominator D = |det c|, with the integer matrix Q = D c^{-1} d,
every phase is e^{i pi k / D} for an integer k mod 2D, so the residue
classes are counted by k in exact int64 arithmetic (D is at most 10**6
classes, which keeps every intermediate below 2m 10**12) and floats enter
only in the final sum of counts times phases.  When D = 1 the quotient has
one class, x = 0, whose phase is e^0, so the sum is exactly 1 + 0j.  The
sum is defined when c d^T is symmetric with an even diagonal, exactly the
condition that makes the phase a class function.  It is beta_tilde's test
oracle.  The multiplier lambda = m_xstar * beta_tilde^{-1} is what the
holomorphic transformation law of the theta series picks up on this
subgroup.

f_shift and modified_cocycle push beta_tilde from the subgroup to the
whole group along the coset representatives: f(g) = beta_tilde(r) c~(r, M)
for the factorization g = r M, and c~'(g1,g2) = c~(g1,g2) f(g1) f(g2)
f(g1 g2)^{-1}.  The shifted cocycle is trivial whenever the first argument
lies in the subgroup, but is not identically one.
"""

from __future__ import annotations

import cmath
import math
import operator
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
    (raises ValueError otherwise, and past 10**6 classes).  With the HNF
    u c = h, whose rows span the lattice of c, G(d, c) = G(u d, h) since
    h^{-1} u d = c^{-1} d.  Over the common denominator D = |det c| = det h
    the phase is e^{i pi k / D} with the integer k = x Q x^T mod 2D,
    Q = D h^{-1} u d: the classes of the HNF box (exactla.box_sides) are
    counted by k exactly in int64, and floats enter only in the final sum
    of counts times phases.  With |det c| = 1 there is one class, x = 0,
    and the sum is exactly 1 + 0j.  beta_tilde does not count; this sum is
    its test oracle.
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
    sides = xla.box_sides(h)
    den = math.prod(sides)                          # D = |det c| = det h
    if den == 1:                    # one class, x = 0, whose phase is e^0
        return 1 + 0j
    # h Q = D u d: Q = D c^{-1} d = D h^{-1} u d is integral (D h^{-1} = adj h)
    q = xla._upper_solve(h, xla.mat_mul(u, d_rows), den)
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
    return complex(folded @ np.exp(1j * np.pi * np.arange(den) / den))


@dataclass(frozen=True)
class SnappedRoot:
    """An eighth root of unity with the complex number it was read from.

    snap_mu8 reads one off a floating value, raw, at distance residual.
    beta_tilde computes its root exactly and returns it in this form, with
    raw the root's own value and residual 0.0.
    """
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


# beta_tilde's answers, one per exponent: exact, so residual 0.0
_EXACT_ROOTS = tuple(SnappedRoot(Mu8(k), Mu8(k).value, 0.0) for k in range(8))


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while not a % 2:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _odd_cyclic(r: int, n: int) -> int:
    """Exponent of the Weil index of (Z/n, x -> r x^2 / n), n odd, r prime
    to n: (r|n) eps_n, with eps_n = 1 if n = 1 mod 4 and i if n = 3 mod 4."""
    return 4 * (_jacobi(r, n) < 0) + 2 * (n % 4 == 3)


def _valuation(x: int, p: int, cap: int) -> int:
    """v_p(x), and cap for x = 0."""
    if not x:
        return cap
    v = 0
    while not x % p:
        x //= p
        v += 1
    return v


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n > 0, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if not n % p:
            out.append(p)
            while not n % p:
                n //= p
        p += 1 + (p > 2)
    return out + [n] * (n > 1)


def _congruence(gram: list, block: list, coef: dict, mod: int) -> list:
    """The Gram of the generators z_l - sum_t coef[l][t] z_t, l outside block
    (t in block), mod mod: T gram T^T, by row then column operations, with
    block's rows and columns dropped."""
    rest = [l for l in range(len(gram)) if l not in block]
    rows = {l: [x - sum(c * gram[t][s] for t, c in zip(block, coef[l]))
                for s, x in enumerate(gram[l])] for l in rest}
    return [[(rows[l][s] - sum(c * rows[l][t] for t, c in zip(block, coef[s])))
             % mod for s in rest] for l in rest]


def _p_part(p: int, e: list, n: list) -> int:
    """Exponent of the Weil index of the p-part of the module (e, n) of
    _weil_index, from a Jordan splitting (Conway-Sloane, SPLAG ch. 15).

    The p-part is sum_i Z/p^{a_i} on the generators (e_i / p^{a_i}) eps_i,
    a_i = v_p(e_i), and with t the largest a_i its form is q(z) =
    z M z^T / (2 p^t) for the integer M_ik = p^{t - a_i} (e_k / p^{a_k})
    n_ik, kept mod 2 p^t.  The entry of least valuation v of M mod p^t has
    order p^a, a = t - v, the exponent of what is left.  On the diagonal it
    spans a cyclic component (Z/p^a, mu x^2 / (2 p^a)), mu = M_ii / p^v:
    (mu/2 | p)^a eps_{p^a} at odd p and e(mu/8) (2|mu)^a at p = 2.  Off the
    diagonal at odd p, z_i += z_k puts it on the diagonal.  At p = 2 the
    pair spans an even block with q-values alpha / 2^a and beta / 2^a: 1, or
    (-1)^a when alpha and beta are both odd.  Each component is split off
    by subtracting from every other generator its projection on it.
    """
    a = [_valuation(x, p, 0) for x in e]
    live = [i for i, ai in enumerate(a) if ai]
    top = max(a)
    pt = p ** top
    mod = 2 * pt
    gram = [[p ** (top - a[i]) * (e[k] // p ** a[k]) * n[i][k] % mod
             for k in live] for i in live]
    total = 0
    while gram:
        size = len(gram)
        v, off, i, k = min((_valuation(gram[i][k] % pt, p, top), i != k, i, k)
                           for i in range(size) for k in range(i, size))
        s, pa = p ** v, p ** (top - v)
        if off and p != 2:
            gram[i] = [x + y for x, y in zip(gram[i], gram[k])]
            for row in gram:
                row[i] += row[k]
            continue
        if not off:
            mu = gram[i][i] // s
            if p == 2:          # e(mu/8) (2|mu)^a, (2|mu) = -1 at 3, 5 mod 8
                total += mu % 8 + 4 * ((top - v) % 2 and mu % 8 in (3, 5))
            else:
                total += _odd_cyclic(mu // 2, pa)
            inv = pow(mu, -1, pa)
            block = [i]
            coef = {l: [gram[l][i] // s * inv % pa] for l in range(size)}
        else:
            alpha, beta, u = gram[i][i] // (2 * s), gram[k][k] // (2 * s), \
                gram[i][k] // s
            total += 4 * ((top - v) % 2 and alpha % 2 and beta % 2)
            inv = pow(4 * alpha * beta - u * u, -1, pa)
            block = [i, k]
            coef = {l: [(2 * beta * gram[l][i] // s - u * gram[l][k] // s)
                        * inv % pa,
                        (2 * alpha * gram[l][k] // s - u * gram[l][i] // s)
                        * inv % pa] for l in range(size)}
        gram = _congruence(gram, block, coef, mod)
    return total


def _weil_index(w, dp) -> int:
    """Exponent k with G(d', W) = e^{i pi k / 4} |det W|^{1/2}, exactly.

    The classes of G(d', W) form the quadratic module (Z^j / Z^j W,
    x -> x W^{-1} d' x^T / 2 mod 1).  With the Smith form U W V =
    diag(e), y = x V maps it onto sum_i Z/e_i, where the form reads
    q(y) = sum_ik y_i N_ik y_k / (2 e_i) with N = U d' V^{-T}.  Since
    V^{-1} = diag(e)^{-1} U W, N_ik = (U d' W^T U^T)_ik / e_k, an exact
    division; the classes with e_i = 1 are trivial and drop out, and so do
    their rows of U.

    The module is the orthogonal sum of its p-parts.  Each prime p that
    divides e_{j-1}, and 2 if it divides e_j, takes _p_part.  What is left
    of e_j is odd and prime to e_{j-1}, so that part is cyclic,
    (Z/f, x -> r x^2 / f) on the generator (e_j / f) eps_j, and takes a
    Jacobi symbol (_odd_cyclic).  Only e_{j-1} is factored.

    S = d' W^T is formed once, as dot products of rows of d' and W, and
    the Gram reads u_i S u_k^T on the live rows u_i of U only: no product
    is taken over a trivial class and no transpose is formed.  At j <= 2
    the Smith form is a closed form (exactla.smith_form); the index does
    not depend on which Smith transform is used, so neither does the
    exponent.
    """
    e, u, _ = xla.smith_form(w)
    live = [i for i, x in enumerate(e) if x > 1]
    if not live:
        return 0
    ul = [u[i] for i in live]
    s = [[sum(map(operator.mul, x, y)) for y in w] for x in dp]     # d' W^T
    su = [[sum(map(operator.mul, row, uk)) for row in s] for uk in ul]
    g = [[sum(map(operator.mul, ui, col)) for col in su] for ui in ul]
    e = [e[i] for i in live]
    n = [[x // f for x, f in zip(row, e)] for row in g]
    last = e[-1]
    primes = _prime_factors(e[-2]) if len(e) > 1 else []
    if not last % 2 and 2 not in primes:
        primes.append(2)
    rest = last
    for p in primes:
        while not rest % p:
            rest //= p
    total = sum(_p_part(p, e, n) for p in primes)
    if rest > 1:
        # q(x) = c x^2 / (2 rest), c even since q is a class function
        total += _odd_cyclic(last // rest * n[-1][-1] // 2, rest)
    return total


def _reduced_pair(g: IntegerSymplectic):
    """(W, d') of beta_tilde, or None when its quotient has one class, at
    c = 0 and |det c| = 1.  W is the j x j block of c in a basis of its
    saturated row lattice, j the rank of c, and d' matches it.  Two cases
    take no Hermite form.  An invertible c is its own W, with d' = d, read
    off the determinant of exactla._adjugate (a closed form at m <= 2).
    A singular c that is 0 returns None on a scan of its entries (11 % of
    gauss-m2's calls), where a Hermite form would only find j = 0.
    """
    c, d = g.c, g.d
    det = xla._adjugate(c)[0]
    if det:
        return None if abs(det) == 1 else (c, d)
    if not any(map(any, c)):
        return None
    h, u = xla.hnf_with_transform(c)               # u c = h, zero rows last
    j = sum(1 for row in h if any(row))
    w, d1 = h[:j], xla.mat_mul(u, d)[:j]
    # X* = (0 | 1) lies in the quotient's denominator, so every class has a
    # representative (x | 0), x in sat(c1) / <c1>, with no parity term;
    # c1 d2^T = 0 by the symmetry of c d^T, so the sum is G(d', W).
    # W d'^T = c1 d1^T is a principal block of u c d^T u^T, so the pair
    # meets the Gauss-sum condition unchecked.  The rows of S extend to the
    # basis v^{-T} of Z^m, so they span sat(c1).
    hc, v = xla.hnf_with_transform(xla.transpose(w))
    det, adj = xla._adjugate(v)               # v^-1 = det v adj v, det v = +-1
    s_t = [[det * x for x in row[:j]] for row in adj]             # S^T
    return xla.transpose(hc[:j]), xla.mat_mul(d1, s_t)


def beta_tilde(g: IntegerSymplectic) -> SnappedRoot:
    """Trivializing phase of the pairing cocycle on the even-diagonal subgroup.

    One formula for every rank j of c: the pair (c | d) is reduced to a
    full-rank j x j pair (W, d') (_reduced_pair): W = c and d' = d when c
    is invertible; otherwise, with the HNF u c = h, the nonzero rows
    c1 = h[:j] and d1 = (u d)[:j] are rewritten in a basis S of the
    saturated row lattice of c1, c1 = W S and d' = d1 S^T, S read off one
    more HNF, v c1^T = H: W = H[:j]^T and S = (v^{-1}[:, :j])^T.  The
    quotient sat(c1) / <c1> and its phases do not depend on S.  Then
    beta_tilde(g) = |det W|^{-1/2} conj(G(d', W)), and 1 when c = 0 or
    |det W| = 1.  That is the conjugate Weil index of a finite quadratic
    module, an eighth root of unity computed exactly in ints from a Smith
    form and local factors (_weil_index): no class is counted, no float is
    formed, and no size is refused.  The result is a SnappedRoot whose raw
    value is the root itself, with residual 0.0.
    """
    if not subgroup_membership(g, "Gamma(1,2)"):
        raise ValueError("beta_tilde needs diag(a b^T) and diag(c d^T) even")
    pair = _reduced_pair(g)
    return _EXACT_ROOTS[0 if pair is None else -_weil_index(*pair) % 8]


def lambda_multiplier(r: IntegerSymplectic) -> Mu8:
    """Theta multiplier on the even-diagonal subgroup: m_xstar * beta_tilde^{-1},
    exact in Mu8, since both factors are."""
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
