"""The benchmark's seeded workloads: input generation, the timed call, the check.

Each workload turns the run seed into a stream of inputs, calls the public
``thetacover`` API on one input at a time (``compute``, the timed part) and
judges the output (``check``, untimed).  Inputs are generated outside the
timed region, so the library only ever receives finished inputs.

``prepare`` is the workload's first-use construction; together with the
package import and one warm-up item it is what ``setup_s`` measures.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

import thetacover as tc

# Rejection loops in the generators give up after this many straight misses.
GENERATOR_BUDGET = 1000

# Every workload's warm-up item comes from this seed, whatever the run seed,
# so set-up does the same work on every run.
WARMUP_SEED = 1234567


def _spread_evenly(counts: dict) -> tuple:
    """Each key `counts[key]` times, its occurrences spaced evenly."""
    slots = [((k + 0.5) / n, key) for key, n in counts.items() for k in range(n)]
    return tuple(key for _, key in sorted(slots))


def _accepted(draw, name: str):
    """Yield every draw() that is not None; give up after GENERATOR_BUDGET
    rejected draws in a row."""
    misses = 0
    while True:
        x = draw()
        if x is not None:
            misses = 0
            yield x
            continue
        misses += 1
        if misses >= GENERATOR_BUDGET:
            raise RuntimeError(f"{name}: {misses} draws in a row rejected")


def _in_fixed_mix(pool, profile: dict, name: str):
    """The items of `pool`, which yields (size class, item), in a fixed mix.

    Every block of 2 * sum(profile.values()) items holds 2 * profile[key]
    items of size class key, spaced evenly, and each class comes twice in
    a row.  The fixed mix keeps the sizes of one run's inputs the same from
    seed to seed; the pairs give the traced run's untraced and traced
    items, which alternate, inputs of the same sizes.  Items wait in a
    queue per class until the mix calls for them; classes outside
    `profile` are dropped.
    """
    queues = {key: collections.deque() for key in profile}

    def take(key):
        for _ in range(GENERATOR_BUDGET):
            if queues[key]:
                return queues[key].popleft()
            got, item = next(pool)
            if got in queues:
                queues[got].append(item)
        raise RuntimeError(f"{name}: no input of size class {key}")

    while True:
        for key in _spread_evenly(profile):
            for _ in range(2):
                yield take(key)


class VectorLawM2:
    """``verify_vector_law(2, trials=1, seed=s)`` for a distinct s per item."""

    name = "vector-law-m2"
    why = ("the headline `verify --thm vector` path at m = 2: the exact group "
           "layer (pws_decompose via m_xstar and cover_mul over 10 cosets) "
           "does ~86 % of the work")
    trace_items = 24

    def prepare(self):
        tc.coset_table(2)

    def inputs(self, seed: int):
        # s = seed * 2**32 + i is distinct for every item of every run seed
        return itertools.count(seed * 2**32)

    def compute(self, s: int):
        return tc.verify_vector_law(2, trials=1, seed=s)

    def check(self, s: int, report) -> bool:
        # max_rel_error is -1 when nothing was compared
        return (report.passed and report.trials == 1
                and 0.0 <= report.max_rel_error < report.tol)


def int_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [[int(x) for x in row] for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _mat_mul(a, b) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


# Generators of Gamma(1,2) at m = 2 as integer rows (row-vector convention,
# blocks (a b; c d)): the inversion, u(b) for symmetric b with even diagonal,
# and h(a) = diag(a, a^-T) for elementary a.
GAMMA12_LETTERS = (
    ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0)),
    *(((1, 0, b00, b01), (0, 1, b01, b11), (0, 0, 1, 0), (0, 0, 0, 1))
      for b00, b01, b11 in ((2, 0, 0), (-2, 0, 0), (0, 0, 2), (0, 0, -2),
                            (0, 1, 0), (0, -1, 0))),
    *(((1, t, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -t, 1)) for t in (1, -1)),
    *(((1, 0, 0, 0), (t, 1, 0, 0), (0, 0, 1, -t), (0, 0, 0, 1)) for t in (1, -1)),
)
IDENTITY4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


class GaussM2:
    """The trivialization identity on pairs of Gamma(1,2) words at m = 2.

    beta_tilde(r1) beta_tilde(r2) c~(r1, r2) == beta_tilde(r1 r2), for
    words of 20..30 letters drawn from GAMMA12_LETTERS.  The benchmark
    multiplies the letters itself, which keeps the inputs independent of
    the library and their generation cheap next to an item.

    Item cost grows with |det c| (one residue class per unit), whose
    distribution is heavy tailed.  Pairs where one of r1, r2, r1 r2 has
    |det c| above ``max_classes`` are redrawn (about 10 %): with the tail
    left in, the 90th percentile of item time over one run moved by ~20 %
    from seed to seed, and the library refuses more than 10**6 classes.
    Below that, the size class of a pair is the bit length of its total
    |det c| over r1, r2 and r1 r2, and the pairs come in the fixed mix
    CLASS_PROFILE (see ``_in_fixed_mix``): resampling measured item times
    showed the luck of the draw alone moving the 90th percentile over a
    run of ~1500 items by 4 to 8 % from seed to seed.
    """

    name = "gauss-m2"
    why = ("fresh Gamma(1,2) words of length 20..30 at m = 2, |det c| <= 4096: "
           "beta_tilde and symplectic_gauss_sum do most of the work and "
           "pws_decompose is never called")
    max_classes = 4096
    # bit length of the total |det c| (12: 12 or 13) -> pairs per block of
    # 100 items, each given twice in a row; from 5000 accepted pairs, of
    # which none had bit length 1
    CLASS_PROFILE = {0: 2, 2: 8, 3: 2, 4: 4, 5: 5, 6: 5, 7: 5, 8: 5, 9: 4,
                     10: 4, 11: 3, 12: 3}
    trace_items = 400

    def prepare(self):
        pass

    def _word(self, rng):
        g = IDENTITY4
        for k in rng.integers(len(GAMMA12_LETTERS), size=int(rng.integers(20, 31))):
            g = _mat_mul(g, GAMMA12_LETTERS[k])
        return g

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)

        def draw():
            w1, w2 = self._word(rng), self._word(rng)
            dets = [abs(int_det([row[:2] for row in g[2:]]))
                    for g in (w1, w2, _mat_mul(w1, w2))]
            if max(dets) > self.max_classes:
                return None
            return (min(sum(dets).bit_length(), 12),
                    (tc.IntegerSymplectic(w1), tc.IntegerSymplectic(w2)))

        return _in_fixed_mix(_accepted(draw, self.name), self.CLASS_PROFILE,
                             self.name)

    def compute(self, pair):
        r1, r2 = pair
        return (tc.beta_tilde(r1).value, tc.beta_tilde(r2).value,
                tc.rao_cocycle(r1, r2), tc.beta_tilde(r1 @ r2).value)

    def check(self, pair, out) -> bool:
        b1, b2, c, b12 = out
        return b1 * b2 * c == b12


class ThetaM3:
    """Genus-3 theta vectors at a sampled point z and its image g z.

    Each item evaluates sqrt_det(g, z) and big_theta at both weights at z
    and at g z.  Item cost follows the (2 R + 1)**3 lattice points per
    component, R the truncation radius at z and at g z.  With R from 5 to 10
    the 90th percentile of item time over a run of ~130 items moved by
    ~18 % from seed to seed, and with R from 8 to 10 the median still moved
    by ~12 %.  So pairs are redrawn until both radii lie in 8..10, and come
    in the fixed mix of radius pairs RADIUS_PROFILE (see ``_in_fixed_mix``),
    measured on 600 accepted pairs.

    The item also evaluates the plain theta series at z and g z, the
    reference the check compares the zero-label components with.
    """

    name = "theta-m3"
    why = ("genus-3 theta vectors at truncation radius 8..10: the lattice "
           "sums (theta_component over 36 components) do most of the work and "
           "set-up pays coset_table(3)")
    m = 3
    # (smaller radius, larger radius) -> pairs per block of 40 items, each
    # given twice in a row
    RADIUS_PROFILE = {(8, 8): 6, (8, 9): 3, (8, 10): 3, (9, 9): 4, (9, 10): 2,
                      (10, 10): 2}
    trace_items = 24

    def prepare(self):
        tc.coset_table(self.m)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        params = tc.ThetaParams()

        def draw():
            z = tc.sample_point(self.m, rng)
            g, _ = tc.random_word_element(self.m, "Sp",
                                          length=int(rng.integers(1, 9)),
                                          seed=int(rng.integers(2**63)))
            try:
                gz = tc.mobius_act(g, z)
                pair = sorted(tc.truncation_radius(p.Y, params) for p in (z, gz))
            except (ValueError, tc.CapacityError):
                return None
            return (tuple(pair), (g, z)) if tuple(pair) in self.RADIUS_PROFILE else None

        return _in_fixed_mix(_accepted(draw, self.name), self.RADIUS_PROFILE,
                             self.name)

    def compute(self, inp):
        g, z = inp
        sd = tc.sqrt_det(g, z)
        gz = tc.mobius_act(g, z)
        thetas = {w: (tc.big_theta(z, w), tc.big_theta(gz, w))
                  for w in ("half", "three_half")}
        return sd, gz, thetas, (tc.theta_series(z, "half"),
                                tc.theta_series(gz, "half"))

    def check(self, inp, out) -> bool:
        g, z = inp
        sd, gz, thetas, series = out
        det = complex(np.linalg.det(tc.j_matrix(g, z)))
        if not abs(sd * sd - det) <= 1e-9 * abs(det):
            return False
        n_labels = 2 ** (2 * self.m - 1) + 2 ** (self.m - 1)
        for vectors in thetas.values():
            for vec in vectors:
                if len(vec) != n_labels or not all(
                        np.all(np.isfinite(c.value)) for c in vec):
                    return False
        # the zero label is first in the table and is the plain theta series
        for ref, vec in zip(series, thetas["half"]):
            if any(vec[0].q) or not abs(vec[0].value - ref) <= 1e-12 * max(1.0, abs(ref)):
                return False
        return True


WORKLOADS = {w.name: w for w in (VectorLawM2(), GaussM2(), ThetaM3())}


def warmup_input(workload):
    return next(iter(workload.inputs(WARMUP_SEED)))

