#!/usr/bin/env python3
# Gauss sums trivialize the cocycle on the theta group: the phase beta
# is the Weil index of a finite quadratic module, computed exactly in
# ints as an eighth root of unity, and converts the cocycle into a
# coboundary.

import numpy as np

from thetacover import (IntegerSymplectic, beta_tilde, lambda_multiplier,
                        make_generator, random_word_element, rao_cocycle)

print("anchor values of the trivializing phase")
anchors = [
    ("identity", IntegerSymplectic.identity(1)),
    ("u(b = -4)", make_generator("u", 1, b=[[-4]])),
    ("omega_S at slot 1 of genus 2", make_generator("omega_S", 2, S={1})),
    ("lower off-diagonal, t = 2", make_generator("u_minus_ij", 2, i=1, j=2, t=2)),
    ("lower diagonal, t = 4", make_generator("u_minus_ij", 1, i=1, j=1, t=4)),
    ("(-3 4; -4 5)", IntegerSymplectic(((-3, 4), (-4, 5)))),
]
for name, g in anchors:
    print(f"  {name:32s} exponent {beta_tilde(g).value.exponent}")

rng = np.random.default_rng(3)


def theta_word(m, seed):
    length = int(rng.integers(1, 7))
    return random_word_element(m, "Gamma12", length=length, seed=seed)[0]


print()
print("beta(r1) beta(r2) c8(r1, r2) = beta(r1 r2), exactly")
bad = 0
for s in range(120):
    m = 1 + s % 2
    r1, r2 = theta_word(m, 2 * s), theta_word(m, 2 * s + 1)
    b1, b2, b12 = beta_tilde(r1), beta_tilde(r2), beta_tilde(r1 @ r2)
    bad += b1.value * b2.value * rao_cocycle(r1, r2) != b12.value
print(f"  failures: {bad} / 120")

print()
print("the resulting multiplier is a character up to the sign cocycle")
om = make_generator("omega", 1)
u2 = make_generator("u_ij", 1, i=1, j=1, t=2)
for name, g in (("omega", om), ("u(2)", u2), ("omega u(2)", om @ u2)):
    lam = lambda_multiplier(g)
    print(f"  lambda({name:10s}) = exponent {lam.exponent}  {lam.value:.6f}")
