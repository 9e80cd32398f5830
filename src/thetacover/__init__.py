"""Theta series on the Siegel half space and their transformation laws.

The package builds, from scratch over the integers, the objects needed
to state and numerically verify the half-integral transformation laws of
theta series: the integer symplectic group and its standard generators,
an exact eighth-root-of-unity cocycle from the Maslov index, quadratic
Gauss sums trivializing that cocycle on the even-diagonal subgroup, the
mod-2 coset geometry labelling theta components, a genuine square root
of det(cz + d) with a pinned branch, and truncated lattice sums.  The
harness module runs randomized end-to-end checks of the laws; the cli
module exposes everything as a command line tool.
"""

from .cocycle import (CoverElement, Mu8, cbar_cocycle, cover_inv, cover_mul,
                      m_xstar, pws_decompose, rao_cocycle)
from .f2cosets import (CosetRecord, coset_index_of, coset_profile,
                       coset_table, enumerate_isotropic, q0_eval,
                       transvection_rep)
from .gauss import (SnappedRoot, beta_tilde, coset_split, f_shift,
                    lambda_bar, lambda_multiplier, modified_cocycle,
                    symplectic_gauss_sum)
from .harness import (MonomialMatrix, VerificationReport,
                      induced_rep_matrix, sample_gamma48, sample_point,
                      verify_scalar_law, verify_vector_law)
from .symplectic import (IntegerSymplectic, SiegelPoint, j_matrix,
                         make_generator, mobius_act, random_word_element,
                         subgroup_membership)
from .theta import (CapacityError, ThetaComponentValue, ThetaParams,
                    big_theta, det_invsqrt, gamma_pair, j_half, j_half_bar,
                    sqrt_det, theta_component, theta_series, theta_vector,
                    truncation_radius)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "CosetRecord", "CoverElement", "IntegerSymplectic",
    "MonomialMatrix", "Mu8",
    "SiegelPoint", "SnappedRoot", "ThetaComponentValue", "ThetaParams",
    "VerificationReport", "beta_tilde", "big_theta", "cbar_cocycle",
    "coset_index_of", "coset_profile", "coset_split", "coset_table",
    "cover_inv", "cover_mul", "det_invsqrt", "enumerate_isotropic",
    "f_shift", "gamma_pair", "induced_rep_matrix", "j_half", "j_half_bar",
    "j_matrix", "lambda_bar", "lambda_multiplier",
    "m_xstar", "make_generator", "mobius_act",
    "modified_cocycle", "pws_decompose", "q0_eval", "random_word_element",
    "rao_cocycle", "sample_gamma48", "sample_point",
    "sqrt_det", "subgroup_membership", "symplectic_gauss_sum",
    "theta_component", "theta_series", "theta_vector", "transvection_rep",
    "truncation_radius", "verify_scalar_law", "verify_vector_law",
]
