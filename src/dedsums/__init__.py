"""Exact-arithmetic Dedekind sums, Dirichlet characters, Bernoulli-polynomial
integrals, and a verification engine for their reciprocity identities."""

from .bernoulli import (Polynomial, PeriodicFactor, bernoulli_number,
                        bernoulli_poly, periodic_bernoulli,
                        piecewise_product_integral)
from .charbernoulli import (gen_bernoulli_function, gen_bernoulli_number,
                            gen_bernoulli_poly)
from .dedekind import (apostol_sum, char_pair_sum, char_weighted_power_sum,
                       classical_dedekind_sum, hat_sum, tilde_sum)
from .dirichlet import (DirichletCharacter, character_from_label,
                        enumerate_characters)
from .exactnum import (CyclotomicNumber, Rational, cyclo_root, scalar_from_json,
                       scalar_to_json)
from .integrals import (ProductIntegralSpec, char_two_factor_reciprocity,
                        equal_slope_reciprocity, permutation_invariance_check,
                        product_integral_direct, product_integral_formula,
                        reflective_slope_integral, two_factor_reciprocity)
from .verify import (IDENTITY_IDS, VerificationReport, aggregate, default_grid,
                     laplace_check, sweep, verify_euler_maclaurin,
                     verify_identity)

__version__ = "0.1.0"
