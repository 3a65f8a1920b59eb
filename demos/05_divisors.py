"""Divisor arithmetic: the multiplicative product acts on zeros and poles.

Functions with constant monodromies 2pii*n correspond to divisors (n < 0 for
poles); the product divisor collects n_gamma = sum of n_alpha * n_beta over
factorizations gamma = alpha * beta.  The same numbers fall out of the
monodromy engine and of plain series arithmetic.
"""

from fractions import Fraction

from hadene.coeffs import ExactCoeff, GaussianRational
from hadene.logpoly import LogLaurentPoly
from hadene.monodromy import (
    Divisor,
    FunctionSpec,
    Singularity,
    divisor_ene,
    ene_monodromy_general,
)
from hadene.series import ene, poly_from_roots

f = Divisor.of({GaussianRational.of(2): 1, GaussianRational.of(3): 1})
g = Divisor.of({GaussianRational.of(3): 1, GaussianRational.of(2): 1})
product = divisor_ene(f, g)
print("divisor product points:", {str(loc): mult for loc, mult in product.points})

# the same multiplicities through the monodromy formula with constant monodromies
two_pi_i = ExactCoeff.two_pi_i()


def divisor_spec(name, divisor):
    sings = [Singularity(loc, LogLaurentPoly.constant(two_pi_i * mult)) for loc, mult in divisor.points]
    return FunctionSpec.of(name, sings)


for gamma, expected_mult in [(6, 2), (4, 1), (9, 1)]:
    value = ene_monodromy_general(divisor_spec("f", f), divisor_spec("g", g), gamma).value
    print(f"monodromy at {gamma}: {value!r}   (expect 2pii * {expected_mult})")

# and through plain series arithmetic at truncation order 16
series_product = ene(poly_from_roots([Fraction(2), Fraction(3)], 16),
                     poly_from_roots([Fraction(3), Fraction(2)], 16))
expected = poly_from_roots([Fraction(6), Fraction(6), Fraction(4), Fraction(9)], 16)
print("series check matches root multiset {6, 6, 4, 9}:", series_product == expected)

# poles carry negative multiplicity
h = Divisor.of({GaussianRational.of(5): -1})
print("zero times pole:", {str(loc): mult for loc, mult in divisor_ene(f, h).points})
