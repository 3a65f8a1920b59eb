"""The symbolic ring K[z^(+-1), log z] and its monodromy operator.

The monodromy operator at the origin substitutes log z -> log z + 2pii and
subtracts; everything below is exact (no floating point anywhere).
"""

from fractions import Fraction

from hadene.coeffs import ExactCoeff, GaussianRational
from hadene.logpoly import LogLaurentPoly, integrate_u

logz = LogLaurentPoly.log_z()
z = LogLaurentPoly.z()

# basic operator facts
print("monodromy of log z          :", logz.monodromy_at_zero())
print("monodromy of z^3            :", LogLaurentPoly.term(3, 0).monodromy_at_zero())
print("monodromy of (log z)^2      :", LogLaurentPoly.term(0, 2).monodromy_at_zero())

# the operator is a twisted derivation: D(pq) = Dp q + p Dq + Dp Dq
p = z * logz + LogLaurentPoly.constant(Fraction(1, 2))
q = LogLaurentPoly.term(-1, 1)
dp, dq = p.monodromy_at_zero(), q.monodromy_at_zero()
print("\nleibniz identity exactly    :",
      (p * q).monodromy_at_zero() == dp * q + p * dq + dp * dq)

# winding n times is binomial in the single-loop operator
n = 3
deltas = [p]
for _ in range(n):
    deltas.append(deltas[-1].monodromy_at_zero())
binomial = 3 * deltas[1] + 3 * deltas[2] + deltas[3]
print("triple loop = binomial sum  :", p.sigma_power(3) - p == binomial)

# exact definite integration from u = alpha to u = z/beta, of an integrand given
# as {(upow, ulogpow, zpow, zlogpow): coeff}: the engine that evaluates the
# monodromy formulas
one, unit = GaussianRational.of(1), ExactCoeff.from_rational(1)
print("\nintegral of du/u from 1 to z          :", integrate_u({(-1, 0, 0, 0): unit}, one, one))
print("integral of (log u)^2 du/u from 1 to z:", integrate_u({(-1, 2, 0, 0): unit}, one, one))
two = GaussianRational.of(2)
print("integral of u log u du from 2 to z/2  :", integrate_u({(1, 1, 0, 0): unit}, two, two))
