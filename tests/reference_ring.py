"""The test-side reference ring: integrands in u and z, and an exact integral written
term by term, sharing no code with the engine's integral ``logpoly._add_integral``.

BiLogPoly maps (upow, ulogpow, zpow, zlogpow) to ExactCoeff.  Every reference
here sums by ExactCoeff addition and rewrites log(z/x) binomially itself; the
antiderivative reads the one-log table ``_antiderivative_table``, which the tests
check by differentiating back with ``BiLogPoly.derivative_u``.  ``_add_at_z_over``
substitutes x = z/location through the engine's ``logpoly._add_at`` and
``logpoly._z_over``, one antiderivative term at a time, as the engine once did.
"""

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from hadene import logpoly
from hadene.coeffs import EC_ONE, GR_ONE, ExactCoeff, GaussianRational, _TermMap, log_symbol
from hadene.logpoly import LogLaurentPoly


class BiLogPoly(_TermMap):
    """Term map (upow, ulogpow, zpow, zlogpow) -> ExactCoeff: integrands in u."""

    __slots__ = ()
    _LOG_SLOTS = (1, 3)

    def __repr__(self) -> str:
        return f"BiLogPoly({self.terms!r})"

    def __mul__(self, other: "BiLogPoly") -> "BiLogPoly":
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(map(add, k1, k2))
                out[key] = out.get(key, ExactCoeff.zero()) + c1 * c2
        return BiLogPoly(out)

    def scale(self, coeff: ExactCoeff) -> "BiLogPoly":
        return BiLogPoly({key: c * coeff for key, c in self.terms.items()})

    def derivative_u(self) -> "BiLogPoly":
        """d/du term by term: u^k (log u)^l -> k u^(k-1) (log u)^l + l u^(k-1) (log u)^(l-1)."""
        out = {}
        for (k, l, zm, zl), coeff in self.terms.items():
            for key, n in (((k - 1, l, zm, zl), k), ((k - 1, l - 1, zm, zl), l)):
                if n:
                    out[key] = out.get(key, ExactCoeff.zero()) + coeff * n
        return BiLogPoly(out)


def from_poly_in_u(p):
    """Read p as a function of u: z^m (log z)^l -> u^m (log u)^l."""
    return BiLogPoly({(m, l, 0, 0): c for (m, l), c in p.terms.items()})


def from_poly_at_z_over_u(p):
    """z -> z/u: z^m (log z)^l -> z^m u^(-m) (log z - log u)^l, binomially."""
    out = {}
    for (m, l), coeff in p.terms.items():
        for j in range(l + 1):
            key = (-m, l - j, m, j)
            out[key] = out.get(key, ExactCoeff.zero()) + coeff * (math.comb(l, j) * (-1) ** (l - j))
    return BiLogPoly(out)


@lru_cache(maxsize=1024)
def _antiderivative_table(k, l):
    """The terms (upow, ulogpow, factor) of an antiderivative of u^k (log u)^l.

    For k = -1 it is (log u)^(l+1)/(l+1).  Otherwise, integrating by parts l
    times gives u^(k+1) sum_i (-1)^i l!/(l-i)! (log u)^(l-i) / (k+1)^(i+1).
    """
    if k == -1:
        return ((0, l + 1, GaussianRational(Fraction(1, l + 1))),)
    out = []
    factor = Fraction(1, k + 1)
    for i in range(l + 1):
        out.append((k + 1, l - i, GaussianRational(factor)))
        factor *= Fraction(-(l - i), k + 1)
    return tuple(out)


def _add_at_z_over(acc, zpow, zlogpow, location, k, l, coeff, factor, times=1):
    """acc += coeff * factor * times * x^k (log x)^l z^zpow (log z)^zlogpow at x = z/location,
    through the rows of logpoly._z_over; at location 1 only the row free of Log(1), (log z)^l, is left."""
    if location == GR_ONE:
        logpoly._add_at(acc, (zpow + k, zlogpow + l), location, -k, 0, coeff, factor, times)
        return
    for zp, zl, yp, yl, sign in logpoly._z_over(k, l):
        logpoly._add_at(acc, (zpow + zp, zlogpow + zl), location, yp, yl, coeff, factor, sign * times)


def antiderivative_u(p):
    """The antiderivative in u as a BiLogPoly, term by term from the closed-form table."""
    out = {}
    for (k, l, zm, zl), coeff in p.terms.items():
        for upow, ulogpow, factor in _antiderivative_table(k, l):
            key = (upow, ulogpow, zm, zl)
            out[key] = out.get(key, ExactCoeff.zero()) + coeff.scale(factor)
    return BiLogPoly(out)


def reference_log_power(location, n):
    """Log(location)^n as an ExactCoeff, with Log(1) = 0."""
    if n == 0:
        return EC_ONE
    if location == GR_ONE:
        return ExactCoeff.zero()
    return ExactCoeff.monomial({log_symbol(location): n})


def reference_at_location(p, location):
    """x -> location term by term, summed by ExactCoeff addition: {rest of key: coeff}."""
    out = {}
    for key, coeff in p.terms.items():
        value = coeff.scale(location ** key[0]) * reference_log_power(location, key[1])
        out[key[2:]] = out.get(key[2:], ExactCoeff.zero()) + value
    return {key: coeff for key, coeff in out.items() if coeff}


def reference_at_z_over_location(p, location):
    """x -> z/location term by term: location^(-k) z^k (log z - Log(location))^l, binomially."""
    out = {}
    for key, coeff in p.terms.items():
        k, l, zpow, zlogpow = (*key, 0, 0)[:4]  # a LogLaurentPoly key has no z part
        base = coeff.scale(location ** (-k))
        for j in range(l + 1):
            value = base * reference_log_power(location, l - j) * (math.comb(l, j) * (-1) ** (l - j))
            out[(zpow + k, zlogpow + j)] = out.get((zpow + k, zlogpow + j), ExactCoeff.zero()) + value
    return LogLaurentPoly(out)


def reference_integrate_u(p, alpha, beta):
    """The antiderivative of p du, evaluated at both endpoints, u = z/beta minus u = alpha."""
    anti = antiderivative_u(p)
    return reference_at_z_over_location(anti, beta) - LogLaurentPoly(reference_at_location(anti, alpha))
