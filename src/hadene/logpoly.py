"""The symbolic ring K[z^(+-1), log z] and its two-variable extension.

Monodromies of product singularities live in this ring: finitely many terms

    coeff * z^zpow * (log z)^logpow        (zpow integer, logpow >= 0)

with ExactCoeff coefficients.  The module provides the ring operations, the
derivation and theta = z d/dz, the monodromy-at-origin operator (substitute
log z -> log z + 2pii and subtract), and the closed-form definite integrals

    integral from u=alpha to u=z/beta of  (two-variable integrand) du

that evaluate the convolution formulas without any numeric step.  Antiderivatives
of u^k (log u)^l come from the closed form of the integration-by-parts
recursion on l, whose rational factors are cached per (k, l); the k = -1
column integrates to (log u)^(l+1)/(l+1).

LogLaurentPoly and BiLogPoly share the term-map core of ``coeffs`` and, above
it, one product and one derivation.  One cached function, _z_over, rewrites
log(z/y) as log z - log y, over the signed binomial row.  It has two readers:
_pair_terms, the one stream of the terms of unit * first(u) * second(z/u) that
the integral and the residues of the Hadamard pair term of ``monodromy`` read
(the ene pair term is -theta of it), and _add_at_z_over, the endpoint x = z/c.
shift_log (log z -> log z + a) is a shift, not a quotient, and expands its
own row.  shift_log, integrate_u and the pair terms each fill
one unreduced accumulator (``coeffs._accumulate``) keyed by (zpow, zlogpow):
every term enters as coeff * (binomial * rational factor) * location unit, and
each output ExactCoeff is built once (_finished).  _add_at (x = c) and
_add_at_z_over read c^k * Log(c)^n as the ints (monomial, a, b, d) of a
monomial unit cached per (c, k, n) (_location_unit, bounded like the binomial
rows and the antiderivative table), and multiply factor, unit and sign on
those ints: no endpoint row builds a GaussianRational or takes a gcd, and the
accumulator takes one per output key.
_add_integral feeds each antiderivative term to both endpoints.

Branches are formal here: _z_over rewrites log(z/u) as log z - log u with no
2pii*k term, and endpoint logs become Log(location) symbols (Log(1) simplifies
to 0 eagerly, nothing else does).  Numeric evaluation picks a sheet explicitly
through BranchPoint.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add

from .coeffs import (
    EC_ONE,
    GR_ONE,
    ConstantSymbol,
    ExactCoeff,
    GaussianRational,
    _accumulate,
    _add_term,
    _finish,
    _make_monomial,
    _reduced,
    _TermMap,
    as_exact,
    log_symbol,
)

TWO_PI_I_COEFF = ExactCoeff.two_pi_i()


class ZeroArgument(ValueError):
    """Numeric evaluation at z = 0 is undefined (log z diverges)."""


@dataclass(frozen=True)
class BranchPoint:
    """A numeric point together with the chosen sheet of log z."""

    z: complex
    winding: int = 0

    def log_value(self) -> complex:
        if self.z == 0:
            raise ZeroArgument("log z has no value at z = 0")
        return cmath.log(self.z) + 2j * cmath.pi * self.winding


def _gauss(value) -> GaussianRational:
    return value if isinstance(value, GaussianRational) else GaussianRational(value)


@lru_cache(maxsize=1024)
def _signed_binomials(l: int) -> tuple[int, ...]:
    """(-1)^(l-j) C(l, j) for j = 0..l: (x - y)^l = sum_j row[j] x^j y^(l-j)."""
    return tuple(comb(l, j) * (-1) ** (l - j) for j in range(l + 1))


def _finished(acc: dict) -> dict:
    """The term map of an accumulator {key: raw}: each raw sum finished, zeros dropped."""
    out = {}
    for key, raw in acc.items():
        coeff = _finish(raw)
        if coeff:
            out[key] = coeff
    return out


@lru_cache(maxsize=1024)
def _location_unit(a: int, b: int, d: int, k: int, n: int) -> tuple[int, int, int, int] | None:
    """c^k * Log(c)^n at the location c = (a + b i) / d, keyed by ints so that a cache
    hit hashes no object, as the ints (monomial, a, b, d) of the monomial unit
    (a + b i) / d * monomial; None where Log(1)^n vanishes."""
    location = _reduced(a, b, d)
    if location == GR_ONE:
        return None if n else (0, 1, 0, 1)
    power = location ** k
    return _make_monomial({log_symbol(location): n}) if n else 0, power._a, power._b, power._d


def _add_at(acc: dict, zkey: tuple, location: GaussianRational, k: int, l: int, coeff: ExactCoeff,
            factor: GaussianRational, times: int = 1) -> None:
    """acc[zkey] += coeff * factor * times * x^k (log x)^l at x = location, the unit's
    product as unreduced ints: the accumulator's one gcd per key reduces it."""
    unit = _location_unit(location._a, location._b, location._d, k, l)
    if unit is not None:
        mono, a, b, d = unit
        fa, fb = factor._a * times, factor._b * times
        _accumulate(acc.setdefault(zkey, {}), coeff, fa * a - fb * b, fa * b + fb * a, factor._d * d, mono)


@lru_cache(maxsize=1024)
def _z_over(k: int, l: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The terms (zpow, zlogpow, ypow, ylogpow, sign) of x^k (log x)^l at x = z/y: the one
    rewrite of log(z/y) as log z - log y, its l-th power over the signed binomial row."""
    return tuple((k, j, -k, l - j, sign) for j, sign in enumerate(_signed_binomials(l)))


def _pair_terms(first: LogLaurentPoly, second: LogLaurentPoly, unit: ExactCoeff):
    """The terms (upow, ulogpow, zpow, zlogpow, coeff, sign) of unit * first(u) * second(z/u),
    each coeff * sign * u^upow (log u)^ulogpow z^zpow (log z)^zlogpow, second(z/u) by _z_over."""
    for (m, a), f in first.terms.items():
        f_unit = f * unit
        for (n, b), g in second.terms.items():
            coeff = f_unit * g
            for zpow, zlogpow, upow, ulogpow, sign in _z_over(n, b):
                yield m + upow, a + ulogpow, zpow, zlogpow, coeff, sign


def _add_at_z_over(acc: dict, zpow: int, zlogpow: int, location: GaussianRational, k: int, l: int,
                   coeff: ExactCoeff, factor: GaussianRational, times: int = 1) -> None:
    """acc += coeff * factor * times * x^k (log x)^l z^zpow (log z)^zlogpow at x = z/location,
    through the rows of _z_over; at location 1 only the row free of Log(1), (log z)^l, is left."""
    if location == GR_ONE:
        _add_at(acc, (zpow + k, zlogpow + l), location, -k, 0, coeff, factor, times)
        return
    for zp, zl, yp, yl, sign in _z_over(k, l):
        _add_at(acc, (zpow + zp, zlogpow + zl), location, yp, yl, coeff, factor, sign * times)


def _add_integral(acc: dict, lower: GaussianRational, upper: GaussianRational, k: int, l: int,
                  zpow: int, zlogpow: int, coeff: ExactCoeff, times: int = 1) -> None:
    """acc += coeff * times * z^zpow (log z)^zlogpow * integral of u^k (log u)^l du
    from u = lower to u = z/upper: each antiderivative term at both endpoints."""
    zkey = (zpow, zlogpow)
    for upow, ulogpow, factor in _antiderivative_table(k, l):
        _add_at_z_over(acc, zpow, zlogpow, upper, upow, ulogpow, coeff, factor, times)
        _add_at(acc, zkey, lower, upow, ulogpow, coeff, factor, -times)


class _LogTermMap(_TermMap):
    """Ring operations shared by LogLaurentPoly and BiLogPoly.

    Keys are exponent tuples; slots (0, 1) hold the power and the log power of
    the variable x (z, or u) that the derivation acts on, and any further
    slots are constants for it.
    """

    __slots__ = ()
    _LOG_SLOTS = (1,)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            out: dict = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    _add_term(out, tuple(map(add, k1, k2)), c1 * c2)
            return self._wrap(out)
        return self.scale(as_exact(other))

    __rmul__ = __mul__

    def scale(self, coeff: ExactCoeff):
        if not coeff:
            return self._wrap({})
        return self._wrap({k: c * coeff for k, c in self.terms.items()})

    def _derivative(self):
        """d/dz (or d/du) term by term: x^m (log x)^l -> m x^(m-1)(log x)^l + l x^(m-1)(log x)^(l-1)."""
        out: dict = {}
        for key, coeff in self.terms.items():
            m, l = key[0], key[1]
            if m:
                _add_term(out, (m - 1,) + key[1:], coeff * m)
            if l:
                _add_term(out, (m - 1, l - 1) + key[2:], coeff * l)
        return self._wrap(out)


class LogLaurentPoly(_LogTermMap):
    """Finite term map (zpow, logpow) -> ExactCoeff, normalized."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "LogLaurentPoly":
        return LogLaurentPoly()

    @staticmethod
    def constant(coeff) -> "LogLaurentPoly":
        return LogLaurentPoly({(0, 0): as_exact(coeff)})

    @staticmethod
    def term(zpow: int, logpow: int, coeff=1) -> "LogLaurentPoly":
        return LogLaurentPoly({(zpow, logpow): as_exact(coeff)})

    @staticmethod
    def log_z() -> "LogLaurentPoly":
        return LogLaurentPoly.term(0, 1)

    @staticmethod
    def z() -> "LogLaurentPoly":
        return LogLaurentPoly.term(1, 0)

    # -- basic structure ------------------------------------------------------

    def __hash__(self):
        return hash(tuple(sorted((k, v._key()) for k, v in self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, int], ExactCoeff]]:
        # graded lexicographic on (zpow, logpow): canonical serialization order
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0], kv[0][1]))

    def min_zpow(self) -> int:
        return min((k[0] for k in self.terms), default=0)

    def max_logpow(self) -> int:
        return max((k[1] for k in self.terms), default=0)

    def symbols(self) -> set[ConstantSymbol]:
        out: set[ConstantSymbol] = set()
        for coeff in self.terms.values():
            out |= coeff.symbols()
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (zpow, logpow), coeff in self.sorted_terms():
            factors = []
            if zpow:
                factors.append(f"z^{zpow}" if zpow != 1 else "z")
            if logpow:
                factors.append(f"(log z)^{logpow}" if logpow != 1 else "log z")
            body = "*".join(factors) if factors else "1"
            parts.append(f"[{coeff}]*{body}")
        return " + ".join(parts)

    # -- calculus -------------------------------------------------------------

    derivative = _LogTermMap._derivative

    def theta(self) -> "LogLaurentPoly":
        """z d/dz: the derivative, times z."""
        return LogLaurentPoly._wrap({(m + 1, l): c for (m, l), c in self.derivative().terms.items()})

    def shift_log(self, amount: ExactCoeff) -> "LogLaurentPoly":
        """Substitute log z -> log z + amount, expanding powers binomially."""
        if not amount:
            return self
        neg = -amount
        powers = [EC_ONE]
        for _ in range(self.max_logpow()):
            powers.append(powers[-1] * neg)
        # (log z - neg)^l = sum_j row[j] (log z)^j neg^(l-j)
        acc: dict = {}
        for (m, l), coeff in self.terms.items():
            for j, sign in enumerate(_signed_binomials(l)):
                raw = acc.setdefault((m, j), {})
                for mono, c in powers[l - j].terms.items():
                    _accumulate(raw, coeff, c._a * sign, c._b * sign, c._d, mono)
        return LogLaurentPoly._wrap(_finished(acc))

    def sigma_power(self, n: int) -> "LogLaurentPoly":
        """Continuation around the origin n times: log z -> log z + n * 2pii."""
        if n == 0:
            return self
        return self.shift_log(TWO_PI_I_COEFF * n)

    def monodromy_at_zero(self) -> "LogLaurentPoly":
        """One positive loop around 0: sigma(p) - p."""
        return self.sigma_power(1) - self

    def lp_eval(self, at: BranchPoint) -> complex:
        """Numeric value on the chosen sheet, summed in sorted_terms order."""
        logz = at.log_value()
        total = 0j
        for (m, l), coeff in self.sorted_terms():
            total += coeff.eval() * at.z ** m * logz ** l
        return total


class BiLogPoly(_LogTermMap):
    """Term map (upow, ulogpow, zpow, zlogpow) -> ExactCoeff: integrands in u."""

    __slots__ = ()
    _LOG_SLOTS = (1, 3)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            parts.append(f"[{self.terms[key]}]*u^{key[0]}(log u)^{key[1]}z^{key[2]}(log z)^{key[3]}")
        return " + ".join(parts)


@lru_cache(maxsize=1024)
def _antiderivative_table(k: int, l: int) -> tuple[tuple[int, int, GaussianRational], ...]:
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


def integrate_u(p: BiLogPoly, alpha: GaussianRational, beta: GaussianRational) -> LogLaurentPoly:
    """Definite integral of p du from u = alpha to u = z/beta, exactly.

    The integrand must already include any u^(-1) measure factor.  The result
    lands back in K[z^(+-1), log z]; endpoint logs appear as Log(alpha) and
    Log(beta) constant symbols (Log(1) vanishes).
    """
    lower, upper = _gauss(alpha), _gauss(beta)
    acc: dict = {}
    for (k, l, zm, zl), coeff in p.terms.items():
        _add_integral(acc, lower, upper, k, l, zm, zl, coeff)
    return LogLaurentPoly._wrap(_finished(acc))


def lp_eval(p: LogLaurentPoly, at: BranchPoint) -> complex:
    return p.lp_eval(at)
