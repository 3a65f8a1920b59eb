"""The symbolic ring K[z^(+-1), log z] and the exact integrals into it.

Monodromies of product singularities live in this one ring, LogLaurentPoly:
finitely many terms

    coeff * z^zpow * (log z)^logpow        (zpow integer, logpow >= 0)

with ExactCoeff coefficients.  The module provides the ring operations, theta
= z d/dz and the derivation, the monodromy-at-origin operator (substitute
log z -> log z + 2pii and subtract), and the closed-form definite integrals

    integral from u=alpha to u=z/beta of  (integrand in u and z) du

that evaluate the convolution formulas without any numeric step.  Antiderivatives
of u^k (log u)^l come from the closed form of the integration-by-parts
recursion on l, whose rational factors are cached per (k, l); the k = -1
column integrates to (log u)^(l+1)/(l+1).

The exact operations fill one unreduced accumulator {(zpow, zlogpow): raw}
(``coeffs._accumulate``): every term enters as coeff * (binomial * rational
factor) * location unit, and _finished builds each output ExactCoeff once.
_theta is the one theta: it takes an accumulator to times * theta of itself
on the raw triples, with no gcd, for theta(), derivative() and the ene pair
term (-theta of the Hadamard one).  One cached function, _z_over, rewrites
log(z/y) as log z - log y over the signed binomial row, for _pair_terms (the
one stream of the terms of unit * first(u) * second(z/u) that the Hadamard
pair term of ``monodromy`` reads) and for _add_at_z_over, the endpoint
x = z/c; shift_log expands its own row.  _add_at (x = c) and _add_at_z_over
read c^k * Log(c)^n as the ints of a monomial unit cached per (c, k, n)
(_location_unit), so no endpoint row builds a GaussianRational or takes a
gcd.  _add_integral feeds each antiderivative term to both endpoints;
integrate_u reads an integrand given as a mapping (upow, ulogpow, zpow,
zlogpow) -> coeff.

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
from typing import Mapping

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


def _theta(acc: dict, times: int = 1) -> dict:
    """times * theta of an accumulator {(zpow, zlogpow): raw}, theta = z d/dz, on the raw
    triples: z^m (log z)^l -> m z^m (log z)^l + l z^m (log z)^(l-1), so each raw entry at
    (m, l) is scaled by m in place and by l at (m, l-1).  No gcd: _finished takes one per key."""
    out: dict = {}
    for (m, l), raw in acc.items():
        for key, n in (((m, l), m * times), ((m, l - 1), l * times)):
            if not n:
                continue
            into = out.setdefault(key, {})
            for mono, (a, b, d) in raw.items():
                a, b = a * n, b * n
                prev = into.get(mono)
                if prev is not None:
                    ea, eb, ed = prev
                    if ed == d:
                        a, b = ea + a, eb + b
                    else:
                        a, b, d = ea * d + a * ed, eb * d + b * ed, ed * d
                into[mono] = (a, b, d)
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


class LogLaurentPoly(_TermMap):
    """Finite term map (zpow, logpow) -> ExactCoeff, normalized."""

    __slots__ = ()
    _LOG_SLOTS = (1,)

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

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, LogLaurentPoly):
            out: dict = {}
            for (m1, l1), c1 in self.terms.items():
                for (m2, l2), c2 in other.terms.items():
                    _add_term(out, (m1 + m2, l1 + l2), c1 * c2)
            return LogLaurentPoly._wrap(out)
        return self.scale(as_exact(other))

    __rmul__ = __mul__

    def scale(self, coeff: ExactCoeff) -> "LogLaurentPoly":
        if not coeff:
            return LogLaurentPoly()
        return LogLaurentPoly._wrap({k: c * coeff for k, c in self.terms.items()})

    # -- calculus -------------------------------------------------------------

    def theta(self) -> "LogLaurentPoly":
        """z d/dz, through _theta on the raw triples of the terms."""
        acc = {key: {mono: (c._a, c._b, c._d) for mono, c in coeff.terms.items()}
               for key, coeff in self.terms.items()}
        return LogLaurentPoly._wrap(_finished(_theta(acc)))

    def derivative(self) -> "LogLaurentPoly":
        """d/dz: theta, divided by z."""
        return LogLaurentPoly._wrap({(m - 1, l): c for (m, l), c in self.theta().terms.items()})

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


def integrate_u(p: Mapping[tuple[int, int, int, int], ExactCoeff], alpha: GaussianRational,
                beta: GaussianRational) -> LogLaurentPoly:
    """Definite integral of p du from u = alpha to u = z/beta, exactly.

    p maps (upow, ulogpow, zpow, zlogpow) to the coefficient of
    u^upow (log u)^ulogpow z^zpow (log z)^zlogpow, and must already include
    any u^(-1) measure factor.  The result lands back in K[z^(+-1), log z];
    endpoint logs appear as Log(alpha) and Log(beta) constant symbols (Log(1)
    vanishes).
    """
    lower, upper = _gauss(alpha), _gauss(beta)
    acc: dict = {}
    for (k, l, zm, zl), coeff in p.items():
        if l < 0 or zl < 0:
            raise ValueError("log powers must be >= 0")
        _add_integral(acc, lower, upper, k, l, zm, zl, coeff)
    return LogLaurentPoly._wrap(_finished(acc))
