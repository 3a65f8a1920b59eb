"""The symbolic ring K[z^(+-1), log z] and the exact integrals into it.

Monodromies of product singularities live in this one ring, LogLaurentPoly:
finitely many terms

    coeff * z^zpow * (log z)^logpow        (zpow integer, logpow >= 0)

with ExactCoeff coefficients.  The module provides the ring operations, theta
= z d/dz and the derivation, the monodromy-at-origin operator (substitute
log z -> log z + 2pii and subtract), and the closed-form definite integrals

    integral from u=alpha to u=z/beta of  (integrand in u and z) du

that evaluate the convolution formulas without any numeric step.  A pair term
u^(c-1) (log u)^a (log(z/u))^b integrates in closed form over both logs, in the
basis u^c (log u)^i (log(z/u))^j (_antiderivative); each endpoint is expanded
once, log(z/x) at u = z/x and log(z/y) at u = y, and the rows with equal powers
of log z and of the endpoint's Log are merged into one table cached per
(c, a, b) and per endpoint at 1 (_integral_rows), where only the rows free of
Log(1) are built.

The exact operations fill one unreduced accumulator {(zpow, zlogpow): raw}
(``coeffs._accumulate``): every term enters as coeff * (rational factor) *
location unit, and _finished builds each output ExactCoeff once.  _theta is the
one theta: it takes an accumulator to times * theta of itself on the raw
triples, with no gcd, for theta(), derivative() and the ene pair term (-theta
of the Hadamard one).  One cached function, _z_over, rewrites log(z/y) as
log z - log y over the signed binomial row, for the integral's endpoint rows
and for _pair_terms (the stream of the terms of unit * second(z/u) that the
polar residues of ``monodromy`` read); shift_log expands its own row.
_add_integral, which the Hadamard pair term and integrate_u call, and _add_at
(x = c, for the residues) read c^k * Log(c)^n as the ints of a monomial unit
cached per (c, k, n) (_location_unit), so no row builds a GaussianRational or
takes a gcd: one unit lookup and one _accumulate call per merged row.
integrate_u reads an integrand given as a mapping (upow, ulogpow, zpow,
zlogpow) -> coeff.

Branches are formal here: _z_over rewrites log(z/y) as log z - log y with no
2pii*k term, log(z/u) at u = z/x reads Log(x), and endpoint logs become
Log(location) symbols (Log(1) simplifies to 0 eagerly, nothing else does).  Numeric evaluation picks a sheet explicitly
through BranchPoint.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
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


def _pair_terms(second: LogLaurentPoly, unit: ExactCoeff):
    """The terms (upow, ulogpow, zpow, zlogpow, coeff, sign) of unit * second(z/u),
    each coeff * sign * u^upow (log u)^ulogpow z^zpow (log z)^zlogpow, second(z/u) by _z_over."""
    for (n, b), g in second.terms.items():
        coeff = unit * g
        for zpow, zlogpow, upow, ulogpow, sign in _z_over(n, b):
            yield upow, ulogpow, zpow, zlogpow, coeff, sign


def _antiderivative(c: int, a: int, b: int):
    """The terms (i, j, factor) of an antiderivative of u^(c-1) (log u)^a (log(z/u))^b in the
    basis u^c (log u)^i (log(z/u))^j, where d(log(z/u)) = -du/u.

    For c != 0, integrating by parts over both logs gives the factor
    (1/c) (a!/i!) (b!/j!) C(a-i+b-j, a-i) (-1/c)^(a-i) (1/c)^(b-j).  For c = 0
    the sum telescopes: (log u)^(a+t+1) (log(z/u))^(b-t) b!/(b-t)! a!/(a+t+1)!, t = 0..b.
    """
    if not c:
        for t in range(b + 1):
            yield a + t + 1, b - t, Fraction(perm(b, t), perm(a + t + 1, t + 1))
        return
    for i in range(a + 1):
        for j in range(b + 1):
            num = perm(a, a - i) * perm(b, b - j) * comb(a - i + b - j, a - i) * (-1) ** (a - i)
            yield i, j, Fraction(num, c ** (1 + a - i + b - j))


@lru_cache(maxsize=1024)
def _integral_rows(c: int, a: int, b: int, upper_one: bool, lower_one: bool):
    """The integral of u^(c-1) (log u)^a (log(z/u))^b du from u = y to u = z/x as rows
    (zlogpow, Log power, num, den), one tuple for each endpoint: the upper rows are
    num/den * x^-c Log(x)^p z^c (log z)^zlogpow, the lower ones num/den * y^c Log(y)^p (log z)^zlogpow.

    At u = z/x, log u = log(z/x) expands through _z_over(c, i) and log(z/u) = Log(x); at
    u = y, log u = Log(y) and log(z/u) = log(z/y) expands through _z_over(0, j).  Rows with
    equal (zlogpow, p) are merged; an endpoint at 1 keeps only its p = 0 rows, where Log(1)
    vanishes, and builds no other.
    """
    upper: dict = {}
    lower: dict = {}
    for i, j, factor in _antiderivative(c, a, b):
        if not upper_one:
            for _, zl, _, yl, sign in _z_over(c, i):
                upper[zl, yl + j] = upper.get((zl, yl + j), 0) + factor * sign
        elif not j:  # the last row of _z_over(c, i), (log z)^i, is the one free of Log(1)
            upper[i, 0] = upper.get((i, 0), 0) + factor
        if not lower_one:
            for _, zl, _, yl, sign in _z_over(0, j):
                lower[zl, i + yl] = lower.get((zl, i + yl), 0) - factor * sign
        elif not i:
            lower[j, 0] = lower.get((j, 0), 0) - factor
    return tuple(tuple((zl, p, f.numerator, f.denominator) for (zl, p), f in rows.items() if f)
                 for rows in (upper, lower))


def _add_integral(acc: dict, lower: GaussianRational, upper: GaussianRational, c: int, a: int, b: int,
                  zpow: int, zlogpow: int, coeff: ExactCoeff) -> None:
    """acc += coeff * z^zpow (log z)^zlogpow * integral of u^(c-1) (log u)^a (log(z/u))^b du
    from u = lower to u = z/upper: one location unit and one _accumulate call per merged row
    of _integral_rows."""
    rows = _integral_rows(c, a, b, upper == GR_ONE, lower == GR_ONE)
    for location, k, zp, side in ((upper, -c, zpow + c, rows[0]), (lower, c, zpow, rows[1])):
        la, lb, ld = location._a, location._b, location._d
        for zl, p, num, den in side:
            mono, ua, ub, ud = _location_unit(la, lb, ld, k, p)
            _accumulate(acc.setdefault((zp, zlogpow + zl), {}), coeff, num * ua, num * ub, den * ud, mono)


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
        _add_integral(acc, lower, upper, k + 1, l, 0, zm, zl, coeff)
    return LogLaurentPoly._wrap(_finished(acc))
