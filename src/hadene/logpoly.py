"""The symbolic ring K[z^(+-1), log z] and its two-variable extension.

Monodromies of product singularities live in this ring: finitely many terms

    coeff * z^zpow * (log z)^logpow        (zpow integer, logpow >= 0)

with ExactCoeff coefficients.  The module provides the ring operations, the
derivation, the monodromy-at-origin operator (substitute log z -> log z + 2pii
and subtract), and the closed-form definite integrals

    integral from u=alpha to u=z/beta of  (two-variable integrand) du

that evaluate the convolution formulas without any numeric step.  Antiderivatives
of u^k (log u)^l come from the closed form of the integration-by-parts
recursion on l, whose rational factors are cached per (k, l); the k = -1
column integrates to (log u)^(l+1)/(l+1).

Branches are formal here: log(z/u) is rewritten as log z - log u, and endpoint
logs become Log(location) symbols (Log(1) simplifies to 0 eagerly, nothing else
does).  Numeric evaluation picks a sheet explicitly through BranchPoint.
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
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational.of(Fraction(value))


def log_location_power(location: GaussianRational, power: int) -> ExactCoeff:
    """Log(location)^power as an ExactCoeff; Log(1) is simplified to 0."""
    if power == 0:
        return EC_ONE
    if location == GR_ONE:
        return ExactCoeff.zero()
    return ExactCoeff.monomial({log_symbol(location): power})


def _add_term(out: dict, key, value: ExactCoeff) -> None:
    """out[key] += value, dropping the key when the sum cancels."""
    acc = out.get(key)
    if acc is None:
        out[key] = value
        return
    acc = acc + value
    if acc:
        out[key] = acc
    else:
        del out[key]


def _add_log_z_over(out: dict, zpow: int, zlogpow: int, l: int, base: ExactCoeff,
                    location: GaussianRational) -> None:
    """Add base * z^zpow (log z)^zlogpow (log z - Log(location))^l to out, expanded."""
    # Log(1) = 0 leaves only the (log z)^l term
    for j in range(l + 1) if location != GR_ONE else (l,):
        sign = 1 if (l - j) % 2 == 0 else -1
        logc = log_location_power(location, l - j) * (comb(l, j) * sign)
        _add_term(out, (zpow, zlogpow + j), base * logc)


class LogLaurentPoly:
    """Finite term map (zpow, logpow) -> ExactCoeff, normalized."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], ExactCoeff] | None = None):
        normalized: dict[tuple[int, int], ExactCoeff] = {}
        if terms:
            for key, coeff in terms.items():
                zpow, logpow = key
                if logpow < 0:
                    raise ValueError("logpow must be >= 0")
                if coeff:
                    acc = normalized.get(key)
                    acc = coeff if acc is None else acc + coeff
                    if acc:
                        normalized[key] = acc
                    elif key in normalized:
                        del normalized[key]
        object.__setattr__(self, "terms", normalized)

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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogLaurentPoly):
            return NotImplemented
        return self.terms == other.terms

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

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "LogLaurentPoly") -> "LogLaurentPoly":
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, ExactCoeff.zero()) + coeff
        return LogLaurentPoly(merged)

    def __neg__(self) -> "LogLaurentPoly":
        return LogLaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LogLaurentPoly") -> "LogLaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LogLaurentPoly":
        if isinstance(other, LogLaurentPoly):
            out: dict[tuple[int, int], ExactCoeff] = {}
            for (z1, l1), c1 in self.terms.items():
                for (z2, l2), c2 in other.terms.items():
                    key = (z1 + z2, l1 + l2)
                    prod = c1 * c2
                    out[key] = out.get(key, ExactCoeff.zero()) + prod
            return LogLaurentPoly(out)
        return self.scale(as_exact(other))

    __rmul__ = __mul__

    def scale(self, coeff: ExactCoeff) -> "LogLaurentPoly":
        if not coeff:
            return LogLaurentPoly()
        return LogLaurentPoly({k: c * coeff for k, c in self.terms.items()})

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "LogLaurentPoly":
        """d/dz, term by term: z^m (log z)^l -> m z^(m-1)(log z)^l + l z^(m-1)(log z)^(l-1)."""
        out: dict[tuple[int, int], ExactCoeff] = {}
        for (m, l), coeff in self.terms.items():
            if m:
                key = (m - 1, l)
                out[key] = out.get(key, ExactCoeff.zero()) + coeff * m
            if l:
                key = (m - 1, l - 1)
                out[key] = out.get(key, ExactCoeff.zero()) + coeff * l
        return LogLaurentPoly(out)

    def shift_log(self, amount: ExactCoeff) -> "LogLaurentPoly":
        """Substitute log z -> log z + amount, expanding powers binomially."""
        out: dict[tuple[int, int], ExactCoeff] = {}
        powers = [EC_ONE]
        max_l = self.max_logpow()
        for _ in range(max_l):
            powers.append(powers[-1] * amount)
        for (m, l), coeff in self.terms.items():
            for j in range(l + 1):
                key = (m, j)
                contrib = coeff * comb(l, j) * powers[l - j]
                out[key] = out.get(key, ExactCoeff.zero()) + contrib
        return LogLaurentPoly(out)

    def sigma_power(self, n: int) -> "LogLaurentPoly":
        """Continuation around the origin n times: log z -> log z + n * 2pii."""
        if n == 0:
            return self
        return self.shift_log(TWO_PI_I_COEFF * n)

    def monodromy_at_zero(self) -> "LogLaurentPoly":
        """One positive loop around 0: sigma(p) - p."""
        return self.sigma_power(1) - self

    # -- substitutions --------------------------------------------------------

    def scale_argument(self, location: GaussianRational) -> "LogLaurentPoly":
        """p(z / location): z^m -> location^(-m) z^m, log z -> log z - Log(location)."""
        loc = _gauss(location)
        out: dict[tuple[int, int], ExactCoeff] = {}
        for (m, l), coeff in self.terms.items():
            _add_log_z_over(out, m, 0, l, coeff.scale(loc ** (-m)), loc)
        return LogLaurentPoly(out)

    def eval_at_location(self, location: GaussianRational) -> ExactCoeff:
        """p(location) as an exact constant: z -> location, log z -> Log(location)."""
        loc = _gauss(location)
        total = ExactCoeff.zero()
        for (m, l), coeff in self.terms.items():
            total = total + coeff.scale(loc ** m) * log_location_power(loc, l)
        return total

    def lp_eval(self, at: BranchPoint, assignment=None) -> complex:
        """Numeric value on the chosen sheet."""
        logz = at.log_value()
        total = 0j
        for (m, l), coeff in self.terms.items():
            total += coeff.eval(assignment) * at.z ** m * logz ** l
        return total


class BiLogPoly:
    """Term map (upow, ulogpow, zpow, zlogpow) -> ExactCoeff: integrands in u."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int, int], ExactCoeff] | None = None):
        normalized: dict[tuple[int, int, int, int], ExactCoeff] = {}
        if terms:
            for key, coeff in terms.items():
                if key[1] < 0 or key[3] < 0:
                    raise ValueError("log powers must be >= 0")
                if coeff:
                    acc = normalized.get(key)
                    acc = coeff if acc is None else acc + coeff
                    if acc:
                        normalized[key] = acc
                    elif key in normalized:
                        del normalized[key]
        object.__setattr__(self, "terms", normalized)

    @staticmethod
    def from_poly_in_u(p: LogLaurentPoly) -> "BiLogPoly":
        """Read p as a function of u: z^m (log z)^l -> u^m (log u)^l."""
        return BiLogPoly({(m, l, 0, 0): c for (m, l), c in p.terms.items()})

    @staticmethod
    def from_poly_at_z_over_u(p: LogLaurentPoly) -> "BiLogPoly":
        """Substitute z -> z/u: z^m -> z^m u^(-m), log z -> log z - log u."""
        out: dict[tuple[int, int, int, int], ExactCoeff] = {}
        for (m, l), coeff in p.terms.items():
            for j in range(l + 1):
                sign = 1 if (l - j) % 2 == 0 else -1
                key = (-m, l - j, m, j)
                contrib = coeff * (comb(l, j) * sign)
                out[key] = out.get(key, ExactCoeff.zero()) + contrib
        return BiLogPoly(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiLogPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "BiLogPoly") -> "BiLogPoly":
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, ExactCoeff.zero()) + coeff
        return BiLogPoly(merged)

    def __neg__(self) -> "BiLogPoly":
        return BiLogPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiLogPoly") -> "BiLogPoly":
        return self + (-other)

    def __mul__(self, other) -> "BiLogPoly":
        if isinstance(other, BiLogPoly):
            out: dict[tuple[int, int, int, int], ExactCoeff] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(k1, k2))
                    out[key] = out.get(key, ExactCoeff.zero()) + c1 * c2
            return BiLogPoly(out)
        coeff = as_exact(other)
        if not coeff:
            return BiLogPoly()
        return BiLogPoly({k: c * coeff for k, c in self.terms.items()})

    __rmul__ = __mul__

    def times_u_power(self, k: int) -> "BiLogPoly":
        return BiLogPoly({(u + k, ul, z, zl): c for (u, ul, z, zl), c in self.terms.items()})

    def times_z_power(self, k: int) -> "BiLogPoly":
        return BiLogPoly({(u, ul, z + k, zl): c for (u, ul, z, zl), c in self.terms.items()})

    def derivative_u(self) -> "BiLogPoly":
        """d/du term by term (z-parts are constants here)."""
        out: dict[tuple[int, int, int, int], ExactCoeff] = {}
        for (k, l, zm, zl), coeff in self.terms.items():
            if k:
                key = (k - 1, l, zm, zl)
                out[key] = out.get(key, ExactCoeff.zero()) + coeff * k
            if l:
                key = (k - 1, l - 1, zm, zl)
                out[key] = out.get(key, ExactCoeff.zero()) + coeff * l
        return BiLogPoly(out)

    def antiderivative_u(self) -> "BiLogPoly":
        """Exact antiderivative in u, term by term in closed form."""
        out: dict[tuple[int, int, int, int], ExactCoeff] = {}
        for (k, l, zm, zl), coeff in self.terms.items():
            for upow, ulogpow, factor in _antiderivative_table(k, l):
                _add_term(out, (upow, ulogpow, zm, zl), coeff * factor)
        return BiLogPoly(out)

    def eval_u_at_location(self, location: GaussianRational) -> LogLaurentPoly:
        """u -> location: powers fold into the coefficient, log u -> Log(location)."""
        loc = _gauss(location)
        out: dict[tuple[int, int], ExactCoeff] = {}
        for (k, l, zm, zl), coeff in self.terms.items():
            value = coeff.scale(loc ** k) * log_location_power(loc, l)
            if value:
                key = (zm, zl)
                out[key] = out.get(key, ExactCoeff.zero()) + value
        return LogLaurentPoly(out)

    def eval_u_at_z_over_location(self, location: GaussianRational) -> LogLaurentPoly:
        """u -> z/location: u^k -> z^k loc^(-k), log u -> log z - Log(location)."""
        loc = _gauss(location)
        out: dict[tuple[int, int], ExactCoeff] = {}
        for (k, l, zm, zl), coeff in self.terms.items():
            _add_log_z_over(out, zm + k, zl, l, coeff.scale(loc ** (-k)), loc)
        return LogLaurentPoly(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            parts.append(f"[{self.terms[key]}]*u^{key[0]}(log u)^{key[1]}z^{key[2]}(log z)^{key[3]}")
        return " + ".join(parts)


@lru_cache(maxsize=1024)
def _antiderivative_table(k: int, l: int) -> tuple[tuple[int, int, Fraction], ...]:
    """The terms (upow, ulogpow, factor) of an antiderivative of u^k (log u)^l.

    For k = -1 it is (log u)^(l+1)/(l+1).  Otherwise, integrating by parts l
    times gives u^(k+1) sum_i (-1)^i l!/(l-i)! (log u)^(l-i) / (k+1)^(i+1).
    """
    if k == -1:
        return ((0, l + 1, Fraction(1, l + 1)),)
    out = []
    factor = Fraction(1, k + 1)
    for i in range(l + 1):
        out.append((k + 1, l - i, factor))
        factor *= Fraction(-(l - i), k + 1)
    return tuple(out)


def integrate_u(p: BiLogPoly, alpha: GaussianRational, beta: GaussianRational) -> LogLaurentPoly:
    """Definite integral of p du from u = alpha to u = z/beta, exactly.

    The integrand must already include any u^(-1) measure factor.  The result
    lands back in K[z^(+-1), log z]; endpoint logs appear as Log(alpha) and
    Log(beta) constant symbols (Log(1) vanishes).
    """
    anti = p.antiderivative_u()
    upper = anti.eval_u_at_z_over_location(_gauss(beta))
    lower = anti.eval_u_at_location(_gauss(alpha))
    return upper - lower


def lp_eval(p: LogLaurentPoly, at: BranchPoint, assignment=None) -> complex:
    return p.lp_eval(at, assignment)
