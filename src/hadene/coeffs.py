"""Exact coefficient field for the symbolic monodromy engine.

The constants that show up in monodromy formulas are rational combinations of
a handful of transcendentals: the period ``2*pi*i``, logarithms of singularity
locations, and the locations themselves.  We realize this field concretely as
Gaussian-rational Laurent polynomials in named constant symbols:

    ExactCoeff  =  sum of  (Gaussian rational) * prod(symbol ** integer)

Arithmetic is exact; only single monomials are invertible (every prefactor the
monodromy formulas need divides by rationals, powers of ``2*pi*i`` or powers of
locations, which are all monomial units).  ``eval`` bridges to complex doubles
for the numeric oracle.

No relation between distinct symbols is ever assumed (``Log(4)`` and
``2*Log(2)`` are different normal forms); fixtures stick to a relation-free
generating set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

TWO_PI_I = complex(0.0, 2.0 * math.pi)


class NotAUnit(ArithmeticError):
    """Raised when inverting an ExactCoeff that is not a single monomial unit."""


class UnassignedSymbol(KeyError):
    """Raised when eval() meets a symbol missing from the assignment."""


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return GR_ONE / (self ** (-k))
        out = GR_ONE
        base = self
        n = k
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}i" if self.im >= 0 else f"{self.im}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im >= 0 else ""
        return f"{self.re}{sign}{imag}"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


def parse_rational(literal) -> Fraction:
    """Fraction(literal), with a zero denominator or an infinity as ValueError."""
    try:
        return Fraction(literal)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{literal!r} is not a finite rational") from exc


def parse_gaussian_rational(text: str) -> GaussianRational:
    """Parse "p/q", "r/si", "p/q+r/si" or "p/q-r/si" (no spaces required)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty GaussianRational literal")
    if not s.endswith("i"):
        return GaussianRational(parse_rational(s), Fraction(0))
    body = s[:-1]
    # split at the sign that separates real and imaginary parts, if any
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            re_part, im_part = body[:pos], body[pos:]
            im_part = im_part if im_part not in ("+", "-") else im_part + "1"
            return GaussianRational(parse_rational(re_part), parse_rational(im_part))
    if body in ("", "+", "-"):
        body += "1"
    return GaussianRational(Fraction(0), parse_rational(body))


# --- constant symbols -------------------------------------------------------

_KIND_TWO_PI_I = "2pii"
_KIND_LOG = "log"
_KIND_LOC = "loc"


@dataclass(frozen=True)
class ConstantSymbol:
    """A named transcendental constant: 2*pi*i, log(c), or a location c."""

    kind: str
    base: GaussianRational | None = None

    def __post_init__(self):
        if self.kind == _KIND_TWO_PI_I:
            if self.base is not None:
                raise ValueError("2pii symbol takes no base")
        elif self.kind in (_KIND_LOG, _KIND_LOC):
            if self.base is None or not self.base:
                raise ValueError(f"{self.kind} symbol requires a nonzero base")
        else:
            raise ValueError(f"unknown symbol kind {self.kind!r}")

    @property
    def key(self) -> str:
        if self.kind == _KIND_TWO_PI_I:
            return "2pii"
        return f"{self.kind}({self.base})"

    def default_value(self) -> complex:
        if self.kind == _KIND_TWO_PI_I:
            return TWO_PI_I
        if self.kind == _KIND_LOG:
            return cmath.log(complex(self.base))
        return complex(self.base)

    def __str__(self) -> str:
        return self.key


def two_pi_i_symbol() -> ConstantSymbol:
    return ConstantSymbol(_KIND_TWO_PI_I)


def log_symbol(base) -> ConstantSymbol:
    base = base if isinstance(base, GaussianRational) else GaussianRational.of(base)
    return ConstantSymbol(_KIND_LOG, base)


def loc_symbol(value) -> ConstantSymbol:
    value = value if isinstance(value, GaussianRational) else GaussianRational.of(value)
    return ConstantSymbol(_KIND_LOC, value)


def parse_symbol(key: str) -> ConstantSymbol:
    if key == "2pii":
        return two_pi_i_symbol()
    for kind in (_KIND_LOG, _KIND_LOC):
        if key.startswith(kind + "(") and key.endswith(")"):
            return ConstantSymbol(kind, parse_gaussian_rational(key[len(kind) + 1:-1]))
    raise ValueError(f"unknown symbol key {key!r}")


# Monomial: sorted tuple of (symbol, nonzero integer exponent), hashable.
Monomial = tuple[tuple[ConstantSymbol, int], ...]

_EMPTY_MONOMIAL: Monomial = ()


def _make_monomial(powers: Mapping[ConstantSymbol, int]) -> Monomial:
    items = [(s, e) for s, e in powers.items() if e != 0]
    items.sort(key=lambda it: it[0].key)
    return tuple(items)


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    powers: dict[ConstantSymbol, int] = dict(a)
    for sym, exp in b:
        powers[sym] = powers.get(sym, 0) + exp
    return _make_monomial(powers)


class ExactCoeff:
    """Element of the exact constants field: a normalized term map."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        normalized: dict[Monomial, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    normalized[mono] = normalized.get(mono, GR_ZERO) + coeff
                    if not normalized[mono]:
                        del normalized[mono]
        object.__setattr__(self, "terms", normalized)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "ExactCoeff":
        return ExactCoeff()

    @staticmethod
    def from_rational(value) -> "ExactCoeff":
        return ExactCoeff.from_gaussian(GaussianRational.of(Fraction(value)))

    @staticmethod
    def from_gaussian(value: GaussianRational) -> "ExactCoeff":
        if not value:
            return ExactCoeff()
        return ExactCoeff({_EMPTY_MONOMIAL: value})

    @staticmethod
    def monomial(powers: Mapping[ConstantSymbol, int], coeff=GR_ONE) -> "ExactCoeff":
        coeff = coeff if isinstance(coeff, GaussianRational) else GaussianRational.of(coeff)
        return ExactCoeff({_make_monomial(powers): coeff})

    @staticmethod
    def two_pi_i(power: int = 1, coeff=GR_ONE) -> "ExactCoeff":
        return ExactCoeff.monomial({two_pi_i_symbol(): power}, coeff)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> set[ConstantSymbol]:
        out: set[ConstantSymbol] = set()
        for mono in self.terms:
            out.update(sym for sym, _ in mono)
        return out

    def _key(self):
        return tuple(sorted(
            ((mono, c.re, c.im) for mono, c in self.terms.items()),
            key=lambda item: tuple((s.key, e) for s, e in item[0]),
        ))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactCoeff):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self._key())

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ExactCoeff") -> "ExactCoeff":
        if not isinstance(other, ExactCoeff):
            return NotImplemented
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            merged[mono] = merged.get(mono, GR_ZERO) + coeff
        return ExactCoeff(merged)

    def __neg__(self) -> "ExactCoeff":
        return ExactCoeff({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ExactCoeff") -> "ExactCoeff":
        return self + (-other)

    def __mul__(self, other) -> "ExactCoeff":
        if isinstance(other, (int, Fraction)):
            return self.scale(GaussianRational.of(Fraction(other)))
        if isinstance(other, GaussianRational):
            return self.scale(other)
        if not isinstance(other, ExactCoeff):
            return NotImplemented
        out: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mul_monomials(m1, m2)
                out[mono] = out.get(mono, GR_ZERO) + c1 * c2
        return ExactCoeff(out)

    __rmul__ = __mul__

    def scale(self, factor: GaussianRational) -> "ExactCoeff":
        if not factor:
            return ExactCoeff()
        return ExactCoeff({m: c * factor for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "ExactCoeff":
        if k < 0:
            return self.invert_monomial() ** (-k)
        out = EC_ONE
        base = self
        n = k
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def invert_monomial(self) -> "ExactCoeff":
        """Exact inverse, defined only for single-monomial values."""
        if len(self.terms) != 1:
            raise NotAUnit(f"not a monomial unit: {self}")
        (mono, coeff), = self.terms.items()
        inv_mono = _make_monomial({sym: -exp for sym, exp in mono})
        return ExactCoeff({inv_mono: GR_ONE / coeff})

    # -- numeric bridge ------------------------------------------------------

    def eval(self, assignment: Mapping[ConstantSymbol, complex] | None = None) -> complex:
        """Evaluate to a complex double; assignment defaults to principal values."""
        total = 0j
        for mono, coeff in self.terms.items():
            value = complex(coeff)
            for sym, exp in mono:
                if assignment is None:
                    base = sym.default_value()
                else:
                    if sym not in assignment:
                        raise UnassignedSymbol(sym.key)
                    base = assignment[sym]
                value *= base ** exp
            total += value
        return total

    # -- display -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(
            self.terms.items(),
            key=lambda item: tuple((s.key, e) for s, e in item[0]),
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = [f"{sym}^{exp}" if exp != 1 else str(sym) for sym, exp in mono]
            if factors:
                parts.append(f"({coeff})*" + "*".join(factors))
            else:
                parts.append(f"({coeff})")
        return " + ".join(parts)


EC_ZERO = ExactCoeff()
EC_ONE = ExactCoeff.from_rational(1)


def as_exact(value) -> ExactCoeff:
    """Coerce ints, Fractions, GaussianRationals, or ExactCoeffs."""
    if isinstance(value, ExactCoeff):
        return value
    if isinstance(value, GaussianRational):
        return ExactCoeff.from_gaussian(value)
    return ExactCoeff.from_rational(value)
