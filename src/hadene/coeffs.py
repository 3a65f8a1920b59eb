"""Exact coefficient field for the symbolic monodromy engine.

The constants that show up in monodromy formulas are rational combinations of
a handful of transcendentals: the period ``2*pi*i``, logarithms of singularity
locations, and the locations themselves.  We realize this field concretely as
Gaussian-rational Laurent polynomials in named constant symbols:

    ExactCoeff  =  sum of  (Gaussian rational) * prod(symbol ** integer)

Representation, chosen so that the ring operations run on machine integers:

* A ``GaussianRational`` is a triple of ints ``(a, b, d)`` standing for
  ``(a + b i) / d``, kept in normal form: ``d > 0`` and ``gcd(a, b, d) = 1``.
  Each operation forms the unreduced triple and ends with one ``math.gcd``
  (Henrici, "A subroutine for computations with rational numbers", J. ACM
  1956); sums over equal denominators skip the cross products.  ``re`` and
  ``im`` are ``Fraction`` views computed on demand.
* A ``ConstantSymbol`` is interned: there is one instance per ``(kind, base)``,
  and it carries a small int ``id``.  Symbols compare and hash by identity.
* An ``ExactCoeff`` maps monomials to nonzero Gaussian rationals.  A monomial
  is one int, ``sum(exp << (_W * id))``: the ``_W``-bit field at ``id`` holds
  the signed exponent of symbol ``id``, so keys hash and compare as ints, a
  product of monomials is one int addition and an inverse is a negation.
  Exponents enter within ``MAX_EXPONENT = 2**20`` in magnitude (``monomial``,
  ``**`` and documents refuse more).  A product adds exponents, and ``*``
  refuses one outside ``[-2**62, 2**62)``, with one bias-and-mask test of the
  packed int per output monomial, so no field carries into the next: 43
  squarings of one factor at the bound raise instead of aliasing another
  monomial.  The exponents the engine forms, powers of 2pii and of Log(c), are
  log powers: below 2**12 on documents, whose log powers are at most 1024.
  Ids depend on the order in which a process first meets its symbols, so
  everything that leaves the field (``sorted_terms``, ``symbols``, ``repr``,
  the document form) decodes the fields back to symbols and orders by the
  symbols' keys instead.

``ExactCoeff`` shares its term-map core, ``_TermMap`` (normalizing constructor,
addition, negation, equality), with the one log polynomial ring,
``logpoly.LogLaurentPoly``; ring operations build normalized dicts directly
and skip the constructor.
Products of sums go through one rule, ``_accumulate``: it adds each
coefficient times a monomial unit (the ints ``(a, b, d)`` of a Gaussian
rational, and a monomial) into an unreduced accumulator of ``(a, b, d)``
triples per monomial, and ``_finish`` reduces each sum with one gcd and builds
the ``ExactCoeff`` once.
A unit maps monomials one to one, so a product by a one-term factor skips the
accumulator; the exact substitutions of ``logpoly`` and each product pair term
of ``monodromy`` feed all their terms into one accumulator per output key.
``logpoly._theta`` maps such accumulators on their raw triples, so a term
finished after theta, as the ene pair term is, still takes one gcd per output.

Arithmetic is exact; only single monomials are invertible (every prefactor the
monodromy formulas need divides by rationals, powers of ``2*pi*i`` or powers of
locations, which are all monomial units).  ``eval`` bridges to complex doubles
for the numeric oracle; it sums in ``sorted_terms`` order, so equal values give
equal floats.

No relation between distinct symbols is ever assumed (``Log(4)`` and
``2*Log(2)`` are different normal forms); fixtures stick to a relation-free
generating set.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Mapping

TWO_PI_I = complex(0.0, 2.0 * math.pi)


class NotAUnit(ArithmeticError):
    """Raised when inverting an ExactCoeff that is not a single monomial unit."""


_new = object.__new__


def _power(base, k: int, one):
    """base ** k for k >= 0 by repeated squaring."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b i) / d in normal form; d must be positive."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    out = _new(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


class GaussianRational:
    """Exact complex number (a + b i) / d with integers a, b and d.

    Immutable in the way ``Fraction`` is: the three ints are private and never
    written after construction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0) -> "GaussianRational":
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        return _reduced(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-other)

    def __neg__(self) -> "GaussianRational":
        out = _new(GaussianRational)
        out._a = -self._a
        out._b = -self._b
        out._d = self._d
        return out

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        a2, b2 = other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a1, b1, d2 = self._a, self._b, other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return GR_ONE / (self ** (-k))
        return _power(self, k, GR_ONE)

    def __complex__(self) -> complex:
        # integer true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        imag = f"{im}i"
        if re == 0:
            return imag
        sign = "+" if im >= 0 else ""
        return f"{re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def parse_rational(literal) -> Fraction:
    """Fraction(literal), with a zero denominator or an infinity as ValueError."""
    try:
        return Fraction(literal)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{literal!r} is not a finite rational") from exc


def parse_gaussian_rational(text: str) -> GaussianRational:
    """Parse "p/q", "r/si", "p/q+r/si" or "p/q-r/si" (no spaces required)."""
    if not isinstance(text, str):
        raise ValueError(f"GaussianRational literal must be a string, not {type(text).__name__}")
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty GaussianRational literal")
    if not s.endswith("i"):
        return GaussianRational(parse_rational(s))
    body = s[:-1]
    # split at the sign that separates real and imaginary parts, if any
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            re_part, im_part = body[:pos], body[pos:]
            im_part = im_part if im_part not in ("+", "-") else im_part + "1"
            return GaussianRational(parse_rational(re_part), parse_rational(im_part))
    if body in ("", "+", "-"):
        body += "1"
    return GaussianRational(0, parse_rational(body))


# --- constant symbols -------------------------------------------------------

_KIND_TWO_PI_I = "2pii"
_KIND_LOG = "log"
_KIND_LOC = "loc"

# the interned symbols, indexed by id and by (kind, base)
_SYMBOLS: list["ConstantSymbol"] = []
_INTERNED: dict[tuple, "ConstantSymbol"] = {}


class ConstantSymbol:
    """A named transcendental constant: 2*pi*i, log(c), or a location c.

    ``ConstantSymbol(kind, base)`` returns the one instance for that pair, so
    symbols compare and hash by identity; ``id`` numbers them in the order the
    process first met them.
    """

    __slots__ = ("kind", "base", "id", "key", "_value")

    def __new__(cls, kind: str, base=None) -> "ConstantSymbol":
        if base is not None and not isinstance(base, GaussianRational):
            base = GaussianRational(base)
        sym = _INTERNED.get((kind, base))
        if sym is not None:
            return sym
        if kind == _KIND_TWO_PI_I:
            if base is not None:
                raise ValueError("2pii symbol takes no base")
            key, value = "2pii", TWO_PI_I
        elif kind in (_KIND_LOG, _KIND_LOC):
            if base is None or not base:
                raise ValueError(f"{kind} symbol requires a nonzero base")
            # the float waits for the first eval: the exact side computes none
            key, value = f"{kind}({base})", None
        else:
            raise ValueError(f"unknown symbol kind {kind!r}")
        sym = _new(cls)
        for name, field in (("kind", kind), ("base", base), ("id", len(_SYMBOLS)),
                            ("key", key), ("_value", value)):
            object.__setattr__(sym, name, field)
        _SYMBOLS.append(sym)
        _INTERNED[(kind, base)] = sym
        return sym

    def __setattr__(self, name, value):
        raise AttributeError("ConstantSymbol is immutable")

    def __reduce__(self):
        return ConstantSymbol, (self.kind, self.base)

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        return f"ConstantSymbol(kind={self.kind!r}, base={self.base!r})"


def two_pi_i_symbol() -> ConstantSymbol:
    return ConstantSymbol(_KIND_TWO_PI_I)


def log_symbol(base) -> ConstantSymbol:
    return ConstantSymbol(_KIND_LOG, base)


def loc_symbol(value) -> ConstantSymbol:
    return ConstantSymbol(_KIND_LOC, value)


def parse_symbol(key: str) -> ConstantSymbol:
    if key == "2pii":
        return two_pi_i_symbol()
    for kind in (_KIND_LOG, _KIND_LOC):
        if key.startswith(kind + "(") and key.endswith(")"):
            return ConstantSymbol(kind, parse_gaussian_rational(key[len(kind) + 1:-1]))
    raise ValueError(f"unknown symbol key {key!r}")


two_pi_i_symbol()  # id 0, the lowest field of a monomial

# Monomial: sum(exp << (_W * symbol id)), one signed _W-bit field per symbol.
Monomial = int
# The same monomial with symbols in place of ids, sorted by symbol key.
SymbolMonomial = tuple[tuple[ConstantSymbol, int], ...]

_W = 64
_FIELD = 1 << _W
_HALF = _FIELD >> 1
MAX_EXPONENT = 1 << 20


def _bounded(exp: int, what) -> int:
    if abs(exp) > MAX_EXPONENT:
        raise ValueError(f"exponent {exp} of {what} exceeds 2**20 in magnitude")
    return exp


# A product's exponents must stay within [-2**62, 2**62): two such fields add up
# inside the signed 64 bits, so no product can carry into the next field.
_PRODUCT_BOUND = 1 << 62


@cache
def _product_test(fields: int) -> tuple[int, int]:
    """(bias, outside) for the first `fields` fields: the fields of such a
    monomial all lie in [-_PRODUCT_BOUND, _PRODUCT_BOUND) exactly when
    (mono + bias) & outside == 0, since each biased field is then in [0, 2**63)."""
    ones = ((1 << (_W * fields)) - 1) // (_FIELD - 1)
    return _PRODUCT_BOUND * ones, ~((2 * _PRODUCT_BOUND - 1) * ones)


def _make_monomial(powers: Mapping[ConstantSymbol, int]) -> Monomial:
    return sum(_bounded(exp, sym) << (_W * sym.id) for sym, exp in powers.items())


def _fields(mono: Monomial):
    """The (symbol id, nonzero exponent) pairs of a monomial, by id."""
    sid = 0
    while mono:
        skip = ((mono & -mono).bit_length() - 1) // _W  # empty fields below the next one
        mono >>= _W * skip
        exp = ((mono + _HALF) & (_FIELD - 1)) - _HALF  # the low field, signed
        yield sid + skip, exp
        mono = (mono - exp) >> _W
        sid += skip + 1


def _symbolic(mono: Monomial) -> SymbolMonomial:
    return tuple(sorted(((_SYMBOLS[sid], exp) for sid, exp in _fields(mono)), key=lambda it: it[0].key))


def _add_term(out: dict, key, value) -> None:
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


class _TermMap:
    """Finite map from exponent-tuple keys to nonzero coefficients.

    The shared core of ExactCoeff (monomial -> GaussianRational) and of
    ``logpoly.LogLaurentPoly`` ((zpow, logpow) -> ExactCoeff).  The
    constructor normalizes any mapping: equal keys are summed, zero
    coefficients dropped, and each key slot named in ``_LOG_SLOTS`` (a log
    power) must be >= 0.  Ring operations build normalized dicts themselves
    and hand them to ``_wrap``, which skips that pass.
    """

    __slots__ = ("terms",)
    _LOG_SLOTS: tuple[int, ...] = ()

    def __init__(self, terms: Mapping | None = None):
        normalized: dict = {}
        if terms:
            for key, coeff in terms.items():
                for slot in self._LOG_SLOTS:
                    if key[slot] < 0:
                        raise ValueError("log powers must be >= 0")
                if coeff:
                    _add_term(normalized, key, coeff)
        self.terms = normalized

    @classmethod
    def _wrap(cls, terms: dict):
        """An instance around a term map that is already normalized."""
        out = _new(cls)
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        merged = dict(self.terms)
        for key, coeff in other.terms.items():  # _add_term, inlined in the hottest loop
            acc = merged.get(key)
            if acc is None:
                merged[key] = coeff
            else:
                acc = acc + coeff
                if acc:
                    merged[key] = acc
                else:
                    del merged[key]
        return self._wrap(merged)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)


def _wrap(terms: dict[Monomial, GaussianRational]) -> "ExactCoeff":
    """An ExactCoeff around a term map that is already normalized."""
    out = _new(ExactCoeff)
    out.terms = terms
    return out


class ExactCoeff(_TermMap):
    """Element of the exact constants field: a normalized term map."""

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "ExactCoeff":
        return _wrap({})

    @staticmethod
    def from_rational(value) -> "ExactCoeff":
        return ExactCoeff.from_gaussian(GaussianRational(value))

    @staticmethod
    def from_gaussian(value: GaussianRational) -> "ExactCoeff":
        return _wrap({0: value} if value else {})

    @staticmethod
    def monomial(powers: Mapping[ConstantSymbol, int], coeff=GR_ONE) -> "ExactCoeff":
        coeff = coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)
        return _wrap({_make_monomial(powers): coeff} if coeff else {})

    @staticmethod
    def two_pi_i(power: int = 1, coeff=GR_ONE) -> "ExactCoeff":
        return ExactCoeff.monomial({two_pi_i_symbol(): power}, coeff)

    # -- predicates ----------------------------------------------------------

    def symbols(self) -> set[ConstantSymbol]:
        return {_SYMBOLS[sid] for mono in self.terms for sid, _ in _fields(mono)}

    def _key(self):
        return tuple((mono, c.re, c.im) for mono, c in self.sorted_terms())

    def __hash__(self):
        return hash(self._key())

    # -- ring operations -----------------------------------------------------

    def __mul__(self, other) -> "ExactCoeff":
        if isinstance(other, ExactCoeff):
            product = self._product(other)
            bias, outside = _product_test(len(_SYMBOLS))
            for mono in product.terms:
                if (mono + bias) & outside:
                    for sid, exp in _fields(mono):
                        if not -_PRODUCT_BOUND <= exp < _PRODUCT_BOUND:
                            raise ValueError(f"exponent {exp} of {_SYMBOLS[sid]} in a product "
                                             "leaves [-2**62, 2**62)")
            return product
        if isinstance(other, int):
            return self._times(other, 0, 1)
        if isinstance(other, Fraction):
            return self._times(other.numerator, 0, other.denominator)
        if isinstance(other, GaussianRational):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def _product(self, other: "ExactCoeff") -> "ExactCoeff":
        # a one-term operand is a monomial unit: no two terms meet
        if len(other.terms) == 1:
            (mono, c), = other.terms.items()
            return self._times(c._a, c._b, c._d, mono)
        if len(self.terms) == 1:
            (mono, c), = self.terms.items()
            return other._times(c._a, c._b, c._d, mono)
        raw: dict = {}
        for mono, c in self.terms.items():
            _accumulate(raw, other, c._a, c._b, c._d, mono)
        return _finish(raw)

    def _times(self, fa: int, fb: int, fd: int, shift: Monomial = 0) -> "ExactCoeff":
        """Every term times the unit (fa + fb i) / fd * shift, for fd > 0."""
        if not (fa or fb):
            return _wrap({})
        return _wrap({
            m + shift: _reduced(c._a * fa - c._b * fb, c._a * fb + c._b * fa, c._d * fd)
            for m, c in self.terms.items()
        })

    def scale(self, factor: GaussianRational) -> "ExactCoeff":
        return self._times(factor._a, factor._b, factor._d)

    def __pow__(self, k: int) -> "ExactCoeff":
        if k < 0:
            return self.invert_monomial() ** (-k)
        # each symbol's largest |exponent| in the power is exactly k times the base's
        for mono in self.terms:
            for sid, exp in _fields(mono):
                _bounded(k * exp, _SYMBOLS[sid])
        return _power(self, k, EC_ONE)

    def invert_monomial(self) -> "ExactCoeff":
        """Exact inverse, defined only for single-monomial values."""
        if len(self.terms) != 1:
            raise NotAUnit(f"not a monomial unit: {self}")
        (mono, coeff), = self.terms.items()
        return _wrap({-mono: GR_ONE / coeff})

    # -- numeric bridge ------------------------------------------------------

    def eval(self) -> complex:
        """Evaluate to a complex double, each symbol at its principal value.

        Terms and the symbols of each term are taken in sorted_terms order, so
        equal values give the same float whatever the order they were built in.
        """
        total = 0j
        for mono, coeff in self.sorted_terms():
            value = complex(coeff)
            for sym, exp in mono:
                base = sym._value
                if base is None:
                    base = cmath.log(complex(sym.base)) if sym.kind == _KIND_LOG else complex(sym.base)
                    object.__setattr__(sym, "_value", base)
                value *= base ** exp
            total += value
        return total

    # -- display -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[SymbolMonomial, GaussianRational]]:
        return sorted(
            ((_symbolic(mono), coeff) for mono, coeff in self.terms.items()),
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


EC_ONE = ExactCoeff.from_gaussian(GR_ONE)


def _accumulate(raw: dict, coeff: ExactCoeff, a2: int, b2: int, d2: int, shift: Monomial = 0) -> None:
    """raw[m * shift] += c * (a2 + b2 i) / d2 for every term c * m of coeff, for d2 > 0.

    raw maps monomials to unreduced triples (a, b, d) standing for
    (a + b i) / d: equal denominators add their numerators, others cross
    multiply, and ``_finish`` takes one gcd per monomial (Henrici 1956).
    """
    for m1, c1 in coeff.terms.items():
        a1, b1, d1 = c1._a, c1._b, c1._d
        mono = m1 + shift
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
        acc = raw.get(mono)
        if acc is not None:
            ea, eb, ed = acc
            if ed == d:
                a, b = ea + a, eb + b
            else:
                a, b, d = ea * d + a * ed, eb * d + b * ed, ed * d
        raw[mono] = (a, b, d)


def _finish(raw: dict) -> ExactCoeff:
    """The ExactCoeff of an accumulator: each sum reduced, the zero ones dropped."""
    return _wrap({m: _reduced(a, b, d) for m, (a, b, d) in raw.items() if a or b})


def as_exact(value) -> ExactCoeff:
    """Coerce ints, Fractions, GaussianRationals, or ExactCoeffs."""
    if isinstance(value, ExactCoeff):
        return value
    if isinstance(value, GaussianRational):
        return ExactCoeff.from_gaussian(value)
    return ExactCoeff.from_rational(value)
