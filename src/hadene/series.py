"""Truncated formal power series and the two coefficientwise products.

A series is a plain coefficient list c_0..c_N over one of three coefficient
fields: exact rationals (Fraction), complex doubles, or ExactCoeff.  Products
truncate to the minimum operand order, which is the only computable finite
presentation of the formal identities.

The two products:

    hadamard(F, G)   ->  sum A_n * B_n * z^n        (coefficientwise)
    ene_exp(F, G)    ->  -sum n * A_n * B_n * z^n   (its weighted twin)

``ene`` is the multiplicative form, conjugated through exp/log:
``ene(f, g) = exp(ene_exp(log f, log g))``.  On products of linear factors it
multiplies the roots: ene(prod(1 - z/a), prod(1 - z/b)) = prod(1 - z/(a*b)).

Sign convention: ``koebe(N)`` is the expansion of z/(1-z)^2 with positive
coefficients n, and the product identity used throughout is

    ene_exp(F, G) = -hadamard(koebe, hadamard(F, G)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .coeffs import ExactCoeff, GaussianRational, as_exact


class FieldMismatch(TypeError):
    """Operands live over different coefficient fields."""


class BadConstantTerm(ValueError):
    """exp needs c_0 = 0; log and ene need c_0 = 1."""


class ZeroRoot(ValueError):
    """poly_from_roots requires nonzero roots."""


FIELD_RATIONAL = "rational"
FIELD_COMPLEX = "complex"
FIELD_EXACT = "exact"

_ZEROS = {FIELD_RATIONAL: Fraction(0), FIELD_COMPLEX: 0j, FIELD_EXACT: ExactCoeff.zero()}
_ONES = {FIELD_RATIONAL: Fraction(1), FIELD_COMPLEX: 1 + 0j, FIELD_EXACT: ExactCoeff.from_rational(1)}


def _infer_field(coeffs: Sequence) -> str:
    for c in coeffs:
        if isinstance(c, ExactCoeff):
            return FIELD_EXACT
        if isinstance(c, (complex, float)):
            return FIELD_COMPLEX
    return FIELD_RATIONAL


def _coerce(value, field: str):
    if field == FIELD_RATIONAL:
        return value if isinstance(value, Fraction) else Fraction(value)
    if field == FIELD_COMPLEX:
        return complex(value)
    return as_exact(value)


class TruncatedSeries:
    """Power series truncated at an explicit order N (inclusive)."""

    __slots__ = ("order", "coeffs", "field")

    def __init__(self, coeffs: Sequence, field: str | None = None):
        field = field or _infer_field(coeffs)
        if field not in _ZEROS:
            raise ValueError(f"unknown field tag {field!r}")
        self.field = field
        self.coeffs = tuple(_coerce(c, field) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")
        self.order = len(self.coeffs) - 1

    @staticmethod
    def zero(order: int, field: str = FIELD_RATIONAL) -> "TruncatedSeries":
        return TruncatedSeries([_ZEROS[field]] * (order + 1), field)

    @staticmethod
    def geometric(order: int, field: str = FIELD_RATIONAL) -> "TruncatedSeries":
        return TruncatedSeries([_ONES[field]] * (order + 1), field)

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries[{self.field}; N={self.order}]({head}{tail})"

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], self.field)

    def pad(self, order: int) -> "TruncatedSeries":
        """Extend with zero coefficients up to ``order``; the inverse of truncate."""
        if order <= self.order:
            return self
        return TruncatedSeries(self.coeffs + (_ZEROS[self.field],) * (order - self.order), self.field)

    def _require_same_field(self, other: "TruncatedSeries") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_field(other)
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], self.field
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.field)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)


def hadamard(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise product: coefficient n of the result is A_n * B_n."""
    f._require_same_field(g)
    n = min(f.order, g.order)
    return TruncatedSeries([f.coeffs[i] * g.coeffs[i] for i in range(n + 1)], f.field)


def ene_exp(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Weighted coefficientwise product: coefficient n is -n * A_n * B_n."""
    f._require_same_field(g)
    n = min(f.order, g.order)
    out = [_ZEROS[f.field]]
    for i in range(1, n + 1):
        out.append(_coerce(-i, f.field) * f.coeffs[i] * g.coeffs[i])
    return TruncatedSeries(out, f.field)


def koebe(order: int, field: str = FIELD_RATIONAL) -> TruncatedSeries:
    """Expansion of z/(1-z)^2: coefficients 0, 1, 2, 3, ..."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries([_coerce(n, field) for n in range(order + 1)], field)


def exp_series(f: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, by the F'*e = e' recurrence."""
    if f.coeffs[0] != _ZEROS[f.field]:
        raise BadConstantTerm("exp_series requires c_0 = 0")
    if f.field == FIELD_RATIONAL:
        return TruncatedSeries(_exp_rational(f.coeffs), FIELD_RATIONAL)
    return _exp_generic(f)


def log_series(f: TruncatedSeries) -> TruncatedSeries:
    """log of a series with unit constant term; inverse of exp_series."""
    if f.coeffs[0] != _ONES[f.field]:
        raise BadConstantTerm("log_series requires c_0 = 1")
    if f.field == FIELD_RATIONAL:
        return TruncatedSeries(_log_rational(f.coeffs), FIELD_RATIONAL)
    return _log_generic(f)


def ene(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative product with unit constant terms; multiplies root sets."""
    f._require_same_field(g)
    return exp_series(ene_exp(log_series(f), log_series(g)))


def poly_from_roots(roots: Sequence, order: int, field: str | None = None) -> TruncatedSeries:
    """Truncation of prod_j (1 - z / root_j); all roots must be nonzero."""
    coerced = []
    for r in roots:
        if isinstance(r, GaussianRational):
            if not r:
                raise ZeroRoot("roots must be nonzero")
        elif r == 0:
            raise ZeroRoot("roots must be nonzero")
        coerced.append(r)
    if field is None:
        field = FIELD_COMPLEX if any(isinstance(r, (complex, float)) for r in coerced) else FIELD_RATIONAL
    if field == FIELD_RATIONAL:
        return TruncatedSeries(_poly_from_roots_rational(coerced, order), FIELD_RATIONAL)
    return _poly_from_roots_generic(coerced, order, field)


# --- kernels ---------------------------------------------------------------------------
#
# The generic kernels run the recurrences in the field's own arithmetic and serve
# the complex and ExactCoeff fields.  Over the rationals the same recurrences run on
# Python integers over a common denominator, and one Fraction is built per output
# coefficient; the results are equal (==) to the generic ones.


def _exp_generic(f: TruncatedSeries) -> TruncatedSeries:
    zero = _ZEROS[f.field]
    n = f.order
    out = [_ONES[f.field]] + [zero] * n
    for m in range(1, n + 1):
        acc = zero
        for k in range(1, m + 1):
            acc = acc + _coerce(k, f.field) * f.coeffs[k] * out[m - k]
        out[m] = _coerce(Fraction(1, m), f.field) * acc
    return TruncatedSeries(out, f.field)


def _log_generic(f: TruncatedSeries) -> TruncatedSeries:
    n = f.order
    zero = _ZEROS[f.field]
    out = [zero] * (n + 1)
    for m in range(1, n + 1):
        acc = zero
        for k in range(1, m):
            acc = acc + _coerce(k, f.field) * out[k] * f.coeffs[m - k]
        out[m] = f.coeffs[m] - _coerce(Fraction(1, m), f.field) * acc
    return TruncatedSeries(out, f.field)


def _poly_from_roots_generic(roots: Sequence, order: int, field: str) -> TruncatedSeries:
    out = [_ONES[field]] + [_ZEROS[field]] * order
    for degree, r in enumerate(roots, 1):
        if field == FIELD_COMPLEX:
            slope = -1.0 / complex(r)
        elif isinstance(r, GaussianRational):  # exactly, in the exact field
            slope = _coerce(GaussianRational(-1) / r, field)
        else:
            slope = _coerce(-1 / Fraction(r), field)
        for i in range(min(degree, order), 0, -1):
            # summed in the order of the schoolbook product by (1 + slope z)
            out[i] = out[i - 1] * slope + out[i]
    return TruncatedSeries(out, field)


def _step(terms: Sequence[tuple[int, int, int]], nums: list[int], dens: list[int], m: int,
          num: int, common: int) -> Fraction:
    """(num/common + sum_{j<=m} t_j * nums[m-j]/dens[m-j]) / m, reduced once.

    The terms are (j, numerator of t_j, denominator of t_j), sorted by j.  The sum
    runs on integers over a common denominator that grows term by term.  It builds
    no list of terms: freeing one such list per step left the process's resident
    memory about 3 KB larger per exp_series call of order 64.
    """
    for j, tn, td in terms:
        if j > m:
            break
        e = nums[m - j]
        if e:
            d = td * dens[m - j]
            scale = d // math.gcd(common, d)
            if scale != 1:
                num *= scale
                common *= scale
            num += tn * e * (common // d)
    return Fraction(num, m * common)


def _exp_rational(a: Sequence[Fraction]) -> list[Fraction]:
    """m E_m = sum_{k>=1} (k a_k) E_{m-k}."""
    terms = [(k, k * c.numerator, c.denominator) for k, c in enumerate(a) if k and c]
    out, nums, dens = [Fraction(1)], [1], [1]
    for m in range(1, len(a)):
        value = _step(terms, nums, dens, m, 0, 1)
        out.append(value)
        nums.append(value.numerator)
        dens.append(value.denominator)
    return out


def _log_rational(a: Sequence[Fraction]) -> list[Fraction]:
    """m L_m = m a_m - sum_{0<k<m} (k L_k) a_{m-k}."""
    terms = [(j, c.numerator, c.denominator) for j, c in enumerate(a) if j and c]
    out, nums, dens = [Fraction(0)], [0], [1]   # nums[k] / dens[k] = -k L_k
    for m in range(1, len(a)):
        value = _step(terms, nums, dens, m, m * a[m].numerator, a[m].denominator)
        out.append(value)
        nums.append(-m * value.numerator)
        dens.append(value.denominator)
    return out


def _poly_from_roots_rational(roots: Sequence, order: int) -> list[Fraction]:
    """Multiply by each 1 - (q/p) z in place: c_i <- p c_i - q c_{i-1} over D <- p D."""
    c = [1] + [0] * order
    common = 1
    for degree, r in enumerate(roots, 1):
        r = Fraction(r)
        p, q = r.numerator, r.denominator
        for i in range(min(degree, order), 0, -1):
            c[i] = p * c[i] - q * c[i - 1]
        c[0] *= p
        common *= p
    return [Fraction(x, common) for x in c]


def polylog_series(k: int, order: int) -> TruncatedSeries:
    """Coefficients n^(-k): the weight-k polylogarithm truncation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = [Fraction(0)] + [Fraction(1, n ** k) for n in range(1, order + 1)]
    return TruncatedSeries(coeffs, FIELD_RATIONAL)


def eval_series(f: TruncatedSeries, z: complex) -> complex:
    """Horner-evaluated partial sum at a numeric point."""
    acc = 0j
    for c in reversed(f.coeffs):
        value = c.eval() if isinstance(c, ExactCoeff) else complex(c)
        acc = acc * z + value
    return acc
