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
So the eñe product of polynomials of degrees d and e is a polynomial of degree
at most d * e, and ``ene`` runs its recurrences only to min(N, d * e), d and e
being the indices of the operands' last nonzero coefficients up to N.  This is
exact: coefficient k of exp, log and ene_exp reads coefficients <= k alone, so
the coefficients up to d * e are those of the order-N run (bit for bit over the
complex doubles), and the rest are exact zeros.

Sign convention: ``koebe(N)`` is the expansion of z/(1-z)^2 with positive
coefficients n, and the product identity used throughout is

    ene_exp(F, G) = -hadamard(koebe, hadamard(F, G)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

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
        if isinstance(c, (ExactCoeff, GaussianRational)):
            return FIELD_EXACT
        if isinstance(c, (complex, float)):
            return FIELD_COMPLEX
    return FIELD_RATIONAL


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be >= 0")


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

    @classmethod
    def _wrap(cls, coeffs: Iterable, field: str) -> "TruncatedSeries":
        """A series around coefficients that are already in ``field``."""
        out = object.__new__(cls)
        out.field = field
        out.coeffs = tuple(coeffs)
        out.order = len(out.coeffs) - 1
        return out

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
        _check_order(order)
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], self.field)

    def pad(self, order: int) -> "TruncatedSeries":
        """Extend with zero coefficients up to ``order``; the inverse of truncate."""
        _check_order(order)
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
    return TruncatedSeries._wrap(map(mul, f.coeffs, g.coeffs), f.field)


def ene_exp(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Weighted coefficientwise product: coefficient n is -n * A_n * B_n."""
    f._require_same_field(g)
    if f.field == FIELD_RATIONAL:  # one Fraction per coefficient, not two products
        out = [Fraction(-n * a.numerator * b.numerator, a.denominator * b.denominator)
               for n, (a, b) in enumerate(zip(f.coeffs, g.coeffs))]
    else:
        out = [_ZEROS[f.field]]
        for i in range(1, min(f.order, g.order) + 1):
            out.append(_coerce(-i, f.field) * f.coeffs[i] * g.coeffs[i])
    return TruncatedSeries._wrap(out, f.field)


def koebe(order: int, field: str = FIELD_RATIONAL) -> TruncatedSeries:
    """Expansion of z/(1-z)^2: coefficients 0, 1, 2, 3, ..."""
    _check_order(order)
    return TruncatedSeries(range(order + 1), field)


def exp_series(f: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, by the F'*e = e' recurrence."""
    if f.coeffs[0] != _ZEROS[f.field]:
        raise BadConstantTerm("exp_series requires c_0 = 0")
    if f.field == FIELD_RATIONAL:
        ka = [Fraction(k * c.numerator, c.denominator) for k, c in enumerate(f.coeffs)]
        return TruncatedSeries._wrap(_rational_recurrence(ka, False), FIELD_RATIONAL)
    return _exp_generic(f)


def log_series(f: TruncatedSeries) -> TruncatedSeries:
    """log of a series with unit constant term; inverse of exp_series."""
    if f.coeffs[0] != _ONES[f.field]:
        raise BadConstantTerm("log_series requires c_0 = 1")
    if f.field == FIELD_RATIONAL:
        return TruncatedSeries._wrap(_rational_recurrence(f.coeffs, True), FIELD_RATIONAL)
    return _log_generic(f)


def _degree(f: TruncatedSeries, n: int) -> int:
    """Index of the last nonzero coefficient among c_0..c_n (0 if none)."""
    while n and not f.coeffs[n]:
        n -= 1
    return n


def ene(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative product with unit constant terms; multiplies root sets.

    The result has order N = min(f.order, g.order).  The product of
    polynomials of degrees d and e has degree at most d * e, so the recurrences
    run only to min(N, d * e) and the result is padded with zeros to N.  This
    is exact, since each recurrence computes coefficient k from coefficients
    <= k alone.
    """
    f._require_same_field(g)
    n = min(f.order, g.order)
    m = min(n, _degree(f, n) * _degree(g, n))
    return exp_series(ene_exp(log_series(f.truncate(m)), log_series(g.truncate(m)))).pad(n)


def poly_from_roots(roots: Sequence, order: int, field: str | None = None) -> TruncatedSeries:
    """Truncation of prod_j (1 - z / root_j); all roots must be nonzero."""
    _check_order(order)
    coerced = []
    for r in roots:
        if isinstance(r, GaussianRational):
            if not r:
                raise ZeroRoot("roots must be nonzero")
        elif r == 0:
            raise ZeroRoot("roots must be nonzero")
        coerced.append(r)
    field = field or _infer_field(coerced)
    if field == FIELD_RATIONAL:
        return TruncatedSeries(_poly_from_roots_rational(coerced, order), FIELD_RATIONAL)
    return _poly_from_roots_generic(coerced, order, field)


# --- kernels ---------------------------------------------------------------------------
#
# The generic kernels run the recurrences in the field's own arithmetic and serve
# the complex and ExactCoeff fields.  Over the rationals, exp and log share one
# recurrence on Python integers (_rational_recurrence): the fixed operand sits over
# one common denominator, the running values over another, and only as many of
# them are kept as the operand has terms.  Each step is one C-level dot product,
# one Fraction and one gcd that decides whether the running denominator grows; no
# gcd is taken per term.  The results are equal (==) to the generic ones.


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


def _rational_recurrence(b: Sequence[Fraction], log: bool) -> list[Fraction]:
    """x_0..x_N from m x_m = h_m + sum_{j>=1} b_j v_{m-j}.

    exp (b_j = j a_j):  x_0 = v_0 = 1, h_m = 0, v_m = x_m = E_m.
    log (b_j = a_j):    x_0 = v_0 = 0, h_m = m a_m, v_m = -m x_m = -m L_m.

    The fixed operand is B_j / D over one common denominator D, set once.  The
    running values are V_i / Q over one running denominator Q, in a window that
    holds the newest K of them, newest first, K being the last index with
    b_K != 0 (at least 1).  When a new value's denominator does not divide w Q (w = 1 for exp,
    -m for log), Q grows and the window is rescaled in place, after the value
    that leaves it has been dropped.
    """
    K = len(b) - 1
    while K > 1 and not b[K]:
        K -= 1
    D = math.lcm(*(c.denominator for c in b[1:K + 1]))
    B = [c.numerator * (D // c.denominator) for c in b[1:K + 1]]
    Q, DQ = 1, D
    window = [] if log else [1]
    out = [Fraction(0 if log else 1)]
    for m in range(1, len(b)):
        num = sum(map(mul, B, window))
        if log and m <= K:
            num += m * B[m - 1] * Q
        x = Fraction(num, m * DQ)
        out.append(x)
        del window[K - 1:]
        q, wQ = x.denominator, -m * Q if log else Q
        g = math.gcd(wQ, q)
        if g != q:
            grow = q // g
            Q *= grow
            DQ *= grow
            for i, v in enumerate(window):
                window[i] = v * grow
        window.insert(0, x.numerator * (wQ // g))
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
    _check_order(order)
    coeffs = [Fraction(0)] + [Fraction(1, n ** k) for n in range(1, order + 1)]
    return TruncatedSeries(coeffs, FIELD_RATIONAL)


def eval_series(f: TruncatedSeries, z: complex) -> complex:
    """Horner-evaluated partial sum at a numeric point."""
    acc = 0j
    for c in reversed(f.coeffs):
        value = c.eval() if isinstance(c, ExactCoeff) else complex(c)
        acc = acc * z + value
    return acc
