"""Truncated formal power series and the two coefficientwise products.

A series is a coefficient list c_0..c_N over one of three coefficient fields:
exact rationals (Fraction), complex doubles, or ExactCoeff.  Products truncate
to the minimum operand order, which is the only computable finite presentation
of the formal identities.

Representation, chosen so that the rational products run on machine integers:
a rational series stores two parallel tuples of ints, ``nums`` and ``dens``,
and coefficient n is ``nums[n] / dens[n]`` in lowest terms with
``dens[n] > 0``, so equal series have equal tuples.  Each operation forms the
unreduced pairs with C-level ``map`` and ends with one ``math.gcd`` per
coefficient, as ``coeffs.GaussianRational`` does.  Every coefficient keeps its
own denominator: over one common denominator the numerators of
``hadamard(Li_2, Li_3)`` at order 10,000 grow to 72k bits.  ``coeffs`` is a
``Fraction`` view of the pairs, built when it is first read and then kept;
equality, the products and the recurrences never build it.  The complex and
exact fields store ``coeffs`` itself and leave ``nums`` and ``dens`` as None.

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
from itertools import count
from operator import add, floordiv, mul, neg
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
    if field == FIELD_RATIONAL:  # an int or a Fraction: both carry a reduced numerator and denominator
        return value if type(value) is int or type(value) is Fraction else Fraction(value)
    if field == FIELD_COMPLEX:
        return complex(value)
    return as_exact(value)


class TruncatedSeries:
    """Power series truncated at an explicit order N (inclusive)."""

    __slots__ = ("order", "field", "nums", "dens", "_coeffs")

    def __init__(self, coeffs: Sequence, field: str | None = None):
        field = field or _infer_field(coeffs)
        if field not in _ZEROS:
            raise ValueError(f"unknown field tag {field!r}")
        if field == FIELD_RATIONAL:
            values = [_coerce(c, field) for c in coeffs]
            self._fill(field, None, tuple([c.numerator for c in values]), tuple([c.denominator for c in values]))
        else:
            self._fill(field, tuple([_coerce(c, field) for c in coeffs]))
        if self.order < 0:
            raise ValueError("a series needs at least the constant term")

    def _fill(self, field: str, coeffs: tuple | None, nums: tuple | None = None,
              dens: tuple | None = None) -> "TruncatedSeries":
        self.field = field
        self._coeffs = coeffs
        self.nums = nums
        self.dens = dens
        self.order = len(coeffs if nums is None else nums) - 1
        return self

    @classmethod
    def _wrap(cls, coeffs: Sequence, field: str) -> "TruncatedSeries":
        """A complex or exact series around coefficients that are already in ``field``.

        Callers pass sequences, not iterators: a tuple built from an iterator is
        resized to its length, and CPython's per-length tuple free lists then
        hold on to up to 2,000 freed tuples of each resized length.
        """
        return object.__new__(cls)._fill(field, tuple(coeffs))

    @classmethod
    def _from_pairs(cls, nums: Sequence[int], dens: Sequence[int]) -> "TruncatedSeries":
        """A rational series around reduced pairs with positive denominators.

        Callers pass sequences, not iterators: a tuple built from an iterator is
        resized to its length, and CPython's per-length tuple free lists then
        hold on to up to 2,000 freed tuples of each resized length.
        """
        return object.__new__(cls)._fill(FIELD_RATIONAL, None, tuple(nums), tuple(dens))

    @property
    def coeffs(self) -> tuple:
        """c_0..c_N; over the rationals a Fraction view of the pairs, built on first read."""
        if self._coeffs is None:
            self._coeffs = tuple(list(map(Fraction, self.nums, self.dens)))  # from a list: see _wrap
        return self._coeffs

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries([0] * (order + 1))

    @staticmethod
    def geometric(order: int) -> "TruncatedSeries":
        return TruncatedSeries([1] * (order + 1))

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.field != other.field:
            return False
        if self.field == FIELD_RATIONAL:
            return self.nums == other.nums and self.dens == other.dens
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries[{self.field}; N={self.order}]({head}{tail})"

    def truncate(self, order: int) -> "TruncatedSeries":
        _check_order(order)
        if order >= self.order:
            return self
        if self.field == FIELD_RATIONAL:
            return TruncatedSeries._from_pairs(self.nums[: order + 1], self.dens[: order + 1])
        return TruncatedSeries._wrap(self.coeffs[: order + 1], self.field)

    def pad(self, order: int) -> "TruncatedSeries":
        """Extend with zero coefficients up to ``order``; the inverse of truncate."""
        _check_order(order)
        extra = order - self.order
        if extra <= 0:
            return self
        if self.field == FIELD_RATIONAL:
            return TruncatedSeries._from_pairs(self.nums + (0,) * extra, self.dens + (1,) * extra)
        return TruncatedSeries._wrap(self.coeffs + (_ZEROS[self.field],) * extra, self.field)

    def _require_same_field(self, other: "TruncatedSeries") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_field(other)
        if self.field == FIELD_RATIONAL:
            a, b, c, d = self.nums, self.dens, other.nums, other.dens
            return _reduced(map(add, map(mul, a, d), map(mul, c, b)), map(mul, b, d))
        return TruncatedSeries._wrap(list(map(add, self.coeffs, other.coeffs)), self.field)

    def __neg__(self) -> "TruncatedSeries":
        if self.field == FIELD_RATIONAL:
            return TruncatedSeries._from_pairs(list(map(neg, self.nums)), self.dens)
        return TruncatedSeries._wrap(list(map(neg, self.coeffs)), self.field)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)


def _reduced(nums: Iterable[int], dens: Iterable[int]) -> TruncatedSeries:
    """The rational series of unreduced pairs (dens > 0), with one gcd per coefficient."""
    nums, dens = list(nums), list(dens)
    g = list(map(math.gcd, nums, dens))
    return TruncatedSeries._from_pairs(list(map(floordiv, nums, g)), list(map(floordiv, dens, g)))


def hadamard(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise product: coefficient n of the result is A_n * B_n."""
    f._require_same_field(g)
    if f.field == FIELD_RATIONAL:
        return _reduced(map(mul, f.nums, g.nums), map(mul, f.dens, g.dens))
    return TruncatedSeries._wrap(list(map(mul, f.coeffs, g.coeffs)), f.field)


def ene_exp(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Weighted coefficientwise product: coefficient n is -n * A_n * B_n."""
    f._require_same_field(g)
    if f.field == FIELD_RATIONAL:
        return _reduced(map(mul, count(0, -1), map(mul, f.nums, g.nums)), map(mul, f.dens, g.dens))
    out = [_ZEROS[f.field]]
    for i in range(1, min(f.order, g.order) + 1):
        out.append(_coerce(-i, f.field) * f.coeffs[i] * g.coeffs[i])
    return TruncatedSeries._wrap(out, f.field)


def koebe(order: int) -> TruncatedSeries:
    """Expansion of z/(1-z)^2: coefficients 0, 1, 2, 3, ..."""
    _check_order(order)
    return TruncatedSeries._from_pairs(range(order + 1), (1,) * (order + 1))


def _constant_is(f: TruncatedSeries, value: int) -> bool:
    if f.field == FIELD_RATIONAL:
        return f.nums[0] == value and f.dens[0] == 1
    return f.coeffs[0] == _coerce(value, f.field)


def exp_series(f: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, by the F'*e = e' recurrence."""
    if not _constant_is(f, 0):
        raise BadConstantTerm("exp_series requires c_0 = 0")
    if f.field == FIELD_RATIONAL:
        return _rational_recurrence(list(map(mul, range(f.order + 1), f.nums)), f.dens, False)
    return _exp_generic(f)


def log_series(f: TruncatedSeries) -> TruncatedSeries:
    """log of a series with unit constant term; inverse of exp_series."""
    if not _constant_is(f, 1):
        raise BadConstantTerm("log_series requires c_0 = 1")
    if f.field == FIELD_RATIONAL:
        return _rational_recurrence(f.nums, f.dens, True)
    return _log_generic(f)


def _degree(f: TruncatedSeries, n: int) -> int:
    """Index of the last nonzero coefficient among c_0..c_n (0 if none)."""
    c = f.nums if f.field == FIELD_RATIONAL else f.coeffs
    while n and not c[n]:
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
        return _poly_from_roots_rational(coerced, order)
    return _poly_from_roots_generic(coerced, order, field)


# --- kernels ---------------------------------------------------------------------------
#
# The generic kernels run the recurrences in the field's own arithmetic and serve
# the complex and ExactCoeff fields.  Over the rationals, exp and log share one
# recurrence on Python integers (_rational_recurrence): the fixed operand sits over
# one common denominator, the running values over another, and only as many of
# them are kept as the operand has terms.  Each step is one C-level dot product and
# one gcd that reduces the new coefficient to its pair, plus one gcd that decides
# whether the running denominator grows; no gcd is taken per term.  The common
# denominators live inside one recurrence; what it returns is per-coefficient
# pairs.  The results are equal (==) to the generic ones.


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


def _rational_recurrence(nums: Sequence[int], dens: Sequence[int], log: bool) -> TruncatedSeries:
    """x_0..x_N from m x_m = h_m + sum_{j>=1} b_j v_{m-j}, with b_j = nums[j] / dens[j].

    exp (b_j = j a_j):  x_0 = v_0 = 1, h_m = 0, v_m = x_m = E_m.
    log (b_j = a_j):    x_0 = v_0 = 0, h_m = m a_m, v_m = -m x_m = -m L_m.

    The pairs of b need not be reduced (exp passes j times a_j's pair).  The
    fixed operand is B_j / D over one common denominator D, set once and reduced
    by one gcd(D, *B).  The running values are V_i / Q over one running
    denominator Q, in a window that holds the newest K of them, newest first, K
    being the last index with b_K != 0 (at least 1).  Each x_m is reduced to its
    pair (n, q) by one gcd.  When q does not divide w Q (w = 1 for exp, -m for
    log), Q grows and the window is rescaled in place, after the value that
    leaves it has been dropped.  Returns the series of the pairs of x.
    """
    K = len(nums) - 1
    while K > 1 and not nums[K]:
        K -= 1
    D = math.lcm(*dens[1:K + 1])
    B = [n * (D // d) for n, d in zip(nums[1:K + 1], dens[1:K + 1])]
    g = math.gcd(D, *B)
    D //= g
    B = [v // g for v in B]
    Q, DQ = 1, D
    window = [] if log else [1]
    out_nums, out_dens = [0 if log else 1], [1]
    for m in range(1, len(nums)):
        num = sum(map(mul, B, window))
        if log and m <= K:
            num += m * B[m - 1] * Q
        den = m * DQ
        g = math.gcd(num, den)
        n, q = num // g, den // g
        out_nums.append(n)
        out_dens.append(q)
        del window[K - 1:]
        wQ = -m * Q if log else Q
        g = math.gcd(wQ, q)
        if g != q:
            grow = q // g
            Q *= grow
            DQ *= grow
            for i, v in enumerate(window):
                window[i] = v * grow
        window.insert(0, n * (wQ // g))
    return TruncatedSeries._from_pairs(out_nums, out_dens)


def _poly_from_roots_rational(roots: Sequence, order: int) -> TruncatedSeries:
    """Multiply by each 1 - (q/p) z in place, p > 0: c_i <- p c_i - q c_{i-1} over
    common <- p common; each c_i / common is reduced once at the end."""
    c = [1] + [0] * order
    common = 1
    for degree, r in enumerate(roots, 1):
        r = _coerce(r, FIELD_RATIONAL)
        p, q = r.numerator, r.denominator
        if p < 0:
            p, q = -p, -q
        for i in range(min(degree, order), 0, -1):
            c[i] = p * c[i] - q * c[i - 1]
        c[0] *= p
        common *= p
    return _reduced(c, (common,) * (order + 1))


def polylog_series(k: int, order: int) -> TruncatedSeries:
    """Coefficients n^(-k): the weight-k polylogarithm truncation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_order(order)
    return TruncatedSeries._from_pairs((0,) + (1,) * order, [1] + [n ** k for n in range(1, order + 1)])


def eval_series(f: TruncatedSeries, z: complex) -> complex:
    """Horner-evaluated partial sum at a numeric point."""
    acc = 0j
    for c in reversed(f.coeffs):
        value = c.eval() if isinstance(c, ExactCoeff) else complex(c)
        acc = acc * z + value
    return acc
