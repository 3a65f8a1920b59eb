"""Exact constants field: arithmetic, normalization, numeric bridge."""

import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hadene.coeffs import (
    EC_ONE,
    MAX_EXPONENT,
    ConstantSymbol,
    ExactCoeff,
    GaussianRational,
    NotAUnit,
    _make_monomial,
    _symbolic,
    log_symbol,
    loc_symbol,
    parse_gaussian_rational,
    parse_symbol,
    two_pi_i_symbol,
)
from hadene.documents import exact_coeff_from_doc


def rational(p, q=1):
    return ExactCoeff.from_rational(Fraction(p, q))


def random_exact(rng, max_terms=3):
    symbols = [two_pi_i_symbol(), log_symbol(2), log_symbol(3), loc_symbol(5)]
    terms = ExactCoeff.zero()
    for _ in range(rng.randint(0, max_terms)):
        powers = {}
        for sym in rng.sample(symbols, rng.randint(0, 2)):
            powers[sym] = rng.randint(-2, 2)
        coeff = GaussianRational.of(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        )
        terms = terms + ExactCoeff.monomial(powers, coeff)
    return terms


def test_additive_inverse_cancels():
    assert (rational(1) + rational(-1)).is_zero()


def test_like_terms_collect():
    t = ExactCoeff.two_pi_i()
    assert t + t == ExactCoeff.two_pi_i(coeff=GaussianRational.of(2))


def test_rational_coefficient_addition():
    a = ExactCoeff.monomial({log_symbol(2): 1}, Fraction(1, 2))
    b = ExactCoeff.monomial({log_symbol(2): 1}, Fraction(1, 3))
    assert a + b == ExactCoeff.monomial({log_symbol(2): 1}, Fraction(5, 6))


def test_unit_times_inverse_is_one():
    a = ExactCoeff.two_pi_i(1)
    b = ExactCoeff.two_pi_i(-1)
    assert a * b == EC_ONE


def test_free_multiplication_of_logs():
    prod = ExactCoeff.monomial({log_symbol(2): 1}) * ExactCoeff.monomial({log_symbol(3): 1})
    assert prod == ExactCoeff.monomial({log_symbol(2): 1, log_symbol(3): 1})


def test_gaussian_i_squared():
    i = ExactCoeff.from_gaussian(GaussianRational.of(0, 1))
    assert i * i == rational(-1)


def test_invert_monomial_scales_and_flips_exponent():
    a = ExactCoeff.two_pi_i(1, coeff=GaussianRational.of(2))
    inv = a.invert_monomial()
    assert inv == ExactCoeff.two_pi_i(-1, coeff=GaussianRational.of(Fraction(1, 2)))
    assert a * inv == EC_ONE


def test_invert_zero_raises():
    with pytest.raises(NotAUnit):
        ExactCoeff.zero().invert_monomial()


def test_invert_sum_raises():
    with pytest.raises(NotAUnit):
        (ExactCoeff.monomial({log_symbol(2): 1}) + EC_ONE).invert_monomial()


def test_eval_two_pi_i_default():
    value = ExactCoeff.two_pi_i().eval()
    assert abs(value - 2j * math.pi) < 1e-15


def test_eval_log2_matches_series_oracle():
    # independent check of the principal log: log 2 = -log(1 - 1/2) = sum (1/2)^n / n
    series = sum((0.5 ** n) / n for n in range(1, 60))
    value = ExactCoeff.monomial({log_symbol(2): 1}).eval()
    assert abs(series - 0.6931471805599453) < 1e-15
    assert abs(value - series) < 1e-12


def test_eval_is_ring_homomorphism():
    rng = random.Random(20240811)
    for _ in range(1000):
        a = random_exact(rng)
        b = random_exact(rng)
        lhs = (a * b).eval()
        rhs = a.eval() * b.eval()
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_commutative_ring_axioms_on_random_values():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (random_exact(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ExactCoeff.zero() == a
        assert a * EC_ONE == a


def test_normalization_is_canonical():
    rng = random.Random(99)
    for _ in range(300):
        a = random_exact(rng)
        assert (a - a).terms == {}


def test_gaussian_rational_parsing_round_trip():
    for text in ["3/2", "-1", "1/2+3/4i", "2-i", "i", "-i", "0", "5i", "-2/7i"]:
        g = parse_gaussian_rational(text)
        assert parse_gaussian_rational(str(g)) == g


def test_symbol_keys_round_trip():
    for sym in [two_pi_i_symbol(), log_symbol(Fraction(3, 2)), loc_symbol(-2)]:
        assert parse_symbol(sym.key) == sym


def test_power_of_exact_coeff():
    a = ExactCoeff.two_pi_i()
    assert a ** 3 == ExactCoeff.two_pi_i(3)
    assert a ** 0 == EC_ONE
    assert a ** -2 == ExactCoeff.two_pi_i(-2)


# --- the integer representation -------------------------------------------------------

F0, F1 = Fraction(0), Fraction(1)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def ref_pow(x, k):
    out = (F1, F0)
    for _ in range(abs(k)):
        out = ref_mul(out, x)
    return out if k >= 0 else ref_div((F1, F0), out)


def assert_normal_form(g):
    a, b, d = g._a, g._b, g._d  # the private triple (a + b i) / d
    assert d > 0 and math.gcd(a, b, d) == 1


def test_gaussian_rational_arithmetic_matches_a_fraction_reference():
    rng = random.Random(4)

    def draw():
        # few denominators, so that sums over equal denominators are common
        re = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 35)))
        im = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 35))) if rng.random() < 0.7 else 0
        return GaussianRational.of(re, im)

    for _ in range(1000):
        x, y = draw(), draw()
        X, Y = (x.re, x.im), (y.re, y.im)
        k = rng.randint(-4, 4)
        cases = [
            (x + y, (X[0] + Y[0], X[1] + Y[1])),
            (x - y, (X[0] - Y[0], X[1] - Y[1])),
            (-x, (-X[0], -X[1])),
            (x * y, ref_mul(X, Y)),
        ]
        if y:
            cases.append((x / y, ref_div(X, Y)))
        if x or k >= 0:
            cases.append((x ** k, ref_pow(X, k)))
        for got, (re, im) in cases:
            assert (got.re, got.im) == (re, im)
            assert_normal_form(got)
            expected = GaussianRational.of(re, im)
            assert got == expected and hash(got) == hash(expected)
            assert complex(got) == complex(float(re), float(im))
            assert parse_gaussian_rational(str(got)) == got


def test_gaussian_rational_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational.of(1, 1) / GaussianRational.of(0)


def test_equal_gaussian_rationals_hash_equal():
    half = GaussianRational.of(Fraction(1, 2))
    same = [GaussianRational.of(Fraction(2, 4)), GaussianRational.of("3/6"),
            GaussianRational.of(1, 1) * GaussianRational.of(1, -1) / GaussianRational.of(4),
            GaussianRational.of(Fraction(1, 3), Fraction(1, 5)) - GaussianRational.of(Fraction(-1, 6), Fraction(1, 5))]
    for value in same:
        assert value == half and hash(value) == hash(half)
        assert_normal_form(value)
    assert {half: "x"}[same[-1]] == "x"
    assert GaussianRational.of(0, 0) == GaussianRational() and not GaussianRational.of(Fraction(0, 7))


def test_symbols_are_interned():
    assert parse_symbol("log(2)") is log_symbol(2)
    assert log_symbol(Fraction(4, 2)) is log_symbol(GaussianRational.of(2))
    assert ConstantSymbol("loc", 3) is loc_symbol(3) is parse_symbol("loc(3)")
    assert parse_symbol("2pii") is two_pi_i_symbol()
    assert log_symbol(2) is not loc_symbol(2) and log_symbol(2).id != loc_symbol(2).id
    sym = log_symbol(Fraction(-3, 2))
    assert copy.deepcopy(sym) is sym and pickle.loads(pickle.dumps(sym)) is sym
    with pytest.raises(AttributeError):
        sym.id = 0


_OPPOSITE_ORDERS = """
import json, sys
from fractions import Fraction
from hadene.coeffs import ExactCoeff, GaussianRational, log_symbol, loc_symbol, parse_symbol
from hadene.documents import exact_coeff_to_doc
makers = [lambda: log_symbol(Fraction(7, 3)), lambda: loc_symbol(-5), lambda: parse_symbol("log(1/2+1i)")]
for make in makers[::int(sys.argv[1])]:
    make()
a, b, c = (make() for make in makers)
x = (ExactCoeff.monomial({a: 1, b: -2}, GaussianRational.of(1, 2))
     + ExactCoeff.monomial({c: 1, a: 1}, 3) + ExactCoeff.two_pi_i(-1, Fraction(5, 4)))
y = ExactCoeff.monomial({b: 1, c: 2}, GaussianRational.of(0, -1)) + ExactCoeff.monomial({a: -1, b: 2})
product = x * y
print(json.dumps([exact_coeff_to_doc(product), repr(product), [s.id for s in (a, b, c)]]))
"""


def test_products_do_not_depend_on_the_order_symbols_were_interned():
    # ids number symbols in the order a process first meets them, so run each
    # order in a fresh interpreter
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    runs = [json.loads(subprocess.run([sys.executable, "-c", _OPPOSITE_ORDERS, step], env=env, check=True,
                                      capture_output=True, text=True).stdout) for step in ("1", "-1")]
    (doc1, repr1, ids1), (doc2, repr2, ids2) = runs
    assert ids1 != ids2 and sorted(ids1) == sorted(ids2)
    assert json.dumps(doc1) == json.dumps(doc2) and repr1 == repr2
    assert exact_coeff_from_doc(doc1) == exact_coeff_from_doc(doc2)


# --- packed monomials against a dict-of-exponents reference ----------------------------


def ref_monomial(powers):
    """A monomial as the reference sees it: the set of its (symbol, nonzero exponent) pairs."""
    return frozenset((sym, e) for sym, e in powers.items() if e)


def ref_terms(value):
    """{reference monomial: coefficient} of an ExactCoeff, read through sorted_terms."""
    return {frozenset(mono): coeff for mono, coeff in value.sorted_terms()}


def ref_product(x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            powers = dict(m1)
            for sym, e in m2:
                powers[sym] = powers.get(sym, 0) + e
            key = ref_monomial(powers)
            out[key] = out.get(key, GaussianRational()) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_packed_monomials_match_a_dict_of_exponents_reference():
    # symbols with ids past 64 put fields in several machine words
    many = [log_symbol(Fraction(n, 97)) for n in range(1, 81)] + [loc_symbol(Fraction(n, 89)) for n in range(1, 11)]
    high = [sym for sym in many if sym.id >= 64]
    assert high
    pool = [two_pi_i_symbol(), log_symbol(2), loc_symbol(3)] + many[:3] + high
    rng = random.Random(24)

    def exponent():
        return rng.choice((MAX_EXPONENT, -MAX_EXPONENT, rng.randint(-3, 3), rng.randint(-MAX_EXPONENT, MAX_EXPONENT)))

    def draw_powers():
        return {sym: exponent() for sym in rng.sample(pool, rng.randint(0, 4))}

    def draw_coeff():
        return GaussianRational.of(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)), rng.randint(-2, 2))

    for _ in range(300):
        p1, p2 = draw_powers(), draw_powers()
        c1, c2 = draw_coeff(), draw_coeff()
        r1, r2 = ref_monomial(p1), ref_monomial(p2)
        x, y = ExactCoeff.monomial(p1, c1), ExactCoeff.monomial(p2, c2)
        # decoding: _symbolic and sorted_terms order by symbol key, symbols() reads the fields
        assert set(_symbolic(_make_monomial(p1))) == r1
        assert [sym.key for sym, _ in _symbolic(_make_monomial(p1))] == sorted(sym.key for sym, _ in r1)
        assert ref_terms(x) == {r1: c1}
        assert x.symbols() == {sym for sym, _ in r1}
        # == and hash: the same monomial built in the opposite order, or built twice
        again = ExactCoeff.monomial(dict(reversed(list(p1.items()))), c1)
        assert again == x and hash(again) == hash(x)
        assert (x == ExactCoeff.monomial(p2, c1)) == (r1 == r2)
        # products and inverses
        assert ref_terms(x * y) == ref_product({r1: c1}, {r2: c2})
        inverse = x.invert_monomial()
        assert ref_terms(inverse) == {frozenset((sym, -e) for sym, e in r1): GaussianRational.of(1) / c1}
        assert x * inverse == EC_ONE
        # sums of monomials: their product goes through the unreduced accumulator
        xs = [ExactCoeff.monomial(draw_powers(), draw_coeff()) for _ in range(3)]
        ys = [ExactCoeff.monomial(draw_powers(), draw_coeff()) for _ in range(2)]
        sx, sy = xs[0] + xs[1] + xs[2], ys[0] + ys[1]
        assert ref_terms(sx * sy) == ref_product(ref_terms(sx), ref_terms(sy))
        assert (sx * sy).symbols() == {sym for mono in ref_product(ref_terms(sx), ref_terms(sy)) for sym, _ in mono}


def test_exponents_past_the_bound_are_refused():
    sym = log_symbol(Fraction(5, 7))
    at_bound = ExactCoeff.monomial({sym: MAX_EXPONENT})
    assert at_bound ** 1 == at_bound and at_bound ** -1 == ExactCoeff.monomial({sym: -MAX_EXPONENT})
    half = ExactCoeff.monomial({sym: MAX_EXPONENT // 2}) + EC_ONE
    assert ref_terms(half ** 2)[frozenset({(sym, MAX_EXPONENT)})] == GaussianRational.of(1)
    for make in (lambda: ExactCoeff.monomial({sym: MAX_EXPONENT + 1}),
                 lambda: ExactCoeff.monomial({sym: -MAX_EXPONENT - 1}),
                 lambda: at_bound ** 2,
                 lambda: at_bound ** -2,
                 lambda: half ** 3):
        with pytest.raises(ValueError, match="exceeds 2\\*\\*20 in magnitude"):
            make()


def test_a_product_past_the_field_range_is_refused():
    # 43 squarings would carry the 2pii field past its signed 64 bits into the
    # log(2) field, printing 2pii^-9223372036854775808*log(2)^8796093022209; the
    # product refuses the exponent 2**62 at the 42nd, and names the symbol
    x = ExactCoeff.two_pi_i(MAX_EXPONENT) * ExactCoeff.monomial({log_symbol(2): 1})
    with pytest.raises(ValueError, match=r"exponent 4611686018427387904 of 2pii in a product leaves"):
        for _ in range(43):
            x = x * x
    # within the range, products past the entry bound stay exact
    assert repr(x) == f"(1)*2pii^{2 ** 61}*log(2)^{2 ** 41}"
    assert x * x.invert_monomial() == EC_ONE
