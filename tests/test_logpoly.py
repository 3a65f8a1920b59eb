"""Symbolic log-polynomial ring: operator algebra and exact integration."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hadene import logpoly
from hadene.coeffs import EC_ONE, GR_ONE, ExactCoeff, GaussianRational, log_symbol, two_pi_i_symbol
from hadene.logpoly import BranchPoint, LogLaurentPoly, ZeroArgument, integrate_u
from hadene.monodromy import FunctionSpec, Singularity, ene_monodromy_general, hadamard_monodromy_general
from reference_ring import (
    BiLogPoly,
    _add_at_z_over,
    antiderivative_u,
    from_poly_at_z_over_u,
    from_poly_in_u,
    reference_at_location,
    reference_at_z_over_location,
    reference_integrate_u,
)

TWO_PI_I = ExactCoeff.two_pi_i()


def gr(p, q=1):
    return GaussianRational.of(Fraction(p, q))


def random_poly(rng, zmin=-3, zmax=4, max_log=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(zmin, zmax), rng.randint(0, max_log))
        coeff = ExactCoeff.from_gaussian(
            GaussianRational.of(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        )
        if rng.random() < 0.3:
            coeff = coeff * TWO_PI_I
        terms[key] = terms.get(key, ExactCoeff.zero()) + coeff
    return LogLaurentPoly(terms)


# --- ring operations ----------------------------------------------------------


def test_log_squared_from_product():
    logz = LogLaurentPoly.log_z()
    assert logz * logz == LogLaurentPoly.term(0, 2)


def test_laurent_inverse_power_cancels():
    assert LogLaurentPoly.z() * LogLaurentPoly.term(-1, 0) == LogLaurentPoly.constant(1)


def test_distributivity_on_random_triples():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c


def integrate_from_one(terms):
    return integrate_u(terms, gr(1), gr(1))


@pytest.mark.parametrize("build, key", [(LogLaurentPoly, (0, -1)), (integrate_from_one, (0, -1, 0, 0)),
                                        (integrate_from_one, (0, 0, 0, -1))],
                         ids=["logpow", "ulogpow", "zlogpow"])
def test_negative_log_power_is_refused(build, key):
    with pytest.raises(ValueError, match="must be >= 0"):
        build({key: EC_ONE})


# --- derivative ----------------------------------------------------------------


def test_derivative_of_log_squared():
    p = LogLaurentPoly.term(0, 2)
    assert p.derivative() == LogLaurentPoly.term(-1, 1, 2)


def test_derivative_of_z():
    assert LogLaurentPoly.z().derivative() == LogLaurentPoly.constant(1)


def test_antiderivative_differentiates_back():
    rng = random.Random(12)
    for _ in range(20):
        k = rng.randint(-3, 3)
        l = rng.randint(0, 3)
        coeff = ExactCoeff.from_rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        mono = BiLogPoly({(k, l, rng.randint(0, 2), rng.randint(0, 1)): coeff})
        assert antiderivative_u(mono).derivative_u() == mono


# --- monodromy operator --------------------------------------------------------


def test_monodromy_of_log_is_the_period():
    assert LogLaurentPoly.log_z().monodromy_at_zero() == LogLaurentPoly.constant(TWO_PI_I)


def test_monodromy_of_single_valued_power_vanishes():
    for m in (-2, 0, 1, 5):
        assert LogLaurentPoly.term(m, 0).monodromy_at_zero().is_zero()


def test_monodromy_of_log_squared_binomial():
    # (log z + 2pii)^2 - (log z)^2 = 2*(2pii)*log z + (2pii)^2
    p = LogLaurentPoly.term(0, 2)
    expected = LogLaurentPoly({(0, 1): TWO_PI_I * 2, (0, 0): TWO_PI_I * TWO_PI_I})
    assert p.monodromy_at_zero() == expected


def test_sigma_shifts_log():
    p = LogLaurentPoly.log_z()
    assert p.sigma_power(1) == p + LogLaurentPoly.constant(TWO_PI_I)


def test_sigma_fixes_constants():
    c = LogLaurentPoly.constant(Fraction(7, 3))
    assert c.sigma_power(3) == c


def test_double_loop_two_ways():
    p = LogLaurentPoly.term(0, 2)
    d1 = p.monodromy_at_zero()
    d2 = d1.monodromy_at_zero()
    lhs = p.sigma_power(2) - p
    rhs = 2 * d1 + d2
    assert lhs == rhs


def test_winding_binomial_identity():
    rng = random.Random(13)
    for _ in range(200):
        p = random_poly(rng)
        deltas = [p]
        for _ in range(6):
            deltas.append(deltas[-1].monodromy_at_zero())
        for n in range(1, 7):
            lhs = p.sigma_power(n) - p
            rhs = LogLaurentPoly.zero()
            for k in range(1, n + 1):
                rhs = rhs + math.comb(n, k) * deltas[k]
            assert lhs == rhs


def test_leibniz_rule_for_monodromy():
    rng = random.Random(14)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        dp, dq = p.monodromy_at_zero(), q.monodromy_at_zero()
        assert (p * q).monodromy_at_zero() == dp * q + p * dq + dp * dq


def test_monodromy_commutes_with_derivation():
    rng = random.Random(15)
    for _ in range(100):
        p = random_poly(rng)
        assert p.derivative().monodromy_at_zero() == p.monodromy_at_zero().derivative()


# --- substitution z -> z/u -----------------------------------------------------


def test_substitute_log():
    bil = from_poly_at_z_over_u(LogLaurentPoly.log_z())
    assert bil == BiLogPoly({(0, 0, 0, 1): EC_ONE, (0, 1, 0, 0): -EC_ONE})


def test_substitute_z():
    bil = from_poly_at_z_over_u(LogLaurentPoly.z())
    assert bil == BiLogPoly({(-1, 0, 1, 0): EC_ONE})


def test_substitute_z_log_z():
    bil = from_poly_at_z_over_u(LogLaurentPoly.term(1, 1))
    assert bil == BiLogPoly({(-1, 0, 1, 1): EC_ONE, (-1, 1, 1, 0): -EC_ONE})


# --- definite integration -------------------------------------------------------


def test_integral_of_du_over_u_from_one_to_z():
    assert integrate_u({(-1, 0, 0, 0): EC_ONE}, gr(1), gr(1)) == LogLaurentPoly.log_z()


def test_elementary_antiderivative():
    a, b = Fraction(3, 2), Fraction(-2, 5)
    p = {(0, 0, 0, 0): ExactCoeff.from_rational(a * b)}
    expected = LogLaurentPoly({(1, 0): ExactCoeff.from_rational(a * b), (0, 0): ExactCoeff.from_rational(-a * b)})
    assert integrate_u(p, gr(1), gr(1)) == expected


def test_power_of_log_integral():
    for k in range(1, 6):
        assert integrate_u({(-1, k - 1, 0, 0): EC_ONE}, gr(1), gr(1)) == LogLaurentPoly.term(0, k, Fraction(1, k))


def test_integration_closure_of_symbols():
    # result coefficients stay inside the subring generated by the inputs,
    # the endpoints, their logs, and rationals
    rng = random.Random(16)
    allowed_extra = {log_symbol(2), log_symbol(3)}
    for _ in range(50):
        p = {
            (rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                ExactCoeff.from_rational(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
        }
        result = integrate_u(p, gr(2), gr(3))
        extra = {s for k, c in result.terms.items() for s in c.symbols()}
        assert extra <= allowed_extra


def test_integrate_u_matches_numeric_quadrature():
    # independent oracle: 200-node Gauss-Legendre along the straight segment
    # from alpha to z/beta with principal logs (the path stays in Re > 0)
    rng = random.Random(17)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    z = 1.3 + 0.7j
    alpha, beta = gr(1), gr(2)
    for _ in range(25):
        k = rng.randint(-3, 3)
        l = rng.randint(0, 3)
        zm = rng.randint(0, 2)
        zl = rng.randint(0, 1)
        coeff = Fraction(rng.randint(-4, 4) or 2, rng.randint(1, 3))
        symbolic = integrate_u({(k, l, zm, zl): ExactCoeff.from_rational(coeff)}, alpha, beta)
        expected = symbolic.lp_eval(BranchPoint(z))

        a = complex(alpha)
        b = z / complex(beta)
        mid, half = (a + b) / 2, (b - a) / 2
        total = 0j
        for t, w in zip(nodes, weights):
            u = mid + half * t
            total += w * (u ** k) * (cmath.log(u) ** l)
        total *= half * float(coeff) * (z ** zm) * (cmath.log(z) ** zl)
        assert abs(total - expected) < 1e-10 * (1 + abs(expected))


# --- numeric evaluation ---------------------------------------------------------


def test_lp_eval_log_at_e():
    value = LogLaurentPoly.log_z().lp_eval(BranchPoint(math.e, 0))
    assert abs(value - 1.0) < 1e-14


def test_lp_eval_log_on_next_sheet():
    value = LogLaurentPoly.log_z().lp_eval(BranchPoint(1.0, 1))
    assert abs(value - 2j * math.pi) < 1e-14


def test_lp_eval_polylog_monodromy_closed_form():
    p = LogLaurentPoly.term(0, 1, 1) * (-TWO_PI_I)
    value = p.lp_eval(BranchPoint(0.9, 0))
    assert abs(value - (-2j * math.pi) * math.log(0.9)) < 1e-12
    assert abs(value - 0.66200j) < 1e-4


def test_lp_eval_rejects_zero():
    with pytest.raises(ZeroArgument):
        LogLaurentPoly.log_z().lp_eval(BranchPoint(0.0, 0))


# --- deep log powers ---------------------------------------------------------------


def test_integrate_u_of_a_deep_log_power():
    l = 1500
    result = integrate_u({(0, l, 0, 0): EC_ONE}, gr(1), gr(1))
    assert result.max_logpow() == l
    assert result.derivative() == LogLaurentPoly.term(0, l)


@pytest.mark.parametrize("engine", [hadamard_monodromy_general, ene_monodromy_general], ids=["hadamard", "ene"])
def test_integrate_u_work_bound(monkeypatch, engine):
    # coefficient terms a product pair feeds into its accumulator, for
    # dF = (log z)^60 at 2 and dG = (log z)^40 at 3.  Term j of the binomial
    # row of dG(z/u) leaves u^-1 (log u)^(100-j) under the du/u measure, whose
    # antiderivative has one term: its upper endpoint (log z - Log 3)^(101-j)
    # gives 102-j terms and its lower endpoint one.  The ene pair term is
    # -theta of the Hadamard one, which feeds no accumulator: the same bound.
    terms = 0
    accumulate = logpoly._accumulate

    def counted(raw, coeff, *args):
        nonlocal terms
        terms += len(coeff.terms)
        accumulate(raw, coeff, *args)

    monkeypatch.setattr(logpoly, "_accumulate", counted)
    f = FunctionSpec.of("f", [Singularity(gr(2), LogLaurentPoly.term(0, 60))])
    g = FunctionSpec.of("g", [Singularity(gr(3), LogLaurentPoly.term(0, 40))])
    engine(f, g, 6)
    assert terms > 0  # the endpoint rows feed the patched entry
    assert terms <= sum(102 - j + 1 for j in range(41))


@pytest.mark.parametrize("engine", [hadamard_monodromy_general, ene_monodromy_general], ids=["hadamard", "ene"])
def test_pair_integral_row_bound(monkeypatch, engine):
    # the (log z)^60 (.) (log z)^40 pair at 2 and 3 has c = 0, so its antiderivative
    # is homogeneous of degree a+b+1 = 101 in the two logs: after merging, at most
    # a+b+2 rows at z/3 (one per power of log z) and b+1 at 2, one coefficient
    # term each; the ene term, -theta of the Hadamard one, feeds no more
    terms = 0
    accumulate = logpoly._accumulate

    def counted(raw, coeff, *args):
        nonlocal terms
        terms += len(coeff.terms)
        accumulate(raw, coeff, *args)

    monkeypatch.setattr(logpoly, "_accumulate", counted)
    f = FunctionSpec.of("f", [Singularity(gr(2), LogLaurentPoly.term(0, 60))])
    g = FunctionSpec.of("g", [Singularity(gr(3), LogLaurentPoly.term(0, 40))])
    engine(f, g, 6)
    assert 0 < terms <= (60 + 40 + 2) + (40 + 1)


INTEGRAL_ENDPOINTS = [GaussianRational.of(re, im) for re, im in [(1, 0), (2, 0), (-2, 0), (1, 1), (-1, -1)]]


def two_log_integrand(c, a, b, zpow, zlogpow, coeff):
    """coeff z^zpow (log z)^zlogpow u^(c-1) (log u)^a (log(z/u))^b, log(z/u) read binomially."""
    return BiLogPoly({(c - 1, a, zpow, zlogpow): coeff}) * from_poly_at_z_over_u(LogLaurentPoly.term(0, b))


def engine_integral(c, a, b, zpow, zlogpow, coeff, alpha, beta):
    acc = {}
    logpoly._add_integral(acc, alpha, beta, c, a, b, zpow, zlogpow, coeff)
    return LogLaurentPoly(logpoly._finished(acc))


@pytest.mark.parametrize("c", range(-4, 5))
def test_add_integral_equals_the_reference(c):
    # the two-log closed form against the one-log reference ring, over every
    # (a, b) up to 6 and every ordered pair of endpoints at least once per c
    coeff = TWO_PI_I * ExactCoeff.from_rational(Fraction(-2, 3)) + ExactCoeff.monomial(
        {log_symbol(2): 1}, GaussianRational.of(Fraction(1, 5), 3))
    pairs = [(alpha, beta) for alpha in INTEGRAL_ENDPOINTS for beta in INTEGRAL_ENDPOINTS]
    for a in range(7):
        for b in range(7):
            alpha, beta = pairs[(7 * a + b + c) % len(pairs)]
            zpow, zlogpow = (a - b) % 3 - 1, (a + b + c) % 2
            p = two_log_integrand(c, a, b, zpow, zlogpow, coeff)
            assert engine_integral(c, a, b, zpow, zlogpow, coeff, alpha, beta) == reference_integrate_u(p, alpha, beta)


@pytest.mark.parametrize("c, alpha, beta", [(0, 2, 3), (0, 1, 1), (0, (1, 1), (-1, -1)), (1, 1, 1), (-1, 2, 1)])
def test_add_integral_equals_the_reference_at_deep_log_powers(c, alpha, beta):
    alpha, beta = (GaussianRational.of(*x) if isinstance(x, tuple) else gr(x) for x in (alpha, beta))
    coeff = TWO_PI_I + ExactCoeff.from_rational(Fraction(1, 7))
    p = two_log_integrand(c, 60, 40, 1, 2, coeff)
    assert engine_integral(c, 60, 40, 1, 2, coeff, alpha, beta) == reference_integrate_u(p, alpha, beta)


def test_integrate_u_derivative_is_the_integrand_at_z_over_beta():
    # d/dz of the integral from alpha to z/beta is p(z/beta) / beta
    p = BiLogPoly({(2, 40, 0, 0): TWO_PI_I, (-3, 17, 0, 0): ExactCoeff.from_rational(Fraction(-5, 3))})
    result = integrate_u(p.terms, gr(2), gr(3))
    assert result.derivative() == reference_at_z_over_location(p, gr(3)).scale(ExactCoeff.from_rational(Fraction(1, 3)))


def test_antiderivative_differentiates_back_at_deep_log_powers():
    rng = random.Random(1500)
    cases = [(-1, 0), (-1, 45), (-2, 30), (-7, 12)]
    cases += [(rng.randint(-8, 8), rng.randint(0, 60)) for _ in range(16)]
    for k, l in cases:
        coeff = ExactCoeff.two_pi_i(
            rng.randint(-1, 1), GaussianRational.of(Fraction(rng.randint(1, 9), rng.randint(1, 7)), rng.randint(-2, 2)))
        p = BiLogPoly({(k, l, rng.randint(-2, 2), rng.randint(0, 2)): coeff, (k + 1, l // 2, 0, 0): EC_ONE})
        assert antiderivative_u(p).derivative_u() == p


@pytest.mark.parametrize("location, l", [(1, 1500), (2, 100)])
def test_integrate_u_accumulated_term_bound(monkeypatch, location, l):
    # coefficient terms fed into the accumulator for (log u)^l from location to
    # z/location: at 1, where Log(1) = 0, one per antiderivative term, so linear
    # in l; elsewhere one per binomial term of the upper endpoint,
    # (l+1)(l+2)/2, and one per term of the lower
    terms = 0
    accumulate = logpoly._accumulate

    def counted(raw, coeff, *args):
        nonlocal terms
        terms += len(coeff.terms)
        accumulate(raw, coeff, *args)

    monkeypatch.setattr(logpoly, "_accumulate", counted)
    integrate_u({(0, l, 0, 0): EC_ONE}, gr(location), gr(location))
    binomial_terms = (l + 1) * (l + 2) // 2 if location != 1 else 0
    assert terms > 0  # the endpoint rows feed the patched entry
    assert terms <= binomial_terms + 2 * (l + 1)


# --- the exact substitutions against the composed chain ------------------------------


def endpoint_at_location(p, location):
    """x -> location through the engine's _add_at: {rest of key: coeff}."""
    acc = {}
    for key, coeff in p.terms.items():
        logpoly._add_at(acc, key[2:], location, key[0], key[1], coeff, GR_ONE)
    return logpoly._finished(acc)


def endpoint_at_z_over_location(p, location):
    """x -> z/location through the engine's _add_at and _z_over, row by row (_add_at_z_over)."""
    acc = {}
    for key, coeff in p.terms.items():
        k, l, zpow, zlogpow = (*key, 0, 0)[:4]  # a LogLaurentPoly key has no z part
        _add_at_z_over(acc, zpow, zlogpow, location, k, l, coeff, GR_ONE)
    return LogLaurentPoly(logpoly._finished(acc))


def reference_shift_log(p, amount):
    """log z -> log z + amount: (log z + amount)^l = sum_j C(l, j) (log z)^j amount^(l-j)."""
    out = {}
    for (m, l), coeff in p.terms.items():
        for j in range(l + 1):
            value = coeff * amount ** (l - j) * math.comb(l, j)
            out[(m, j)] = out.get((m, j), ExactCoeff.zero()) + value
    return LogLaurentPoly(out)


REFERENCE_LOCATIONS = [GaussianRational.of(re, im) for re, im in
                       [(1, 0), (2, 0), (-2, 0), (Fraction(1, 2), 0), (0, 2), (0, -2), (1, 1), (-1, 1), (-1, -1)]]


def multi_term_coeff(rng):
    """One to three terms over 2pii and Log(2), with denominators 1..7 drawn per term."""
    total = ExactCoeff.zero()
    for _ in range(rng.randint(1, 3)):
        powers = {sym: rng.randint(-1, 2) for sym in rng.sample([two_pi_i_symbol(), log_symbol(2)], rng.randint(0, 2))}
        total = total + ExactCoeff.monomial(powers, GaussianRational.of(
            Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 7)), Fraction(rng.randint(-2, 2), rng.randint(1, 7))))
    return total


def reference_integrand(rng, l):
    """A product integrand in the engine's shape, dF(u) dG(z/u), reaching (log u)^l."""
    f = LogLaurentPoly({(rng.randint(-2, 2), l - l // 2): multi_term_coeff(rng),
                        (rng.randint(-2, 2), rng.randint(0, 2)): multi_term_coeff(rng)})
    g = LogLaurentPoly({(rng.randint(0, 3), l // 2): multi_term_coeff(rng), (1, 0): multi_term_coeff(rng)})
    return from_poly_in_u(f) * from_poly_at_z_over_u(g)


@pytest.mark.parametrize("l", range(9))
def test_substitutions_equal_the_composed_chain(l):
    rng = random.Random(900 + l)
    for location in REFERENCE_LOCATIONS:
        for _ in range(3):
            p = reference_integrand(rng, l)
            alpha = rng.choice(REFERENCE_LOCATIONS)
            assert endpoint_at_location(p, location) == reference_at_location(p, location)
            assert endpoint_at_z_over_location(p, location) == reference_at_z_over_location(p, location)
            assert integrate_u(p.terms, alpha, location) == reference_integrate_u(p, alpha, location)
            q = random_poly(rng, max_log=l)
            assert endpoint_at_location(q, location) == reference_at_location(q, location)
            assert endpoint_at_z_over_location(q, location) == reference_at_z_over_location(q, location)
            amount = multi_term_coeff(rng)
            assert q.shift_log(amount) == reference_shift_log(q, amount)


@pytest.mark.parametrize("seed", range(6))
def test_pair_terms_equal_the_product_of_both_readings(seed):
    # the one stream of pair terms, summed, against unit * second(z/u) as a BiLogPoly
    rng = random.Random(1300 + seed)
    for _ in range(10):
        second = random_poly(rng, zmin=-4, zmax=3, max_log=4, max_terms=5)
        unit = multi_term_coeff(rng)
        out = {}
        for upow, ulogpow, zpow, zlogpow, coeff, sign in logpoly._pair_terms(second, unit):
            key = (upow, ulogpow, zpow, zlogpow)
            out[key] = out.get(key, ExactCoeff.zero()) + coeff * sign
        assert BiLogPoly(out) == from_poly_at_z_over_u(second).scale(unit)


def test_substitutions_drop_what_cancels_exactly():
    # (log u + log z) c1 - (log z) c1' with c1 and c1' sharing their 2pii term:
    # at z/2 the log z coefficient keeps only the rational parts, and at 1 the
    # whole (0, 1) key cancels
    c1 = TWO_PI_I + ExactCoeff.from_rational(Fraction(1, 3))
    c2 = -TWO_PI_I + ExactCoeff.from_rational(Fraction(1, 5))
    p = BiLogPoly({(0, 1, 0, 0): c1, (0, 0, 0, 1): c2})
    at_two = endpoint_at_z_over_location(p, gr(2))
    assert at_two.terms[(0, 1)] == ExactCoeff.from_rational(Fraction(8, 15))
    p = BiLogPoly({(0, 1, 0, 0): c1, (0, 0, 0, 1): -c1})
    assert (0, 1) not in endpoint_at_z_over_location(p, gr(1)).terms
    for location in REFERENCE_LOCATIONS:
        result = integrate_u(p.terms, location, location)
        assert result == reference_integrate_u(p, location, location)
        assert all(all(coeff.terms.values()) for coeff in result.terms.values())
