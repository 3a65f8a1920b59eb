"""Acceptance suite: one test per criterion, at the stated tolerance.

Each criterion prints a `[criterion NN] PASS` line (visible with -s, or in
captured output).  Criterion 6 is asserted twice.  The d/dz form is an
expected failure: residue calculus gives -z d/dz for the action of the
{-1, -1} polar part on monodromies, and the branch-tracked contour
measurement agrees with -z d/dz (see the polar-pair test in
test_continuation.py).  The residue-forced form passes exactly.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from hadene.coeffs import ExactCoeff, GaussianRational
from hadene.continuation import (
    LogBranchElement,
    PolylogElement,
    geometric_element,
    monodromy_numeric,
    pincherle_eval,
)
from hadene.logpoly import BranchPoint, LogLaurentPoly
from hadene.monodromy import (
    Divisor,
    FunctionSpec,
    Singularity,
    divisor_ene,
    ene_monodromy_general,
    hadamard_monodromy_general,
    koebe_polar_function_spec,
    log_ladder_monodromy,
    polylog_function_spec,
    polylog_monodromy,
)
from hadene.series import TruncatedSeries, ene, ene_exp, hadamard, koebe, poly_from_roots

TWO_PI_I = ExactCoeff.two_pi_i()


def report(number: int, label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:02d}] PASS ({elapsed:6.2f}s) {label}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget:g}s budget"


def gr(p, q=1):
    return GaussianRational.of(Fraction(p, q))


def random_mono_poly(rng, max_deg, max_log):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_log))
        coeff = ExactCoeff.from_rational(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
        if rng.random() < 0.5:
            coeff = coeff * TWO_PI_I
        terms[key] = terms.get(key, ExactCoeff.zero()) + coeff
    return LogLaurentPoly(terms)


def test_criterion_01_polylog_monodromy_exact():
    started = time.perf_counter()
    for k in range(1, 9):
        assert polylog_monodromy(k) == log_ladder_monodromy(k)
    report(1, "polylog ladder monodromy, k = 1..8, exact", started, budget=1.0)


def test_criterion_02_ene_polylog_monodromy_exact():
    started = time.perf_counter()
    for k in range(2, 6):
        for l in range(2, 6):
            value = ene_monodromy_general(polylog_function_spec(k), polylog_function_spec(l), 1).value
            expected = LogLaurentPoly.term(0, k + l - 2, Fraction(1, math.factorial(k + l - 2))).scale(TWO_PI_I)
            assert value == expected
            assert value == -log_ladder_monodromy(k + l - 1)
    report(2, "ene polylog monodromy, 2 <= k,l <= 5, exact", started, budget=2.0)


def test_criterion_03_koebe_relation_exact():
    started = time.perf_counter()
    rng = random.Random(31)
    n = 64
    k0 = koebe(n)
    for _ in range(100):
        f = TruncatedSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)])
        g = TruncatedSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)])
        assert ene_exp(f, g) == -hadamard(k0, hadamard(f, g))
    report(3, "koebe relation on 100 random exact series, N = 64", started, budget=5.0)


def test_criterion_04_ene_root_product():
    started = time.perf_counter()
    rng = random.Random(32)
    pool = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1), Fraction(5, 4),
            Fraction(4, 3), Fraction(3, 2), Fraction(2)]
    for _ in range(50):
        roots_a = [rng.choice([1, -1]) * rng.choice(pool) for _ in range(rng.randint(1, 5))]
        roots_b = [rng.choice([1, -1]) * rng.choice(pool) for _ in range(rng.randint(1, 5))]
        f = poly_from_roots(roots_a, 32)
        g = poly_from_roots(roots_b, 32)
        expected = poly_from_roots([a * b for a in roots_a for b in roots_b], 32)
        assert ene(f, g) == expected
    report(4, "ene root products on 50 random polynomial pairs, N = 32", started, budget=10.0)


def test_criterion_05_integer_universality():
    started = time.perf_counter()
    rng = random.Random(33)
    for _ in range(20):
        f = TruncatedSeries([Fraction(1)] + [Fraction(rng.randint(-6, 6)) for _ in range(20)])
        g = TruncatedSeries([Fraction(1)] + [Fraction(rng.randint(-6, 6)) for _ in range(20)])
        for c in ene(f, g).coeffs:
            assert c.denominator == 1
    report(5, "ene coefficients of integer inputs are integers, n <= 20", started)


def _koebe_polar_inputs():
    rng = random.Random(34)
    koebe_spec = koebe_polar_function_spec()
    for _ in range(50):
        p = random_mono_poly(rng, 4, 2)
        g = FunctionSpec.of("g", [Singularity(gr(1), p)])
        yield koebe_spec, g, p


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the d/dz identity is not attainable: the Hadamard action of the polar part "
        "{-1,-1} at 1 on a monodromy p is -z*p', not p' (residue calculus; confirmed "
        "against the contour oracle in test_continuation.py::"
        "test_monodromy_koebe_li2_is_constant_period)"
    ),
)
def test_criterion_06_koebe_derivative_plain_form():
    started = time.perf_counter()
    for koebe_spec, g, p in _koebe_polar_inputs():
        assert hadamard_monodromy_general(koebe_spec, g, 1).value == p.derivative()
    report(6, "koebe polar part acts as d/dz (plain form)", started)


def test_criterion_06_koebe_derivative_residue_forced_form():
    started = time.perf_counter()
    for koebe_spec, g, p in _koebe_polar_inputs():
        expected = -(LogLaurentPoly.z() * p.derivative())
        assert hadamard_monodromy_general(koebe_spec, g, 1).value == expected
    report(6, "koebe polar part acts as -z d/dz (residue-forced form)", started)


def test_criterion_07_plm_closure_structural():
    started = time.perf_counter()
    rng = random.Random(35)
    locations = [gr(1), gr(2), gr(3), gr(1, 2), gr(3, 2), gr(-2)]
    for _ in range(50):
        alpha, beta = rng.choice(locations), rng.choice(locations)
        f = FunctionSpec.of("f", [Singularity(alpha, random_mono_poly(rng, 4, 2))])
        g = FunctionSpec.of("g", [Singularity(beta, random_mono_poly(rng, 4, 2))])
        assert all(zpow >= 0 for zpow, _ in hadamard_monodromy_general(f, g, alpha * beta).value.terms)
    for _ in range(50):
        alpha, beta = rng.choice(locations), rng.choice(locations)
        f = FunctionSpec.of("f", [Singularity(alpha, random_mono_poly(rng, 4, 0))])
        g = FunctionSpec.of("g", [Singularity(beta, random_mono_poly(rng, 4, 0))])
        assert hadamard_monodromy_general(f, g, alpha * beta).value.max_logpow() <= 1
    report(7, "log-polynomial closure: no Laurent leakage, <= one log for polynomials", started)


def test_criterion_08_monodromy_operator_algebra():
    started = time.perf_counter()
    rng = random.Random(36)

    def random_laurent(max_terms=3):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            key = (rng.randint(-3, 4), rng.randint(0, 3))
            coeff = ExactCoeff.from_rational(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)))
            terms[key] = terms.get(key, ExactCoeff.zero()) + coeff
        return LogLaurentPoly(terms)

    for _ in range(200):
        p, q = random_laurent(), random_laurent()
        dp, dq = p.monodromy_at_zero(), q.monodromy_at_zero()
        assert (p * q).monodromy_at_zero() == dp * q + p * dq + dp * dq
        assert p.derivative().monodromy_at_zero() == dp.derivative()
        deltas = [p]
        for _ in range(6):
            deltas.append(deltas[-1].monodromy_at_zero())
        for n in range(1, 7):
            rhs = LogLaurentPoly.zero()
            for k in range(1, n + 1):
                rhs = rhs + math.comb(n, k) * deltas[k]
            assert p.sigma_power(n) - p == rhs
    report(8, "leibniz, derivation commutation, winding binomial identity (n <= 6)", started)


def test_criterion_09_ene_symmetry_exact():
    started = time.perf_counter()
    rng = random.Random(37)
    for _ in range(20):
        f = FunctionSpec.of("f", [Singularity(gr(2), random_mono_poly(rng, 3, 2))])
        g = FunctionSpec.of("g", [Singularity(gr(3), random_mono_poly(rng, 3, 2))])
        assert ene_monodromy_general(f, g, 6).value == ene_monodromy_general(g, f, 6).value
    report(9, "ene monodromy symmetric in its arguments, 20 random pairs", started)


def test_criterion_10_dual_engine_agreement():
    started = time.perf_counter()
    li1_spec = polylog_function_spec(1)
    li1 = PolylogElement(1)
    symbolic = hadamard_monodromy_general(li1_spec, li1_spec, 1).value
    for deg in (120, 150, 180, 210, 240):
        z0 = 1.0 + 0.1 * cmath.exp(1j * math.radians(deg))
        measured = monodromy_numeric(li1, li1, 1.0, z0, tol=1e-8)
        expected = symbolic.lp_eval(BranchPoint(z0, 0))
        assert abs(measured - expected) < 1e-6

    f_spec = FunctionSpec.of("f", [Singularity(gr(1), LogLaurentPoly.term(1, 0, 1).scale(TWO_PI_I))])
    g_spec = FunctionSpec.of("g", [Singularity(gr(1), LogLaurentPoly.constant(TWO_PI_I))])
    symbolic_poly = hadamard_monodromy_general(f_spec, g_spec, 1).value
    f_elem = LogBranchElement(1.0, [0.0, 1.0])
    g_elem = LogBranchElement(1.0)
    for z0 in (0.93, 0.92 + 0.05j):
        measured = monodromy_numeric(f_elem, g_elem, 1.0, z0, tol=1e-8)
        expected = symbolic_poly.lp_eval(BranchPoint(z0, 0))
        assert abs(measured - expected) < 1e-6
    report(10, "train-track measurement matches symbolic values within 1e-6", started, budget=30.0)


def test_criterion_11_pincherle_quadrature():
    started = time.perf_counter()
    geo = geometric_element()
    rng = random.Random(38)
    for _ in range(10):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        value = pincherle_eval(geo, geo, z, radius=0.7)
        assert abs(value - 1.0 / (1.0 - z)) < 1e-10
    values = [pincherle_eval(geo, geo, 0.3, radius=r) for r in (0.45, 0.6, 0.85)]
    assert abs(values[0] - 1.0 / 0.7) < 1e-10
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-10
    report(11, "pincherle quadrature: 10 samples and 3 radii within 1e-10", started)


def test_criterion_12_divisor_multiplicity():
    started = time.perf_counter()
    f = Divisor.of({gr(2): 1, gr(3): 1})
    g = Divisor.of({gr(3): 1, gr(2): 1})
    product = divisor_ene(f, g)
    assert product.as_dict() == {gr(6): 2, gr(4): 1, gr(9): 1}
    # series check: same product through exp/log coefficients
    series_f = poly_from_roots([Fraction(2), Fraction(3)], 16)
    series_g = poly_from_roots([Fraction(3), Fraction(2)], 16)
    expected = poly_from_roots([Fraction(6), Fraction(6), Fraction(4), Fraction(9)], 16)
    assert ene(series_f, series_g) == expected
    report(12, "divisor multiplicities match the series computation, N = 16", started)


def test_criterion_13_borel_degenerate_case():
    started = time.perf_counter()
    from hadene.monodromy import GermPart, ene_monodromy_general

    f = FunctionSpec.of("f", [
        Singularity(gr(2), LogLaurentPoly.zero(), GermPart.polar_part([Fraction(1)])),
    ])
    g = FunctionSpec.of("g", [Singularity(gr(3), LogLaurentPoly.zero())])
    assert hadamard_monodromy_general(f, g, 6).value.is_zero()
    assert ene_monodromy_general(f, g, 6).value.is_zero()
    geo = geometric_element()
    measured = monodromy_numeric(geo, geo, 1.0, 0.9, tol=1e-8)
    assert abs(measured) < 1e-10
    report(13, "zero monodromies propagate to exactly zero, oracle < 1e-10", started)
