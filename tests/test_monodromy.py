"""Product monodromy formulas: polylog ladder, residues, divisors, symmetry."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from hadene.coeffs import ExactCoeff, GaussianRational, log_symbol
from hadene.documents import monodromy_result_to_doc
from hadene.logpoly import BranchPoint, LogLaurentPoly
from hadene.monodromy import (
    Divisor,
    FunctionSpec,
    GermPart,
    MonodromyResult,
    Singularity,
    divisor_ene,
    ene_monodromy_general,
    hadamard_monodromy_general,
    koebe_polar_function_spec,
    log_ladder_monodromy,
    polylog_function_spec,
    polylog_monodromy,
    product_set,
)
from hadene.monodromy import _add_residue, _pairs_for_gamma
from reference_ring import (
    BiLogPoly,
    from_poly_at_z_over_u,
    from_poly_in_u,
    reference_at_location,
    reference_integrate_u,
)

TWO_PI_I = ExactCoeff.two_pi_i()


def gr(p, q=1):
    return GaussianRational.of(Fraction(p, q))


def spec_with(name, location, monodromy, germ=None):
    germ = germ or GermPart.totally_holomorphic()
    return FunctionSpec.of(name, [Singularity(gr(*location) if isinstance(location, tuple) else gr(location), monodromy, germ)])


def random_holomorphic_poly(rng, max_deg=3, max_log=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_log))
        coeff = ExactCoeff.from_rational(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
        if rng.random() < 0.4:
            coeff = coeff * TWO_PI_I
        terms[key] = terms.get(key, ExactCoeff.zero()) + coeff
    return LogLaurentPoly(terms)


def minus_z_dz(p: LogLaurentPoly) -> LogLaurentPoly:
    return -(LogLaurentPoly.z() * p.derivative())


# --- product_set -----------------------------------------------------------------


def test_product_set_groups_with_multiplicity():
    f = FunctionSpec.of("f", [Singularity(gr(2), LogLaurentPoly.zero()),
                              Singularity(gr(3), LogLaurentPoly.zero())])
    g = FunctionSpec.of("g", [Singularity(gr(3), LogLaurentPoly.zero()),
                              Singularity(gr(2), LogLaurentPoly.zero())])
    groups = {complex(gamma): len(pairs) for gamma, pairs in product_set(f, g)}
    assert groups == {(4 + 0j): 1, (6 + 0j): 2, (9 + 0j): 1}


def test_product_set_single_pair():
    f = polylog_function_spec(1)
    groups = product_set(f, f)
    assert len(groups) == 1
    gamma, pairs = groups[0]
    assert gamma == gr(1) and len(pairs) == 1


def test_product_set_empty():
    f = FunctionSpec.of("empty", [])
    assert product_set(f, polylog_function_spec(1)) == []


# --- hadamard, totally holomorphic ------------------------------------------------


def test_constant_monodromies_give_log():
    li1 = polylog_function_spec(1)
    result = hadamard_monodromy_general(li1, li1, 1)
    assert result.value == LogLaurentPoly.term(0, 1, 1).scale(-TWO_PI_I)
    assert result.pairs == ((gr(1), gr(1)),)


def test_ladder_induction_step():
    li1 = polylog_function_spec(1)
    for k in range(1, 6):
        lik = polylog_function_spec(k)
        result = hadamard_monodromy_general(lik, li1, 1)
        assert result.value == log_ladder_monodromy(k + 1)


def test_linear_times_constant_monodromy():
    a, b = Fraction(3), Fraction(5, 2)
    f = spec_with("f", 1, LogLaurentPoly.term(1, 0, a))
    g = spec_with("g", 1, LogLaurentPoly.constant(b))
    result = hadamard_monodromy_general(f, g, 1)
    coeff = ExactCoeff.from_rational(a * b) * ExactCoeff.two_pi_i(-1) * (-1)
    expected = (LogLaurentPoly.z() - LogLaurentPoly.constant(1)).scale(coeff)
    assert result.value == expected


def test_gamma_without_factorization_gives_zero():
    li1 = polylog_function_spec(1)
    result = hadamard_monodromy_general(li1, li1, 7)
    assert result.value.is_zero() and result.pairs == ()


# --- hadamard, general -------------------------------------------------------------


def test_pure_polar_against_monodromy_is_derivative_style():
    # F = a/(u-2) only (no monodromy), dG = z at 3:
    # result = -a * [dG(z/u)/u]_{u=2} = -a * z/4
    a = Fraction(1)
    f = spec_with("f", 2, LogLaurentPoly.zero(), GermPart.polar_part([a]))
    g = spec_with("g", 3, LogLaurentPoly.term(1, 0, 1))
    result = hadamard_monodromy_general(f, g, 6)
    assert result.value == LogLaurentPoly.term(1, 0, Fraction(-1, 4))


def test_koebe_polar_acts_as_minus_z_ddz():
    # Hadamard with the polar part {-1, -1} at 1 multiplies coefficients by -n,
    # i.e. acts on monodromies as -z d/dz (checked against the contour oracle
    # in test_continuation.py).
    rng = random.Random(22)
    koebe = koebe_polar_function_spec()
    for _ in range(25):
        p = random_holomorphic_poly(rng)
        g = spec_with("g", 1, p)
        result = hadamard_monodromy_general(koebe, g, 1)
        assert result.value == minus_z_dz(p)


def test_koebe_polar_on_li2_gives_constant_period():
    # -K0 (.) Li_2 = -Li_1, whose monodromy at 1 is +2pii
    result = hadamard_monodromy_general(koebe_polar_function_spec(), polylog_function_spec(2), 1)
    assert result.value == LogLaurentPoly.constant(TWO_PI_I)


# --- ene, totally holomorphic --------------------------------------------------------


def test_ene_polylog_pairs_close_the_ladder():
    for k in range(2, 6):
        for l in range(2, 6):
            result = ene_monodromy_general(polylog_function_spec(k), polylog_function_spec(l), 1)
            assert result.value == -log_ladder_monodromy(k + l - 1)


def test_ene_li1_pair():
    result = ene_monodromy_general(polylog_function_spec(1), polylog_function_spec(1), 1)
    assert result.value == LogLaurentPoly.constant(TWO_PI_I)


def test_ene_constant_monodromies_multiply_multiplicities():
    n_a, n_b = 3, -2
    f = spec_with("f", 2, LogLaurentPoly.constant(TWO_PI_I * n_a))
    g = spec_with("g", 3, LogLaurentPoly.constant(TWO_PI_I * n_b))
    result = ene_monodromy_general(f, g, 6)
    assert result.value == LogLaurentPoly.constant(TWO_PI_I * (n_a * n_b))


def test_ene_zero_monodromy_gives_zero():
    f = spec_with("f", 2, LogLaurentPoly.zero())
    g = spec_with("g", 3, random_holomorphic_poly(random.Random(23)))
    assert ene_monodromy_general(f, g, 6).value.is_zero()


def test_ene_symmetry_on_random_pairs():
    rng = random.Random(24)
    for _ in range(20):
        f = spec_with("f", 2, random_holomorphic_poly(rng))
        g = spec_with("g", 3, random_holomorphic_poly(rng))
        assert ene_monodromy_general(f, g, 6).value == ene_monodromy_general(g, f, 6).value


def test_ene_symmetry_with_self():
    f = polylog_function_spec(3)
    assert ene_monodromy_general(f, f, 1).value == ene_monodromy_general(f, f, 1).value


# --- ene, general ----------------------------------------------------------------------


def test_ene_constant_monodromy_with_polar_germ_two_term_formula():
    # F: constant monodromy c and polar part a/(u-2); G: dG = z at 3.
    # Expected: -a*[d/du (z/u)]_{u=2} + (c/2pii) * (z/2)
    #         =  a*z/4 + (c/2pii)*(z/2)
    a = Fraction(2)
    c = TWO_PI_I * 4
    f = spec_with("f", 2, LogLaurentPoly.constant(c), GermPart.polar_part([a]))
    g = spec_with("g", 3, LogLaurentPoly.term(1, 0, 1))
    result = ene_monodromy_general(f, g, 6)
    expected = LogLaurentPoly.term(1, 0, a * Fraction(1, 4)) + LogLaurentPoly.term(1, 0, Fraction(2))
    assert result.value == expected


def test_ene_koebe_polar_cases_are_exact():
    # (-K0) ene Li_2 has only uniform singularities: z/(1-z) is rational
    koebe = koebe_polar_function_spec()
    li2 = polylog_function_spec(2)
    assert ene_monodromy_general(koebe, li2, 1).value.is_zero()
    assert ene_monodromy_general(li2, koebe, 1).value.is_zero()


def test_ene_vs_hadamard_ladder_consistency():
    for k, l in [(1, 1), (2, 2), (2, 3), (4, 2)]:
        ene_result = ene_monodromy_general(polylog_function_spec(k), polylog_function_spec(l), 1)
        had = hadamard_monodromy_general(polylog_function_spec(k), polylog_function_spec(l), 1)
        # Li_k ene Li_l = -Li_{k+l-1} while Li_k (.) Li_l = Li_{k+l}
        assert ene_result.value == -log_ladder_monodromy(k + l - 1)
        assert had.value == log_ladder_monodromy(k + l)


def test_ene_equals_koebe_composed_hadamard():
    # operator identity: the ene monodromy is -z d/dz of the Hadamard monodromy
    rng = random.Random(26)
    for _ in range(15):
        f = spec_with("f", 2, random_holomorphic_poly(rng))
        g = spec_with("g", 3, random_holomorphic_poly(rng))
        assert ene_monodromy_general(f, g, 6).value == minus_z_dz(hadamard_monodromy_general(f, g, 6).value)


def test_ene_equals_koebe_composed_hadamard_with_polar_parts():
    rng = random.Random(27)
    for _ in range(15):
        f_germ = GermPart.polar_part([Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3))])
        g_germ = GermPart.polar_part([Fraction(rng.randint(1, 3))])
        f = spec_with("f", 2, random_holomorphic_poly(rng), f_germ)
        g = spec_with("g", 3, random_holomorphic_poly(rng), g_germ)
        lhs = ene_monodromy_general(f, g, 6).value
        rhs = minus_z_dz(hadamard_monodromy_general(f, g, 6).value)
        assert lhs == rhs


# --- superposition over factorizations ---------------------------------------------


def test_multiplicity_superposition():
    rng = random.Random(28)
    p1, p2, q1, q2 = (random_holomorphic_poly(rng) for _ in range(4))
    f = FunctionSpec.of("f", [Singularity(gr(2), p1), Singularity(gr(3), p2)])
    g = FunctionSpec.of("g", [Singularity(gr(3), q1), Singularity(gr(2), q2)])
    combined = hadamard_monodromy_general(f, g, 6)
    assert len(combined.pairs) == 2
    single_a = hadamard_monodromy_general(spec_with("fa", 2, p1), spec_with("gb", 3, q1), 6)
    single_b = hadamard_monodromy_general(spec_with("fb", 3, p2), spec_with("ga", 2, q2), 6)
    assert combined.value == single_a.value + single_b.value


# --- PLM closure ---------------------------------------------------------------------


def test_plm_closure_no_laurent_leakage():
    rng = random.Random(29)
    locations = [gr(1), gr(2), gr(3), gr(1, 2), gr(3, 2)]
    for _ in range(30):
        alpha, beta = rng.choice(locations), rng.choice(locations)
        f = FunctionSpec.of("f", [Singularity(alpha, random_holomorphic_poly(rng, 4, 2))])
        g = FunctionSpec.of("g", [Singularity(beta, random_holomorphic_poly(rng, 4, 2))])
        result = hadamard_monodromy_general(f, g, alpha * beta)
        assert all(zpow >= 0 for zpow, _ in result.value.terms)


def test_plm_polynomial_monodromies_get_at_most_one_log():
    rng = random.Random(30)
    for _ in range(30):
        f = spec_with("f", 2, random_holomorphic_poly(rng, 4, 0))
        g = spec_with("g", 3, random_holomorphic_poly(rng, 4, 0))
        result = hadamard_monodromy_general(f, g, 6)
        assert result.value.max_logpow() <= 1


# --- Borel degenerate case -------------------------------------------------------------


def test_borel_zero_monodromies_stay_zero():
    f = FunctionSpec.of("f", [
        Singularity(gr(2), LogLaurentPoly.zero(), GermPart.polar_part([Fraction(1)])),
        Singularity(gr(3), LogLaurentPoly.zero()),
    ])
    g = FunctionSpec.of("g", [Singularity(gr(3), LogLaurentPoly.zero(), GermPart.polar_part([Fraction(2), Fraction(1)]))])
    for gamma in (6, 9):
        assert hadamard_monodromy_general(f, g, gamma).value.is_zero()
        assert ene_monodromy_general(f, g, gamma).value.is_zero()


# --- polylog ladder -----------------------------------------------------------------


def test_polylog_monodromy_connects_to_closed_form():
    for k in (1, 2, 5):
        assert polylog_monodromy(k) == log_ladder_monodromy(k)


def test_log_ladder_values():
    assert log_ladder_monodromy(1) == LogLaurentPoly.constant(-TWO_PI_I)
    assert log_ladder_monodromy(2) == LogLaurentPoly.term(0, 1, 1).scale(-TWO_PI_I)
    expected5 = LogLaurentPoly.term(0, 4, Fraction(-1, 24)).scale(TWO_PI_I)
    assert log_ladder_monodromy(5) == expected5


@pytest.mark.parametrize("engine", [hadamard_monodromy_general, ene_monodromy_general])
def test_repeated_product_reads_location_powers_from_the_cache(engine, monkeypatch):
    """A second call on the same specs computes no location power again."""
    f = spec_with("f", 2, LogLaurentPoly({(1, 1): TWO_PI_I, (-1, 0): ExactCoeff.from_rational(3)}),
                  GermPart.polar_part([Fraction(1), Fraction(-2)]))
    g = FunctionSpec.of("g", [Singularity(GaussianRational.of(1, 1), LogLaurentPoly.term(2, 2, TWO_PI_I),
                                          GermPart.polar_part([Fraction(5)]))])
    gamma = GaussianRational.of(2, 2)
    first = engine(f, g, gamma)
    calls = []
    power = GaussianRational.__pow__
    monkeypatch.setattr(GaussianRational, "__pow__", lambda self, k: calls.append(k) or power(self, k))
    second = engine(f, g, gamma)
    assert calls == []
    assert second == first


# --- divisors -----------------------------------------------------------------------


def test_divisor_square_of_simple_zero():
    d = Divisor.of({gr(1): 1})
    assert divisor_ene(d, d).as_dict() == {gr(1): 1}


def test_divisor_cross_terms():
    f = Divisor.of({gr(2): 1, gr(3): 1})
    g = Divisor.of({gr(3): 1, gr(2): 1})
    assert divisor_ene(f, g).as_dict() == {gr(6): 2, gr(4): 1, gr(9): 1}


def test_divisor_pole_sign_algebra():
    f = Divisor.of({gr(2): 1})
    g = Divisor.of({gr(3): -1})
    assert divisor_ene(f, g).as_dict() == {gr(6): -1}


def test_divisor_cancellation_drops_point():
    f = Divisor.of({gr(1): 1, gr(-1): -1})
    g = Divisor.of({gr(1): 1, gr(-1): 1})
    # products at gamma=1: 1*1 + (-1)*1 = 0, at gamma=-1: 1*1 + (-1)*1 = 0
    assert divisor_ene(f, g).as_dict() == {}


# --- golden pin ----------------------------------------------------------------------

GOLDEN_LOCATIONS = [gr(1), gr(2), gr(-2), gr(1, 2), GaussianRational.of(0, 2),
                    GaussianRational.of(1, 1), GaussianRational.of(-1, -1), gr(3, 2)]


def golden_singularity(rng, location, n):
    """1-3 monodromy terms, 2pii on every other one, a polar part on every third."""
    terms = {}
    for t in range(1 + n % 3):
        coeff = ExactCoeff.from_gaussian(GaussianRational.of(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 3))))
        if (n + t) % 2 == 0:
            coeff = coeff * TWO_PI_I
        key = (rng.randint(-1, 3), (n + t) % 4)
        terms[key] = terms.get(key, ExactCoeff.zero()) + coeff
    germ = GermPart.totally_holomorphic()
    if n % 3 == 2:
        order = 1 + n % 2
        germ = GermPart.polar_part([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order - 1)]
                                   + [Fraction(rng.choice((-2, -1, 1, 2)))])
    return Singularity(location, LogLaurentPoly(terms), germ)


def golden_grid():
    """Seeded (f, g, gamma) triples; every fourth puts f and g on the same two
    locations, so gamma collects two factorizations."""
    rng = random.Random(2024)
    count = 0
    for i in range(40):
        if i % 4 == 3:
            a1, a2 = rng.sample(GOLDEN_LOCATIONS, 2)
            f_locs, g_locs, gamma = (a1, a2), (a2, a1), a1 * a2
        else:
            a, b = rng.choice(GOLDEN_LOCATIONS), rng.choice(GOLDEN_LOCATIONS)
            f_locs, g_locs, gamma = (a,), (b,), a * b
        specs = []
        for name, locs in (("f", f_locs), ("g", g_locs)):
            sings = []
            for loc in locs:
                sings.append(golden_singularity(rng, loc, count))
                count += 1
            specs.append(FunctionSpec.of(name, sings))
        yield specs[0], specs[1], gamma


def test_product_monodromy_documents_match_the_golden_hash():
    # pins the exact document form of both product engines over a seeded grid
    digest = hashlib.sha256()
    for f, g, gamma in golden_grid():
        for engine in (hadamard_monodromy_general, ene_monodromy_general):
            doc = monodromy_result_to_doc(engine(f, g, gamma))
            digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == "7260b1147199c6334da2f14b0ff63e198f0f1110a9195dd7fe6e9505765a2e1c"


def test_swapped_products_evaluate_to_the_same_float():
    # both products are symmetric in their arguments, so swapping them gives an
    # == value, which must evaluate to the same complex double bit for bit
    at = BranchPoint(0.7 + 0.2j)
    for f, g, gamma in golden_grid():
        for engine in (hadamard_monodromy_general, ene_monodromy_general):
            value, swapped = engine(f, g, gamma).value, engine(g, f, gamma).value
            assert value == swapped
            x, y = value.lp_eval(at), swapped.lp_eval(at)
            assert (x.real.hex(), x.imag.hex()) == (y.real.hex(), y.imag.hex()), (engine.__name__, gamma)


# --- the pair terms against the composed chain ---------------------------------------

INV_TWO_PI_I = ExactCoeff.two_pi_i(-1)


def times_u_power(p, k, zk=0):
    """p times u^k z^zk."""
    return BiLogPoly({(u + k, ul, z + zk, zl): c for (u, ul, z, zl), c in p.terms.items()})


def residue(polar, h, pole):
    """Res_{u=pole} (sum_k a_k (u-pole)^-k) h(u) = sum_k a_k h^(k-1)(pole) / (k-1)!."""
    total = LogLaurentPoly.zero()
    for k, a_k in enumerate(polar, start=1):
        if k > 1:
            h = h.derivative_u()
        if a_k:
            weight = a_k * Fraction(1, math.factorial(k - 1))
            total = total + LogLaurentPoly(reference_at_location(h, pole)).scale(weight)
    return total


def composed_hadamard_pair(sf, sg):
    """BiLogPoly integrand, u^-1 measure, the reference integral, scale by -1/2pii, minus the residues."""
    integrand = times_u_power(from_poly_in_u(sf.monodromy) * from_poly_at_z_over_u(sg.monodromy), -1)
    value = reference_integrate_u(integrand, sf.location, sg.location).scale(-INV_TWO_PI_I)
    for polar_side, other in ((sf, sg), (sg, sf)):
        if polar_side.germ.polar:
            h = times_u_power(from_poly_at_z_over_u(other.monodromy), -1)
            value = value - residue(polar_side.germ.polar, h, polar_side.location)
    return value


def composed_ene_pair(sf, sg):
    """dF(alpha) dG(z/alpha)/2pii, plus the dF'(u) dG(z/u) integral over 2pii, plus the residues."""
    df_at_alpha = reference_at_location(sf.monodromy, sf.location).get((), ExactCoeff.zero())
    g_at_z_over_alpha = LogLaurentPoly(reference_at_location(from_poly_at_z_over_u(sg.monodromy), sf.location))
    value = g_at_z_over_alpha.scale(df_at_alpha * INV_TWO_PI_I)
    df = sf.monodromy.derivative()
    integrand = from_poly_in_u(df) * from_poly_at_z_over_u(sg.monodromy)
    value = value + reference_integrate_u(integrand, sf.location, sg.location).scale(INV_TWO_PI_I)
    if sf.germ.polar:
        derivative_polar = [ExactCoeff.zero()] + [a_k * (-k) for k, a_k in enumerate(sf.germ.polar, start=1)]
        value = value + residue(derivative_polar, from_poly_at_z_over_u(sg.monodromy), sf.location)
    if sg.germ.polar:
        value = value + residue(sg.germ.polar, times_u_power(from_poly_at_z_over_u(df), -2, 1), sg.location)
    return value


DEEP_POLAR_LOCATIONS = [gr(-2), GaussianRational.of(1, 1), GaussianRational.of(-1, -1)]


def deep_polar_singularity(rng, location):
    """0-2 monodromy terms and an order-3 polar part whose coefficients carry 2pii and Log(c)."""
    def rational():
        return ExactCoeff.from_rational(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)))

    log_c = ExactCoeff.monomial({log_symbol(rng.choice(DEEP_POLAR_LOCATIONS + [gr(3)])): 1})
    polar = [rational() * log_c + rational(), rational() * TWO_PI_I, rational() * TWO_PI_I * log_c]
    rng.shuffle(polar)
    terms = {}
    for _ in range(rng.randint(0, 2)):
        key = (rng.randint(-1, 2), rng.randint(0, 3))
        terms[key] = terms.get(key, ExactCoeff.zero()) + rational() * rng.choice((TWO_PI_I, log_c))
    return Singularity(location, LogLaurentPoly(terms), GermPart.polar_part(polar))


def deep_polar_grid():
    """Order-3 polar parts at -2, 1+i and -1-i on both factors; every gamma collects
    two factorizations, (1+i)^2 = (-1-i)^2 = 2i among them."""
    rng = random.Random(2025)
    plus, minus = DEEP_POLAR_LOCATIONS[1:]
    triples = [((a1, a2), (a2, a1), a1 * a2) for a1, a2 in itertools.combinations(DEEP_POLAR_LOCATIONS, 2)]
    triples.append(((plus, minus), (plus, minus), plus * plus))
    for f_locs, g_locs, gamma in triples:
        yield (FunctionSpec.of("f", [deep_polar_singularity(rng, loc) for loc in f_locs]),
               FunctionSpec.of("g", [deep_polar_singularity(rng, loc) for loc in g_locs]), gamma)


@pytest.mark.parametrize("engine, composed", [(hadamard_monodromy_general, composed_hadamard_pair),
                                              (ene_monodromy_general, composed_ene_pair)], ids=["hadamard", "ene"])
def test_pair_terms_equal_the_composed_chain(engine, composed):
    # the composed ene chain is the paper's formula, with its z/u^2 Jacobian
    # residue; the engine's ene term is -theta of its Hadamard term
    for f, g, gamma in itertools.chain(golden_grid(), deep_polar_grid()):
        result = engine(f, g, gamma)
        for (alpha, beta), value in zip(result.pairs, result.contributions, strict=True):
            sf = next(s for s in f.singularities if s.location == alpha)
            sg = next(s for s in g.singularities if s.location == beta)
            assert value == composed(sf, sg), f"pair ({alpha}, {beta}) of gamma = {gamma}"


@pytest.fixture
def products(monkeypatch):
    """Counts ExactCoeff products: products(call) is the number that call makes."""
    calls = 0
    multiply = ExactCoeff.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    def count(call) -> int:
        nonlocal calls
        calls = 0
        call()
        return calls

    monkeypatch.setattr(ExactCoeff, "__mul__", counted)
    monkeypatch.setattr(ExactCoeff, "__rmul__", counted)
    return count


def test_ene_product_multiplies_no_more_than_the_hadamard_one(products):
    # the ene pair term is -theta of the Hadamard accumulator, taken on its raw
    # int triples: it adds no ExactCoeff product to the Hadamard pair term's
    for f, g, gamma in itertools.chain(golden_grid(), deep_polar_grid()):
        counts = [products(lambda: engine(f, g, gamma))
                  for engine in (hadamard_monodromy_general, ene_monodromy_general)]
        assert counts[0] > 0 and counts[1] == counts[0], gamma


def test_residue_multiplies_once_per_order_and_once_per_term(products):
    # one weight -a_k/(k-1)! per nonzero polar order, then one product per term
    # of the other monodromy: the stream of unit * dG(z/u) has no dF = 1 factor
    checked = 0
    for f, g, gamma in itertools.chain(golden_grid(), deep_polar_grid()):
        for sf, sg in _pairs_for_gamma(f, g, gamma):
            for polar_side, other in ((sf, sg), (sg, sf)):
                polar = polar_side.germ.polar
                if polar:
                    count = products(lambda: _add_residue({}, polar_side.location, polar, other.monodromy))
                    assert count == sum(1 + len(other.monodromy.terms) for a_k in polar if a_k), gamma
                    checked += 1
    assert checked > 0
