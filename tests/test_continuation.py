"""Numeric oracle: quadrature, branch tracking, train-track monodromy."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from hadene.checks import crosscheck
from hadene.coeffs import ExactCoeff, GaussianRational
from hadene.continuation import (
    Arc,
    ContourSpec,
    GeometryInfeasible,
    Line,
    LogBranchElement,
    PathTooCloseToSingularity,
    PolylogElement,
    QuadratureNotConverged,
    RationalElement,
    SeriesElement,
    SumElement,
    _block_integral,
    _clearances,
    _CONTINUE_DELTA,
    _CONTINUE_FRAC,
    _CONTINUE_NODES,
    _CONTINUE_PIECES,
    _gl_cumulative,
    _gl_rule,
    _GradedChain,
    _log_near_one,
    _polylog_series,
    _traintrack_geometry,
    _trapezoid_circle,
    build_traintrack,
    continue_along,
    ene_pincherle_eval,
    geometric_element,
    monodromy_numeric,
    neg_koebe_element,
    pincherle_eval,
)
from hadene.logpoly import BranchPoint, LogLaurentPoly
from hadene.monodromy import (
    FunctionSpec,
    Singularity,
    ene_monodromy_general,
    hadamard_monodromy_general,
    koebe_polar_function_spec,
    polylog_function_spec,
)

TWO_PI_I = 2j * math.pi


def li_value(k, z, terms=2000):
    return sum(z ** n / n ** k for n in range(1, terms))


# --- continue_along -------------------------------------------------------------


def test_logbranch_gains_period_around_its_singularity():
    lb = LogBranchElement(1.0)
    loop = [Arc(1.0, 0.3, math.pi, 3 * math.pi)]
    start = lb.principal_value(0.7)
    value, cont = continue_along(lb, loop)
    assert abs((value - start) - TWO_PI_I) < 1e-12
    assert cont.windings() == {1.0 + 0j: 1}


def test_rational_element_is_single_valued():
    rat = geometric_element()
    loop = [Arc(1.0, 0.4, 0.0, 2 * math.pi)]
    value, _ = continue_along(rat, loop)
    assert abs(value - rat.principal_value(1.4)) < 1e-12


def test_polylog2_loop_around_one():
    li2 = PolylogElement(2)
    square = [
        Line(0.5, 0.5 - 0.2j), Line(0.5 - 0.2j, 1.3 - 0.2j),
        Line(1.3 - 0.2j, 1.3 + 0.2j), Line(1.3 + 0.2j, 0.5 + 0.2j),
        Line(0.5 + 0.2j, 0.5),
    ]
    start = li2.principal_value(0.5)
    value, cont = continue_along(li2, square)
    expected = -TWO_PI_I * cmath.log(0.5)
    assert abs((value - start) - expected) < 1e-8
    assert cont.windings() == {1.0 + 0j: 1}


def test_null_homotopic_loops_restore_values():
    # the loop avoids 0: the polylog stack recursion integrates du/u
    start_point = 0.2 + 0.02j
    square = [
        Line(start_point, 0.2 + 0.32j), Line(0.2 + 0.32j, -0.28 + 0.32j),
        Line(-0.28 + 0.32j, -0.28 + 0.02j), Line(-0.28 + 0.02j, start_point),
    ]
    for elem in (geometric_element(), LogBranchElement(1.0), PolylogElement(3)):
        start = elem.principal_value(start_point)
        value, cont = continue_along(elem, square)
        assert abs(value - start) < 1e-10
        assert all(w == 0 for w in cont.windings().values())


def test_continuation_resumes_from_previous_state():
    lb = LogBranchElement(1.0)
    half1 = [Arc(1.0, 0.3, math.pi, 2 * math.pi)]
    half2 = [Arc(1.0, 0.3, 2 * math.pi, 3 * math.pi)]
    _, cont = continue_along(lb, half1)
    value, cont2 = continue_along(cont, half2)
    assert abs((value - lb.principal_value(0.7)) - TWO_PI_I) < 1e-12
    assert cont2.windings() == {1.0 + 0j: 1}


def test_coarse_and_fine_starting_pieces_of_a_polylog3_loop_agree():
    # the first side passes 1 at about 0.008, so its two starting pieces are some
    # 60 times longer than their clearance; the GL panels are graded (halved until
    # each is at most 0.35 of its clearance), so two and 256 starting pieces per
    # side reach the same value
    li3 = PolylogElement(3)
    triangle = [Line(0.3, 1.2 - 0.01j), Line(1.2 - 0.01j, 1.2 + 0.4j), Line(1.2 + 0.4j, 0.3)]

    def loop(pieces):
        state = li3.make_state(0.3)
        chain = _GradedChain(triangle, pieces).refine(state.obstacles(), _CONTINUE_FRAC, 0.0, _CONTINUE_DELTA)
        state.advance(chain.panels(_CONTINUE_NODES))
        return state

    coarse, fine = loop(2), loop(256)
    jump = -TWO_PI_I / 2 * cmath.log(0.3) ** 2
    assert abs(coarse.value() - fine.value()) < 1e-12
    assert abs((coarse.value() - li3.principal_value(0.3)) - jump) < 1e-12
    assert coarse.windings() == {1.0 + 0j: 1}


def test_path_too_close_raises():
    lb = LogBranchElement(1.0)
    with pytest.raises(PathTooCloseToSingularity):
        continue_along(lb, [Line(0.5, 1.5)])


def test_series_element_recenters():
    geo = SeriesElement([1.0] * 80, declared_singularities=[1.0])
    value, cont = continue_along(geo, [Line(0.0, 0.4j), Line(0.4j, 0.5 + 0.1j)])
    assert geo.is_approximate
    assert abs(value - 1.0 / (1.0 - (0.5 + 0.1j))) < 1e-6


def test_series_element_full_loop_returns_its_polynomial_value():
    # a truncated series is a polynomial, so a loop must hand p(0.6) back; a
    # Taylor shift per path point would amplify rounding by about (1/0.4)^80
    geo = SeriesElement([1.0] * 80, declared_singularities=[1.0])
    value, _ = continue_along(geo, [Arc(0j, 0.6, 0.0, 2 * math.pi)])
    assert abs(value - geo.principal_value(0.6)) < 1e-12


# states are copied shallowly, which holds only while no element's track changes
# a branch record in place: every element kind is resumed here
@pytest.mark.parametrize("elem", [
    geometric_element(),
    SeriesElement([1.0, 0.5, 0.25j], [1.0]),
    LogBranchElement(1.0, [0, 1]),
    PolylogElement(1),
    PolylogElement(3),
    SumElement([LogBranchElement(1.0), PolylogElement(2)]),
], ids=["rational", "series", "logbranch", "polylog1", "polylog3", "sum"])
def test_resuming_a_state_leaves_it_unchanged(elem):
    _, state = continue_along(elem, [Arc(1.0, 0.3, math.pi, 2 * math.pi)])
    point, value, windings = state.point, state.value(), state.windings()
    second_half = [Arc(1.0, 0.3, 2 * math.pi, 3 * math.pi)]
    first, _ = continue_along(state, second_half)
    again, _ = continue_along(state, second_half)
    assert first == again
    assert (state.point, state.value(), state.windings()) == (point, value, windings)
    assert state.spec is elem


# --- convolution quadrature --------------------------------------------------------


def test_pincherle_geometric_pair():
    geo = geometric_element()
    value = pincherle_eval(geo, geo, 0.3, radius=0.6)
    assert abs(value - 1.0 / 0.7) < 1e-10


def test_pincherle_li1_pair_matches_series_partial_sum():
    li1 = PolylogElement(1)
    value = pincherle_eval(li1, li1, 0.25, radius=0.5)
    from hadene.series import eval_series, polylog_series
    oracle = eval_series(polylog_series(2, 400), 0.25)
    assert abs(value - oracle) < 1e-9


def test_pincherle_radius_invariance():
    geo = geometric_element()
    values = [pincherle_eval(geo, geo, 0.3, radius=r) for r in (0.45, 0.6, 0.85)]
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-10


def test_pincherle_rejects_inadmissible_radius():
    geo = geometric_element()
    with pytest.raises(GeometryInfeasible):
        pincherle_eval(geo, geo, 0.8, radius=0.5)
    with pytest.raises(GeometryInfeasible):
        pincherle_eval(geo, geo, 0.3, radius=1.2)


def test_pincherle_infeasible_geometry_when_no_radius_exists():
    geo = geometric_element()
    with pytest.raises(GeometryInfeasible):
        pincherle_eval(geo, geo, 1.5)


def test_trapezoid_convergence_is_spectral():
    # honest convergence study: error vs node count on a fixed circle
    geo = geometric_element()
    z, r = 0.3, 0.6
    truth = 1.0 / 0.7

    def trapezoid(n):
        acc = 0j
        for j in range(n):
            u = r * cmath.exp(2j * math.pi * j / n)
            acc += geo.principal_value(u) * geo.principal_value(z / u)
        return acc / n

    errors = [abs(trapezoid(n) - truth) for n in (8, 16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        if coarse < 1e-12:
            break
        assert fine < coarse / 10.0


def test_trapezoid_doubling_evaluates_each_node_once(monkeypatch):
    # levels 32, 64 and 128: each doubling reuses the nodes of the level before
    nodes = []
    value_at = PolylogElement.principal_value
    monkeypatch.setattr(PolylogElement, "principal_value",
                        lambda self, u: nodes.extend(np.ravel(u).tolist()) or value_at(self, u))
    z = 0.3 + 0.2j
    value = pincherle_eval(PolylogElement(2), geometric_element(), z)
    assert len(nodes) == len(set(nodes)) == 128
    assert abs(value - li_value(2, z)) < 1e-10


@pytest.mark.parametrize("f, g", [
    (PolylogElement(2), geometric_element()),
    (PolylogElement(1), LogBranchElement(1.0, [0.0, 1.0])),
    (SumElement([PolylogElement(3), SeriesElement([1.0, 0.5j, -0.25])]), PolylogElement(2)),
], ids=["li2xgeo", "li1xlogbranch", "sumxli2"])
def test_array_trapezoid_matches_the_per_node_sum(f, g):
    # the specification: every node of the last level evaluated on its own
    # and added in turn; the array levels may differ only in the last bits
    z = 0.3 + 0.2j
    radius = math.sqrt(abs(z))

    def integrand(u):
        return f.principal_value(u) * g.principal_value(z / u)

    value, n = _trapezoid_circle(integrand, radius, 1e-11)
    spec = sum(integrand(radius * cmath.exp(2j * math.pi * j / n)) for j in range(n)) / n
    assert abs(value - spec) <= 1e-15 * (1.0 + abs(value))


def test_polylog_series_on_an_array_matches_each_point():
    # at |u| = 0.99 a point takes some 3,900 terms, so 40 points are summed in
    # several blocks; each agrees with the point summed alone
    u = 0.99 * np.exp(2j * math.pi * np.arange(40) / 40).reshape(5, 8)
    values = _polylog_series(4, u)
    assert values.shape == (3, 5, 8)
    for index in np.ndindex(u.shape):
        alone = _polylog_series(4, complex(u[index]))
        assert np.max(np.abs(values[(slice(None), *index)] - alone)) <= 1e-15


def test_ene_pincherle_li1_pair():
    # -sum n (1/n)(1/n) z^n = -Li_1, measured without any series identity
    li1 = PolylogElement(1)
    value = ene_pincherle_eval(li1, li1, 0.25, radius=0.5)
    assert abs(value - (-li_value(1, 0.25))) < 1e-9


def test_ene_pincherle_constant_is_zero():
    const = RationalElement([3.0], [1.0], poles=[])
    li1 = PolylogElement(1)
    value = ene_pincherle_eval(const, li1, 0.25, radius=0.5)
    assert abs(value) < 1e-12


def test_ene_pincherle_agrees_with_koebe_composed_quadrature():
    # independent double quadrature of  -K0 (.) (F (.) G)  at z = 0.25
    li1 = PolylogElement(1)
    z = 0.25
    direct = ene_pincherle_eval(li1, li1, z, radius=0.5)

    koebe = neg_koebe_element()
    n = 512
    acc = 0j
    for j in range(n):
        u = 0.6 * cmath.exp(2j * math.pi * j / n)
        inner = pincherle_eval(li1, li1, z / u, radius=0.7)
        acc += koebe.principal_value(u) * inner
    composed = acc / n
    assert abs(direct - composed) < 1e-8


def test_theta_is_u_times_the_derivative():
    h = 1e-6
    elements = [
        geometric_element(), neg_koebe_element(), RationalElement([3.0], [1.0], poles=[]),
        LogBranchElement(2.0, [1.0, -0.5j]), PolylogElement(1), PolylogElement(3),
        SeriesElement([1.0, 2.0, -1.0, 0.5j], [1.5]),
        SumElement([LogBranchElement(1.0), geometric_element()]),
    ]
    for element in elements:
        theta = element.theta()
        assert theta.singularities() == element.singularities()
        for u in (0.3, -0.2 + 0.4j):
            derivative = (element.principal_value(u + h) - element.principal_value(u - h)) / (2 * h)
            assert abs(theta.principal_value(u) - u * derivative) < 1e-7


def test_sum_element_lists_each_location_once():
    elem = SumElement([LogBranchElement(2.0), LogBranchElement(1.0), geometric_element(), LogBranchElement(2.0)])
    assert elem.singularities() == [2.0, 1.0]


# --- train-track construction --------------------------------------------------------


def test_traintrack_zero_pairs_is_plain_circle():
    eta, eta_hat = build_traintrack(0.9, [], 0.95, 0.01)
    assert eta == eta_hat
    assert len(eta.segments) == 1


def test_traintrack_single_pair_structure():
    eta, eta_hat = build_traintrack(0.9, [(1.0, 1.0)], 0.95, 0.01)
    # twelve detour pieces plus the circle arc
    assert len(eta_hat.segments) == 13
    kinds = [type(seg).__name__ for seg in eta_hat.segments[:12]]
    assert kinds == ["Line", "Arc", "Line", "Line", "Arc", "Line"] * 2


def test_traintrack_rejects_overlapping_marked_points():
    with pytest.raises(GeometryInfeasible):
        build_traintrack(1.0, [(1.0, 1.0)], 0.95, 0.01)


def test_traintrack_rejects_non_separating_circle():
    with pytest.raises(GeometryInfeasible):
        build_traintrack(0.9, [(1.0, 1.0)], 0.5, 0.01)


def test_loop_radius_below_the_float_resolution_is_refused_by_name():
    # at z0 = 1e-320 the default eps is about 1e-321, and 1 + eps == 1: the loop round
    # alpha = 1 would collapse onto it, so the refusal names the loop radius
    li1 = PolylogElement(1)
    with pytest.raises(GeometryInfeasible, match=r"loop radius eps = .* below the float resolution .*\(1\+0j\)"):
        monodromy_numeric(li1, li1, 1.0, 1e-320, tol=1e-6)
    with pytest.raises(GeometryInfeasible, match="loop radius eps = 1e-17 is below the float resolution"):
        build_traintrack(0.9, [(1.0, 1.0)], 0.95, 1e-17)


# --- monodromy measurement ------------------------------------------------------------


def test_monodromy_li1_pair_matches_closed_form():
    li1 = PolylogElement(1)
    measured = monodromy_numeric(li1, li1, 1.0, 0.9, tol=1e-8)
    assert abs(measured - (-TWO_PI_I * math.log(0.9))) < 1e-8


@pytest.mark.parametrize("k, l", [(2, 1), (3, 1), (2, 2)])
def test_monodromy_polylog_pairs_match_symbolic(k, l):
    z0 = 1.0 + 0.1 * cmath.exp(1j * math.radians(160))
    measured = monodromy_numeric(PolylogElement(k), PolylogElement(l), 1.0, z0, tol=1e-8)
    symbolic = hadamard_monodromy_general(polylog_function_spec(k), polylog_function_spec(l), 1)
    assert abs(measured - symbolic.value.lp_eval(BranchPoint(z0, 0))) < 1e-8


def test_monodromy_node_budget_counts_tracked_nodes():
    li1 = PolylogElement(1)
    with pytest.raises(QuadratureNotConverged, match=r"node budget 1000 spent: \d+ quadrature nodes"):
        monodromy_numeric(li1, li1, 1.0, 0.9, tol=1e-8, node_budget=1000)
    measured = monodromy_numeric(li1, li1, 1.0, 0.9, tol=1e-8, node_budget=1 << 16)
    assert abs(measured - (-TWO_PI_I * math.log(0.9))) < 1e-8


def test_monodromy_stops_at_a_round_that_is_not_finite():
    # 1e308 / 1e-308 overflows on the first round: no later round can converge
    huge = RationalElement([1e308], [1e-308], [1.0])
    with np.errstate(all="ignore"), pytest.raises(QuadratureNotConverged, match="not finite"):
        monodromy_numeric(huge, PolylogElement(1), 1.0, 0.9)


def test_winding_audit_trips_on_half_a_detour_block():
    # the first six pieces loop alpha and z0/beta once, positively only, so
    # the branches are not handed back
    z0 = 0.9
    _, eta_hat = build_traintrack(z0, [(1.0, 1.0)], 0.95, 0.01)
    half_block = eta_hat.segments[:6]
    start = half_block[0].point(0.0)
    li1 = PolylogElement(1)
    with pytest.raises(QuadratureNotConverged, match="half block did not restore"):
        _block_integral(_GradedChain(half_block), "half block", li1.make_state(start),
                        li1.make_state(z0 / start), z0, [1.0, z0, 0j], 12, 0.5, 0.01 / 8)


def test_monodromy_rational_pair_vanishes():
    geo = geometric_element()
    measured = monodromy_numeric(geo, geo, 1.0, 0.9, tol=1e-8)
    assert abs(measured) < 1e-10


def test_monodromy_of_a_series_part_vanishes():
    # the polynomial part of F adds no monodromy, so F (.) Li_1 measures as Li_1 (.) Li_1
    li1 = PolylogElement(1)
    f = SumElement([li1, SeriesElement([1.0] * 80, declared_singularities=[1.0])])
    measured = monodromy_numeric(f, li1, 1.0, 0.9, tol=1e-8)
    assert abs(measured - (-TWO_PI_I * math.log(0.9))) < 1e-8


def test_monodromy_koebe_li2_is_constant_period():
    # -K0 (.) Li_2 = -Li_1: the measured monodromy is the constant 2pii,
    # which also pins down the sign/orientation conventions of the deformed
    # contour and confirms the polar-residue route in the symbolic engine
    measured = monodromy_numeric(neg_koebe_element(), PolylogElement(2), 1.0, 0.9, tol=1e-7)
    assert abs(measured - TWO_PI_I) < 1e-7
    symbolic = hadamard_monodromy_general(koebe_polar_function_spec(), polylog_function_spec(2), 1)
    assert abs(measured - symbolic.value.lp_eval(BranchPoint(0.9, 0))) < 1e-7


def test_monodromy_polynomial_pair():
    f = LogBranchElement(1.0, [0.0, 1.0])
    g = LogBranchElement(1.0, [1.0])
    z0 = 0.92 + 0.03j
    measured = monodromy_numeric(f, g, 1.0, z0, tol=1e-8)
    assert abs(measured - (-TWO_PI_I * (z0 - 1.0))) < 1e-8


def test_monodromy_z0_without_separating_circle_is_infeasible():
    li1 = PolylogElement(1)
    with pytest.raises(GeometryInfeasible):
        monodromy_numeric(li1, li1, 1.0, 1.1, tol=1e-6)


@pytest.mark.parametrize("z0", [0.09, 0.05, 0.01, 1e-5, 0.05j])
def test_small_z0_loop_leaves_the_origin_outside(z0):
    # |z0/beta| lies below 0.1 |z0/beta - alpha|, the loop radius the pair alone
    # would allow, so 0 must count as a marked point or the loop around z0/beta
    # encloses it
    li1 = PolylogElement(1)
    measured = monodromy_numeric(li1, li1, 1.0, z0)
    assert abs(measured - (-TWO_PI_I * cmath.log(z0))) < 1e-9


def test_monodromy_two_factorizations_superpose():
    # gamma = 4i factors as 2 * 2i and 2i * 2: the deformed contour grows one
    # detour per pair and the measured total matches the symbolic superposition
    from hadene.continuation import SumElement
    from hadene.monodromy import hadamard_monodromy_general

    two_pi_i = ExactCoeff.two_pi_i()
    elem = SumElement([LogBranchElement(2.0), LogBranchElement(2j)])
    spec = FunctionSpec.of("f", [
        Singularity(GaussianRational.of(2), LogLaurentPoly.constant(two_pi_i)),
        Singularity(GaussianRational.of(0, 2), LogLaurentPoly.constant(two_pi_i)),
    ])
    symbolic = hadamard_monodromy_general(spec, spec, GaussianRational.of(0, 4))
    assert len(symbolic.pairs) == 2
    for z0 in (3.8j, 3.9j * cmath.exp(0.03j)):
        measured = monodromy_numeric(elem, elem, 4j, z0, tol=1e-8)
        expected = symbolic.value.lp_eval(BranchPoint(z0, 0))
        assert abs(measured - expected) < 1e-8


def test_monodromy_detour_radius_sweep_converges():
    # the measurement is homotopy invariant, so shrinking the detour loops
    # must not degrade it: errors stay at the quadrature floor
    li1 = PolylogElement(1)
    expected = -TWO_PI_I * math.log(0.7)
    errors = []
    for eps in (0.1, 0.05, 0.025):
        measured = monodromy_numeric(li1, li1, 1.0, 0.7, eps=eps, tol=1e-8)
        errors.append(abs(measured - expected))
    assert all(err < 1e-8 for err in errors)
    assert errors[-1] < errors[0] + 1e-9


# --- tracking on arrays: the same measurement, the same work ------------------------------


def tracking_ratios(seed):
    """Ratios (1 - v')/(1 - v) as branch tracking forms them: panels u0 -> u1 with
    |u1 - u0| <= 0.35 |1 - u0|, whole and cut at their 24 Gauss-Legendre nodes."""
    rng = np.random.default_rng(seed)
    n = 2000
    u0 = 1.0 + rng.uniform(0.05, 2.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    step = 0.35 * np.abs(1.0 - u0) * np.sqrt(rng.uniform(0.0, 1.0, n))
    u1 = u0 + step * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    t = np.concatenate(([-1.0], _gl_rule(24)[0], [1.0]))
    us = u0[:, None] + (u1 - u0)[:, None] * ((t + 1.0) / 2.0)
    return np.concatenate(((1.0 - u1) / (1.0 - u0), ((1.0 - us[:, 1:]) / (1.0 - us[:, :-1])).ravel()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_near_one_rounds_at_the_size_of_the_increment(seed):
    w = tracking_ratios(seed)
    got, ref = _log_near_one(w), np.log(w)
    # (x - 1)(x + 1) + y^2 carries about 3 eps |w - 1| of rounding; log|w| would carry eps
    eps = np.finfo(float).eps
    bound = 4.0 * eps * np.abs(w - 1.0)
    assert np.all(np.abs(got.real - ref.real) <= bound)
    assert np.max(np.abs(np.log(np.abs(w)) - ref.real) / bound) > 100.0
    # numpy's vectorised arctan2 may round the last bit unlike the C library's atan2
    assert np.all(np.abs(got.imag - ref.imag) <= np.spacing(np.abs(ref.imag)))


def test_log_near_one_takes_the_branch_cut_as_np_log():
    w = np.array([complex(x, y) for x in (-0.5, -1.0, -2.0, -3.0) for y in (0.0, -0.0)])
    got, ref = _log_near_one(w), np.log(w)
    assert np.array_equal(got.real, ref.real)
    assert np.array_equal(got.imag, ref.imag)
    assert np.array_equal(np.signbit(got.imag), np.signbit(w.imag))


def scalar_panels(seg, obstacles, frac, min_len):
    """One segment bisected piece by piece: the specification of _GradedChain.refine."""
    total_len = seg.length()
    out, stack = [], [(0.0, 1.0)]
    while stack:
        t0, t1 = stack.pop()
        piece_len = total_len * (t1 - t0)
        mid = seg.point((t0 + t1) / 2.0)
        d = min((abs(mid - s) for s in obstacles), default=math.inf)
        d = max(d - piece_len / 2.0, 1e-30)
        if piece_len <= (max(frac, 0.5) if piece_len <= min_len else frac) * d:
            out.append((t0, t1))
        else:
            tm = (t0 + t1) / 2.0
            stack += [(tm, t1), (t0, tm)]
    return sorted(out)


def benchmark_pair_points():
    """z0 as the oracle benchmark draws them: near 1 for the tracked pairs, real for geometric."""
    rng = np.random.default_rng(8301)
    near = 1.0 + rng.uniform(0.07, 0.12, 12) * np.exp(1j * np.radians(rng.uniform(120.0, 240.0, 12)))
    return [complex(z) for z in near] + [complex(x) for x in rng.uniform(0.88, 0.94, 4)]


def traintrack_chains():
    """(segments, obstacles, min_len) of every detour block and transit arc that a
    measurement grades, for the benchmark pairs and the two-pair case."""
    cases = [(PolylogElement(1), PolylogElement(1), 1.0, z0) for z0 in benchmark_pair_points()]
    cases += [(two_logs(), two_logs(), 4j, z0) for z0 in (3.8j, 3.9j * cmath.exp(0.03j))]
    for f, g, gamma, z0 in cases:
        pairs, r, eps, detours = _traintrack_geometry(f, g, gamma, z0)
        obstacles = [alpha for alpha, _ in pairs] + [z0 / beta for _, beta in pairs] + [0j]
        for detour in detours:
            for segments in (detour.block, (detour.arc,)):
                yield segments, obstacles, eps / 8.0


@pytest.mark.parametrize("frac", [0.5, 0.25, 0.125, 0.0625])  # the four refinement rounds
def test_block_wide_panels_equal_the_per_segment_bisection(frac):
    # the last case keeps pieces no longer than min_len only within half their
    # clearance: keeping every such piece would give 25 pieces at frac 0.5, not 47
    cases = [*traintrack_chains(), ((Line(0.5, 1.5 + 0.001j),), [1.0], 0.01)]
    for segments, obstacles, min_len in cases:
        owner, t0, t1 = _GradedChain(segments).refine(obstacles, frac, min_len).grading
        for i, seg in enumerate(segments):
            mine = list(zip(t0[owner == i].tolist(), t1[owner == i].tolist()))
            assert mine == scalar_panels(seg, obstacles, frac, min_len)


def test_each_round_refines_the_last_rounds_grading_into_a_fresh_one():
    # the keep rule is monotone in frac: a piece kept at one round's frac is
    # kept at every larger one, so refining the last round's pieces gives
    # exactly the pieces that grading from the whole segments gives
    for segments, obstacles, min_len in traintrack_chains():
        chain = _GradedChain(segments).refine(obstacles, 0.5, min_len)
        for frac in (0.25, 0.125, 0.0625):
            grading = chain.refine(obstacles, frac, min_len).grading
            fresh = _GradedChain(segments).refine(obstacles, frac, min_len).grading
            assert all(np.array_equal(mine, theirs) for mine, theirs in zip(grading, fresh))


@pytest.mark.parametrize("f, g, z0", [
    (PolylogElement(2), PolylogElement(2), 1.0 + 0.1 * cmath.exp(1j * math.radians(160))),
    (PolylogElement(1), PolylogElement(1), 0.9),
    (LogBranchElement(1.0, [0.0, 1.0]), LogBranchElement(1.0), 1.0 + 0.1 * cmath.exp(1j * math.radians(160))),
], ids=["li2xli2", "li1xli1", "logbranch"])
def test_measurement_tracks_a_pinned_number_of_nodes(f, g, z0):
    # GL nodes of the graded detour-block panels over every round: a faster
    # tracker must grade the same panels and do this same work
    monodromy_numeric(f, g, 1.0, z0, tol=1e-8, node_budget=4736)
    with pytest.raises(QuadratureNotConverged, match="node budget 4735 spent: 4736 quadrature nodes"):
        monodromy_numeric(f, g, 1.0, z0, tol=1e-8, node_budget=4735)


def test_refinement_rounds_grade_a_pinned_number_of_pieces(monkeypatch):
    # clearance rows (piece midpoints) that grading evaluates over every round:
    # each round refines the last round's pieces; grading every round from the
    # whole segments evaluates 624
    rows = 0

    def counted(points, obstacles, floor):
        nonlocal rows
        rows += len(points)
        return _clearances(points, obstacles, floor)

    monkeypatch.setattr("hadene.continuation._clearances", counted)
    li2 = PolylogElement(2)
    monodromy_numeric(li2, li2, 1.0, 1.0 + 0.1 * cmath.exp(1j * math.radians(160)), tol=1e-8)
    assert rows == 524


# --- the panel code against the formulas it replaced --------------------------------------------


def reference_sample(chain, owner, ts):
    """Points and derivatives of segment owner[i] at ts[i], every row through np.exp."""
    arc, base, scale, start, sweep = (col[owner] for col in
                                      (chain.arc, chain.base, chain.scale, chain.start, chain.sweep))
    rel = scale * np.where(arc, np.exp(1j * (start + sweep * ts)), ts)
    return base + rel, np.where(arc, 1j * sweep * rel, scale)


def reference_panels(chain, n):
    """The n-node panels of a chain's grading, each node's segment gathered through a repeated owner."""
    owner, t0, t1 = chain.grading
    half = ((t1 - t0) / 2.0)[:, None]
    ts = (t1 + t0)[:, None] / 2.0 + half * np.append(_gl_rule(n)[0], 1.0)
    points, velocity = (a.reshape(-1, n + 1) for a in reference_sample(chain, np.repeat(owner, n + 1), ts.ravel()))
    return points, velocity[:, :-1] * half


def reference_clearances(points, obstacles, floor):
    """_clearances as a minimum over a points x obstacles array."""
    d = np.abs(points[:, None] - obstacles).min(axis=1, initial=math.inf)
    if d.min() <= floor:
        i = int(np.argmin(d))
        raise PathTooCloseToSingularity(
            f"path point {complex(points[i])} lies within {d[i]:.3e} of a singularity"
        )
    return d


def reference_polylog_series(k, u):
    """Li_2(u), ..., Li_k(u) with every point, a lone one too, a row of a 2-D block."""
    u = np.asarray(u, dtype=complex)
    points = u.reshape(-1, 1)
    mag = np.abs(points).max()
    n = 1 if mag == 0.0 else int(math.log(1e-17) / math.log(mag)) + 1
    ns = np.arange(1.0, n + 1.0)
    values = np.empty((k - 1, len(points)), dtype=complex)
    step = max(1, (1 << 16) // n)
    for lo in range(0, len(points), step):
        terms = np.cumprod(points[lo:lo + step].repeat(n, axis=1), axis=1) / ns
        for row in values:
            terms /= ns
            row[lo:lo + step] = terms.sum(axis=1)
    return values.reshape(k - 1, *u.shape)


@pytest.mark.parametrize("n, frac", [(12, 0.5), (16, 0.25), (24, 0.125), (32, 0.0625)])
def test_panels_equal_the_reference_formula(n, frac):
    # only arc rows take the exponential, and each piece's segment is gathered
    # once for its n + 1 points; the panels are the same to the bit
    loop = (Arc(1.0, 0.45, math.pi, 3.0 * math.pi),)
    chains = [_GradedChain(segments).refine(obstacles, frac, min_len)
              for segments, obstacles, min_len in traintrack_chains()]
    chains.append(_GradedChain(loop, _CONTINUE_PIECES).refine([1.0, 0j], _CONTINUE_FRAC, 0.0, _CONTINUE_DELTA))
    for chain in chains:
        panels = chain.panels(n)
        points, dv = reference_panels(chain, n)
        assert np.array_equal(panels.points, points) and np.array_equal(panels.dv, dv)


def test_clearances_equal_the_broadcast_minimum():
    rng = np.random.default_rng(29)
    points = rng.uniform(-2.0, 2.0, 400) + 1j * rng.uniform(-2.0, 2.0, 400)
    for count in range(5):  # no obstacle leaves every point infinitely clear
        obstacles = rng.uniform(-2.0, 2.0, count) + 1j * rng.uniform(-2.0, 2.0, count)
        assert np.array_equal(_clearances(points, obstacles, 0.0), reference_clearances(points, obstacles, 0.0))
    # at the floor both refuse the same point, with the same text
    obstacles = np.array([1.0, 0j, 0.93 + 0.02j])
    floor = float(np.sort(reference_clearances(points, obstacles, 0.0))[2])
    with pytest.raises(PathTooCloseToSingularity) as mine:
        _clearances(points, obstacles, floor)
    with pytest.raises(PathTooCloseToSingularity) as reference:
        reference_clearances(points, obstacles, floor)
    assert str(mine.value) == str(reference.value)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_a_polylog_state_starts_on_its_points_series(k):
    # one point's series is summed as a 1-D array: the same terms, divided in
    # the same order and summed pairwise as its row of a block; Li_1 alone
    # sums no series, so it starts past the series' reach too
    grid = [rho * cmath.exp(2j * math.pi * j / 16) for rho in (0.0, 0.1, 0.5, 0.9, 0.99) for j in range(16)]
    if k == 1:
        grid.append(0.99995 + 0j)
    for u0 in grid:
        stack, turn = PolylogElement(k).start(u0)
        assert stack == [-cmath.log(1.0 - u0), *reference_polylog_series(k, u0).tolist()] and turn == 0.0


@pytest.mark.parametrize("n", [12, 16, 24, 32])
def test_cumulative_matrix_integrates_polynomials_below_its_order(n):
    # row i integrates the interpolant from -1 to node i, the last row from -1 to 1
    x, w = _gl_rule(n)
    cumulative = _gl_cumulative(n)
    upper = np.append(x, 1.0)
    for m in range(n):
        exact = (upper ** (m + 1) - (-1.0) ** (m + 1)) / (m + 1)
        assert np.max(np.abs(cumulative @ x ** m - exact)) < 1e-13
    assert np.array_equal(cumulative[-1], w)


def two_logs():
    return SumElement([LogBranchElement(2.0), LogBranchElement(2j)])


def test_two_pair_measurement_tracks_a_pinned_number_of_nodes():
    # gamma = 4i has two factorizations, so the states ride one transit arc per
    # round between the blocks: 10,728 GL nodes over every round, on the graded
    # panels of the blocks and of the transit arcs
    elem = two_logs()
    monodromy_numeric(elem, elem, 4j, 3.8j, tol=1e-8, node_budget=10728)
    with pytest.raises(QuadratureNotConverged, match="node budget 10727 spent: 10728 quadrature nodes"):
        monodromy_numeric(elem, elem, 4j, 3.8j, tol=1e-8, node_budget=10727)


@pytest.mark.parametrize("f, g, gamma, z0", [
    (PolylogElement(1), PolylogElement(1), 1.0, 0.9),
    (two_logs(), two_logs(), 4j, 3.8j),
], ids=["li1xli1", "two-pair"])
def test_the_drawn_contour_is_the_measured_one(f, g, gamma, z0):
    # build_traintrack draws the deformed contour whose blocks and transit arcs
    # monodromy_numeric integrates and tracks
    pairs, r, eps, detours = _traintrack_geometry(f, g, gamma, z0)
    _, eta_hat = build_traintrack(z0, pairs, r, eps)
    assert eta_hat.segments == tuple(s for d in detours for s in (*d.block, d.arc))


def test_unmatched_singularity_next_to_a_detour_is_graded_against():
    # g is singular at 1, matched with alpha = 1 at gamma = 1, and at beta', which
    # is not matched: its image z0/beta' = 0.93 + 0.02i lies two loop radii
    # (eps = 0.01) off the detour line from the anchor to z0/1 = 0.9.  Its parts
    # are single-valued along the block, and the block runs every piece once each
    # way on the same panels, so they cancel from the measured value even on
    # panels graded without them; the node count shows the panels graded against
    # beta' as well (4,736 without it).
    image = GaussianRational.of(Fraction(93, 100), Fraction(2, 100))
    beta = GaussianRational.of(Fraction(9, 10)) / image
    f, f_spec = PolylogElement(2), polylog_function_spec(2)
    g = SumElement([PolylogElement(1), LogBranchElement(complex(beta))])
    g_spec = FunctionSpec.of("g", [polylog_function_spec(1).singularities[0],
                                   Singularity(beta, LogLaurentPoly.constant(ExactCoeff.two_pi_i()))])
    pairs, _, eps, detours = _traintrack_geometry(f, g, 1.0, 0.9)
    assert pairs == [(1.0, 1.0)] and eps == pytest.approx(0.01)
    block = detours[0].block
    near = min(abs(seg.point(t) - complex(image)) for seg in block for t in np.linspace(0.0, 1.0, 2001))
    assert near < 3 * eps
    measured = monodromy_numeric(f, g, 1.0, 0.9, tol=1e-8, node_budget=5152)
    symbolic = hadamard_monodromy_general(f_spec, g_spec, 1).value.lp_eval(BranchPoint(0.9, 0))
    assert abs(measured - symbolic) < 1e-8
    with pytest.raises(QuadratureNotConverged, match="node budget 5151 spent: 5152 quadrature nodes"):
        monodromy_numeric(f, g, 1.0, 0.9, tol=1e-8, node_budget=5151)


# --- both products measured against the symbolic engine -------------------------------------


def log_branch(location, zpow):
    """u^zpow log(1 - u/location) as an element and as a spec (monodromy 2pii z^zpow)."""
    element = LogBranchElement(location, [0.0] * zpow + [1.0])
    spec = FunctionSpec.of("log_branch", [Singularity(
        GaussianRational.of(location), LogLaurentPoly.term(zpow, 0, 1).scale(ExactCoeff.two_pi_i()))])
    return element, spec


def measured_error(product, f, f_spec, g, g_spec, gamma, z0):
    """|measured - symbolic| monodromy of one product at gamma, evaluated at z0.

    The ene integrand -F'(u) G(z/u) du is -thetaF(u) G(z/u) du/u, so the ene
    measurement is minus the Hadamard one of thetaF and G: no formula is consulted.
    """
    if product == "ene":
        measured = -monodromy_numeric(f.theta(), g, gamma, z0, tol=1e-8)
        symbolic = ene_monodromy_general(f_spec, g_spec, gamma)
    else:
        measured = monodromy_numeric(f, g, gamma, z0, tol=1e-8)
        symbolic = hadamard_monodromy_general(f_spec, g_spec, gamma)
    return abs(measured - symbolic.value.lp_eval(BranchPoint(z0, 0)))


@pytest.mark.parametrize("k, l", [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)])
def test_ene_monodromy_polylog_pairs_match_measurement(k, l):
    z0 = 1.0 + 0.1 * cmath.exp(1j * math.radians(160))
    assert measured_error("ene", PolylogElement(k), polylog_function_spec(k),
                          PolylogElement(l), polylog_function_spec(l), 1, z0) < 1e-8


@pytest.mark.parametrize("f_side, g_side", [((2, 1), (3, 0)), ((3, 0), (2, 1))])
def test_ene_monodromy_log_branch_pairs_match_measurement(f_side, g_side):
    (f, f_spec), (g, g_spec) = log_branch(*f_side), log_branch(*g_side)
    assert measured_error("ene", f, f_spec, g, g_spec, 6, 0.9 * 6 * (1 + 0.05j)) < 1e-8


def grid_pair(name):
    """f, f_spec, g, g_spec of a pair with its one singularity at 1 on each side."""
    if name == "logbranch":  # u log(1 - u) and log(1 - u)
        return (*log_branch(1.0, 1), *log_branch(1.0, 0))
    k, l = {"li1xli1": (1, 1), "li2xli1": (2, 1)}[name]
    return PolylogElement(k), polylog_function_spec(k), PolylogElement(l), polylog_function_spec(l)


@pytest.mark.parametrize("degrees", [20, 45, 90, 135, 170])
@pytest.mark.parametrize("modulus", [0.8, 0.95, 0.98])
@pytest.mark.parametrize("name", ["li1xli1", "li2xli1", "logbranch"])
def test_default_geometry_passes_its_own_check(name, modulus, degrees):
    # at |z0| = 0.95 the circle r = sqrt|z0| passes 0.025 inside z0, so the
    # detours' bound 2 (r - |z0|) lies below 0.1 |1 - z0| from arg z0 = 30
    # degrees on; the default loop radius stays below the bound
    f, f_spec, g, g_spec = grid_pair(name)
    z0 = modulus * cmath.exp(1j * math.radians(degrees))
    _, r, eps, detours = _traintrack_geometry(f, g, 1.0, z0)
    assert len(detours) == 1
    assert _traintrack_geometry(f, g, 1.0, z0, r, eps)[3] == detours
    assert measured_error("hadamard", f, f_spec, g, g_spec, 1, z0) < 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the exact engine rewrites log(z/u) as log z - log u and drops 2pii*k "
    "when Arg alpha + Arg beta wraps; both products are off by about 213 here"))
@pytest.mark.parametrize("product", ["hadamard", "ene"])
def test_wrapping_locations_match_measurement(product):
    (f, f_spec), (g, g_spec) = log_branch(-2, 1), log_branch(-3, 1)
    assert measured_error(product, f, f_spec, g, g_spec, 6, 5.4 * (1 + 0.05j)) < 1e-8


@pytest.mark.xfail(strict=True, raises=PathTooCloseToSingularity, reason=(
    "ROADMAP item 4: with z0/beta exactly opposite alpha the straight detour line "
    "[z0/beta, alpha] passes through 0, which the panels are graded against"))
def test_z0_opposite_alpha_is_measured():
    li1 = PolylogElement(1)
    measured = monodromy_numeric(li1, li1, 1.0, -0.9)
    symbolic = hadamard_monodromy_general(polylog_function_spec(1), polylog_function_spec(1), 1)
    assert abs(measured - symbolic.value.lp_eval(BranchPoint(-0.9, 0))) < 1e-7


# --- dual-engine crosscheck --------------------------------------------------------------


def test_crosscheck_polylog_pair():
    li1_spec = polylog_function_spec(1)
    samples = [1.0 + 0.1 * cmath.exp(1j * math.radians(deg)) for deg in (120, 150, 180, 210, 240)]
    report = crosscheck(
        li1_spec, li1_spec, 1, samples,
        f_element=PolylogElement(1), g_element=PolylogElement(1), tol=1e-8,
    )
    assert report.max_abs_error < 1e-6
    assert len(report.rows) == 5


def test_crosscheck_zero_monodromy_pair():
    f_spec = FunctionSpec.of("geo", [Singularity(GaussianRational.of(1), LogLaurentPoly.zero())])
    report = crosscheck(
        f_spec, f_spec, 1, [0.9],
        f_element=geometric_element(), g_element=geometric_element(), tol=1e-8,
    )
    assert report.max_abs_error < 1e-10


def test_crosscheck_synthetic_polynomial_monodromy_pair():
    two_pi_i = ExactCoeff.two_pi_i()
    f_spec = FunctionSpec.of("f", [Singularity(
        GaussianRational.of(1), LogLaurentPoly.term(1, 0, 1).scale(two_pi_i))])
    g_spec = FunctionSpec.of("g", [Singularity(
        GaussianRational.of(1), LogLaurentPoly.constant(two_pi_i))])
    samples = [0.93, 0.92 + 0.05j]
    report = crosscheck(
        f_spec, g_spec, 1, samples,
        f_element=LogBranchElement(1.0, [0.0, 1.0]), g_element=LogBranchElement(1.0), tol=1e-8,
    )
    assert report.max_abs_error < 1e-6


def test_crosscheck_nonzero_winding_rows_are_symbolic_only():
    li1_spec = polylog_function_spec(1)
    report = crosscheck(
        li1_spec, li1_spec, 1, [0.9], windings=(0, 1),
        f_element=PolylogElement(1), g_element=PolylogElement(1), tol=1e-8,
    )
    by_winding = {row.winding: row for row in report.rows}
    assert by_winding[1].numeric is None
    # same point, next sheet of log z differs by 2pii in the closed form
    delta = by_winding[1].symbolic - by_winding[0].symbolic
    assert abs(delta - (-TWO_PI_I * TWO_PI_I)) < 1e-12


def test_report_csv_round_numbers():
    li1_spec = polylog_function_spec(1)
    report = crosscheck(
        li1_spec, li1_spec, 1, [0.9],
        f_element=PolylogElement(1), g_element=PolylogElement(1), tol=1e-8,
    )
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("z_re,z_im,winding")
    assert len(csv.splitlines()) == 2
