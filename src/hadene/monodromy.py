"""Monodromies of Hadamard and ene product singularities, computed exactly.

A function enters as a FunctionSpec: a germ at 0 together with its isolated
singularities, each carrying an exact location, a global monodromy in
K[z^(+-1), log z], and a germ-part tag (totally holomorphic, or an explicit
polar part a_1/(u-a) + ... + a_d/(u-a)^d).

For a product location gamma the engine sums over all factorizations
gamma = alpha * beta:

  Hadamard product, totally holomorphic pairs:
      -(1/2pii) * integral_alpha^{z/beta} dF(u) dG(z/u) du/u

  Hadamard product, polar germ parts additionally contribute
      - Res_{u=alpha}( F0(u) dG(z/u) / u )  -  Res_{u=beta}( G0(u) dF(z/u) / u )

  ene product, every pair, polar germ parts included:
      -theta( Hadamard pair term ),  theta = z d/dz

  On series ene_exp(F, G) = -sum n a_n b_n z^n = -theta(F (.) G), and analytic
  continuation commutes with theta (singular expansions are closed under
  differentiation), so the ene monodromy at gamma is -theta of the Hadamard
  one.  theta kills constants, which is why the ene product is better behaved.

Residues are computed symbolically from the stored polar coefficients,
Res = sum_k a_k * H^(k-1)(pole) / (k-1)!, never by numeric limits.  One
driver sums over the factorizations for both entry points; each product
supplies only how its pair term is finished.  A totally holomorphic pair has
no residues, so the general formula is the totally holomorphic one there.

The Hadamard pair term fills one unreduced accumulator (see ``logpoly``); it
is the one pair formula.  The driver finishes each pair's accumulator once:
the Hadamard term as it is, the ene term after logpoly._theta with times = -1,
which acts on the accumulator's raw triples and takes no gcd.  The integral
takes each pair of terms f u^m (log u)^a of dF and g w^n (log w)^b of dG
whole: with the -1/2pii unit on each term of dF once, f g z^n u^(m-n-1)
(log u)^a (log(z/u))^b goes to logpoly._add_integral, which integrates over
both logs in closed form and expands each endpoint once.  Each residue reads
logpoly._pair_terms, the stream of the terms of unit * dG(z/u), with the
unit -a_k/(k-1)!, one weight per polar order, and differentiates u^p (log u)^q
in closed form.  logpoly alone expands log(z/x) = log z - log x.  Every
substitution passes the location itself, and its powers and Log powers come
from the bounded cache of location units in ``logpoly``, so repeated products
build none of them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .coeffs import GR_ONE, ExactCoeff, GaussianRational, as_exact
from .logpoly import LogLaurentPoly, _add_at, _add_integral, _finished, _gauss, _pair_terms, _theta
from .series import TruncatedSeries

NEG_INV_TWO_PI_I = -ExactCoeff.two_pi_i(-1)


@dataclass(frozen=True)
class GermPart:
    """Uniform part of a singularity: holomorphic, or an explicit polar part."""

    polar: tuple[ExactCoeff, ...] = ()

    def __post_init__(self):
        if self.polar and not self.polar[-1]:
            raise ValueError("highest-order polar coefficient must be nonzero")

    @staticmethod
    def totally_holomorphic() -> "GermPart":
        return GermPart()

    @staticmethod
    def polar_part(coeffs: Sequence) -> "GermPart":
        coeffs = tuple(as_exact(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a polar part needs at least one coefficient")
        return GermPart(coeffs)


@dataclass(frozen=True)
class Singularity:
    """Isolated singularity: exact location, global monodromy, germ part."""

    location: GaussianRational
    monodromy: LogLaurentPoly
    germ: GermPart = field(default_factory=GermPart.totally_holomorphic)

    def __post_init__(self):
        if not self.location:
            raise ValueError("singularity location must be nonzero")


@dataclass(frozen=True)
class FunctionSpec:
    """A germ at 0 presented through its singularity data."""

    name: str
    singularities: tuple[Singularity, ...]
    germ_at_zero: TruncatedSeries | None = None

    def __post_init__(self):
        if len(set(s.location for s in self.singularities)) != len(self.singularities):
            raise ValueError("singularity locations must be pairwise distinct")

    @staticmethod
    def of(name: str, singularities: Sequence[Singularity], germ_at_zero=None) -> "FunctionSpec":
        return FunctionSpec(name, tuple(singularities), germ_at_zero)


@dataclass(frozen=True)
class MonodromyResult:
    """Total monodromy at gamma plus the per-factorization contributions."""

    gamma: GaussianRational
    pairs: tuple[tuple[GaussianRational, GaussianRational], ...]
    value: LogLaurentPoly
    contributions: tuple[LogLaurentPoly, ...] = ()

    def __post_init__(self):
        for alpha, beta in self.pairs:
            if alpha * beta != self.gamma:
                raise ValueError(f"pair ({alpha}, {beta}) does not multiply to {self.gamma}")


@dataclass(frozen=True)
class Divisor:
    """Formal zero/pole multiset; poles carry negative multiplicity."""

    points: tuple[tuple[GaussianRational, int], ...]

    @staticmethod
    def of(points: dict | Sequence[tuple]) -> "Divisor":
        items = points.items() if isinstance(points, dict) else points
        cleaned = []
        for loc, mult in items:
            loc = _gauss(loc)
            if not loc:
                raise ValueError("divisor points must be nonzero")
            if mult:
                cleaned.append((loc, int(mult)))
        cleaned.sort(key=lambda it: (it[0].re, it[0].im))
        return Divisor(tuple(cleaned))

    def as_dict(self) -> dict[GaussianRational, int]:
        return dict(self.points)


def _sort_key(value: GaussianRational):
    return (value.re, value.im)


def product_set(f: FunctionSpec, g: FunctionSpec):
    """All products alpha*beta grouped by exact value, multiplicity honored."""
    gammas = list({sf.location * sg.location for sf in f.singularities for sg in g.singularities})
    if len(gammas) > 1:
        gammas.sort(key=_sort_key)
    return [(gamma, _pairs_for_gamma(f, g, gamma)) for gamma in gammas]


def _pairs_for_gamma(f: FunctionSpec, g: FunctionSpec, gamma: GaussianRational):
    """The singularity pairs whose locations multiply to gamma, in product_set's order."""
    pairs = [(sf, sg) for sf in f.singularities for sg in g.singularities
             if sf.location * sg.location == gamma]
    if len(pairs) > 1:
        pairs.sort(key=lambda p: (_sort_key(p[0].location), _sort_key(p[1].location)))
    return pairs


def _product_monodromy(finish, f: FunctionSpec, g: FunctionSpec, gamma) -> MonodromyResult:
    """Sum over the factorizations gamma = alpha * beta of each Hadamard pair accumulator, finished."""
    gamma = _gauss(gamma)
    pairs = _pairs_for_gamma(f, g, gamma)
    contributions = []
    total = LogLaurentPoly.zero()
    for sf, sg in pairs:
        value = LogLaurentPoly._wrap(finish(_hadamard_pair(sf, sg)))
        contributions.append(value)
        total = total + value
    return MonodromyResult(
        gamma, tuple((sf.location, sg.location) for sf, sg in pairs), total, tuple(contributions)
    )


def _derivative_row(p: int, q: int, r: int) -> list[int]:
    """c with d^r/du^r u^p (log u)^q = u^(p-r) sum_t c[t] (log u)^(q-t)."""
    row = [1]
    for i in range(r):
        new = [0] * min(len(row) + 1, q + 1)
        for t, c in enumerate(row):
            new[t] += (p - i) * c
            if t < q:
                new[t + 1] += (q - t) * c
        row = new
    return row


def _add_residue(acc: dict, pole: GaussianRational, polar: Sequence[ExactCoeff], other: LogLaurentPoly) -> None:
    """acc -= Res_{u=pole} (sum_k a_k (u-pole)^-k) h(u), h(u) = other(z/u) / u.

    Res = sum_k a_k h^(k-1)(pole) / (k-1)!, with -a_k / (k-1)! folded into one
    weight per order and h differentiated term by term.
    """
    for r, a_k in enumerate(polar):
        if not a_k:
            continue
        weight = a_k * Fraction(-1, math.factorial(r))
        for upow, q, zpow, zlogpow, coeff, binomial in _pair_terms(other, weight):
            p = upow - 1
            for t, c in enumerate(_derivative_row(p, q, r)):
                if c:
                    _add_at(acc, (zpow, zlogpow), pole, p - r, q - t, coeff, GR_ONE, binomial * c)


def _hadamard_pair(sf: Singularity, sg: Singularity) -> dict:
    """One factorization's Hadamard term, the integral minus polar residues, as an accumulator."""
    alpha, beta = sf.location, sg.location
    acc: dict = {}
    for (m, a), f in sf.monodromy.terms.items():
        f_unit = f * NEG_INV_TWO_PI_I
        for (n, b), g in sg.monodromy.terms.items():
            # f u^m (log u)^a * g (z/u)^n (log(z/u))^b du/u = f g z^n u^(m-n-1) (log u)^a (log(z/u))^b du
            _add_integral(acc, alpha, beta, m - n, a, b, n, 0, f_unit * g)
    _add_residue(acc, alpha, sf.germ.polar, sg.monodromy)
    _add_residue(acc, beta, sg.germ.polar, sf.monodromy)
    return acc


def _ene_finished(acc: dict) -> dict:
    """The ene term of a Hadamard pair accumulator: -theta of it, theta = z d/dz, finished once."""
    return _finished(_theta(acc, -1))


def hadamard_monodromy_general(f: FunctionSpec, g: FunctionSpec, gamma) -> MonodromyResult:
    """Monodromy of the Hadamard product at gamma, polar germ parts allowed."""
    return _product_monodromy(_finished, f, g, gamma)


def ene_monodromy_general(f: FunctionSpec, g: FunctionSpec, gamma) -> MonodromyResult:
    """Monodromy of the exponential ene product at gamma, polar germ parts allowed."""
    return _product_monodromy(_ene_finished, f, g, gamma)


def divisor_ene(f: Divisor, g: Divisor) -> Divisor:
    """Product divisor: n_gamma = sum over alpha*beta = gamma of n_alpha * n_beta."""
    out: dict[GaussianRational, int] = {}
    for loc_a, mult_a in f.points:
        for loc_b, mult_b in g.points:
            gamma = loc_a * loc_b
            out[gamma] = out.get(gamma, 0) + mult_a * mult_b
    return Divisor.of(out)


# --- ready-made function specs -------------------------------------------------


def log_ladder_monodromy(k: int) -> LogLaurentPoly:
    """Closed form -(2pii/(k-1)!) (log z)^(k-1): the weight-k ladder monodromy."""
    coeff = ExactCoeff.two_pi_i() * Fraction(-1, math.factorial(k - 1))
    return LogLaurentPoly.term(0, k - 1, 1).scale(coeff)


def polylog_function_spec(k: int) -> FunctionSpec:
    """Weight-k polylogarithm presented by its singularity at 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sing = Singularity(_gauss(1), log_ladder_monodromy(k))
    return FunctionSpec.of(f"Li_{k}", [sing])


def koebe_polar_function_spec() -> FunctionSpec:
    """-z/(1-z)^2 as a pure polar singularity at 1 (zero monodromy)."""
    germ = GermPart.polar_part([Fraction(-1), Fraction(-1)])
    sing = Singularity(_gauss(1), LogLaurentPoly.zero(), germ)
    return FunctionSpec.of("neg_koebe", [sing])


def polylog_monodromy(k: int) -> LogLaurentPoly:
    """Weight-k monodromy at 1 computed by iterating the Hadamard formula.

    Seeds from the classical logarithm (constant monodromy -2pii) and climbs
    the ladder Li_{j+1} = Li_j (.) Li_1 one exact integration at a time.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    li1 = polylog_function_spec(1)
    current = li1
    for j in range(1, k):
        # the driver itself: a traced hadamard_monodromy_general would count every step
        value = _product_monodromy(_finished, current, li1, 1).value
        current = FunctionSpec.of(f"Li_{j + 1}", [Singularity(_gauss(1), value)])
    return current.singularities[0].monodromy
