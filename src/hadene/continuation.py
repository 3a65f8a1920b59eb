"""Numerical oracle: convolution quadrature and contour-measured monodromy.

Everything here works with double-precision complex numbers and knows nothing
about the symbolic formulas; agreement between the two engines is therefore a
genuine cross-check.

The two instruments:

* Convolution quadrature.  The coefficientwise products have integral forms

      hadamard:  (1/2pii) * contour integral of F(u) G(z/u) du/u
      ene:      -(1/2pii) * contour integral of thetaF(u) G(z/u) du/u

  over any positively oriented circle separating the singularities of F(u)
  (outside) from those of G(z/u) (inside), where theta = u d/du.  The ene
  integrand -F'(u) G(z/u) du is the same form, so every element offers
  theta() (the element of u F'(u)) and the ene quadrature is the Hadamard
  quadrature of thetaF and G, negated.  Full circles use the trapezoid rule
  (spectrally accurate for periodic analytic integrands), doubling its nodes
  until two levels agree; every element evaluates on arrays, so each level's
  new nodes go through the integrand as one array.  Other contours use
  clearance-graded Gauss-Legendre panels.

* Monodromy measurement.  Dragging z once around a product point gamma
  deforms the circle into a "train track": for each factorization
  gamma = alpha * beta the contour grows a detour that runs out to alpha,
  loops it, runs in to z/beta, loops it, then undoes both loops.  The
  monodromy of the Hadamard product at gamma is I(deformed) - I(circle), with
  F and G continued branch-by-branch along the traversal.  On the circle arcs
  every factor stays on its principal branch, and each detour block hands
  every branch back as it found it, so that difference is the sum of the
  detour-block integrals alone: only the blocks are integrated, and a winding
  audit after each block checks that it restored the branches.  The measured
  value is exact up to quadrature error for any finite loop radius (homotopy
  invariance); the small loops capture polar-part residues automatically.

Branch tracking runs on the quadrature's own Gauss-Legendre panels.  A state
advances over a chain of graded panels, each given by its n nodes, dv/dtau at
them (tau runs over [-1, 1] across the panel) and its end; a panel starts
where the one before it ends.  Logarithm branches advance by running sums of
principal-log ratios over each panel's start, nodes and end.  Polylogarithm
stacks integrate d Li_{j+1} = Li_j(v) dv / v on the panel's own nodes through
the cumulative-integration matrix of the Legendre interpolant, whose
full-panel row is the Gauss-Legendre weights, up from Li_1 = -log(1 - v); the
interpolant converges at the geometric rate that governs the panel's
quadrature.  Panels are graded against every singularity either state can
meet, and 0, which the stack recursion integrates against: a piece is halved
until its length is at most frac of its clearance.  The refinement rounds of a
measurement halve frac, and each round bisects the pieces the round before
kept.  That gives the very panels a grading from the whole segments gives,
because the keep rule is monotone in frac: a piece split at one frac is split
at every smaller one, so every piece of the fresh grading lies inside a piece
of the last round's, and both reach it through the same midpoints.  Grading
and panels share one point formula, in which only arc rows take the
exponential, and a polylogarithm state starts on its one point's series.  The
ratios w = x + iy lie near 1, and their logs are
0.5 log1p((x - 1)(x + 1) + y^2) + i atan2(y, x), written straight into the
real and imaginary parts of one array: log|w| would round at the size of 1,
with a bias that builds up over the thousands of increments of a
measurement, while log1p rounds at the size of the increment, as complex
np.log does at several times the cost.

Each element kind keeps its own branch record, which with the point fixes its
branch: None if single-valued, the log and the total turn of its argument for
a log branch, the stack Li_1, ..., Li_k and the turn of arg(1 - u) for a
polylogarithm, its parts' records for a sum.  start(u0) gives the principal
branch's record and track returns a new record, never changing one in place,
so a state (element, point, record) is copied shallowly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi


class PathTooCloseToSingularity(ValueError):
    """A continuation path violates the requested clearance."""


class QuadratureNotConverged(RuntimeError):
    """Refinement exhausted before reaching the requested tolerance."""


class GeometryInfeasible(ValueError):
    """No admissible contour exists for the requested configuration."""


# what a measurement raises when it cannot measure, as opposed to a bad argument
MEASUREMENT_FAILURES = (QuadratureNotConverged, GeometryInfeasible, PathTooCloseToSingularity)


# --- paths ---------------------------------------------------------------------


@dataclass(frozen=True)
class Line:
    a: complex
    b: complex

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("Line must have nonzero length")

    def point(self, t: float) -> complex:
        return self.a + (self.b - self.a) * t

    def length(self) -> float:
        return abs(self.b - self.a)


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta_start: float
    theta_end: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("Arc radius must be positive")

    def point(self, t: float) -> complex:
        theta = self.theta_start + (self.theta_end - self.theta_start) * t
        return self.center + self.radius * cmath.exp(1j * theta)

    def length(self) -> float:
        return abs(self.theta_end - self.theta_start) * self.radius


PathSegment = Line | Arc


@dataclass(frozen=True)
class ContourSpec:
    segments: tuple[PathSegment, ...]

    def __post_init__(self):
        seg = self.segments
        for i in range(1, len(seg)):
            if abs(seg[i].point(0.0) - seg[i - 1].point(1.0)) > 1e-12:
                raise ValueError(f"segment {i} does not start where segment {i - 1} ends")
        if seg and abs(seg[-1].point(1.0) - seg[0].point(0.0)) > 1e-12:
            raise ValueError("closed contour does not return to its start")

    @staticmethod
    def circle(radius: float, phase: float = 0.0) -> "ContourSpec":
        return ContourSpec((Arc(0j, radius, phase, phase + TWO_PI),))


# --- analytic elements ------------------------------------------------------------


def _polyval(coeffs: Sequence[complex], u: complex) -> complex:
    acc = 0j
    for c in reversed(list(coeffs)):
        acc = acc * u + c
    return acc


def _theta_coeffs(coeffs: Sequence[complex]) -> list[complex]:
    """Coefficients of u p'(u) for the polynomial p with these coefficients."""
    return [n * c for n, c in enumerate(coeffs)]


class AnalyticElement:
    """A function with declared singularities, evaluable and continuable; the
    defaults of its branch-record methods serve a single-valued element."""

    def singularities(self) -> list[complex]:
        raise NotImplementedError

    def principal_value(self, u: complex | np.ndarray) -> complex | np.ndarray:
        """The principal value at u, a point or an array of points."""
        raise NotImplementedError

    def theta(self) -> "AnalyticElement":
        """The element of u F'(u), with the same singularities."""
        raise NotImplementedError

    def obstacles(self) -> list[complex]:
        """The points the panels of a tracked path are graded against."""
        return self.singularities()

    def start(self, u0: complex):
        """The branch record of the principal branch at u0."""
        return None

    def track(self, branch, start: complex, panels: "_Panels") -> tuple[np.ndarray, object]:
        """Values at the nodes of a panel chain from `start` on `branch`, and the record at its end."""
        return self.principal_value(panels.nodes), branch

    def value(self, branch, u: complex) -> complex:
        """The value at u on the branch the record `branch` holds there."""
        return self.principal_value(u)

    def windings(self, branch) -> dict[complex, int]:
        """Net turns around each singularity the record has counted."""
        return {}

    def make_state(self, u0: complex) -> "_ElementState":
        return _ElementState(self, u0, self.start(u0))


class RationalElement(AnalyticElement):
    """num(u)/den(u) with declared poles (inputs declare their singularities)."""

    def __init__(self, num: Sequence[complex], den: Sequence[complex], poles: Sequence[complex]):
        self.num = [complex(c) for c in num]
        self.den = [complex(c) for c in den]
        self.poles = [complex(p) for p in poles]
        if not any(self.den):
            raise ValueError("a rational element needs a nonzero denominator coefficient")

    def singularities(self) -> list[complex]:
        return list(self.poles)

    def principal_value(self, u: complex | np.ndarray) -> complex | np.ndarray:
        return _polyval(self.num, u) / _polyval(self.den, u)

    def theta(self) -> "RationalElement":
        # u (n'd - nd') / d^2; both products have len(num) + len(den) - 1 coefficients
        num = (np.convolve(_theta_coeffs(self.num), self.den)
               - np.convolve(self.num, _theta_coeffs(self.den)))
        return RationalElement(num, np.convolve(self.den, self.den), self.poles)


def geometric_element() -> RationalElement:
    """1/(1-u): the geometric series."""
    return RationalElement([1.0], [1.0, -1.0], poles=[1.0 + 0j])


def neg_koebe_element() -> RationalElement:
    """-u/(1-u)^2: coefficients -n."""
    return RationalElement([0.0, -1.0], [1.0, -2.0, 1.0], poles=[1.0 + 0j])


class LogBranchElement(AnalyticElement):
    """prefactor(u) * log(1 - u/location), branch tracked around the location.

    The polynomial prefactor makes polynomial monodromies realizable: the
    monodromy at the location is 2pii * prefactor(u).
    """

    def __init__(self, location: complex, prefactor: Sequence[complex] = (1.0,)):
        if location == 0:
            raise ValueError("location must be nonzero")
        self.location = complex(location)
        self.prefactor = [complex(c) for c in prefactor]

    def singularities(self) -> list[complex]:
        return [self.location]

    def principal_value(self, u: complex | np.ndarray) -> complex | np.ndarray:
        return _polyval(self.prefactor, u) * np.log(1.0 - u / self.location)

    def theta(self) -> "SumElement":
        # u c' log(1 - u/a) + u c / (u - a)
        return SumElement([
            LogBranchElement(self.location, _theta_coeffs(self.prefactor)),
            RationalElement([0j, *self.prefactor], [-self.location, 1.0], poles=[self.location]),
        ])

    def start(self, u0: complex) -> tuple:
        return cmath.log(1.0 - u0 / self.location), 0.0

    def track(self, branch: tuple, start: complex, panels: "_Panels") -> tuple[np.ndarray, tuple]:
        log_value, arg_total = branch
        steps = _log_steps(1.0 - panels.path(start) / self.location)
        logs = (log_value + steps).reshape(panels.points.shape)
        branch = complex(logs[-1, -1]), arg_total + float(steps[-1].imag)
        return _polyval(self.prefactor, panels.nodes) * logs[:, :-1], branch

    def value(self, branch: tuple, u: complex) -> complex:
        return _polyval(self.prefactor, u) * branch[0]

    def windings(self, branch: tuple) -> dict[complex, int]:
        return {self.location: round(branch[1] / TWO_PI)}


class PolylogElement(AnalyticElement):
    """Weight-k polylogarithm, continued through the integral recursion."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def singularities(self) -> list[complex]:
        return [1.0 + 0j]

    def principal_value(self, u: complex | np.ndarray) -> complex | np.ndarray:
        if self.k == 1:
            return -np.log(1.0 - u)
        return _polylog_series(self.k, u)[-1]

    def theta(self) -> AnalyticElement:
        if self.k == 1:
            return RationalElement([0.0, 1.0], [1.0, -1.0], poles=[1.0 + 0j])
        return PolylogElement(self.k - 1)

    def obstacles(self) -> list[complex]:
        # the stack recursion integrates against dv/v, so 0 must be avoided too
        return [1.0 + 0j, 0j]

    def start(self, u0: complex) -> tuple:
        stack = [-cmath.log(1.0 - u0)]
        if self.k > 1:
            stack.extend(_polylog_series(self.k, u0).tolist())
        return stack, 0.0

    def track(self, branch: tuple, start: complex, panels: "_Panels") -> tuple[np.ndarray, tuple]:
        stack, arg_one = branch
        steps = _log_steps(1.0 - panels.path(start))
        arg_one += float(steps[-1].imag)
        li = (stack[0] - steps).reshape(panels.points.shape)  # Li_1 = -log(1 - v)
        ends = [complex(li[-1, -1])]
        if self.k > 1:
            cumulative = _gl_cumulative(panels.nodes.shape[1]).T
            slope = panels.dv / panels.nodes
            for lower in stack[1:]:
                # d Li_{j+1} = Li_j(v) dv / v, integrated over each panel from its start
                li = _chain(lower, (li[:, :-1] * slope) @ cumulative)
                ends.append(complex(li[-1, -1]))
        return li[:, :-1], (ends, arg_one)

    def value(self, branch: tuple, u: complex) -> complex:
        return branch[0][-1]

    def windings(self, branch: tuple) -> dict[complex, int]:
        return {1.0 + 0j: round(branch[1] / TWO_PI)}


class SeriesElement(RationalElement):
    """A truncated series: a polynomial, so single-valued, and evaluated by
    Horner's rule wherever it is continued, as the rational element over the
    denominator 1.  It approximates the function it truncates only as well as
    the truncation allows, hence is_approximate.
    """

    is_approximate = True

    def __init__(self, coeffs: Sequence[complex], declared_singularities: Sequence[complex] = ()):
        super().__init__(coeffs, [1.0], declared_singularities)


class SumElement(AnalyticElement):
    """Finite sum of elements; realizes functions with several singularities."""

    def __init__(self, parts: Sequence[AnalyticElement]):
        if not parts:
            raise ValueError("SumElement needs at least one part")
        self.parts = list(parts)

    def singularities(self) -> list[complex]:
        # each location once, in first-seen order: parts may share a location
        return list(dict.fromkeys(s for part in self.parts for s in part.singularities()))

    def principal_value(self, u: complex | np.ndarray) -> complex | np.ndarray:
        return sum(part.principal_value(u) for part in self.parts)

    def theta(self) -> "SumElement":
        return SumElement([part.theta() for part in self.parts])

    def obstacles(self) -> list[complex]:
        return [s for part in self.parts for s in part.obstacles()]

    def start(self, u0: complex) -> tuple:
        return tuple(part.start(u0) for part in self.parts)

    def track(self, branch: tuple, start: complex, panels: "_Panels") -> tuple[np.ndarray, tuple]:
        tracked = [part.track(b, start, panels) for part, b in zip(self.parts, branch)]
        return sum(values for values, _ in tracked), tuple(b for _, b in tracked)

    def value(self, branch: tuple, u: complex) -> complex:
        return sum(part.value(b, u) for part, b in zip(self.parts, branch))

    def windings(self, branch: tuple) -> dict[complex, int]:
        merged: dict[complex, int] = {}
        for part, b in zip(self.parts, branch):
            merged.update(part.windings(b))
        return merged


# The most power-series terms _polylog_series holds at once.
_SERIES_BLOCK = 1 << 16


def _polylog_series(k: int, u: complex | np.ndarray) -> np.ndarray:
    """Li_2(u), ..., Li_k(u) by their power series, up to the first n with
    max |u|^n < 1e-17: row j - 2 holds Li_j at every point of u.  Each point's
    terms lie in one contiguous row, summed pairwise along it: one point's
    terms are one 1-D array, an array's points go a block at a time."""
    u = np.asarray(u, dtype=complex)
    mag = abs(u.item()) if u.ndim == 0 else np.abs(u).max()
    if mag >= 0.9995:
        raise QuadratureNotConverged(
            f"polylog series evaluation needs |u| < 0.9995, got {mag:.6f}"
        )
    n = 1 if mag == 0.0 else int(math.log(1e-17) / math.log(mag)) + 1
    ns = np.arange(1.0, n + 1.0)
    values = np.empty((k - 1, u.size), dtype=complex)
    step = max(1, _SERIES_BLOCK // n)
    for lo in range(0, u.size, step):
        rows = np.full(n, u) if u.ndim == 0 else u.reshape(-1, 1)[lo:lo + step].repeat(n, axis=1)
        terms = np.cumprod(rows, axis=-1) / ns
        for row in values:
            terms /= ns
            row[lo:lo + step] = terms.sum(axis=-1)
    return values.reshape(k - 1, *u.shape)


# --- Gauss-Legendre panels -----------------------------------------------------------


@cache
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@cache
def _gl_cumulative(n: int) -> np.ndarray:
    """The (n + 1) x n matrix taking values at the n Gauss-Legendre nodes to the
    integrals of their interpolant from -1 to each node and, in the last row,
    to 1: that row is the weights.  Complex, so that a tracker multiplies
    complex by complex."""
    leg = np.polynomial.legendre
    x, w = _gl_rule(n)
    # the rule is exact to degree 2n - 1, so the interpolant's Legendre
    # coefficients are weighted sums: c_k = (k + 1/2) sum_i w_i P_k(x_i) f_i
    to_coeffs = (leg.legvander(x, n - 1) * w[:, None]).T * (np.arange(n) + 0.5)[:, None]
    antiderivatives = leg.legint(np.eye(n), lbnd=-1)
    cumulative = leg.legvander(np.append(x, 1.0), n) @ antiderivatives @ to_coeffs
    cumulative[-1] = w
    return cumulative.astype(complex)


_Grading = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class _Panels:
    """A chain of Gauss-Legendre panels, one row each: `points` holds the n nodes
    and then the end, `dv` holds dv/dtau at the nodes.  Each panel starts where
    the one before it ends, the first at the point of the state that advances
    over them, so the rows read in turn are the path itself."""

    points: np.ndarray
    dv: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.points[:, :-1]

    def path(self, start: complex) -> np.ndarray:
        """start, then every node and end in path order."""
        return np.concatenate(([start], self.points.ravel()))

    def image(self, z0: complex) -> "_Panels":
        """The same panels carried to v = z0/u."""
        v = z0 / self.points
        return _Panels(v, -v[:, :-1] / self.nodes * self.dv)


def _clearances(points: np.ndarray, obstacles: np.ndarray, floor: float) -> np.ndarray:
    """Distance from each point to its nearest obstacle; a point within `floor`
    of one raises PathTooCloseToSingularity."""
    d = np.full(len(points), math.inf)
    for obstacle in obstacles:
        np.minimum(d, np.abs(points - obstacle), out=d)
    if d.min() <= floor:
        i = int(np.argmin(d))
        raise PathTooCloseToSingularity(
            f"path point {complex(points[i])} lies within {d[i]:.3e} of a singularity"
        )
    return d


class _GradedChain:
    """A chain of segments, held as columns (one row per segment: arc?, base,
    scale, start angle, sweep, length) so that lines and arcs are sampled at
    once, only arc rows taking the exponential, and its latest grading: the
    segment index, t0 and t1 of every piece, sorted.  It starts as `pieces`
    equal pieces per segment; each refine() bisects the pieces it has, so a
    chain kept across refinement rounds grades each round from the last."""

    def __init__(self, segments: Sequence[PathSegment], pieces: int = 1):
        rows = [(False, s.a, s.b - s.a, 0.0, 0.0, s.length()) if isinstance(s, Line)
                else (True, s.center, s.radius, s.theta_start, s.theta_end - s.theta_start, s.length())
                for s in segments]
        self.arc, self.base, self.scale, self.start, self.sweep, self.lengths = (
            np.array(col) for col in zip(*rows))
        first = np.arange(len(segments) * pieces)
        self.grading: _Grading = (first // pieces, first % pieces / pieces, (first % pieces + 1) / pieces)

    def sample(self, owner: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Points of segment owner[i] at ts[i], less its base: scale * t on a
        line, scale * exp(i (start + sweep t)) on an arc, whose rows alone take
        the exponential.  owner broadcasts against ts, which has the shape of
        the result."""
        rel = ts.astype(complex)
        np.exp(1j * (self.start[owner] + self.sweep[owner] * ts), out=rel, where=self.arc[owner])
        rel *= self.scale[owner]
        return rel

    def refine(self, obstacles: Sequence[complex], frac: float, min_len: float,
               floor: float = 0.0) -> "_GradedChain":
        """Bisect the pieces, all levels of all segments together, until each is kept.

        A piece is kept when its length is at most `frac` of its clearance (the
        distance from its midpoint to the nearest obstacle, less half its
        length), or at most min_len and at most half its clearance.  A piece
        whose midpoint lies within max(floor, 1e-13 (1 + |obstacle|)) of an
        obstacle raises PathTooCloseToSingularity.  A piece kept at some frac
        is kept at every larger one, so with the same obstacles and min_len,
        refining the grading of a larger frac gives the very pieces that
        grading from the start gives (see the module docstring).
        """
        obstacles = np.asarray(obstacles, dtype=complex)
        floor = max(floor, 1e-13 * (1.0 + np.max(np.abs(obstacles), initial=0.0)))
        owner, t0, t1 = self.grading
        kept = []
        while owner.size:
            tm = (t0 + t1) / 2.0
            piece = self.lengths[owner] * (t1 - t0)
            d = _clearances(self.base[owner] + self.sample(owner, tm), obstacles, floor)
            clearance = np.maximum(d - piece / 2.0, 1e-30)
            keep = piece <= np.where(piece <= min_len, max(frac, 0.5), frac) * clearance
            if keep.all():
                kept.append((owner, t0, t1))
                break
            if keep.any():
                kept.append((owner[keep], t0[keep], t1[keep]))
                split = ~keep
                owner, t0, t1, tm = owner[split], t0[split], t1[split], tm[split]
            owner, t0, t1 = np.concatenate((owner, owner)), np.concatenate((t0, tm)), np.concatenate((tm, t1))
        owner, t0, t1 = (np.concatenate(parts) for parts in zip(*kept))
        order = np.lexsort((t0, owner))
        self.grading = owner[order], t0[order], t1[order]
        return self

    def panels(self, n: int) -> _Panels:
        """The n-node Gauss-Legendre panels of the grading."""
        owner, t0, t1 = self.grading
        owner = owner[:, None]  # each piece's segment, broadcast over its n + 1 points
        half = ((t1 - t0) / 2.0)[:, None]
        ts = (t1 + t0)[:, None] / 2.0 + half * np.append(_gl_rule(n)[0], 1.0)
        rel = self.sample(owner, ts)
        dv = np.where(self.arc[owner], 1j * self.sweep[owner] * rel[:, :-1], self.scale[owner]) * half
        return _Panels(self.base[owner] + rel, dv)


# --- continuation states -----------------------------------------------------------


def _log_near_one(w: np.ndarray) -> np.ndarray:
    """Principal log of ratios near 1 (see the module docstring)."""
    x, y = w.real, w.imag
    out = np.empty(w.shape, dtype=complex)
    np.log1p((x - 1.0) * (x + 1.0) + y * y, out=out.real)
    out.real *= 0.5
    np.arctan2(y, x, out=out.imag)
    return out


def _log_steps(w: np.ndarray) -> np.ndarray:
    """log w[i] - log w[0] along a path, for i >= 1, by running sums of principal-log ratios."""
    return np.cumsum(_log_near_one(w[1:] / w[:-1]))


def _chain(start: complex, within: np.ndarray) -> np.ndarray:
    """Values along a chain of panels: start, plus the totals (last columns) of
    the panels before, plus the integrals from each panel's start."""
    offsets = np.empty(len(within), dtype=complex)
    offsets[0] = start
    offsets[1:] = start + np.cumsum(within[:-1, -1])
    return offsets[:, None] + within


class _ElementState:
    """Branch-tracked value of an element at a moving point: the element, the
    point, and the element's branch record there."""

    def __init__(self, spec: AnalyticElement, point: complex, branch):
        self.spec = spec
        self.point = point
        self.branch = branch

    def obstacles(self) -> list[complex]:
        return self.spec.obstacles()

    def advance(self, panels: _Panels) -> np.ndarray:
        """Move along the chain of panels; the values at their nodes."""
        values, self.branch = self.spec.track(self.branch, self.point, panels)
        self.point = complex(panels.points[-1, -1])
        return values

    def value(self) -> complex:
        return self.spec.value(self.branch, self.point)

    def windings(self) -> dict[complex, int]:
        return self.spec.windings(self.branch)

    def clone(self) -> "_ElementState":
        # a shallow copy suffices: track returns a new branch record, never changes one in place
        return _ElementState(self.spec, self.point, self.branch)


# Gauss-Legendre nodes per panel of continue_along, the panels' largest length
# as a fraction of their clearance, the equal pieces each segment starts as, and
# the distance from a singularity within which a panel midpoint is refused.
_CONTINUE_NODES = 12
_CONTINUE_FRAC = 0.35
_CONTINUE_PIECES = 64
_CONTINUE_DELTA = 1e-6


def continue_along(element, path: Sequence[PathSegment]) -> tuple[complex, _ElementState]:
    """Continue an element along a path, returning (end value, state at the end).

    `element` is an AnalyticElement, started on the principal branch at the
    path start, or a state an earlier call returned, resumed from a copy (so it
    can be resumed again); the path must then begin at its point.  A state has
    point, value(), windings() and spec, the element it tracks.  Each segment
    is cut into 64 equal panels, halved until each is at most 0.35 of its
    clearance from the state's singularities; a panel whose midpoint lies
    within 1e-6 of one raises PathTooCloseToSingularity.
    """
    if not path:
        raise ValueError("continue_along needs a nonempty path")
    if isinstance(element, _ElementState):
        state = element.clone()
        if abs(path[0].point(0.0) - state.point) > 1e-9:
            raise ValueError("path does not start at the element's current point")
    else:
        state = element.make_state(path[0].point(0.0))
    chain = _GradedChain(path, _CONTINUE_PIECES).refine(state.obstacles(), _CONTINUE_FRAC, 0.0, _CONTINUE_DELTA)
    state.advance(chain.panels(_CONTINUE_NODES))
    return state.value(), state


# --- convolution quadrature ------------------------------------------------------------


def _separating_radius(outer: Sequence[float], inner: Sequence[float], r: float | None = None) -> float:
    """Radius of a circle |u| = r with every magnitude in `inner` inside it and
    every one in `outer` outside.

    A given r is checked.  Otherwise, with lo the largest inner magnitude and
    hi the smallest outer one, it is sqrt(max(lo, 1e-12) * hi), or hi / 2 when
    nothing lies inside; with nothing outside, hi is max(1, 2 lo).
    """
    lo = max(inner, default=0.0)
    hi = min(outer, default=math.inf)
    if r is not None:
        if not lo < r < hi:
            raise GeometryInfeasible(
                f"circle r = {r:g} does not separate |u| <= {lo:.6g} from |u| >= {hi:.6g}"
            )
        return r
    if not math.isfinite(hi):
        hi = max(1.0, 2.0 * lo)
    if lo >= hi:
        raise GeometryInfeasible(f"no separating circle: needs {lo:.4f} < r < {hi:.4f}")
    return math.sqrt(max(lo, 1e-12) * hi) if lo > 0 else 0.5 * hi


# The trapezoid rule's first and largest node counts, and the tolerance of
# pincherle_eval between two levels.
_TRAPEZOID_START = 32
_TRAPEZOID_MAX = 1 << 16
_PINCHERLE_TOL = 1e-11


def _trapezoid_circle(fn: Callable[[np.ndarray], np.ndarray], radius: float,
                      tol: float) -> tuple[complex, int]:
    """Trapezoid rule on |u| = radius, doubling n until two levels agree within tol.

    The nodes of one level are the even nodes of the next, so each doubling
    adds only the odd nodes to the running sum; fn takes each level's new
    nodes as one array.
    """
    previous = None
    acc = 0j
    n = _TRAPEZOID_START
    while n <= _TRAPEZOID_MAX:
        j = np.arange(n) if previous is None else np.arange(1, n, 2)
        acc += complex(np.sum(fn(radius * np.exp(1j * (TWO_PI * j / n)))))
        value = acc / n
        if previous is not None and abs(value - previous) <= tol:
            return value, n
        previous = value
        n *= 2
    raise QuadratureNotConverged(f"trapezoid rule stalled above tolerance {tol:g}")


def pincherle_eval(f: AnalyticElement, g: AnalyticElement, z: complex, *,
                   radius: float | None = None) -> complex:
    """Hadamard product value by convolution quadrature on a separating circle."""
    radius = _separating_radius([abs(s) for s in f.singularities()],
                                [abs(z) / abs(s) for s in g.singularities()], radius)
    value, _ = _trapezoid_circle(
        lambda u: f.principal_value(u) * g.principal_value(z / u), radius, _PINCHERLE_TOL
    )
    return value


def ene_pincherle_eval(f: AnalyticElement, g: AnalyticElement, z: complex, *,
                       radius: float | None = None) -> complex:
    """Exponential ene product value: -(1/2pii) integral of thetaF(u) G(z/u) du/u."""
    return -pincherle_eval(f.theta(), g, z, radius=radius)


# --- train-track construction -----------------------------------------------------------


def _circle_crossing(p: complex, alpha: complex, r: float) -> complex:
    """Intersection of the segment [p, alpha] with the circle |u| = r, for
    |p| < r < |alpha| (so the discriminant is not negative)."""
    d = alpha - p
    a = abs(d) ** 2
    b = 2.0 * (p.real * d.real + p.imag * d.imag)
    c = abs(p) ** 2 - r * r
    t = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    if not 0.0 < t < 1.0:
        raise GeometryInfeasible("marked-point segment crossing lies outside (0, 1)")
    return p + t * d


@dataclass(frozen=True)
class _Detour:
    """One detour block of the deformed contour and the circle arc on to the next anchor."""

    alpha: complex
    p: complex
    block: tuple[PathSegment, ...]
    arc: Arc


def _detours(z0: complex, pairs: Sequence[tuple[complex, complex]], r: float,
             eps: float | None = None) -> tuple[float, list[_Detour]]:
    """The detour loop radius and the detours in anchor order, each pair's anchor
    being where [z0/beta, alpha] crosses the circle |u| = r (see build_traintrack).

    The detours admit every eps below one bound: the marked points (each alpha,
    each z0/beta, and 0, which no loop may enclose) lie more than 2 eps apart and
    eps / 2 off the circle, and each anchor lies more than 1.25 eps from its
    pair's loop centres.  A given eps is checked against it.  The default is 0.1
    of the smallest distance between marked points, or half the bound where that
    is not below it.  Either is refused where adding it to a loop centre leaves
    the centre unchanged, since that loop would collapse onto its centre.
    """
    marked = [(complex(alpha), z0 / complex(beta)) for alpha, beta in pairs]
    _separating_radius([abs(alpha) for alpha, _ in marked], [abs(p) for _, p in marked], r)
    anchors = [(_circle_crossing(p, alpha, r), alpha, p) for alpha, p in marked]
    points = [alpha for alpha, _ in marked] + [p for _, p in marked] + [0j]
    min_sep = min((abs(x - y) for i, x in enumerate(points) for y in points[i + 1:]), default=math.inf)
    bound = min([0.5 * min_sep, *(2.0 * abs(abs(x) - r) for x in points),
                 *(min(abs(a - alpha), abs(a - p)) / 1.25 for a, alpha, p in anchors)])
    if not bound > 0:
        raise GeometryInfeasible("marked points coincide, so no detour loop fits")
    if eps is None:
        eps = 0.1 * min_sep if 0.1 * min_sep < bound else 0.5 * bound
    elif eps >= bound:
        raise GeometryInfeasible(
            f"loop radius eps = {eps:g} is not below {bound:g}, the largest the detours admit at r = {r:g}"
        )
    for centre in (x for pair in marked for x in pair):
        if centre + eps == centre or centre + 1j * eps == centre:
            raise GeometryInfeasible(
                f"loop radius eps = {eps:g} is below the float resolution at the marked point {centre}, "
                "so the loop round it collapses"
            )
    anchored = sorted(((cmath.phase(a), a, alpha, p) for a, alpha, p in anchors), key=lambda item: item[0])
    detours = []
    for idx, (phi, a, alpha, p) in enumerate(anchored):
        next_phi = anchored[(idx + 1) % len(anchored)][0]
        if idx + 1 == len(anchored):
            next_phi += TWO_PI
        detours.append(_Detour(alpha, p, tuple(_detour_block(a, alpha, p, eps)),
                               Arc(0j, r, phi, next_phi)))
    return eps, detours


def build_traintrack(z0: complex, pairs: Sequence[tuple[complex, complex]], r: float,
                     eps: float) -> tuple[ContourSpec, ContourSpec]:
    """Base circle and its deformation with detours for each (alpha, beta) pair.

    Each detour leaves the circle at the anchor where [z0/beta, alpha] crosses
    it, loops alpha positively, loops z0/beta positively, then repeats both
    loops negatively, restoring every branch.
    """
    _, detours = _detours(z0, pairs, r, eps)
    eta = ContourSpec.circle(r, phase=detours[0].arc.theta_start if detours else 0.0)
    if not detours:
        return eta, eta
    return eta, ContourSpec(tuple(seg for d in detours for seg in (*d.block, d.arc)))


def _detour_block(a: complex, alpha: complex, p: complex, eps: float) -> list[PathSegment]:
    out_entry = alpha + eps * (a - alpha) / abs(a - alpha)
    in_entry = p + eps * (a - p) / abs(a - p)
    th_out = cmath.phase(out_entry - alpha)
    th_in = cmath.phase(in_entry - p)
    block: list[PathSegment] = []
    for sign in (+1.0, -1.0):
        block.append(Line(a, out_entry))
        block.append(Arc(alpha, eps, th_out, th_out + sign * TWO_PI))
        block.append(Line(out_entry, a))
        block.append(Line(a, in_entry))
        block.append(Arc(p, eps, th_in, th_in + sign * TWO_PI))
        block.append(Line(in_entry, a))
    return block


# --- monodromy measurement ----------------------------------------------------------------


def _matched_pairs(f: AnalyticElement, g: AnalyticElement, gamma: complex) -> list[tuple[complex, complex]]:
    pairs = []
    for alpha in f.singularities():
        for beta in g.singularities():
            if abs(alpha * beta - gamma) <= 1e-9 * (1.0 + abs(gamma)):
                pairs.append((alpha, beta))
    return pairs


def _traintrack_geometry(f: AnalyticElement, g: AnalyticElement, gamma: complex, z0: complex,
                         r: float | None = None, eps: float | None = None
                         ) -> tuple[list[tuple[complex, complex]], float, float, list[_Detour]]:
    """Matched pairs, circle radius, detour loop radius and the detours.

    A given r or eps is checked.  The default r separates the matched pairs'
    alpha from their z0/beta, and the default eps is the default of
    _detours at the default r.
    """
    pairs = _matched_pairs(f, g, gamma)
    if not pairs:
        raise GeometryInfeasible(f"no declared factorization of gamma = {gamma}")
    r_default = _separating_radius([abs(alpha) for alpha, _ in pairs], [abs(z0 / beta) for _, beta in pairs])
    if r is not None and eps is None:
        eps, _ = _detours(z0, pairs, r_default)
    r = r_default if r is None else r
    eps, detours = _detours(z0, pairs, r, eps)
    return pairs, r, eps, detours


def _block_integral(chain: _GradedChain, name: str, f_state: _ElementState,
                    g_state: _ElementState, z0: complex, obstacles: Sequence[complex],
                    n_gl: int, frac: float, min_len: float) -> tuple[complex, int]:
    """Panel Gauss-Legendre integral of F(u) G(z0/u) du/u over one detour block,
    and the number of nodes.  The block's chain is refined from the grading it
    holds, and keeps the new one.

    A block loops each marked point once each way, so it must hand every
    branch back as it found it; the measurement rests on that, so it is
    checked on the winding counters.
    """
    _, w = _gl_rule(n_gl)
    panels = chain.refine(obstacles, frac, min_len).panels(n_gl)
    before = (f_state.windings(), g_state.windings())
    integrand = f_state.advance(panels) * g_state.advance(panels.image(z0)) / panels.nodes * panels.dv
    after = (f_state.windings(), g_state.windings())
    if after != before:
        raise QuadratureNotConverged(
            f"{name} did not restore the branches it loops: windings {before} -> {after}"
        )
    return complex(np.sum(integrand @ w)), panels.nodes.size


def _measure_detours(detours: Sequence[_Detour], chains: Sequence[tuple[_GradedChain, _GradedChain | None]],
                     f_start: _ElementState, g_start: _ElementState, z0: complex,
                     obstacles: Sequence[complex], n_gl: int, frac: float,
                     min_len: float) -> tuple[complex, int]:
    """Sum of the detour-block integrals at one refinement, and the number of
    quadrature nodes and transit-arc nodes tracked.

    `chains` holds each detour's block and, where another block follows, its
    transit arc, graded by the round before; this round refines them.  The
    states start from copies of f_start and g_start, on the principal branches
    at the first anchor, and ride the circle arcs between blocks by branch
    tracking alone, on the same graded panels, so every block starts on the
    branch a traversal of the whole deformed contour gives it.
    """
    f_state, g_state = f_start.clone(), g_start.clone()
    total, points = 0j, 0
    for i, (detour, (block, arc)) in enumerate(zip(detours, chains)):
        name = f"detour block {i + 1} of {len(detours)} (alpha = {detour.alpha}, z0/beta = {detour.p})"
        value, nodes = _block_integral(block, name, f_state, g_state, z0, obstacles, n_gl, frac, min_len)
        total += value
        points += nodes
        if arc is not None:
            panels = arc.refine(obstacles, frac, min_len).panels(n_gl)
            f_state.advance(panels)
            g_state.advance(panels.image(z0))
            points += panels.nodes.size
    return total / TWO_PI_I, points


def monodromy_numeric(f: AnalyticElement, g: AnalyticElement, gamma: complex, z0: complex, *,
                      r: float | None = None, eps: float | None = None, tol: float = 1e-7,
                      node_budget: int | None = None) -> complex:
    """Measured monodromy of the Hadamard product at gamma, evaluated at z0.

    The monodromy is I(deformed) - I(circle).  On the circle arcs every factor
    stays on its principal branch, so that difference is the sum of the
    detour-block integrals alone, which is what gets integrated, with branch
    tracking; no monodromy formula is consulted anywhere.  The panels are
    graded against every singularity of f, every z0/beta for a singularity
    beta of g, matched at gamma or not, and 0.  `node_budget` caps the
    quadrature nodes and transit-arc nodes tracked over all refinement rounds.
    """
    _, r, eps, detours = _traintrack_geometry(f, g, gamma, z0, r, eps)
    obstacles = np.array([*f.singularities(), *(z0 / beta for beta in g.singularities()), 0j], dtype=complex)
    min_len = eps / 8.0
    # each round refines the last round's grading of every block, and of the
    # transit arc on to the next block where one follows
    chains = [(_GradedChain(d.block), _GradedChain([d.arc]) if i + 1 < len(detours) else None)
              for i, d in enumerate(detours)]
    start = detours[0].block[0].point(0.0)
    f_start, g_start = f.make_state(start), g.make_state(z0 / start)

    tracked = 0
    previous = None
    for n_gl, frac in ((12, 0.5), (16, 0.25), (24, 0.125), (32, 0.0625)):
        value, nodes = _measure_detours(detours, chains, f_start, g_start, z0, obstacles, n_gl, frac, min_len)
        tracked += nodes
        if not cmath.isfinite(value):
            raise QuadratureNotConverged(f"refinement round value {value} at {n_gl} GL nodes is not finite")
        if node_budget is not None and tracked > node_budget:
            raise QuadratureNotConverged(
                f"node budget {node_budget} spent: {tracked} quadrature nodes "
                "(transit arcs included) tracked"
            )
        if previous is not None and abs(value - previous) <= tol:
            return value
        previous = value
    raise QuadratureNotConverged(
        f"train-track refinement stalled above tolerance {tol:g}"
    )
