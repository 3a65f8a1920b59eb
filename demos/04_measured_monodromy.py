"""The numeric oracle at work: quadrature values and measured monodromies.

Nothing here consults a monodromy formula.  Products come from contour
quadrature of F(u)G(z/u)/u; monodromies come from integrating over the detour
blocks of a deformed contour, which loop the relevant singular points, with full
branch tracking.
"""

import cmath
import math

from hadene.continuation import (
    PolylogElement,
    build_traintrack,
    geometric_element,
    monodromy_numeric,
    neg_koebe_element,
    pincherle_eval,
)
from hadene.logpoly import BranchPoint
from hadene.monodromy import (
    hadamard_monodromy_general,
    koebe_polar_function_spec,
    polylog_function_spec,
)

# products by quadrature: geometric (.) geometric is geometric
geo = geometric_element()
z = 0.3
print(f"geometric (.) geometric at {z}: {pincherle_eval(geo, geo, z, radius=0.6).real:.12f}"
      f"   (1/(1-z) = {1 / (1 - z):.12f})")

# the deformed contour for one factorization: a circle plus a twelve-piece detour
eta, eta_hat = build_traintrack(0.9, [(1.0, 1.0)], 0.95, 0.01)
print(f"\nbase contour: {len(eta.segments)} segment; deformed: {len(eta_hat.segments)} segments")

# measured vs symbolic monodromy for the log pair at gamma = 1
li1 = PolylogElement(1)
li1_spec = polylog_function_spec(1)
symbolic = hadamard_monodromy_general(li1_spec, li1_spec, 1).value
print("\n   z0      measured monodromy         symbolic value        |difference|")
for deg in (150, 180, 210):
    z0 = 1.0 + 0.1 * cmath.exp(1j * math.radians(deg))
    measured = monodromy_numeric(li1, li1, 1.0, z0, tol=1e-8)
    expected = symbolic.lp_eval(BranchPoint(z0, 0))
    print(f"{z0:.3f}  {measured:+.9f}  {expected:+.9f}  {abs(measured - expected):.2e}")

# a polar germ part: -z/(1-z)^2 against Li_2. The product is -Li_1, so the
# measured monodromy is the constant 2*pi*i; the symbolic engine reproduces it
# through its residue route.
measured = monodromy_numeric(neg_koebe_element(), PolylogElement(2), 1.0, 0.9, tol=1e-7)
symbolic = hadamard_monodromy_general(koebe_polar_function_spec(), polylog_function_spec(2), 1)
expected = symbolic.value.lp_eval(BranchPoint(0.9, 0))
print(f"\npolar-part pair: measured {measured:+.9f}")
print(f"                 symbolic {expected:+.9f}")
print(f"                 2*pi*i   {2j * math.pi:+.9f}")
