"""The polylogarithm ladder, computed symbolically.

Starting from the classical logarithm (constant monodromy -2pii at 1), each
Hadamard product with Li_1 integrates once more, producing

    monodromy of Li_k at 1  =  -(2pii / (k-1)!) (log z)^(k-1)

entirely in exact arithmetic: rationals times powers of the 2pii symbol.
"""

import math

from hadene.logpoly import BranchPoint
from hadene.monodromy import (
    ene_monodromy_general,
    log_ladder_monodromy,
    polylog_function_spec,
    polylog_monodromy,
)

print("weight | monodromy at 1 (computed by iterated exact integration)")
print("-" * 72)
for k in range(1, 7):
    value = polylog_monodromy(k)
    check = "ok" if value == log_ladder_monodromy(k) else "MISMATCH"
    print(f"   {k}   | {value!r}   [{check}]")

# the ene product closes the same ladder downward: Li_k ene Li_l = -Li_{k+l-1}
print("\nene ladder (k, l) -> weight k+l-1, all exact:")
for k, l in [(2, 2), (2, 3), (3, 3), (4, 5)]:
    value = ene_monodromy_general(polylog_function_spec(k), polylog_function_spec(l), 1).value
    ok = value == -log_ladder_monodromy(k + l - 1)
    print(f"  Li_{k} ene Li_{l}: matches -Li_{k + l - 1} monodromy: {ok}")

# numeric sample on the principal sheet
value = polylog_monodromy(2)
z0 = 0.9
print(f"\nweight-2 monodromy evaluated at z = {z0}: {value.lp_eval(BranchPoint(z0)):.12f}")
print(f"closed form -2*pi*i*log({z0})          : {-2j * math.pi * math.log(z0):.12f}")
