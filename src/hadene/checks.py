"""Where the two engines meet: the exact monodromy against the contour measurement.

The exact side (`logpoly`, `monodromy`) and the oracle (`continuation`) never
import each other; a comparison of the two lives here and nowhere else.  The
exact modules are imported at the top.  `continuation` is imported inside the
function that measures, because it needs numpy: `import hadene`, which loads
this module, and the exact commands then start without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .logpoly import BranchPoint
from .monodromy import hadamard_monodromy_general

if TYPE_CHECKING:  # never run: the oracle (and numpy) loads only where something is measured
    from .continuation import AnalyticElement


@dataclass
class OracleRow:
    z: complex
    winding: int
    symbolic: complex
    numeric: complex | None
    abs_error: float | None


@dataclass
class OracleReport:
    gamma: complex
    rows: list[OracleRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def max_abs_error(self) -> float:
        errors = [row.abs_error for row in self.rows if row.abs_error is not None]
        return max(errors) if errors else math.nan

    def to_csv(self) -> str:
        lines = ["z_re,z_im,winding,symbolic_re,symbolic_im,numeric_re,numeric_im,abs_error"]
        for row in self.rows:
            num_re = f"{row.numeric.real:.16e}" if row.numeric is not None else ""
            num_im = f"{row.numeric.imag:.16e}" if row.numeric is not None else ""
            err = f"{row.abs_error:.3e}" if row.abs_error is not None else ""
            lines.append(
                f"{row.z.real:.16e},{row.z.imag:.16e},{row.winding},"
                f"{row.symbolic.real:.16e},{row.symbolic.imag:.16e},{num_re},{num_im},{err}"
            )
        return "\n".join(lines) + "\n"


def crosscheck(f_spec, g_spec, gamma, samples: Sequence[complex], *,
               f_element: AnalyticElement, g_element: AnalyticElement,
               windings: Sequence[int] = (0,), tol: float = 1e-7,
               node_budget: int | None = None) -> OracleReport:
    """Compare the symbolic monodromy with contour measurements at sample points.

    The numeric side measures the monodromy on the sheet whose log z is
    continuous with Log gamma, so only winding 0 rows carry a measurement;
    other windings evaluate the symbolic result on that sheet for inspection.
    Windings count from that sheet: the principal one, except below a gamma on
    the negative real axis, where Log gamma = log|gamma| + i pi continues from
    the upper half-plane onto winding 1 of the principal log.  A measurement
    that fails is raised again as the same exception type, its text prefixed
    by the sample: "at z0 = ...: ".
    """
    from .continuation import MEASUREMENT_FAILURES, monodromy_numeric

    if 0 not in windings:
        raise ValueError(f"only winding 0 is measured; windings {tuple(windings)} would check nothing")
    symbolic = hadamard_monodromy_general(f_spec, g_spec, gamma)
    try:
        gamma_value = complex(symbolic.gamma)
    except OverflowError as exc:
        raise ValueError(f"gamma = {symbolic.gamma} overflows a double ({exc})") from exc
    report = OracleReport(gamma=gamma_value, metadata={"tol": tol, "engine": "traintrack"})
    negative_axis = symbolic.gamma.im == 0 and symbolic.gamma.re < 0
    for z0 in samples:
        sheet = 1 if negative_axis and complex(z0).imag < 0 else 0
        for w in windings:
            try:
                sym_val = symbolic.value.lp_eval(BranchPoint(complex(z0), w + sheet))
            except OverflowError as exc:
                raise ValueError(f"the symbolic value at {z0} overflows a double ({exc})") from exc
            if w == 0:
                try:
                    num_val = monodromy_numeric(f_element, g_element, gamma_value, complex(z0),
                                                tol=tol, node_budget=node_budget)
                except MEASUREMENT_FAILURES as exc:
                    raise type(exc)(f"at z0 = {complex(z0)}: {exc}") from exc
                err = abs(num_val - sym_val)
            else:
                num_val, err = None, None
            report.rows.append(OracleRow(complex(z0), w, sym_val, num_val, err))
    return report
