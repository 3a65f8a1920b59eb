"""Spans around the library's public functions, recorded from outside.

`Instrumented` swaps each traced function (and every alias of it that a hadene
module imported under the same name) for a wrapper that records one span per
call: name, start, end, parent span and job id.  The job span is the root of
each job's tree.  Spans live in flat arrays in memory and are written out once,
when the run ends.  Self time is a span's duration minus the time its direct
children cover; busy time counts a name's outermost spans only, so that nested
calls of one name are not counted twice.

Work counts (terms produced, series orders, coefficient sizes, monodromy pairs)
are taken from the return values at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from array import array
from fractions import Fraction
from time import perf_counter

import numpy as np

from hadene import cli, coeffs, continuation, documents, logpoly, monodromy, series


class Tracer:
    """The spans of one traced pass, as parallel arrays indexed by span."""

    JOB = "job"              # root span of each job
    CHECK = "bench.check"    # the benchmark's own answer check

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.nested = array("b")
        self._open = [-1]
        self._depth: list[int] = []
        self.job_id = -1
        self.counts = {
            "coeffs.terms_out": 0, "series.order_sum": 0, "series.coeff_bits_max": 0,
            "logpoly.terms_out": 0, "monodromy.result_terms": 0, "monodromy.pairs": 0,
        }

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.job.append(self.job_id)
        depth = self._depth[nid]
        self.nested.append(depth > 0)
        self._depth[nid] = depth + 1
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()
        self._depth[self.name[index]] -= 1

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        own = duration - covered
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(sel.sum()), float(duration[sel & ~nested].sum()), float(own[sel].sum()))
        return out

    def write(self, path) -> None:
        np.savez(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32), job=np.frombuffer(self.job, dtype=np.int32),
        )


# --- work counts taken from return values ---------------------------------------------------


def _coeff_terms(tracer, out):
    if isinstance(out, coeffs.ExactCoeff):
        tracer.counts["coeffs.terms_out"] += len(out.terms)


def _series_work(tracer, out):
    tracer.counts["series.order_sum"] += out.order + 1
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in out.coeffs if isinstance(c, Fraction)), default=0)
    tracer.counts["series.coeff_bits_max"] = max(tracer.counts["series.coeff_bits_max"], bits)


def _logpoly_terms(tracer, out):
    tracer.counts["logpoly.terms_out"] += len(out.terms)


def _monodromy_work(tracer, out):
    if isinstance(out, monodromy.MonodromyResult):
        tracer.counts["monodromy.result_terms"] += len(out.value.terms)
        tracer.counts["monodromy.pairs"] += len(out.pairs)
    elif isinstance(out, logpoly.LogLaurentPoly):
        tracer.counts["monodromy.result_terms"] += len(out.terms)


EC = coeffs.ExactCoeff
LP = logpoly.LogLaurentPoly

# (owner, attribute names, span name, work counter)
TRACED = [
    (EC, ("__mul__", "__rmul__"), "coeffs.ExactCoeff.mul", _coeff_terms),
    (EC, ("__add__",), "coeffs.ExactCoeff.add", _coeff_terms),
    (EC, ("eval",), "coeffs.ExactCoeff.eval", None),
    *[(series, (fn,), f"series.{fn}", _series_work)
      for fn in ("poly_from_roots", "log_series", "exp_series", "ene", "ene_exp", "hadamard")],
    (logpoly, ("integrate_u",), "logpoly.integrate_u", _logpoly_terms),
    (LP, ("lp_eval",), "logpoly.lp_eval", None),
    (LP, ("monodromy_at_zero",), "logpoly.LogLaurentPoly.monodromy_at_zero", _logpoly_terms),
    *[(monodromy, (fn,), f"monodromy.{fn}", _monodromy_work)
      for fn in ("hadamard_monodromy_general", "ene_monodromy_general", "polylog_monodromy", "divisor_ene")],
    *[(continuation, (fn,), f"continuation.{fn}", None)
      for fn in ("monodromy_numeric", "pincherle_eval", "ene_pincherle_eval", "continue_along")],
    (documents, ("load_document",), "documents.load", None),
    (documents, ("dump_document",), "documents.dump", None),
    (cli, ("main",), "cli.main", None),
]

LAYER_SPANS = [name for _, _, name, _ in TRACED if name != "cli.main"]


def _wrap(tracer: Tracer, fn, name: str, count):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer, out)
        return out
    return traced


class Instrumented:
    """Context manager that routes every traced function through `tracer`
    inside its block.  The swaps are worked out once, so entering and leaving
    is cheap enough to do around each job."""

    def __init__(self, tracer: Tracer):
        modules = [m for key, m in sys.modules.items() if key == "hadene" or key.startswith("hadene.")]
        self.swaps = []
        for owner, attrs, name, count in TRACED:
            original = getattr(owner, attrs[0])
            wrapper = _wrap(tracer, original, name, count)
            targets = [(owner, a) for a in attrs]
            if not isinstance(owner, type):
                # modules that imported the function by name get the wrapper too
                targets += [(m, key) for m in modules if m is not owner
                            for key, value in vars(m).items() if value is original]
            self.swaps += [(target, attr, original, wrapper) for target, attr in targets]

    def __enter__(self):
        for target, attr, _, wrapper in self.swaps:
            setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for target, attr, original, _ in reversed(self.swaps):
            setattr(target, attr, original)
