"""Spans around the public functions of each `qcatalan` module, from outside.

The traced run calls `qcatalan.cli.main` in-process with every public
function of the library replaced by a wrapper that records a span: layer,
function, start, end, the enclosing span, and whether it raised.  The
wrapper must go into every module namespace that binds the function, not
only the defining one: `cli`, `shape` and `limitlaw` use `from .x import y`,
and patching only the defining module would charge the construction inside
`scan_family`, or the `dist_summary` calls inside `exact_standardized_mgf`,
to the caller's layer.

A layer's self time is the time its spans cover minus the part their child
spans cover, so every second is charged to exactly one layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 at top level
    error: str | None = None  # class name of the exception the call raised
    size: int = 0  # coefficients returned (polyq) or table max index (exactnum)
    bits: int = 0  # bit length of the largest coefficient returned (polyq)


# Layer of each wrapped public function, by defining module.  Classes,
# constants and the envelope-parameter factories stay unwrapped; their
# negligible time is charged to the caller.
_POLYQ = (
    "poly_mul", "poly_div_exact", "qint", "gaussian_binomial", "q_catalan",
    "q_catalan_via_binomial", "q_catalan_second", "q_catalan_general",
    "quotient_poly", "major_index_histogram",
)
LAYERS: dict[str, dict[str, str]] = {
    "polyq": {name: "polyq" for name in _POLYQ},
    "moments": {
        name: "moments"
        for name in ("dist_summary", "central_moment", "catalan_moments_closed",
                     "general_moments_closed", "preset")
    },
    "exactnum": {
        name: "exactnum"
        for name in ("bernoulli_table", "log_sinh_series_coeff", "bernoulli_asymptotic",
                     "bernoulli_tail_partial_sums")
    },
    "limitlaw": {
        "exact_standardized_mgf": "limitlaw.mgf",
        "log_mgf_truncated": "limitlaw.series",
        "tail_series": "limitlaw.series",
        "ks_distance_to_normal": "limitlaw.ks",
        "condition_ratio": "limitlaw.ratio",
        "power_sum_diff": "limitlaw.ratio",
        "geco_bound_check": "limitlaw.ratio",
    },
    "shape": {
        name: "shape"
        for name in ("shape_report", "scan_family", "interior_unimodal", "min_logconcave_t",
                     "min_logconcave_t_bruteforce")
    },
    "cli": {"main": "cli"},
}

# Spans the tracer spends sizing results; they keep that time out of the
# measured layers and show up only in trace.overhead.
OVERHEAD = "trace"

UNITS = {
    "polyq.calls": "count",
    "polyq.self_s": "s",
    "polyq.coeffs": "count",
    "polyq.max_coeff_bits": "bits",
    "polyq.rejects": "count",
    "polyq.reject_s": "s",
    "moments.calls": "count",
    "moments.self_s": "s",
    "moments.summaries_per_poly": "1",
    "exactnum.calls": "count",
    "exactnum.self_s": "s",
    "exactnum.max_index": "count",
    "limitlaw.mgf.calls": "count",
    "limitlaw.mgf.self_s": "s",
    "limitlaw.series.calls": "count",
    "limitlaw.series.self_s": "s",
    "limitlaw.ks.self_s": "s",
    "limitlaw.ratio.calls": "count",
    "limitlaw.ratio.self_s": "s",
    "shape.calls": "count",
    "shape.self_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Records spans of wrapped calls; single-threaded, in-process only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn: Callable, layer: str) -> Callable:
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(Span(layer, fn.__name__, 0.0, 0.0, parent))
            self._open.append(index)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                self._open.pop()
                self.spans[index] = Span(layer, fn.__name__, start, end, parent, error)
            self._size(index, result)
            return result

        return traced

    def _size(self, index: int, result) -> None:
        span = self.spans[index]
        start = self.clock()
        if span.layer == "polyq":
            size, bits = len(result.coeffs), max(map(int.bit_length, result.coeffs), default=0)
        elif span.name == "bernoulli_table":
            size, bits = result.max_index, 0
        else:
            return
        self.spans[index] = span._replace(size=size, bits=bits)
        self.spans.append(Span(OVERHEAD, "size", start, self.clock(), span.parent))

    @contextmanager
    def installed(self, package: str = "qcatalan") -> Iterator["Tracer"]:
        """Wrap every function in LAYERS wherever a loaded module of
        `package` binds it, and restore the originals on exit."""
        wrappers = {}
        for module, names in LAYERS.items():
            home = sys.modules[f"{package}.{module}"]
            for name, layer in names.items():
                original = getattr(home, name)
                wrappers[id(original)] = (original, self.wrap(original, layer))
        patched = []
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics named in UNITS, from one traced pass.

    A call counts once per entry into its layer, so a library function that
    calls another of the same layer adds time but not calls.
    """
    self_s: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        self_s[span.layer] += seconds
    entries = [s for s in spans if s.parent < 0 or spans[s.parent].layer != s.layer]
    calls = Counter(s.layer for s in entries)
    names = Counter(s.name for s in spans)
    built = [s for s in entries if s.layer == "polyq" and s.error is None]
    rejected = [s for s in entries if s.layer == "polyq" and s.error == "NotPolynomial"]
    metrics: dict[str, float] = {
        "polyq.coeffs": sum(s.size for s in built),
        "polyq.max_coeff_bits": max((s.bits for s in built), default=0),
        "polyq.rejects": len(rejected),
        "polyq.reject_s": sum((s.end - s.start for s in rejected), 0.0),
        "moments.summaries_per_poly": names["dist_summary"] / len(built) if built else 0.0,
        "exactnum.max_index": max(
            (s.size for s in spans if s.name == "bernoulli_table"), default=0
        ),
        "shape.calls": names["shape_report"],
    }
    for name in UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls" and name not in metrics:
            metrics[name] = calls[layer]
        elif kind == "self_s":
            metrics[name] = self_s[layer]
    return {name: metrics[name] for name in UNITS}
