"""Span tracing of mongebde's public functions, installed from outside.

``install()`` wraps the functions listed in ``TARGETS`` and records one span
per call: name, start, end and the span that was open when it began (its
parent).  Spans live in compact in-memory arrays and are written out once,
by ``Tracer.dump``, when the pass ends.  A span's self time is its duration
minus the time its child spans cover.

``from .poly import resultant`` copies the function object into the
importing module, so every ``mongebde`` module that binds an original is
patched, not only the defining one.  ``mongebde.sweep`` is the re-exported
``sweep`` function, so the submodule is reached through ``sys.modules``.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

# (module, attribute) -> span name.  A dotted attribute names a method.
TARGETS = {
    # exact core
    ("poly", "resultant"): "poly.resultant",
    ("poly", "substitute"): "poly.substitute",
    ("poly", "divexact"): "poly.divexact",
    ("poly", "normalize_primitive"): "poly.normalize_primitive",
    # curve equations
    ("bde", "asymptotic_bde"): "bde.asymptotic_bde",
    ("flecnodal", "flecnodal_system"): "flecnodal.flecnodal_system",
    ("flecnodal", "parabolic_poly"): "flecnodal.parabolic_poly",
    ("sweep", "singular_parameter_eliminant"): "sweep.singular_parameter_eliminant",
    ("classify", "classify_monge"): "classify.classify_monge",
    ("ide", "to_ide"): "ide.to_ide",
    ("ide", "versality_check"): "ide.versality_check",
    # numeric kernels
    ("numeval", "compile_poly"): "numeval.compile_poly",
    ("numeval", "CompiledPoly.__call__"): "numeval.CompiledPoly.call",
    ("trace", "fix_params"): "trace.fix_params",
    ("trace", "trace_zero_set"): "trace.trace_zero_set",
    ("trace", "curve_singularities"): "trace.curve_singularities",
    ("trace", "gauss_cusps"): "trace.gauss_cusps",
    ("trace", "butterfly_points"): "trace.butterfly_points",
    ("field", "directions_at"): "field.directions_at",
    ("field", "integrate_field"): "field.integrate_field",
    # orchestration
    ("sweep", "fingerprint"): "sweep.fingerprint",
    ("sweep", "sweep"): "sweep.sweep",
    ("sweep", "panel_scene"): "sweep.panel_scene",
    ("field", "portrait"): "field.portrait",
    # CLI and artifacts
    ("cli", "run"): "cli.run",
    ("goldens", "compute_exact"): "goldens.compute_exact",
    ("emit", "curves_csv"): "emit.curves_csv",
    ("emit", "scene_svg"): "emit.scene_svg",
    ("emit", "diagram_svg"): "emit.diagram_svg",
    ("emit", "loci_csv"): "emit.loci_csv",
    ("emit", "fingerprints_json"): "emit.fingerprints_json",
    ("emit", "report_json"): "emit.report_json",
}

LAYERS = {
    "poly": ("poly.",),
    "curves": ("bde.", "flecnodal.", "classify.", "ide.", "sweep.singular_parameter_eliminant"),
    "kernels": ("numeval.", "trace.", "field.directions_at", "field.integrate_field"),
    "orchestration": ("sweep.fingerprint", "sweep.sweep", "sweep.panel_scene", "field.portrait"),
    "cli": ("cli.", "emit.", "goldens."),
}


def layer_of(name: str) -> str:
    for layer, prefixes in LAYERS.items():
        if name.startswith(prefixes):
            return layer
    raise KeyError(name)


def _grid_seeds(fn):
    sig = inspect.signature(fn)

    def hook(tracer, name, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.add(name + ".seeds", bound.arguments["grid"] ** 2)
        tracer.add(name + ".found", len(result))
    return hook


def _trace_cells(fn):
    sig = inspect.signature(fn)

    def hook(tracer, name, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.add(name + ".cells", bound.arguments["resolution"] ** 2)
    return hook


def _points(tracer, name, args, kwargs, result):
    tracer.add(name + ".points", int(np.size(result)))


def _steps(tracer, name, args, kwargs, result):
    tracer.add(name + ".steps", max(len(result) - 1, 0))


def _emitted(tracer, name, args, kwargs, result):
    tracer.add("emit.bytes", len(result.encode("utf-8")))


def _resultant_size(tracer, name, args, kwargs, result):
    p, q, var = args[0], args[1], args[2] if len(args) > 2 else kwargs["var"]
    dp = p.degree(var) if var in p.varlist else 0
    dq = q.degree(var) if var in q.varlist else 0
    tracer.peak(name + ".matrix_dim.max", dp + dq)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.terms.values()),
        default=0,
    )
    tracer.peak(name + ".coeff_bits.max", bits)


def _sweep_counts(tracer, name, args, kwargs, result):
    cells = len(result.t_values) * len(result.u_values)
    tracer.add("sweep.cells", cells)
    tracer.add("sweep.locus_points", sum(len(locus.points) for locus in result.loci))


class Tracer:
    """In-memory span store plus named counters and maxima."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), n)

    def wrap(self, name: str, fn, hook=None):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, key: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self, path: str) -> None:
        """Write every span as a compressed array file (names, start, end, parent)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per-function calls, self and total time; per-layer self time; counters."""
        name = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        dur = np.array(self.span_end, dtype=np.float64) - np.array(self.span_start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        # Inclusive time counts only outermost spans of a name, so a
        # recursive call is not counted twice.
        outer = np.ones(len(dur), dtype=bool)
        if len(dur):
            outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        total_s = np.bincount(name[outer], weights=dur[outer], minlength=k)
        functions = {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, n in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for n, row in functions.items():
            layers[layer_of(n)] += row["self_s"]
        root_s = float(dur[~has_parent].sum())
        return {
            "functions": functions,
            "layers": layers,
            "root_s": root_s,
            "spans": int(len(dur)),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


# Span name -> factory that gets the wrapped function and returns the hook
# run after each call (to count work the call did).
_HOOKS = {
    "poly.resultant": lambda fn: _resultant_size,
    "numeval.CompiledPoly.call": lambda fn: _points,
    "trace.trace_zero_set": _trace_cells,
    "trace.curve_singularities": _grid_seeds,
    "trace.gauss_cusps": _grid_seeds,
    "field.integrate_field": lambda fn: _steps,
    "sweep.sweep": lambda fn: _sweep_counts,
}


def _hook_for(span: str, fn):
    if span.startswith("emit."):
        return _emitted
    factory = _HOOKS.get(span)
    return factory(fn) if factory else None


def install() -> Tracer:
    """Wrap every target in every loaded ``mongebde`` module; return the tracer."""
    import mongebde.cli  # noqa: F401  (loads every submodule the CLI uses)

    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n == "mongebde" or n.startswith("mongebde.")]
    for (mod_name, attr), span in TARGETS.items():
        module = sys.modules[f"mongebde.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span, orig, _hook_for(span, orig)))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(span, orig, _hook_for(span, orig))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    poly_cls = sys.modules["mongebde.poly"].Poly
    poly_cls.__init__ = tracer.count_calls("poly.Poly.init.calls", poly_cls.__init__)
    return tracer
