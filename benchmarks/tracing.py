"""Spans around the public functions of the `tau34` modules, from outside.

`Tracer.install()` wraps each traced function and rebinds every alias of it
in every loaded `tau34.*` module (for example `lensing.g_sheets_all`,
`parametrix.uniformize_all`, `spectral_curve.solve_sigma`), so calls through
any of them record a span; `restore()` puts the original objects back.  The
package itself is not edited.

A span is a list [name, start, end, parent, call, attr]: `name` is
`<layer>.<function>`, `parent` the index of the enclosing span (-1 at the
top), `call` the index of the CLI call it belongs to, and `attr` either
RAISED or a value taken from the call (see ATTRS).  Spans stay in memory
until `write()`.
"""
import functools
import inspect
import statistics
import sys
import time

import numpy as np

RAISED = "raised"

#: modules whose functions are traced only by name: in `cli` the subcommand
#: glue stays in main's self time; `cubic_roots` is a step of `sheet_roots`
ONLY = {"cli": ("main", "emit")}
SKIP = {"kernels": ("cubic_roots",)}

#: values recorded from a traced call's arguments or result
ATTRS = {
    "kernels.sheet_roots": lambda args, kw, out: int(np.size(out)) // 3,
    "param_domain.in_domain_D": lambda args, kw, out: bool(out.in_D),
    "lensing.verify_inequalities":
        lambda args, kw, out: min(r.min_signed_value for r in out),
    "critical.pi_integrate": lambda args, kw, out: len(out.dense.x),
}


def tau34_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "tau34" or name.startswith("tau34.")]


def layer_of(module_name):
    """'tau34._kernels._pykernels' -> 'kernels'."""
    return module_name.split(".")[1].lstrip("_")


def traced_functions():
    """{id(function): (function, span name)} for every function to trace."""
    out = {}
    for mod in tau34_modules():
        if mod.__name__ == "tau34":
            continue
        layer = layer_of(mod.__name__)
        for attr, obj in vars(mod).items():
            if (not inspect.isfunction(obj) or attr.startswith("_")
                    or obj.__module__ != mod.__name__ or obj.__name__ != attr
                    or attr in SKIP.get(layer, ())
                    or (layer in ONLY and attr not in ONLY[layer])):
                continue
            out[id(obj)] = (obj, f"{layer}.{attr}")
    return out


def bindings():
    """Every (module, attribute, object) binding of a function in tau34."""
    return [(mod, attr, obj) for mod in tau34_modules()
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)]


def snapshot():
    """{'module.attribute': function} for every function binding in tau34."""
    return {f"{mod.__name__}.{attr}": obj for mod, attr, obj in bindings()}


class Tracer:
    def __init__(self):
        self.spans = []
        self.call = 0
        self._stack = [-1]
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attr = ATTRS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.call, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[5] = RAISED
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if attr is not None:
                span[5] = attr(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def install(self):
        targets = traced_functions()
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in targets.items()}
        for mod, attr, obj in bindings():
            if id(obj) in targets and targets[id(obj)][0] is obj:
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def restore(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tcall\tattr\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

class SpanStats:
    """Calls, self time, outermost total time and raises per span name."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self.calls, self.self_s, self.raised = {}, {}, {}
        for s, c in zip(spans, child):
            name = s[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + s[2] - s[1] - c
            self.raised[name] = self.raised.get(name, 0) + (s[5] == RAISED)

    def ancestors(self, span):
        while span[3] >= 0:
            span = self.spans[span[3]]
            yield span[0]

    def total_s(self, name):
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and name not in self.ancestors(s))

    def inside(self, name, ancestor):
        return sum(1 for s in self.spans
                   if s[0] == name and ancestor in self.ancestors(s))

    def attrs(self, name):
        return [s[5] for s in self.spans if s[0] == name and s[5] != RAISED]


def pass_metrics(spans, wall):
    """Per-layer metrics of one traced pass whose calls took `wall` seconds."""
    st = SpanStats(spans)
    out = {}
    for name in st.calls:
        out[f"{name}.calls"] = st.calls[name]
        out[f"{name}.self_s"] = st.self_s[name]
        out[f"{name}.raised"] = st.raised[name]
    for name in ("spectral_curve.check_g_asymptotics",
                 "lensing.verify_inequalities", "parametrix.residue_W1",
                 "parametrix.jump_residuals", "parametrix.normalization_slope",
                 "tau_expansion.dlogtau_consistency",
                 "tau_expansion.flow_compatibility"):
        out[f"{name}.total_s"] = st.total_s(name)
    out["kernels.sheet_roots.points"] = sum(st.attrs("kernels.sheet_roots"))
    in_d = st.attrs("param_domain.in_domain_D")
    out["param_domain.in_domain_D.in_D_share"] = \
        sum(in_d) / len(in_d) if in_d else 0.0
    signs = st.attrs("lensing.verify_inequalities")
    out["lensing.verify_inequalities.min_signed_value"] = \
        min(signs) if signs else 0.0
    out["parametrix.residue_W1.nodes"] = st.inside(
        "kernels.sheet_roots", "parametrix.residue_W1")
    out["critical.pi_integrate.mesh_nodes"] = \
        sum(st.attrs("critical.pi_integrate"))
    out["trace.coverage_share"] = \
        sum(s[2] - s[1] for s in spans if s[3] < 0) / wall
    return out


def self_by_layer(spans):
    """{layer: share of the traced calls' time spent in its own code}."""
    st = SpanStats(spans)
    top = sum(s[2] - s[1] for s in spans if s[3] < 0)
    out = {}
    for name, t in st.self_s.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + t / top
    return out


def median_metrics(passes, names):
    """Median over passes of each named metric; absent counters read 0."""
    return {n: statistics.median(p.get(n, 0) for p in passes) for n in names}
