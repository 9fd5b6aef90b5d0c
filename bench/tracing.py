"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` wraps public functions of the heunforge modules from
outside: a layer function gets a span (name, start, end, parent), a hot
method (Poly and RationalComplex arithmetic) only a call counter. A
function is replaced everywhere it is bound, because `cli`, `heun`, `che`
and `apps` import names directly, so patching the defining module alone
would miss those calls. `uninstall()` puts every original back. Nothing
under src/ is edited, and the untraced runs never import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "heunforge"

# (defining module, function) pairs timed with a span
SPANNED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("heun", "heun_accessory"),
    ("heun", "heun_eigenstate"),
    ("che", "che_accessory"),
    ("che", "che_eigenstate"),
    ("apps", "electrons_sphere_state"),
    ("apps", "doublewell_verify"),
    ("apps", "coulomb3s_verify"),
    ("engine", "enumerate_branches"),
    ("engine", "branch_from_pi"),
    ("engine", "reduce_branch"),
    ("engine", "polynomial_solution"),
    ("engine", "phi_factor"),
    ("engine", "quantization"),
    ("oracle", "termination_polynomial"),
    ("oracle", "termination_solve"),
    ("oracle", "ode_residual"),
    ("oracle", "frobenius_recurrence"),
    ("oracle", "series_coeffs"),
)

# (class path, method, counter name) pairs counted without a span
COUNTED = (
    ("poly.Poly", "__init__", "poly.Poly.constructions"),
    ("poly.Poly", "__mul__", "poly.Poly.mul"),
    ("poly.Poly", "__rmul__", "poly.Poly.mul"),
    ("poly.Poly", "__add__", "poly.Poly.add"),
    ("poly.Poly", "__radd__", "poly.Poly.add"),
    ("poly.Poly", "divrem", "poly.Poly.divrem"),
    ("poly.Poly", "sqrt_head", "poly.Poly.sqrt_head"),
    ("poly.Poly", "shift", "poly.Poly.shift"),
    ("poly.Poly", "derivative", "poly.Poly.derivative"),
    ("scalars.RationalComplex", "__init__", "scalars.RationalComplex.constructions"),
    ("scalars.RationalComplex", "__mul__", "scalars.RationalComplex.mul"),
    ("scalars.RationalComplex", "__rmul__", "scalars.RationalComplex.mul"),
    ("scalars.RationalComplex", "__add__", "scalars.RationalComplex.add"),
    ("scalars.RationalComplex", "__radd__", "scalars.RationalComplex.add"),
    ("scalars.RationalComplex", "__truediv__", "scalars.RationalComplex.truediv"),
)

# Poly.roots is a method but a layer of its own, so it gets a span too
SPANNED_METHODS = (("poly.Poly", "roots", "poly.Poly.roots"),)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    `kind` is set by the runner before each request ("distinct" or
    "repeated", the shape of sigma in the request's equation) and splits
    the enumeration metrics by input kind."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.kind = "distinct"
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._observe(name, args, result, span)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result, span):
        """Counts that need a call's arguments or result."""
        parent = span[3]
        if name == "engine.enumerate_branches":
            prefix = "engine.enumerate_branches.%s." % self.kind
            self.counts[prefix + "calls"] += 1
            self.counts[prefix + "branches"] += len(result)
            self.seconds[prefix + "total_s"] += span[2] - span[1]
        elif name == "oracle.termination_polynomial" and parent >= 0 and \
                self.spans[parent][0] == "oracle.termination_solve":
            self.counts["oracle.termination_solve.candidates"] += max(result.degree, 0)
        elif name == "oracle.termination_solve":
            self.counts["oracle.termination_solve.validated"] += len(result)
            self.counts["oracle.termination_solve.wanted"] += args[1] + 1

    # -- patching ---------------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    @staticmethod
    def _resolve(path):
        module, _, attr = path.rpartition(".")
        return getattr(sys.modules["%s.%s" % (PACKAGE, module)], attr)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for module, fname in SPANNED:
            original = self._resolve("%s.%s" % (module, fname))
            wrapper = self._span("%s.%s" % (module, fname), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        for path, method, name in COUNTED:
            self._patch_method(path, method, self._counter(name, self._resolve(path).__dict__[method]))
        for path, method, name in SPANNED_METHODS:
            self._patch_method(path, method, self._span(name, self._resolve(path).__dict__[method]))

    def _patch_method(self, path, method, wrapper):
        cls = self._resolve(path)
        self._undo.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries ----------------------------------------------------------------

    def totals(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover. A span nested inside one of the same name adds to calls
        but not to total, so recursion is not counted twice."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                row["total_s"] += end - start
        return dict(out)
