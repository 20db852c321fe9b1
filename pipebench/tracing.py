"""Span tracing around conformal_lab's public layer functions.

The tracer wraps functions at their module attributes from outside the
package, and also replaces every by-name import of the same function
object in other conformal_lab modules (report imports base_spectrum
straight from surface, for example).  Each call records a span
(name, start, end, parent, item); spans stay in memory until the run
writes them out.  Self time is a span's duration minus its children's.
"""

import sys
import time
from collections import defaultdict

#: module -> public functions wrapped, one span name "module.function" each
TARGETS = {
    "surface": ("build_mesh", "base_spectrum"),
    "families": ("make",),
    "conformal": ("normalize_area", "from_descriptor", "nonpositivity_check",
                  "gauss_bonnet"),
    "spectral": ("assemble", "eigenvalues", "conformal_eigen_sandwich",
                 "dumbbell_test_bound"),
    "geom": ("diameter_estimate", "curve_length", "jensen_lower_bound",
             "circle_integral_u", "region_integral_u"),
    "entropy": ("katok_bounds",),
    "report": ("sweep", "verify_metric"),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, item]
        self.counts = defaultdict(int)
        self.backward_error_max = 0.0
        self.item = None
        self._stack = []
        self._patched = []       # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        import importlib

        modules = [m for name, m in list(sys.modules.items())
                   if name == "conformal_lab" or name.startswith("conformal_lab.")]
        for mod_name, functions in TARGETS.items():
            module = importlib.import_module(f"conformal_lab.{mod_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._patched.append((namespace, attr, original))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else None, self.item])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters recorded where the work happens --------------------------

    def _before_conformal_normalize_area(self, args):
        area_of_C = args[0]
        counts = self.counts

        def counted(C):
            counts["conformal.normalize_area.area_evals"] += 1
            return area_of_C(C)

        return (counted,) + tuple(args[1:])

    def _before_geom_diameter_estimate(self, args):
        n = args[1].n_rep
        self.counts["geom.diameter_estimate.computed_bytes"] += 8 * n * n
        return args

    def _after_spectral_eigenvalues(self, result):
        self.backward_error_max = max(self.backward_error_max,
                                      float(max(result.backward_errors)))

    # -- summaries ----------------------------------------------------------

    def layer_times(self):
        """{name: [inclusive s, self s, calls]} summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += end - start
            agg[1] += end - start - child[i]
            agg[2] += 1
        return dict(out)

    def to_dict(self):
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "item": it}
                      for n, s, e, p, it in self.spans],
            "counts": dict(self.counts),
            "backward_error_max": self.backward_error_max,
        }
