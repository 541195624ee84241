"""Layer tracing for lenswall, installed from outside the package.

`Tracer.install` replaces the traced functions at run time: module-level
functions are rebound in every loaded `lenswall` module that holds them
(so a call through another module's global lookup, such as `eta_table`
calling `rho_table`, is seen), and methods are replaced on their class.
`restore` puts the originals back.  Spans stay in memory until the traced
work is over; `totals` sums them into additive per-process totals, which
`metrics.layer_metrics` turns into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import odd_units

# (module, attribute, span name).  "Class.method" attributes are replaced
# on the class; plain names are rebound wherever the function object is bound.
SPANS = (
    ("lenswall.cyclotomic", "Cyclotomic.times_root", "cyclotomic.times_root"),
    ("lenswall.cyclotomic", "Cyclotomic.__mul__", "cyclotomic.mul"),
    ("lenswall.cyclotomic", "Cyclotomic.__rmul__", "cyclotomic.mul"),
    ("lenswall.cyclotomic", "Cyclotomic.inverse", "cyclotomic.inverse"),
    ("lenswall.eta", "rho_table", "eta.rho_table"),
    ("lenswall.eta", "eta_table", "eta.eta_table"),
    ("lenswall.eta", "distinguish_metrics", "eta.distinguish"),
    ("lenswall.eta", "component_classes", "eta.component_classes"),
    ("lenswall.eta", "eta_variant", "eta.variant"),
    ("lenswall.eta", "fourier_closed_form", "eta.fourier"),
    ("lenswall.eta", "fourier_unit_ratio", "eta.fourier"),
    ("lenswall.wallcross", "orbit_swtot", "wallcross.orbit_swtot"),
    ("lenswall.wallcross", "power_swtot", "wallcross.power_swtot"),
    ("lenswall.wallcross", "spinc_orbit", "wallcross.spinc_orbit"),
    ("lenswall.wallcross", "classify_isometry", "wallcross.classify"),
    ("lenswall.lattice", "Isometry.adjoint", "lattice.isometry"),
    ("lenswall.lattice", "Isometry.power", "lattice.isometry"),
    ("lenswall.lattice", "Isometry.inverse", "lattice.isometry"),
    ("lenswall.lattice", "Isometry.compose", "lattice.isometry"),
    ("lenswall.lattice", "metabolizer_search", "lattice.metabolizer_search"),
    ("lenswall.scenario", "load_scenario", "scenario.load"),
    ("lenswall.discplot", "render_disc_svg", "discplot.render"),
    ("lenswall.discplot", "sample_wall_points", "discplot.render"),
)

# Called too often for a span each: only counted.
COUNTS = (
    ("lenswall.cyclotomic", "Cyclotomic.as_rational", "cyclotomic.as_rational"),
    ("lenswall.lattice", "IntegralLattice.pairing", "lattice.pairing"),
    ("lenswall.lattice", "metabolizer_check", "lattice.metabolizer_check"),
)


class Tracer:
    """In-memory spans [name, start, end, parent index], call counts of the
    counted functions, and the counters the return hooks keep."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.hooked: dict[str, int] = {}
        self._open: list[int] = []
        self._restore: list[tuple] = []
        self._rho_table = None

    def _add(self, key: str, value: int) -> None:
        self.hooked[key] = self.hooked.get(key, 0) + value

    def _span(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_distinguish(self, args, result):
        self._add("eta.match_found", len(result.matches))
        # candidate relabelings offered: the odd units mod 2p
        self._add("eta.match_candidates", len(odd_units(2 * args[0])))

    def _on_orbit(self, args, result):
        self._add("wallcross.orbit_steps", result.steps_used)

    def install(self) -> None:
        """Wrap every traced function of the lenswall modules loaded so far."""
        hooks = {"eta.distinguish": self._on_distinguish, "wallcross.orbit_swtot": self._on_orbit}
        targets = [(*t, True) for t in SPANS] + [(*t, False) for t in COUNTS]
        loaded = [
            mod for key, mod in list(sys.modules.items())
            if key == "lenswall" or key.startswith("lenswall.")
        ]
        for module_name, attr, name, is_span in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # never imported, so never called
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                homes = [(cls, meth)]
            else:
                original = getattr(module, attr)
                homes = [
                    (mod, key) for mod in loaded
                    for key, value in list(vars(mod).items()) if value is original
                ]
            if attr == "rho_table":
                self._rho_table = original
            if is_span:
                wrapper = self._span(name, original, hooks.get(name))
            else:
                wrapper = self._count(name, original)
            for home, key in homes:
                setattr(home, key, wrapper)
                self._restore.append((home, key, original))

    def restore(self) -> None:
        for home, key, original in reversed(self._restore):
            setattr(home, key, original)
        self._restore.clear()

    def totals(self) -> dict[str, float]:
        """Additive totals of this process's traced work: "s:<span>" self
        time (span duration minus the time its direct child spans cover),
        "n:<name>" calls, the hook counters and the rho_table cache
        statistics.  Totals of several processes add up key by key."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            out["s:" + name] = out.get("s:" + name, 0.0) + (end - start - child[index])
            out["n:" + name] = out.get("n:" + name, 0) + 1
        for name, value in self.counts.items():
            out["n:" + name] = out.get("n:" + name, 0) + value
        out.update(self.hooked)
        if self._rho_table is not None:
            cache = self._rho_table.cache_info()
            out["eta.rho_table_hits"] = cache.hits
            out["eta.rho_table_misses"] = cache.misses
        return out

    def dump_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def merge(into: dict[str, float], other: dict[str, float]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0) + value
