"""Outside-in tracing of the package's layers.

``Tracer.install`` wraps each function in ``TRACED`` wherever a
``cohesion_lab`` module binds it (``experiments.vertex_connectivity`` as well as
``graphs.vertex_connectivity``), so the program itself is not edited.  A span
is ``[name, start, end, parent index, note]``; spans stay in memory and are
written out once, at the end.  A name that no longer exists is skipped and
reported as absent, so refactors that move or delete functions do not break
the benchmark.

Self time is a span's duration minus its child spans' durations.  The
program is single-threaded, so children never overlap.
"""

import functools
import json
import sys
import time

#: (module, function) pairs; the module name is also the layer name
TRACED = (
    ("graphs", "vertex_connectivity"), ("graphs", "distance_summary"),
    ("graphs", "smallest_cycle"), ("graphs", "chordless_cycles"), ("graphs", "is_connected"),
    ("eigen", "eigvalsh"), ("eigen", "eigh"),
    ("spectra", "laplacian"), ("spectra", "algebraic_connectivity"), ("spectra", "spectrum"),
    ("generators", "rewire"), ("generators", "relocation_plan"),
    ("generators", "relocation_suite"), ("generators", "random_poisson"),
    ("dynamics", "run_rounds"), ("dynamics", "convergence_time"),
    ("dynamics", "diffuse_spectral"), ("dynamics", "memory_experiment"),
    ("fitting", "fit_power_law"), ("fitting", "fit_line"), ("fitting", "fit_hyperbola"),
    ("experiments", "run_experiment"), ("plot_svg", "render"),
)


def _order(args, kwargs):
    """Matrix order of an eigensolver call."""
    return len(args[0] if args else kwargs["a"])


def _graph_order(args, kwargs):
    return args[0].n if args else kwargs["g"].n


#: what a span notes about its call, for counts and rates
_NOTES = {
    "eigen.eigvalsh": lambda a, k, out: _order(a, k),
    "eigen.eigh": lambda a, k, out: _order(a, k),
    "graphs.distance_summary": lambda a, k, out: _graph_order(a, k),
    "generators.relocation_suite": lambda a, k, out: len(out),
    "generators.rewire": lambda a, k, out: id(a[0] if a else k["g"]),
    "graphs.is_connected": lambda a, k, out: id(a[0] if a else k["g"]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []

    def install(self, package="cohesion_lab"):
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"{package}.{mod_name}")
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                try:
                    rec[4] = note(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return out

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "absent": self.absent, "spans": self.spans}, fh)


#: functions whose calls are counted, and whose self time is reported
COUNTED = ("graphs.vertex_connectivity", "graphs.distance_summary", "eigen.eigvalsh",
           "eigen.eigh", "spectra.laplacian", "generators.relocation_plan", "dynamics.run_rounds")
TIMED = ("graphs.vertex_connectivity", "graphs.distance_summary", "graphs.smallest_cycle",
         "graphs.chordless_cycles", "eigen.eigvalsh", "eigen.eigh", "spectra.laplacian",
         "spectra.algebraic_connectivity", "spectra.spectrum", "generators.rewire",
         "generators.relocation_plan", "dynamics.run_rounds", "dynamics.convergence_time",
         "experiments.run_experiment", "plot_svg.render")


def layer_metrics(spans, wall, speed):
    """Per-layer metrics of one traced run whose traced section took ``wall`` s.

    Times are multiplied by ``speed`` (see ``pacer.py``), rates divided by it;
    ``traced_coverage`` compares the measured times.
    """
    selfs = [end - start for _n, start, end, _p, _x in spans]
    for _n, start, end, parent, _x in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    coverage = sum(selfs) / wall if wall else 0.0
    selfs = [s * speed for s in selfs]

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return p
            p = spans[p][3]
        return None

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{name}.calls": len(named(name)) for name in COUNTED}
    for name in TIMED:
        m[f"{name}.self_s"] = float(sum(selfs[i] for i in named(name)))
    m["fitting.self_s"] = float(sum(s for i, s in enumerate(selfs)
                                    if spans[i][0].startswith("fitting.")))

    pairs = sum(spans[i][4] * (spans[i][4] - 1) for i in named("graphs.distance_summary")
                if spans[i][4] is not None)
    m["graphs.distance_summary.pairs_per_s"] = ratio(pairs, m["graphs.distance_summary.self_s"])
    # computed flops: 4n^3/3 for eigenvalues only, 9n^3 with eigenvectors
    for name, per_n3 in (("eigen.eigvalsh", 4.0 / 3.0), ("eigen.eigh", 9.0)):
        flops = sum(per_n3 * spans[i][4] ** 3 for i in named(name) if spans[i][4] is not None)
        m[f"{name}.gflops"] = ratio(flops / 1e9, m[f"{name}.self_s"])

    # rewires per candidate connectivity check (the input check is not a candidate)
    rewires = [i for i in named("generators.rewire") if spans[i][4] is not None]
    candidates = 0
    for i in named("graphs.is_connected"):
        p = spans[i][3]
        if p >= 0 and spans[p][0] == "generators.rewire" and spans[i][4] != spans[p][4]:
            candidates += 1
    m["generators.rewire.accept_ratio"] = ratio(len(rewires), candidates)

    suites = named("generators.relocation_suite")
    accepted = sum(spans[i][4] for i in suites if spans[i][4] is not None)
    drawn = sum(1 for i in named("generators.relocation_plan")
                if under(i, "generators.relocation_suite") is not None)
    m["generators.relocation_suite.accept_ratio"] = ratio(accepted, drawn)

    solves = sum(1 for i in named("eigen.eigh") + named("eigen.eigvalsh")
                 if under(i, "dynamics.convergence_time") is not None)
    m["dynamics.convergence_time.eigensolves_per_call"] = ratio(
        solves, len(named("dynamics.convergence_time")))
    m["traced_coverage"] = coverage
    return m


#: metrics that count work; they repeat exactly for one code and seed
EXACT = tuple(f"{name}.calls" for name in COUNTED) + (
    "generators.rewire.accept_ratio", "generators.relocation_suite.accept_ratio",
    "dynamics.convergence_time.eigensolves_per_call")
