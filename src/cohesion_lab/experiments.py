"""Seeded experiments that reproduce the published tables and figures.

Each experiment is a function (config, targets) -> Outcome that only computes.
run_experiment turns the Outcome into an ExperimentReport, whose canonical
JSON form is byte-stable given the config, and writes its CSV tables and SVG
plots. Published reference values live in targets.json and enter reports as
data-driven comparisons.
"""

import json
import math
import os
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from multiprocessing import get_context

import numpy as np

from . import plot_svg
from .dynamics import convergence_time, diffuse_spectral, memory_experiment, rep_rng, spread_of
from .errors import DomainError
from .fitting import fit_hyperbola, fit_line, fit_power_law
from .generators import (
    chord_midway,
    clique_chain,
    clique_chain_groups,
    cycle,
    random_poisson,
    random_skewed,
    relocation_suite,
    rewire,
    square_lattice,
    standard_graph,
    two_cliques_bridged,
)
from .graphs import Graph, distance_summary, from_edge_list, vertex_connectivity
from .spectra import (
    LaplacianKind,
    algebraic_connectivity,
    bound_report,
    spectrum,
    spectrum_to_csv,
)


def load_targets() -> dict:
    with resources.files("cohesion_lab").joinpath("targets.json").open("r") as fh:
        return json.load(fh)


def child_seed(*parts) -> int:
    """Deterministic derived seed; invariant to worker scheduling."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1, dtype=np.uint64)[0])


def _int_at_least(value, low) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _int_param(config, name: str, default, low: int) -> int:
    """params[name], or default when it is absent; it must be an integer >= low."""
    value = config.params.get(name, default)
    if not _int_at_least(value, low):
        raise DomainError(f"{config.experiment} {name} must be an integer >= {low}, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    reps: int = None
    out_dir: str = None
    workers: int = 1
    svg: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _int_at_least(self.seed, 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")
        # a standard error needs at least two replications
        if self.reps is not None and not _int_at_least(self.reps, 2):
            raise DomainError(f"reps must be an integer >= 2, got {self.reps!r}")
        if not _int_at_least(self.workers, 1):
            raise DomainError(f"workers must be an integer >= 1, got {self.workers!r}")
        if not isinstance(self.params, dict):
            raise DomainError(f"params must be a JSON object, got {self.params!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise DomainError(f"out_dir must be a path string, got {self.out_dir!r}")
        if not isinstance(self.svg, bool):
            raise DomainError(f"svg must be true or false, got {self.svg!r}")

    @classmethod
    def from_json_file(cls, path: str, **overrides):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DomainError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise DomainError(f"config file {path} has unknown keys {unknown}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


@dataclass
class ExperimentReport:
    config: dict
    cells: dict
    fits: dict
    comparisons: list
    wall_clock_seconds: float = None

    def passed(self) -> bool:
        return all(c["passed"] for c in self.comparisons)

    def to_canonical_json(self) -> str:
        """Byte-stable report body: the config echo drops fields that cannot
        affect results (worker count, output paths, plot emission)."""
        echo = {k: v for k, v in self.config.items() if k not in ("workers", "out_dir", "svg")}
        body = {
            "config": echo,
            "cells": self.cells,
            "fits": self.fits,
            "comparisons": self.comparisons,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    def summary_lines(self):
        yield f"experiment: {self.config.get('experiment')} (seed {self.config.get('seed')})"
        for c in self.comparisons:
            status = "PASS" if c["passed"] else "MISS"
            yield (
                f"  [{status}] {c['id']}: computed {c['computed']:.6g} vs target "
                f"{c['target']} ({c['anchor']})"
            )
        if self.wall_clock_seconds is not None:
            yield f"  wall clock: {self.wall_clock_seconds:.2f}s"


@dataclass
class Outcome:
    """What one experiment computed. Comparisons carry no anchor; tables map a
    CSV name to (header, rows), plots an SVG name to plot_svg.render's
    positional arguments (series, title, x_label, y_label)."""
    cells: dict
    fits: dict = field(default_factory=dict)
    comparisons: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    plots: dict = field(default_factory=dict)


def _compare(cid, computed, target, kind, tol=None):
    if kind == "abs":
        passed = abs(computed - target) <= tol
    elif kind == "rel":
        passed = abs(computed - target) <= tol * abs(target)
    elif kind == "range":
        passed = target[0] <= computed <= target[1]
    elif kind == "decimals":
        passed = round(computed, tol) == round(target, tol)
    elif kind == "bool":
        passed = bool(computed) == bool(target)
    elif kind == "greater":
        passed = computed > target
    elif kind == "less":
        passed = computed < target
    else:
        raise ValueError(f"unknown comparison kind {kind}")
    return {
        "id": cid,
        "computed": computed if not isinstance(computed, (bool, np.bool_)) else bool(computed),
        "target": target,
        "tolerance": {"type": kind, "value": tol},
        "passed": bool(passed),
    }


def _fit(fit) -> dict:
    return {"parameters": fit.parameters, "rss": fit.rss, "r_squared": fit.r_squared}


def _fit_plot(x, y, label, curve, points, fit_label, title, x_label, y_label, extra=()):
    """render() arguments: observed (x, y) points, then curve(xs) on `points`
    evenly spaced xs across their range, then any extra series."""
    xs = np.linspace(min(x), max(x), points)
    series = [
        {"x": x, "y": y, "label": label, "kind": "scatter"},
        {"x": list(xs), "y": list(curve(xs)), "label": fit_label, "kind": "line"},
        *extra,
    ]
    return series, title, x_label, y_label


def _pooled_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with get_context("fork").Pool(processes=workers) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers)))


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table 1
# ---------------------------------------------------------------------------

_TABLE1_METRICS = ("lambda2", "mean_distance", "kappa")


def _table1_sample(args):
    p, rep, master_seed = args
    g = clique_chain()
    if p != 0.0:
        g = rewire(g, p, seed=child_seed(master_seed, round(p * 1000), rep), groups=clique_chain_groups())
    return (algebraic_connectivity(g, LaplacianKind.ROW_NORMALIZED), distance_summary(g).mean_distance,
            vertex_connectivity(g))


def table1(config: ExperimentConfig, targets: dict, default_reps: int = 1000) -> Outcome:
    reps = default_reps if config.reps is None else config.reps
    grid = targets["p_values"]
    p_values = config.params.get("p_values", grid)
    # each p reads its published targets, so only the published grid is accepted
    if not (isinstance(p_values, list) and p_values and all(p in grid for p in p_values)
            and len(set(p_values)) == len(p_values)):
        raise DomainError(f"table1 p_values must be a non-empty list of distinct values from {grid}, "
                          f"got {p_values!r}")
    cells = {"p": [], "time_seconds": [], "myopic_seconds": []}
    cells.update({f"{m}_{s}": [] for m in _TABLE1_METRICS for s in ("mean", "se")})
    comparisons = []
    for p in p_values:
        n_samples = 1 if p == 0.0 else reps
        results = _pooled_map(_table1_sample, [(p, r, config.seed) for r in range(n_samples)], config.workers)
        key = f"{float(p):.1f}"
        cells["p"].append(float(p))
        cells["time_seconds"].append(targets["time_seconds"][key])
        cells["myopic_seconds"].append(targets["myopic_seconds"][key])
        for i, metric in enumerate(_TABLE1_METRICS):
            values = np.array([r[i] for r in results], dtype=float)
            mean = float(values.mean())
            cells[f"{metric}_mean"].append(mean)
            cells[f"{metric}_se"].append(
                float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0)
            # the unrewired chain is exact, so p = 0 is compared to printed decimals
            cid, kind, tol = ((f"table1.p_0.{metric}", "decimals", targets["p0_decimals"][metric])
                              if p == 0.0 else
                              (f"table1.p_{key}.{metric}", "rel", targets[f"{metric}_rel_tol"]))
            comparisons.append(_compare(cid, mean, targets[metric][key], kind, tol))
    # learning-curve fits of the published times against the computed means
    pts = list(zip(cells["lambda2_mean"], cells["time_seconds"]))
    fit_nls = fit_power_law(pts, method="nls")
    fit_ols = fit_power_law(pts, method="loglog_ols")
    line = fit_line(pts)
    fits = {"power_nls": _fit(fit_nls), "power_loglog_ols": _fit(fit_ols), "line": _fit(line),
            "published_b": targets["power_law_b"]}
    comparisons.append(_compare(
        "table1.power_law_b_nls", fit_nls.parameters["b"], targets["power_law_b_range"], "range"))
    comparisons.append(_compare("table1.power_rss_below_line", fit_nls.rss, line.rss, "less"))
    rows = list(zip(cells["p"], cells["time_seconds"], cells["myopic_seconds"],
                    cells["lambda2_mean"], cells["mean_distance_mean"], cells["kappa_mean"]))
    a, b = fit_nls.parameters["a"], fit_nls.parameters["b"]
    myopic = {"x": cells["lambda2_mean"], "y": cells["myopic_seconds"], "label": "myopic model",
              "kind": "scatter"}
    return Outcome(
        cells, fits, comparisons,
        tables={"table1.csv": (["p", "t_seconds", "myopic_seconds", "lambda2", "mean_distance", "kappa"],
                               rows)},
        plots={"table1_learning_curve.svg": _fit_plot(
            cells["lambda2_mean"], cells["time_seconds"], "observed t", lambda xs: a * xs ** (-b), 100,
            "power-law fit", "time to consensus vs algebraic connectivity",
            "lambda2 (row-normalized)", "t (s)", extra=[myopic])})


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def fig1(config: ExperimentConfig, targets: dict) -> Outcome:
    n = _int_param(config, "n", 14, 2)
    m = _int_param(config, "m", 26, n - 1)
    # two distinct graphs are compared, so a pool of one, or the complete graph, says nothing
    pool_size = _int_param(config, "pool", 40, 2)
    if m >= n * (n - 1) // 2:
        raise DomainError(f"fig1 m must be below n(n-1)/2 = {n * (n - 1) // 2}, got {m}")
    t_end = config.params.get("t_end", 12.0)
    if isinstance(t_end, bool) or not isinstance(t_end, (int, float)) or not 0 < t_end < math.inf:
        raise DomainError(f"fig1 t_end must be a finite number > 0, got {t_end!r}")
    dens = m / (n * (n - 1) / 2)
    samples = [random_poisson(n, dens, child_seed(config.seed, i)) for i in range(pool_size)]
    lams = [algebraic_connectivity(g, LaplacianKind.ROW_NORMALIZED) for g in samples]
    hi = samples[int(np.argmax(lams))]
    lo = samples[int(np.argmin(lams))]
    lam_hi, lam_lo = max(lams), min(lams)
    y0 = rep_rng(config.seed, 0).standard_normal(n)
    times = np.linspace(0.0, t_end, 60)
    states_hi, states_lo = (diffuse_spectral(g, LaplacianKind.ROW_NORMALIZED, y0, times) for g in (hi, lo))
    spread_hi = states_hi.max(axis=1) - states_hi.min(axis=1)
    spread_lo = states_lo.max(axis=1) - states_lo.min(axis=1)
    # lambda2 governs the tail, not the early transient, so the claim is tested
    # as which graph first brings the spread within epsilon of consensus
    eps = 1e-3 * spread_of(y0)
    t_hi = convergence_time(hi, LaplacianKind.ROW_NORMALIZED, y0, eps)
    t_lo = convergence_time(lo, LaplacianKind.ROW_NORMALIZED, y0, eps)
    cells = {
        "lambda2_high": lam_hi, "lambda2_low": lam_lo,
        "times": [float(t) for t in times],
        "spread_high": [float(s) for s in spread_hi],
        "spread_low": [float(s) for s in spread_lo],
        "convergence_time_high": t_hi, "convergence_time_low": t_lo,
        "published_pair": [targets["lambda2_a"], targets["lambda2_b"]],
    }
    return Outcome(
        cells, comparisons=[_compare("fig1.lambda2_separated", lam_hi, lam_lo, "greater"),
                            _compare("fig1.converges_faster", t_hi, t_lo, "less")],
        tables={"fig1_spread.csv": (["t", "spread_high_lambda2", "spread_low_lambda2"],
                                    list(zip(times, spread_hi, spread_lo)))},
        plots={"fig1_spread.svg": (
            [{"x": list(times), "y": list(spread_hi), "label": f"lambda2={lam_hi:.3f}", "kind": "line"},
             {"x": list(times), "y": list(spread_lo), "label": f"lambda2={lam_lo:.3f}", "kind": "line"}],
            "positional spread under diffusion", "t", "max(y)-min(y)")})


def _fig3_sample(args):
    fam, i, seed, lo, hi, dens = args
    rng = np.random.default_rng(child_seed(seed, 0 if fam == "poisson" else 1, i))
    n = int(rng.integers(lo, hi + 1))
    gseed = child_seed(seed, 2 if fam == "poisson" else 3, i)
    g = random_poisson(n, dens, gseed) if fam == "poisson" else random_skewed(n, dens, gseed)
    rep = bound_report(g)
    ok = all(v for v in rep.satisfied.values() if v is not None)
    return (n, rep.mean_distance, rep.lambda2, rep.eq5_bound,
            rep.diameter_bound, rep.kappa, rep.k_min, ok)


def fig3(config: ExperimentConfig, targets: dict) -> Outcome:
    reps = 200 if config.reps is None else config.reps
    if reps < 6:
        raise DomainError(f"fig3 needs reps >= 6 (a hyperbola fit per family needs 3 graphs), got {reps}")
    per_family = reps // 2
    lo, hi = targets["size_range"]
    dens = targets["density"]
    out = Outcome({})
    violations = 0
    for fam in ("skewed", "poisson"):
        rows = _pooled_map(
            _fig3_sample,
            [(fam, i, config.seed, lo, hi, dens) for i in range(per_family)],
            config.workers)
        violations += sum(0 if r[7] else 1 for r in rows)
        md, lam = [r[1] for r in rows], [r[2] for r in rows]
        out.cells[fam] = {"mean_distance": md, "lambda2": lam}
        fit = fit_hyperbola(list(zip(md, lam)))
        out.fits[fam] = _fit(fit)
        c1, c2 = fit.parameters["c1"], fit.parameters["c2"]
        out.tables[f"fig3_{fam}.csv"] = (
            ["n", "mean_distance", "lambda2", "eq5_bound", "diameter_bound", "kappa", "k_min"],
            [r[:7] for r in rows])
        out.plots[f"fig3_{fam}.svg"] = _fit_plot(
            md, lam, fam, lambda xs: c1 / (xs + c2), 80, "hyperbola fit",
            f"lambda2 vs mean distance ({fam})", "mean distance", "lambda2")
    out.comparisons = [
        _compare("fig3.bound_violations", violations, targets["max_bound_violations"], "abs", 0),
        _compare("fig3.poisson_fits_tighter", out.fits["poisson"]["r_squared"],
                 out.fits["skewed"]["r_squared"], "greater"),
    ]
    return out


def fig4a(config: ExperimentConfig, targets: dict) -> Outcome:
    table = table1(config, targets, default_reps=200).cells
    md, t = table["mean_distance_mean"], table["time_seconds"]
    line = fit_line(list(zip(md, t)))
    a, b = line.parameters["alpha"], line.parameters["beta"]
    return Outcome(
        {"mean_distance": md, "time_seconds": t}, {"line": _fit(line)},
        [_compare("fig4a.line_r2", line.r_squared, 0.9, "greater")],
        tables={"fig4a.csv": (["mean_distance", "t_seconds"], list(zip(md, t)))},
        plots={"fig4a.svg": _fit_plot(
            md, t, "observed", lambda xs: a + b * xs, 10, "line fit",
            "time to consensus vs mean distance", "mean distance", "t (s)")})


def fig4b(config: ExperimentConfig, targets: dict) -> Outcome:
    lo, hi = targets["side_range"]
    sides = list(range(lo, hi + 1))
    mds, lams = [], []
    for side in sides:
        g = square_lattice(side)
        mds.append(distance_summary(g).mean_distance)
        lams.append(algebraic_connectivity(g, LaplacianKind.BINARY))
    fit = fit_hyperbola(list(zip(mds, lams)))
    c1, c2 = fit.parameters["c1"], fit.parameters["c2"]
    return Outcome(
        {"side": sides, "mean_distance": mds, "lambda2": lams}, {"hyperbola": _fit(fit)},
        [_compare("fig4b.r2_attainable", fit.r_squared, targets["r_squared_attainable"], "greater"),
         _compare("fig4b.r2_published_reading", fit.r_squared, targets["r_squared_target"], "greater")],
        tables={"fig4b.csv": (["side", "mean_distance", "lambda2"], list(zip(sides, mds, lams)))},
        plots={"fig4b.svg": _fit_plot(
            mds, lams, "lattices", lambda xs: c1 / (xs + c2), 100, "hyperbola fit",
            "square lattices: lambda2 vs mean distance", "mean distance", "lambda2")})


def fig4c(config: ExperimentConfig, targets: dict) -> Outcome:
    n_each = _int_param(config, "n_each", targets["n_each"], 2)
    k_lo, k_hi = targets["k_range"]
    ks = list(range(k_lo, k_hi + 1))
    # build every graph first, so a too-small n_each fails before any measuring
    graphs = [two_cliques_bridged(n_each, k, seed=child_seed(config.seed, k)) for k in ks]
    lams = [algebraic_connectivity(g, LaplacianKind.BINARY) for g in graphs]
    kappas = [vertex_connectivity(g) for g in graphs]
    kf = [float(k) for k in ks]
    line = fit_line(list(zip(kf, lams)))
    a, b = line.parameters["alpha"], line.parameters["beta"]
    return Outcome(
        {"k": ks, "lambda2": lams, "kappa": kappas}, {"line": _fit(line)},
        [_compare("fig4c.linear_r2", line.r_squared, targets["linear_r_squared"], "greater"),
         _compare("fig4c.kappa_equals_k", kappas == ks, True, "bool")],
        tables={"fig4c.csv": (["k", "kappa", "lambda2"], list(zip(ks, kappas, lams)))},
        # integer ks are evenly spaced, so the fitted line is drawn through them
        plots={"fig4c.svg": _fit_plot(
            kf, lams, "lambda2", lambda xs: a + b * xs, len(ks), "linear fit",
            "two bridged cliques", "node-independent bridges k", "lambda2")})


def fig4d(config: ExperimentConfig, targets: dict) -> Outcome:
    lo, hi = targets["length_range"]
    lengths = list(range(lo, hi + 1))
    reductions = []
    for l in lengths:
        base = distance_summary(cycle(l)).mean_distance
        after = distance_summary(chord_midway(l)).mean_distance
        reductions.append(base - after)
    # lengths are consecutive, so the next length of the same parity is two on
    parity_strict = all(a < b for a, b in zip(reductions, reductions[2:]))
    return Outcome(
        {"length": lengths, "reduction": reductions},
        comparisons=[_compare("fig4d.all_reductions_positive", all(r > 0 for r in reductions), True, "bool"),
                     _compare("fig4d.parity_strict_increase", parity_strict, True, "bool")],
        tables={"fig4d.csv": (["cycle_length", "mean_distance_reduction"], list(zip(lengths, reductions)))},
        plots={"fig4d.svg": (
            [{"x": [float(l) for l in lengths], "y": reductions, "label": "reduction", "kind": "scatter"}],
            "midway chord: mean-distance reduction", "cycle length", "reduction")})


def fig5(config: ExperimentConfig, targets: dict) -> Outcome:
    count = _int_param(config, "suite_size", targets["suite_size"], 1)
    suite = relocation_suite(count=count, seed=child_seed(config.seed, 5))
    rows = []
    for i, (g, plan) in enumerate(suite):
        cut = g.with_edges_removed([plan.removed])
        moved = [cut.with_edges_added([pair]) for pair in (plan.midway_added, plan.awkward_added)]
        rows.append((i, g.n, g.m, *(algebraic_connectivity(h, LaplacianKind.BINARY) for h in (g, *moved))))
    inc = sum(lam_mid > lam0 for _i, _n, _m, lam0, lam_mid, _awk in rows)
    dec = sum(lam_awk < lam0 for _i, _n, _m, lam0, _mid, lam_awk in rows)
    cells = {
        "published_dichotomy": [targets["lambda2_original"], targets["lambda2_careful"],
                                targets["lambda2_awkward"]],
        "suite_size": len(suite),
        "lambda2_increased": inc,
        "lambda2_decreased": dec,
    }
    return Outcome(
        cells,
        comparisons=[_compare("fig5.midway_increases_all", inc, len(suite), "abs", 0),
                     _compare("fig5.awkward_decreases_all", dec, len(suite), "abs", 0)],
        tables={"fig5.csv": (["index", "n", "m", "lambda2_original", "lambda2_midway", "lambda2_awkward"],
                             rows)})


def appendix(config: ExperimentConfig, targets: dict) -> Outcome:
    reps = 10000 if config.reps is None else config.reps
    cross = config.params.get("cross_style", "cluster_pairing")
    rule = config.params.get("rule", "pair_average")
    result = memory_experiment(reps=reps, seed=config.seed, cross_style=cross, rule=rule)
    sigma = result.mean_sd_difference / result.mc_standard_error
    cells = {
        "mean_sd_difference": result.mean_sd_difference,
        "mc_standard_error": result.mc_standard_error,
        "sigma_above_zero": sigma,
        "reps": reps,
        "protocol": result.protocol,
    }
    return Outcome(
        cells,
        comparisons=[_compare("appendix.sd_difference", result.mean_sd_difference, targets["sd_difference"],
                              "abs", targets["abs_tol"]),
                     _compare("appendix.positive_5_sigma", sigma, targets["min_sigma"], "greater")],
        tables={"appendix.csv": (["mean_sd_difference", "mc_standard_error", "sigma", "reps"],
                                 [(result.mean_sd_difference, result.mc_standard_error, sigma, reps)])})


#: name -> (compute function, targets.json block, the params keys it reads)
Experiment = namedtuple("Experiment", "fn targets params")

EXPERIMENTS = {
    "table1": Experiment(table1, "table1", ("p_values",)),
    "fig1": Experiment(fig1, "figure1", ("n", "m", "pool", "t_end")),
    "fig3": Experiment(fig3, "figure3", ()),
    "fig4a": Experiment(fig4a, "table1", ()),
    "fig4b": Experiment(fig4b, "figure4b", ()),
    "fig4c": Experiment(fig4c, "figure4c", ("n_each",)),
    "fig4d": Experiment(fig4d, "figure4d", ()),
    "fig5": Experiment(fig5, "figure5", ("suite_size",)),
    "appendix": Experiment(appendix, "memory", ("cross_style", "rule")),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment; with out_dir set, write its CSVs, its SVGs (unless
    svg is off) and report.json there."""
    spec = EXPERIMENTS.get(config.experiment)
    if spec is None:
        raise DomainError(f"unknown experiment {config.experiment!r}; "
                          f"registered: {sorted(EXPERIMENTS)}")
    unknown = sorted(set(config.params) - set(spec.params))
    if unknown:
        raise DomainError(f"{config.experiment} does not read params {unknown}; "
                          f"it reads {list(spec.params)}")
    targets = load_targets()[spec.targets]
    start = time.perf_counter()
    out = spec.fn(config, targets)
    for c in out.comparisons:
        c["anchor"] = targets["anchor"]
    if config.out_dir:
        for name, (header, rows) in out.tables.items():
            _write(config.out_dir, name, _csv(rows, header))
        if config.svg:
            for name, args in out.plots.items():
                _write(config.out_dir, name, plot_svg.render(*args))
    report = ExperimentReport(config=asdict(config), cells=out.cells, fits=out.fits,
                              comparisons=out.comparisons,
                              wall_clock_seconds=time.perf_counter() - start)
    if config.out_dir:
        _write(config.out_dir, "report.json", report.to_canonical_json())
    return report


# ---------------------------------------------------------------------------
# one-shot spectra inspection (CLI backend)
# ---------------------------------------------------------------------------

def load_graph(graph_source: str) -> Graph:
    """Edge-list path or generator spec like 'ring_lattice:24:4'."""
    looks_like_path = os.sep in graph_source or graph_source.endswith((".edges", ".txt", ".csv"))
    if os.path.exists(graph_source) or looks_like_path:
        with open(graph_source) as fh:
            g, _ = from_edge_list(fh.read())
        return g
    return standard_graph(graph_source)


def inspect_spectra(graph_source: str, kind: LaplacianKind, out_dir: str = None):
    """Summarize one graph's spectrum; returns (graph, lambda2, spectrum CSV)."""
    g = load_graph(graph_source)
    lam2 = algebraic_connectivity(g, kind)
    spec = spectrum(g, kind)
    csv_text = spectrum_to_csv(spec)
    if out_dir:
        _write(out_dir, "spectrum.csv", csv_text)
    return g, lam2, csv_text
