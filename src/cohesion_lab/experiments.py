"""Seeded experiment runners that reproduce the published tables and figures.

Every runner takes an ExperimentConfig, returns an ExperimentReport whose
canonical JSON form is byte-stable given the config, and writes CSV (always)
plus SVG (optional) artifacts. Published reference values live in
targets.json and enter reports as data-driven comparisons.
"""

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from multiprocessing import get_context

import numpy as np

from . import plot_svg
from .dynamics import diffuse_spectral, memory_experiment, rep_rng
from .errors import DomainError
from .fitting import fit_hyperbola, fit_line, fit_power_law
from .generators import (
    chord_midway,
    clique,
    clique_chain,
    clique_chain_groups,
    cycle,
    random_poisson,
    random_skewed,
    relocate_chord,
    relocation_suite,
    rewire,
    RewireConfig,
    ring_lattice,
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


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    reps: int = None
    out_dir: str = None
    kind: str = "rownorm"
    workers: int = 1
    svg: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # a standard error needs at least two replications
        if self.reps is not None and not (isinstance(self.reps, int) and self.reps >= 2):
            raise DomainError(f"reps must be an integer >= 2, got {self.reps!r}")

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


def _compare(cid, anchor, computed, target, kind, tol=None):
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
        "anchor": anchor,
        "computed": computed if not isinstance(computed, (bool, np.bool_)) else bool(computed),
        "target": target,
        "tolerance": {"type": kind, "value": tol},
        "passed": bool(passed),
    }


def _pooled_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with get_context("fork").Pool(processes=workers) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers)))


def _write(out_dir, name, text):
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table 1
# ---------------------------------------------------------------------------

def _table1_sample(args):
    p, rep, master_seed = args
    base = clique_chain()
    groups = clique_chain_groups()
    if p == 0.0:
        g = base
    else:
        cfg = RewireConfig(p=p)
        g = rewire(base, cfg, seed=child_seed(master_seed, round(p * 1000), rep), groups=groups)
    lam2 = algebraic_connectivity(g, LaplacianKind.ROW_NORMALIZED)
    md = distance_summary(g).mean_distance
    kap = vertex_connectivity(g)
    return lam2, md, kap


def run_table1(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["table1"]
    reps = 1000 if config.reps is None else config.reps
    p_values = config.params.get("p_values", targets["p_values"])
    cells = {"p": [], "lambda2_mean": [], "lambda2_se": [], "mean_distance_mean": [],
             "mean_distance_se": [], "kappa_mean": [], "kappa_se": [],
             "time_seconds": [], "myopic_seconds": []}
    comparisons = []
    for p in p_values:
        n_samples = 1 if p == 0.0 else reps
        results = _pooled_map(_table1_sample, [(p, r, config.seed) for r in range(n_samples)], config.workers)
        lam = np.array([r[0] for r in results])
        md = np.array([r[1] for r in results])
        kap = np.array([r[2] for r in results], dtype=float)
        key = f"{float(p):.1f}"
        cells["p"].append(float(p))
        cells["lambda2_mean"].append(float(lam.mean()))
        cells["lambda2_se"].append(float(lam.std(ddof=1) / math.sqrt(lam.size)) if lam.size > 1 else 0.0)
        cells["mean_distance_mean"].append(float(md.mean()))
        cells["mean_distance_se"].append(float(md.std(ddof=1) / math.sqrt(md.size)) if md.size > 1 else 0.0)
        cells["kappa_mean"].append(float(kap.mean()))
        cells["kappa_se"].append(float(kap.std(ddof=1) / math.sqrt(kap.size)) if kap.size > 1 else 0.0)
        cells["time_seconds"].append(targets["time_seconds"][key])
        cells["myopic_seconds"].append(targets["myopic_seconds"][key])
        if p == 0.0:
            dec = targets["p0_decimals"]
            comparisons.append(_compare(
                "table1.p_0.lambda2", targets["anchor"], float(lam.mean()),
                targets["lambda2"][key], "decimals", dec["lambda2"]))
            comparisons.append(_compare(
                "table1.p_0.mean_distance", targets["anchor"], float(md.mean()),
                targets["mean_distance"][key], "decimals", dec["mean_distance"]))
            comparisons.append(_compare(
                "table1.p_0.kappa", targets["anchor"], float(kap.mean()),
                targets["kappa"][key], "decimals", dec["kappa"]))
        else:
            comparisons.append(_compare(
                f"table1.p_{key}.lambda2", targets["anchor"], float(lam.mean()),
                targets["lambda2"][key], "rel", targets["lambda2_rel_tol"]))
            comparisons.append(_compare(
                f"table1.p_{key}.mean_distance", targets["anchor"], float(md.mean()),
                targets["mean_distance"][key], "rel", targets["mean_distance_rel_tol"]))
            comparisons.append(_compare(
                f"table1.p_{key}.kappa", targets["anchor"], float(kap.mean()),
                targets["kappa"][key], "rel", targets["kappa_rel_tol"]))
    # learning-curve fits of the published times against the computed means
    pts = list(zip(cells["lambda2_mean"], cells["time_seconds"]))
    fit_nls = fit_power_law(pts, method="nls")
    fit_ols = fit_power_law(pts, method="loglog_ols")
    line = fit_line(pts)
    fits = {
        "power_nls": {"parameters": fit_nls.parameters, "rss": fit_nls.rss, "r_squared": fit_nls.r_squared},
        "power_loglog_ols": {"parameters": fit_ols.parameters, "rss": fit_ols.rss, "r_squared": fit_ols.r_squared},
        "line": {"parameters": line.parameters, "rss": line.rss, "r_squared": line.r_squared},
        "published_b": targets["power_law_b"],
    }
    comparisons.append(_compare(
        "table1.power_law_b_nls", targets["anchor"], fit_nls.parameters["b"],
        targets["power_law_b_range"], "range"))
    comparisons.append(_compare(
        "table1.power_rss_below_line", targets["anchor"], fit_nls.rss, line.rss, "less"))
    rows = list(zip(cells["p"], cells["time_seconds"], cells["myopic_seconds"],
                    cells["lambda2_mean"], cells["mean_distance_mean"], cells["kappa_mean"]))
    csv_text = _csv(rows, ["p", "t_seconds", "myopic_seconds", "lambda2", "mean_distance", "kappa"])
    _write(config.out_dir, "table1.csv", csv_text)
    if config.svg and config.out_dir:
        lam_grid = np.linspace(min(cells["lambda2_mean"]), max(cells["lambda2_mean"]), 100)
        a, b = fit_nls.parameters["a"], fit_nls.parameters["b"]
        _write(config.out_dir, "table1_learning_curve.svg", plot_svg.render(
            [
                {"x": cells["lambda2_mean"], "y": cells["time_seconds"], "label": "observed t", "kind": "scatter"},
                {"x": list(lam_grid), "y": list(a * lam_grid ** (-b)), "label": "power-law fit", "kind": "line"},
                {"x": cells["lambda2_mean"], "y": cells["myopic_seconds"], "label": "myopic model", "kind": "scatter"},
            ],
            title="time to consensus vs algebraic connectivity",
            x_label="lambda2 (row-normalized)", y_label="t (s)"))
    return ExperimentReport(config=asdict(config), cells=cells, fits=fits, comparisons=comparisons)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def run_fig1(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["figure1"]
    n = config.params.get("n", 14)
    m = config.params.get("m", 26)
    pool_size = config.params.get("pool", 40)
    dens = m / (n * (n - 1) / 2)
    samples = [random_poisson(n, dens, child_seed(config.seed, i)) for i in range(pool_size)]
    lams = [algebraic_connectivity(g, LaplacianKind.ROW_NORMALIZED) for g in samples]
    hi = samples[int(np.argmax(lams))]
    lo = samples[int(np.argmin(lams))]
    lam_hi, lam_lo = max(lams), min(lams)
    rng = rep_rng(config.seed, 0)
    y0 = rng.standard_normal(n)
    times = np.linspace(0.0, config.params.get("t_end", 12.0), 60)
    tr_hi = diffuse_spectral(hi, LaplacianKind.ROW_NORMALIZED, y0, times)
    tr_lo = diffuse_spectral(lo, LaplacianKind.ROW_NORMALIZED, y0, times)
    ordering = bool(np.all(tr_hi.spread[1:] < tr_lo.spread[1:]))
    cells = {
        "lambda2_high": lam_hi, "lambda2_low": lam_lo,
        "times": [float(t) for t in times],
        "spread_high": [float(s) for s in tr_hi.spread],
        "spread_low": [float(s) for s in tr_lo.spread],
        "published_pair": [targets["lambda2_a"], targets["lambda2_b"]],
    }
    comparisons = [
        _compare("fig1.lambda2_separated", targets["anchor"], lam_hi, lam_lo, "greater"),
        _compare("fig1.spread_ordering", targets["anchor"], ordering, True, "bool"),
    ]
    csv_text = _csv(
        list(zip(times, tr_hi.spread, tr_lo.spread)),
        ["t", "spread_high_lambda2", "spread_low_lambda2"])
    _write(config.out_dir, "fig1_spread.csv", csv_text)
    if config.svg and config.out_dir:
        _write(config.out_dir, "fig1_spread.svg", plot_svg.render(
            [
                {"x": list(times), "y": list(tr_hi.spread), "label": f"lambda2={lam_hi:.3f}", "kind": "line"},
                {"x": list(times), "y": list(tr_lo.spread), "label": f"lambda2={lam_lo:.3f}", "kind": "line"},
            ],
            title="positional spread under diffusion", x_label="t", y_label="max(y)-min(y)"))
    return ExperimentReport(config=asdict(config), cells=cells, fits={}, comparisons=comparisons)


def _fig3_sample(args):
    fam, i, seed, lo, hi, dens = args
    rng = np.random.default_rng(child_seed(seed, 0 if fam == "poisson" else 1, i))
    n = int(rng.integers(lo, hi + 1))
    gseed = child_seed(seed, 2 if fam == "poisson" else 3, i)
    g = random_poisson(n, dens, gseed) if fam == "poisson" else random_skewed(n, dens, gseed)
    rep = bound_report(g)
    ok = all(v for v in rep.satisfied.values() if v is not None)
    return (n, distance_summary(g).mean_distance, rep.lambda2, rep.eq5_bound,
            rep.diameter_bound, rep.kappa, rep.k_min, ok)


def run_fig3(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["figure3"]
    per_family = (200 if config.reps is None else config.reps) // 2
    lo, hi = targets["size_range"]
    dens = targets["density"]
    cells = {}
    comparisons = []
    fits = {}
    violations = 0
    for fam in ("skewed", "poisson"):
        rows = _pooled_map(
            _fig3_sample,
            [(fam, i, config.seed, lo, hi, dens) for i in range(per_family)],
            config.workers)
        violations += sum(0 if r[7] else 1 for r in rows)
        cells[fam] = {
            "mean_distance": [r[1] for r in rows],
            "lambda2": [r[2] for r in rows],
        }
        fit = fit_hyperbola(list(zip(cells[fam]["mean_distance"], cells[fam]["lambda2"])))
        fits[fam] = {"parameters": fit.parameters, "rss": fit.rss, "r_squared": fit.r_squared}
        _write(config.out_dir, f"fig3_{fam}.csv", _csv(
            [(r[0], r[1], r[2], r[3], r[4], r[5], r[6]) for r in rows],
            ["n", "mean_distance", "lambda2", "eq5_bound", "diameter_bound", "kappa", "k_min"]))
    comparisons.append(_compare(
        "fig3.bound_violations", targets["anchor"], violations,
        targets["max_bound_violations"], "abs", 0))
    comparisons.append(_compare(
        "fig3.poisson_fits_tighter", targets["anchor"],
        fits["poisson"]["r_squared"], fits["skewed"]["r_squared"], "greater"))
    if config.svg and config.out_dir:
        for fam in ("skewed", "poisson"):
            c1, c2 = fits[fam]["parameters"]["c1"], fits[fam]["parameters"]["c2"]
            xs = np.linspace(min(cells[fam]["mean_distance"]), max(cells[fam]["mean_distance"]), 80)
            _write(config.out_dir, f"fig3_{fam}.svg", plot_svg.render(
                [
                    {"x": cells[fam]["mean_distance"], "y": cells[fam]["lambda2"], "label": fam, "kind": "scatter"},
                    {"x": list(xs), "y": list(c1 / (xs + c2)), "label": "hyperbola fit", "kind": "line"},
                ],
                title=f"lambda2 vs mean distance ({fam})", x_label="mean distance", y_label="lambda2"))
    return ExperimentReport(config=asdict(config), cells=cells, fits=fits, comparisons=comparisons)


def run_fig4a(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["table1"]
    sub = ExperimentConfig(experiment="table1", seed=config.seed,
                           reps=200 if config.reps is None else config.reps,
                           workers=config.workers, out_dir=None, svg=False)
    table = run_table1(sub)
    md = table.cells["mean_distance_mean"]
    t = table.cells["time_seconds"]
    line = fit_line(list(zip(md, t)))
    cells = {"mean_distance": md, "time_seconds": t}
    fits = {"line": {"parameters": line.parameters, "rss": line.rss, "r_squared": line.r_squared}}
    _write(config.out_dir, "fig4a.csv", _csv(list(zip(md, t)), ["mean_distance", "t_seconds"]))
    if config.svg and config.out_dir:
        xs = np.linspace(min(md), max(md), 10)
        a, b = line.parameters["alpha"], line.parameters["beta"]
        _write(config.out_dir, "fig4a.svg", plot_svg.render(
            [
                {"x": md, "y": t, "label": "observed", "kind": "scatter"},
                {"x": list(xs), "y": list(a + b * xs), "label": "line fit", "kind": "line"},
            ],
            title="time to consensus vs mean distance", x_label="mean distance", y_label="t (s)"))
    return ExperimentReport(config=asdict(config), cells=cells, fits=fits,
                            comparisons=[_compare("fig4a.line_r2", targets["anchor"],
                                                  line.r_squared, 0.9, "greater")])


def run_fig4b(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["figure4b"]
    lo, hi = targets["side_range"]
    sides = list(range(lo, hi + 1))
    mds, lams = [], []
    for side in sides:
        g = square_lattice(side)
        mds.append(distance_summary(g).mean_distance)
        lams.append(algebraic_connectivity(g, LaplacianKind.BINARY))
    fit = fit_hyperbola(list(zip(mds, lams)))
    cells = {"side": sides, "mean_distance": mds, "lambda2": lams}
    fits = {"hyperbola": {"parameters": fit.parameters, "rss": fit.rss, "r_squared": fit.r_squared}}
    comparisons = [
        _compare("fig4b.r2_attainable", targets["anchor"], fit.r_squared,
                 targets["r_squared_attainable"], "greater"),
        _compare("fig4b.r2_published_reading", targets["anchor"], fit.r_squared,
                 targets["r_squared_target"], "greater"),
    ]
    _write(config.out_dir, "fig4b.csv", _csv(
        list(zip(sides, mds, lams)), ["side", "mean_distance", "lambda2"]))
    if config.svg and config.out_dir:
        c1, c2 = fit.parameters["c1"], fit.parameters["c2"]
        xs = np.linspace(min(mds), max(mds), 100)
        _write(config.out_dir, "fig4b.svg", plot_svg.render(
            [
                {"x": mds, "y": lams, "label": "lattices", "kind": "scatter"},
                {"x": list(xs), "y": list(c1 / (xs + c2)), "label": "hyperbola fit", "kind": "line"},
            ],
            title="square lattices: lambda2 vs mean distance",
            x_label="mean distance", y_label="lambda2"))
    return ExperimentReport(config=asdict(config), cells=cells, fits=fits, comparisons=comparisons)


def run_fig4c(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["figure4c"]
    n_each = config.params.get("n_each", targets["n_each"])
    k_lo, k_hi = targets["k_range"]
    ks = list(range(k_lo, k_hi + 1))
    lams, kappas = [], []
    for k in ks:
        g = two_cliques_bridged(n_each, k, seed=child_seed(config.seed, k))
        lams.append(algebraic_connectivity(g, LaplacianKind.BINARY))
        kappas.append(vertex_connectivity(g))
    line = fit_line(list(zip([float(k) for k in ks], lams)))
    cells = {"k": ks, "lambda2": lams, "kappa": kappas}
    fits = {"line": {"parameters": line.parameters, "rss": line.rss, "r_squared": line.r_squared}}
    comparisons = [
        _compare("fig4c.linear_r2", targets["anchor"], line.r_squared,
                 targets["linear_r_squared"], "greater"),
        _compare("fig4c.kappa_equals_k", targets["anchor"],
                 bool(all(kap == k for kap, k in zip(kappas, ks))), True, "bool"),
    ]
    _write(config.out_dir, "fig4c.csv", _csv(
        list(zip(ks, kappas, lams)), ["k", "kappa", "lambda2"]))
    if config.svg and config.out_dir:
        xs = np.array([float(k) for k in ks])
        a, b = line.parameters["alpha"], line.parameters["beta"]
        _write(config.out_dir, "fig4c.svg", plot_svg.render(
            [
                {"x": [float(k) for k in ks], "y": lams, "label": "lambda2", "kind": "scatter"},
                {"x": list(xs), "y": list(a + b * xs), "label": "linear fit", "kind": "line"},
            ],
            title="two bridged cliques", x_label="node-independent bridges k", y_label="lambda2"))
    return ExperimentReport(config=asdict(config), cells=cells, fits=fits, comparisons=comparisons)


def run_fig4d(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["figure4d"]
    lo, hi = targets["length_range"]
    lengths = list(range(lo, hi + 1))
    reductions = []
    for l in lengths:
        base = distance_summary(cycle(l)).mean_distance
        after = distance_summary(chord_midway(l)).mean_distance
        reductions.append(base - after)
    evens = [r for l, r in zip(lengths, reductions) if l % 2 == 0]
    odds = [r for l, r in zip(lengths, reductions) if l % 2 == 1]
    parity_strict = all(a < b for a, b in zip(evens, evens[1:])) and all(
        a < b for a, b in zip(odds, odds[1:]))
    cells = {"length": lengths, "reduction": reductions}
    comparisons = [
        _compare("fig4d.all_reductions_positive", targets["anchor"],
                 bool(all(r > 0 for r in reductions)), True, "bool"),
        _compare("fig4d.parity_strict_increase", targets["anchor"],
                 bool(parity_strict), True, "bool"),
    ]
    _write(config.out_dir, "fig4d.csv", _csv(
        list(zip(lengths, reductions)), ["cycle_length", "mean_distance_reduction"]))
    if config.svg and config.out_dir:
        _write(config.out_dir, "fig4d.svg", plot_svg.render(
            [{"x": [float(l) for l in lengths], "y": reductions, "label": "reduction", "kind": "scatter"}],
            title="midway chord: mean-distance reduction", x_label="cycle length", y_label="reduction"))
    return ExperimentReport(config=asdict(config), cells=cells, fits={}, comparisons=comparisons)


def run_fig5(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["figure5"]
    count = config.params.get("suite_size", targets["suite_size"])
    suite = relocation_suite(count=count, seed=child_seed(config.seed, 5))
    rows = []
    inc = dec = 0
    for i, g in enumerate(suite):
        lam0 = algebraic_connectivity(g, LaplacianKind.BINARY)
        g_mid, _ = relocate_chord(g, placement="midway")
        g_awk, _ = relocate_chord(g, placement="awkward")
        lam_mid = algebraic_connectivity(g_mid, LaplacianKind.BINARY)
        lam_awk = algebraic_connectivity(g_awk, LaplacianKind.BINARY)
        inc += lam_mid > lam0
        dec += lam_awk < lam0
        rows.append((i, g.n, g.m, lam0, lam_mid, lam_awk))
    cells = {
        "published_dichotomy": [targets["lambda2_original"], targets["lambda2_careful"],
                                targets["lambda2_awkward"]],
        "suite_size": len(suite),
        "lambda2_increased": inc,
        "lambda2_decreased": dec,
    }
    comparisons = [
        _compare("fig5.midway_increases_all", targets["anchor"], inc, len(suite), "abs", 0),
        _compare("fig5.awkward_decreases_all", targets["anchor"], dec, len(suite), "abs", 0),
    ]
    _write(config.out_dir, "fig5.csv", _csv(
        rows, ["index", "n", "m", "lambda2_original", "lambda2_midway", "lambda2_awkward"]))
    return ExperimentReport(config=asdict(config), cells=cells, fits={}, comparisons=comparisons)


def run_appendix(config: ExperimentConfig) -> ExperimentReport:
    targets = load_targets()["memory"]
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
    comparisons = [
        _compare("appendix.sd_difference", targets["anchor"], result.mean_sd_difference,
                 targets["sd_difference"], "abs", targets["abs_tol"]),
        _compare("appendix.positive_5_sigma", targets["anchor"], sigma,
                 targets["min_sigma"], "greater"),
    ]
    _write(config.out_dir, "appendix.csv", _csv(
        [(result.mean_sd_difference, result.mc_standard_error, sigma, reps)],
        ["mean_sd_difference", "mc_standard_error", "sigma", "reps"]))
    return ExperimentReport(config=asdict(config), cells=cells, fits={}, comparisons=comparisons)


EXPERIMENTS = {
    "table1": run_table1,
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig4a": run_fig4a,
    "fig4b": run_fig4b,
    "fig4c": run_fig4c,
    "fig4d": run_fig4d,
    "fig5": run_fig5,
    "appendix": run_appendix,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    if config.experiment not in EXPERIMENTS:
        raise DomainError(f"unknown experiment {config.experiment!r}; "
                          f"registered: {sorted(EXPERIMENTS)}")
    start = time.perf_counter()
    report = EXPERIMENTS[config.experiment](config)
    report.wall_clock_seconds = time.perf_counter() - start
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


def inspect_spectra(graph_source: str, kind: str, out_dir: str = None):
    """Summarize one graph's spectrum; returns (graph, lambda2, spectrum CSV)."""
    g = load_graph(graph_source)
    k = LaplacianKind.parse(kind)
    lam2 = algebraic_connectivity(g, k)
    spec = spectrum(g, k)
    csv_text = spectrum_to_csv(spec)
    _write(out_dir, "spectrum.csv", csv_text)
    return g, lam2, csv_text
