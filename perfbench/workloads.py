"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed and drives the program
only through names that ``cohesion_lab/__init__.py`` exports, so refactors of
the modules behind those names leave the benchmark running.  Every call looks
the name up on the package at call time; that is what lets the tracer swap in
its wrappers.

A workload is a list of steps.  A step returns the canonical text of its
result (``to_canonical_json()`` for an experiment) and its comparisons against
``targets.json``; the worker digests the text and the runner checks that every
run of one workload and seed gives the same bytes.  ``check`` then tests the
results against independent oracles: closed forms and plain numpy.

Sizes: ``full`` is what the benchmark measures; ``tiny`` is for the tests.
"""

import csv
import json
import math
import os
from collections import namedtuple

import numpy as np

SIZES = ("full", "tiny")

#: steps: [(name, fn(out_dir) -> (canonical text, comparisons))];
#: check: fn({step: (parsed canonical body, out_dir)}) -> [error, ...]
Workload = namedtuple("Workload", "steps check")


def _experiment(cl, experiment, seed, reps=None, **params):
    def run(out_dir):
        report = cl.run_experiment(cl.ExperimentConfig(
            experiment=experiment, seed=seed, reps=reps, out_dir=out_dir, params=params))
        return report.to_canonical_json(), report.comparisons
    return run


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _sym_normalized(g):
    a = np.zeros((g.n, g.n))
    for u, v, _w in g.edges:
        a[u, v] = a[v, u] = 1.0
    s = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(g.n) - a * s[:, None] * s[None, :], a.sum(axis=1)


def _mean_distance(g):
    """Min-plus closure in numpy: a second route beside the package's BFS."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, _w in g.edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return float(d.sum() / (g.n * (g.n - 1)))


def table1(cl, seed, size):
    reps = {"full": 80, "tiny": 2}[size]

    def check(out):
        cells = out["table1"][0]["cells"]
        errors = []
        g = cl.clique_chain()
        lsym, _ = _sym_normalized(g)
        lam2 = float(np.linalg.eigvalsh(lsym)[1])
        if not _close(cells["lambda2_mean"][0], lam2, 1e-9):
            errors.append(f"table1 p=0 lambda2 {cells['lambda2_mean'][0]!r} != numpy {lam2!r}")
        md = _mean_distance(g)
        if not _close(cells["mean_distance_mean"][0], md, 1e-12):
            errors.append(f"table1 p=0 mean distance {cells['mean_distance_mean'][0]!r} != {md!r}")
        for p, lam, dist, kap in zip(cells["p"], cells["lambda2_mean"],
                                     cells["mean_distance_mean"], cells["kappa_mean"]):
            # rewiring keeps the graph connected: kappa >= 1, distances >= 1
            if not (0.0 < lam <= 2.0 and dist >= 1.0 and kap >= 1.0):
                errors.append(f"table1 p={p}: cell out of range ({lam}, {dist}, {kap})")
        return errors

    return Workload([("table1", _experiment(cl, "table1", seed, reps))], check)


def large_graphs(cl, seed, size):
    # fig4b's lattice sides and fig4c's clique sizes come from targets.json,
    # so both sizes run the same inputs.
    def check(out):
        errors = []
        b = out["fig4b"][0]["cells"]
        for side, md, lam in zip(b["side"], b["mean_distance"], b["lambda2"]):
            # side x side grid: mean distance 2*side/3, lambda2 = 2 - 2cos(pi/side)
            if not _close(md, 2.0 * side / 3.0, 1e-12):
                errors.append(f"fig4b side {side}: mean distance {md!r} != {2 * side / 3!r}")
            if not _close(lam, 2.0 - 2.0 * math.cos(math.pi / side), 1e-9):
                errors.append(f"fig4b side {side}: lambda2 {lam!r} off the closed form")
        c = out["fig4c"][0]["cells"]
        for k, kap, lam in zip(c["k"], c["kappa"], c["lambda2"]):
            # k independent bridges cut at k nodes; Fiedler: lambda2 <= kappa
            if kap != k or not (0.0 < lam <= kap + 1e-9):
                errors.append(f"fig4c k={k}: kappa {kap}, lambda2 {lam!r}")
        return errors

    return Workload([("fig4b", _experiment(cl, "fig4b", seed)),
                     ("fig4c", _experiment(cl, "fig4c", seed))], check)


def relocation(cl, seed, size):
    suite = {"full": 100, "tiny": 2}[size]

    def check(out):
        body, out_dir = out["fig5"]
        cells = body["cells"]
        with open(os.path.join(out_dir, "fig5.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        up = sum(float(r["lambda2_midway"]) > float(r["lambda2_original"]) for r in rows)
        down = sum(float(r["lambda2_awkward"]) < float(r["lambda2_original"]) for r in rows)
        if cells["suite_size"] != suite or len(rows) != suite:
            return [f"fig5 suite has {cells['suite_size']} graphs and {len(rows)} CSV rows,"
                    f" not {suite}"]
        if (up, down) != (cells["lambda2_increased"], cells["lambda2_decreased"]):
            return [f"fig5 CSV counts {(up, down)} disagree with the report"]
        return []

    return Workload([("fig5", _experiment(cl, "fig5", seed, suite_size=suite))], check)


#: convergence_time inputs: connected G(n, m) graphs, rownorm, epsilon
_CONV_N, _CONV_DENSITY, _CONV_EPSILON = 12, 0.3, 1e-8


def dynamics(cl, seed, size):
    pair_reps, exp_reps, graphs = {"full": (6000, 600, 24), "tiny": (50, 5, 3)}[size]
    inputs = []
    for i in range(graphs):
        rng = np.random.default_rng([seed, i])
        g = cl.random_poisson(_CONV_N, _CONV_DENSITY, int(rng.integers(2**63)))
        inputs.append((g, rng.standard_normal(_CONV_N)))

    def convergence(out_dir):
        times = [cl.convergence_time(g, cl.LaplacianKind.ROW_NORMALIZED, y0, _CONV_EPSILON)
                 for g, y0 in inputs]
        return json.dumps({"convergence_time": times}, indent=2) + "\n", []

    def check(out):
        errors = []
        for step, reps in (("pair_average", pair_reps), ("exponential", exp_reps)):
            cells = out[step][0]["cells"]
            if cells["reps"] != reps or cells["protocol"]["rule"] != step:
                errors.append(f"appendix {step}: ran {cells['reps']} reps"
                              f" of {cells['protocol']['rule']}")
            if not (cells["mc_standard_error"] > 0.0):
                errors.append(f"appendix {step}: standard error {cells['mc_standard_error']}")
        for (g, y0), t in zip(inputs, out["convergence"][0]["convergence_time"]):
            # exp(-Lrw t) = D^-1/2 exp(-Lsym t) D^1/2, solved with numpy's eigh
            lsym, deg = _sym_normalized(g)
            w, v = np.linalg.eigh(lsym)

            def spread(s):
                y = (v @ (np.exp(-s * w) * (v.T @ (y0 * np.sqrt(deg))))) / np.sqrt(deg)
                return float(y.max() - y.min())

            if not (spread(t) < _CONV_EPSILON * (1 + 1e-4) and spread(0.99 * t) > _CONV_EPSILON):
                errors.append(f"convergence_time {t!r} is not where the spread crosses epsilon")
        return errors

    return Workload([
        ("pair_average", _experiment(cl, "appendix", seed, pair_reps, rule="pair_average")),
        ("exponential", _experiment(cl, "appendix", seed, exp_reps, rule="exponential")),
        ("convergence", convergence),
    ], check)


WORKLOADS = {"table1": table1, "large_graphs": large_graphs,
             "relocation": relocation, "dynamics": dynamics}
