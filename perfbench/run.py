"""The repository's benchmark: four workloads, their end-to-end metrics, and a
traced run that splits each workload's time over the package's layers.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25
    python3 perfbench/run.py --compare parent.json change.json

Each workload runs in fresh interpreters (``worker.py``), one after another,
until ``--seconds`` have been measured; set-up is also timed in extra fresh
interpreters, so every metric is a median of several.  ``--trace 0`` prints the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics.  ``--workload all``
does both for every workload.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run fails if it raises, outlives its timeout, or its canonical reports
differ in bytes from another run of the same workload and seed.  The outputs
are correct when no run failed, the traced runs give the untraced bytes and
counts that repeat exactly, and every workload's oracle checks hold.  Each
invocation writes its reports, digests and provenance to
``.perfbench/results/``; ``--compare`` reads two such files (or directories of
them) and tells whether the reports are byte-equal and, if not, the largest
relative difference over their numeric cells.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import SIZES, WORKLOADS  # noqa: E402
from tracer import EXACT  # noqa: E402

#: one invocation ends within this many seconds, whatever the program does
BUDGET_S = 170.0
#: a single fresh-process run is killed after this many seconds
RUN_TIMEOUT_S = 120.0
#: set-up is measured at least this many times per invocation
SETUP_SAMPLES = 7


def spawn(workload, seed, size, trace, deadline):
    """One fresh-process run: (result dict or None, error text or None)."""
    timeout = min(RUN_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 1.0:
        return None, "no time left in the run's budget"
    os.makedirs(os.path.join(STATE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(STATE, "work"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), size,
           trace, repr(time.monotonic()), workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        if trace == "1" and os.path.exists(os.path.join(workdir, "spans.json")):
            os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(STATE, "spans", f"{workload}-seed{seed}-{size}.json"))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail[0]
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def measure(workload, seed, seconds, size, traced):
    """Runs until ``seconds`` are measured; untraced (and traced, alternating)."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    runs, failures, kinds_spawned = [], [], []

    def attempt(kind):
        kinds_spawned.append(kind)
        rec, err = spawn(workload, seed, size, kind, deadline)
        if err:
            failures.append(f"{kind}: {err}")
        elif kind != "setup":
            rec["trace"] = kind
            runs.append(rec)
        return rec

    warm = attempt("setup")  # fills bytecode and page caches; its time is not used
    setups = []
    if warm is not None:
        kinds = ("0", "1") if traced else ("0",)
        while True:
            t0 = time.monotonic()
            for kind in kinds:
                rec = attempt(kind)
                if rec is not None and kind == "0":
                    setups.append(rec)
            now = time.monotonic()
            if failures or now - start + (now - t0) > seconds:
                break
        while not (failures or traced) and len(setups) < SETUP_SAMPLES:
            rec = attempt("setup")
            if rec is not None:
                setups.append(rec)
    return runs, setups, failures, len(kinds_spawned)


def summarize(workload, seed, size, traced, runs, setups, failures, attempted, spec):
    """Checks outputs, computes metrics; returns the results record."""
    errors = list(failures)
    digests = [r["digest"] for r in runs]
    ref = max(set(digests), key=digests.count) if digests else None
    mismatched = sum(d != ref for d in digests)
    if mismatched:
        errors.append(f"{mismatched} of {len(runs)} runs gave other canonical bytes than the rest")
    for r in runs:
        errors += [e for e in r["errors"] if e not in errors]
    plain = [r for r in runs if r["trace"] == "0" and r["digest"] == ref]
    traced_runs = [r for r in runs if r["trace"] == "1" and r["digest"] == ref]
    first = (plain or traced_runs or [None])[0]
    if first is None:
        errors.append("no run completed")

    metrics, raw = {}, {}
    if plain and not traced:
        raw = {name: statistics.median(r[name] for r in plain)
               for name in ("raw_wall_s", "raw_cpu_s", "speed")}
        raw["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
        metrics = {name: statistics.median(r[name] for r in plain)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    if plain and traced_runs:
        layers = [r["layers"] for r in traced_runs]
        for name in layers[0]:
            metrics[name] = statistics.median(lay[name] for lay in layers)
        for name in EXACT:
            if len({lay[name] for lay in layers}) > 1:
                errors.append(f"{name} differs between traced runs of one seed")
            metrics[name] = layers[0][name]
        metrics["trace_overhead"] = (statistics.median(r["wall_s"] for r in traced_runs)
                                     / statistics.median(r["wall_s"] for r in plain) - 1.0)
    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if first is not None and missing:
        errors.append(f"metrics not produced: {missing}")
    missed = sorted(cid for s in first["steps"] for cid, ok in s["passed"].items()
                    if not ok) if first else []
    return {
        "workload": workload, "seed": seed, "size": size, "trace": int(traced),
        "correct": not errors, "errors": errors,
        "attempted": attempted, "failed": len(failures) + mismatched,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
        "targets_missed": missed,
        "passed": {cid: ok for s in first["steps"] for cid, ok in s["passed"].items()}
        if first else {},
        "absent": first.get("absent", []) if first and traced_runs else [],
        "digest": ref,
        "reports": {s["step"]: s["canonical"] for s in first["steps"]} if first else {},
        "provenance": dict(first["provenance"], git=git_sha()) if first else {},
        "samples": {"untraced": len(plain), "traced": len(traced_runs), "setup": len(setups)},
        "runs": [dict({k: r[k] for k in ("trace", "digest", "setup_s", "wall_s", "cpu_s",
                                         "peak_rss_mb", "raw_setup_s", "raw_wall_s",
                                         "raw_cpu_s", "speed")},
                      sha256={s["step"]: s["sha256"] for s in r["steps"]}) for r in runs],
        "setup_samples": [{k: r[k] for k in ("setup_s", "raw_setup_s")} for r in setups],
        "raw": raw,
    }


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def report(res):
    """Human-readable lines: the metrics by name and unit, then the output check."""
    s = res["samples"]
    print(f"== {res['workload']}  seed {res['seed']}  size {res['size']}  "
          f"{'traced' if res['trace'] else 'untraced'}  "
          f"(runs: {s['untraced']} untraced, {s['traced']} traced, {s['setup']} set-up samples)")
    for name, m in res["metrics"].items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")
    for name, value in res["raw"].items():
        print(f"  {name:52s} {value:>14.6g} {'ratio' if name == 'speed' else 's'}")
    if not res["trace"]:
        print(f"  {'targets_missed':52s} {len(res['targets_missed']):>14d} count"
              f"  {res['targets_missed']}")
        print(f"  {'fail_frac':52s} {res['failed'] / max(res['attempted'], 1):>14.6g} ratio"
              f"  ({res['failed']} of {res['attempted']})")
    print(f"  output check: digest {str(res['digest'])[:16]}, "
          f"{'correct' if res['correct'] else 'NOT correct'}")
    for e in res["errors"]:
        print(f"    error: {e}")
    if res["absent"]:
        print(f"  traced names absent from the package: {res['absent']}")
    print(f"  provenance: {json.dumps(res['provenance'], sort_keys=True)}")


def save(res):
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results",
                        f"{res['workload']}-seed{res['seed']}-{res['size']}"
                        f"-trace{res['trace']}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    print(f"  results: {os.path.relpath(path, ROOT)}")


# ---------------------------------------------------------------------------
# compare mode: the output check between two result sets
# ---------------------------------------------------------------------------

def _load_results(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    out = {}
    for f in files:
        with open(f) as fh:
            res = json.load(fh)
        for step, text in res.get("reports", {}).items():
            out[(res["workload"], res["seed"], res["size"], step)] = text
    return out


def max_rel_diff(a, b, path="$"):
    """(largest relative difference, where) over numeric cells; inf if shapes differ."""
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            return max((max_rel_diff(a[k], b[k], f"{path}.{k}") for k in a),
                       default=(0.0, path))
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            return max((max_rel_diff(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                       default=(0.0, path))
        return (0.0, path) if a == b else (float("inf"), path)
    if a == b:
        return 0.0, path
    return abs(a - b) / max(abs(a), abs(b)), path


def compare(path_a, path_b):
    a, b = _load_results(path_a), _load_results(path_b)
    common = sorted(set(a) & set(b), key=str)
    if not common:
        print("no workload, seed and step in common")
        return 2
    differ = 0
    for key in common:
        label = "/".join(str(k) for k in key)
        if a[key] == b[key]:
            print(f"{label}: byte-equal")
            continue
        differ += 1
        rel, where = max_rel_diff(json.loads(a[key]), json.loads(b[key]))
        print(f"{label}: differs; largest relative difference {rel:.3g} at {where}")
    print(f"{len(common) - differ} of {len(common)} canonical reports byte-equal")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full", help="'tiny' is for the tests")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare the canonical reports of two results files or directories")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "cohesion_lab", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    plan = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    results = []
    for workload, traced in plan:
        measured = measure(workload, args.seed, args.seconds, args.size, traced)
        res = summarize(workload, args.seed, args.size, traced, *measured, spec)
        report(res)
        save(res)
        results.append(res)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
