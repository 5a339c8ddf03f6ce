"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SIZE TRACE SPAWNED WORKDIR

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, the import, ``load_targets``
and building the workload's inputs.  ``TRACE`` is ``setup`` (stop after
set-up), ``0`` (time the workload) or ``1`` (time it under the tracer and
write the spans to ``WORKDIR/spans.json``).  The result is one JSON line on
standard output.

A ``Pacer`` samples the host's speed from the first line on; ``setup_s``,
``wall_s``, ``cpu_s`` and the traced self times are in reference seconds
(see ``pacer.py``), and the measured seconds are kept as ``raw_*``.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads(np):
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def provenance(cl, np):
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    out = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(np),
        "package": getattr(cl, "__version__", None),
    }
    for lib in ("blas", "lapack"):
        out[lib] = f"{deps.get(lib, {}).get('name')} {deps.get(lib, {}).get('version')}"
    return out


def main(root, workload, seed, size, trace, spawned, workdir):
    from pacer import Pacer

    pacer = Pacer()
    pacer.start()
    try:
        return measure(pacer, root, workload, seed, size, trace, spawned, workdir)
    finally:
        pacer.stop()


def measure(pacer, root, workload, seed, size, trace, spawned, workdir):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy as np
    import cohesion_lab as cl
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if not os.path.abspath(cl.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported cohesion_lab from {cl.__file__}, not from {src}")
    cl.load_targets()
    wl = WORKLOADS[workload](cl, int(seed), size)
    raw_setup_s = time.monotonic() - float(spawned)
    setup_s = pacer.adjust(raw_setup_s)[0]
    if trace == "setup":
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    outputs = []
    mark = pacer.mark()
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for name, run in wl.steps:
        out_dir = os.path.join(workdir, name)
        outputs.append((name, out_dir) + run(out_dir))
    raw_wall = time.perf_counter() - t0
    raw_cpu = _cpu_seconds() - cpu0
    wall, cpu, speed = pacer.adjust(raw_wall, raw_cpu, since=mark)
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "speed": speed,
    }
    if tracer is not None:
        # spans include the samples taken inside them, so coverage is
        # against the raw wall time; times are then scaled like wall_s
        result["layers"] = layer_metrics(tracer.spans, raw_wall, speed)
        result["absent"] = tracer.absent
        tracer.write(os.path.join(workdir, "spans.json"))

    errors = []
    parsed = {}
    steps = []
    for name, out_dir, text, comparisons in outputs:
        report = os.path.join(out_dir, "report.json")
        if os.path.exists(report):
            with open(report) as fh:
                if fh.read() != text:
                    errors.append(f"{name}: report.json differs from to_canonical_json()")
        parsed[name] = (json.loads(text), out_dir)
        steps.append({
            "step": name,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "passed": {c["id"]: c["passed"] for c in comparisons},
            "canonical": text,
        })
    errors += wl.check(parsed)
    result.update(
        digest=hashlib.sha256("".join(s["sha256"] for s in steps).encode()).hexdigest(),
        steps=steps,
        errors=errors,
        provenance=provenance(cl, np),
    )
    return result


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    print(json.dumps(main(*sys.argv[1:8])))
