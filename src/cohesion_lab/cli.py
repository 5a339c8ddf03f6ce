"""Command-line entry point: `cohesion-lab <subcommand> ...`.

Exit codes: 0 success, 1 published-target miss, 2 I/O error, 3 precondition
violation.
"""

import argparse
import json
import sys

from .errors import CohesionError, DomainError, EdgeListParseError
from .experiments import EXPERIMENTS, ExperimentConfig, inspect_spectra, run_experiment
from .spectra import LaplacianKind, bound_report

EXIT_OK = 0
EXIT_TARGET_MISS = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--reps", type=int, default=None, help="replication count")
    parser.add_argument("--out", default=None, help="output directory for report.json/CSV/SVG")
    parser.add_argument("--config", default=None, help="JSON config file (flags override it)")
    parser.add_argument("--workers", type=int, default=None, help="worker processes (default 1)")
    parser.add_argument("--no-svg", action="store_true", help="skip SVG emission")


def _build_config(experiment: str, args) -> ExperimentConfig:
    overrides = {
        "experiment": experiment,
        "seed": args.seed,
        "reps": args.reps,
        "out_dir": args.out,
        "workers": args.workers,
    }
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config, **overrides)
    else:
        clean = {k: v for k, v in overrides.items() if v is not None}
        clean.setdefault("seed", 0)
        cfg = ExperimentConfig(**clean)
    if args.no_svg:
        cfg.svg = False
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohesion-lab",
        description="Spectral network-cohesion toolkit: spectra, bounds, diffusion, "
                    "and seeded reproduction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectra", help="lambda2, spectrum CSV, and bound report for one graph")
    p_spec.add_argument("graph", help="edge-list file path or generator spec like 'clique:24'")
    p_spec.add_argument("--kind", default="rownorm", choices=[k.value for k in LaplacianKind])
    p_spec.add_argument("--out", default=None)
    p_spec.add_argument("--no-bounds", action="store_true")

    p_tab = sub.add_parser("table1", help="reproduce the coloring-experiment table")
    _add_common(p_tab)

    p_fig = sub.add_parser("figures", help="reproduce one figure experiment")
    p_fig.add_argument("id", choices=[k for k in EXPERIMENTS if k.startswith("fig")])
    _add_common(p_fig)

    p_app = sub.add_parser("appendix", help="round-based memory-convergence experiment")
    _add_common(p_app)

    args = parser.parse_args(argv)

    try:
        if args.command == "spectra":
            g, lam2, _csv_text = inspect_spectra(args.graph, LaplacianKind(args.kind), out_dir=args.out)
            print(f"lambda2 ({args.kind}): {lam2:.4f}")
            if not args.no_bounds:
                brep = bound_report(g)  # DomainError (exit 3) when disconnected
                for name, ok in brep.satisfied.items():
                    state = "skipped (complete graph)" if ok is None else ("holds" if ok else "VIOLATED")
                    print(f"  bound {name}: {state}")
                print(f"  eq5 bound {brep.eq5_bound:.4f}, diameter bound {brep.diameter_bound:.4f}, "
                      f"kappa {brep.kappa}, k_min {brep.k_min}")
            return EXIT_OK
        experiment = args.id if args.command == "figures" else args.command
        config = _build_config(experiment, args)
        report = run_experiment(config)
        for line in report.summary_lines():
            print(line)
        return EXIT_OK if report.passed() else EXIT_TARGET_MISS
    except (EdgeListParseError, json.JSONDecodeError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DomainError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CohesionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
