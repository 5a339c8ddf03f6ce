import json
import os

import pytest

from cohesion_lab import experiments
from cohesion_lab.cli import main
from cohesion_lab.errors import DomainError
from cohesion_lab.experiments import (
    ExperimentConfig,
    child_seed,
    load_graph,
    load_targets,
    run_experiment,
)
from cohesion_lab.graphs import to_edge_list
from cohesion_lab.generators import clique_chain
from cohesion_lab.spectra import LaplacianKind, algebraic_connectivity


class TestTargetsFile:
    def test_loads_and_carries_anchors(self):
        targets = load_targets()
        assert targets["table1"]["lambda2"]["0.0"] == 0.0083
        for block in ("table1", "convention", "memory", "figure5"):
            assert "anchor" in targets[block]

    def test_tolerances_present(self):
        targets = load_targets()
        assert targets["table1"]["lambda2_rel_tol"] == 0.10
        assert targets["memory"]["abs_tol"] == 0.01


class TestCliSpectra:
    def test_clique_24_prints_rownorm_value(self, capsys):
        assert main(["spectra", "clique:24", "--kind", "rownorm"]) == 0
        out = capsys.readouterr().out
        assert "1.0435" in out

    def test_ring_lattice_prints_value(self, capsys):
        assert main(["spectra", "ring_lattice:24:4", "--kind", "rownorm"]) == 0
        out = capsys.readouterr().out
        assert "0.0840" in out

    @pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.value)
    def test_every_laplacian_kind_is_a_kind_choice(self, capsys, kind):
        assert main(["spectra", "ring_lattice:24:4", "--kind", kind.value, "--no-bounds"]) == 0
        lam2 = algebraic_connectivity(load_graph("ring_lattice:24:4"), kind)
        assert capsys.readouterr().out == f"lambda2 ({kind.value}): {lam2:.4f}\n"

    def test_edge_list_file_input(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text(to_edge_list(clique_chain()))
        assert main(["spectra", str(path), "--kind", "rownorm", "--out", str(tmp_path)]) == 0
        assert "0.0083" in capsys.readouterr().out
        assert (tmp_path / "spectrum.csv").exists()

    def test_unreadable_file_exits_2(self, capsys):
        assert main(["spectra", "/nonexistent/file.edges"]) == 2

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1 2 3 4\n")
        assert main(["spectra", str(bad)]) == 2

    def test_disconnected_prints_zero_then_refuses_bounds(self, tmp_path, capsys):
        f = tmp_path / "two.edges"
        f.write_text("0 1\n2 3\n")
        assert main(["spectra", str(f), "--kind", "binary"]) == 3
        captured = capsys.readouterr()
        assert "0.0000" in captured.out
        assert "connected" in captured.err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_exits_3_with_one_line(self, tmp_path, capsys, weight):
        f = tmp_path / "bad.edges"
        f.write_text(f"0 1\n1 2 {weight}\n2 0\n")
        assert main(["spectra", str(f)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err

    def test_non_integer_generator_argument_exits_3_with_one_line(self, capsys):
        assert main(["spectra", "clique:abc"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "integers" in err

    @pytest.mark.parametrize("source", ["clique:1", "empty.edges"])
    def test_fewer_than_two_nodes_exits_3_with_one_line(self, tmp_path, capsys, source):
        if source.endswith(".edges"):
            source = tmp_path / source
            source.write_text("")
        assert main(["spectra", str(source), "--kind", "binary"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at least 2 nodes" in err

    def test_no_bounds_flag_allows_disconnected(self, tmp_path, capsys):
        f = tmp_path / "two.edges"
        f.write_text("0 1\n2 3\n")
        assert main(["spectra", str(f), "--kind", "binary", "--no-bounds"]) == 0


class TestExperimentReports:
    def test_report_json_written_and_deterministic(self, tmp_path):
        cfg = dict(experiment="fig4d", seed=3, out_dir=str(tmp_path / "a"))
        run_experiment(ExperimentConfig(**cfg))
        cfg["out_dir"] = str(tmp_path / "b")
        run_experiment(ExperimentConfig(**cfg))
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        # out_dir is part of the config echo; normalize it before comparing
        ja = json.loads(a)
        jb = json.loads(b)
        ja["config"]["out_dir"] = jb["config"]["out_dir"] = None
        assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)

    def test_identical_config_identical_bytes(self, tmp_path):
        out = tmp_path / "r"
        run_experiment(ExperimentConfig(experiment="fig1", seed=5, out_dir=str(out)))
        first = (out / "report.json").read_bytes()
        run_experiment(ExperimentConfig(experiment="fig1", seed=5, out_dir=str(out)))
        assert (out / "report.json").read_bytes() == first

    def test_worker_count_does_not_change_results(self, tmp_path):
        base = dict(experiment="table1", seed=9, reps=8)
        r1 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "w1"), workers=1, **base))
        r2 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "w2"), workers=2, **base))
        assert r1.cells == r2.cells

    def test_wall_clock_excluded_from_canonical_json(self):
        rep = run_experiment(ExperimentConfig(experiment="fig4d", seed=1))
        assert rep.wall_clock_seconds is not None
        assert "wall_clock" not in rep.to_canonical_json()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig(experiment="fig99"))

    #: experiment -> (small-size config, CSV name -> header line, SVG names)
    ARTIFACTS = {
        "table1": (dict(reps=2), {"table1.csv": "p,t_seconds,myopic_seconds,lambda2,mean_distance,kappa"},
                   {"table1_learning_curve.svg"}),
        "fig1": ({}, {"fig1_spread.csv": "t,spread_high_lambda2,spread_low_lambda2"}, {"fig1_spread.svg"}),
        "fig3": (dict(reps=6),
                 {f"fig3_{fam}.csv": "n,mean_distance,lambda2,eq5_bound,diameter_bound,kappa,k_min"
                  for fam in ("skewed", "poisson")},
                 {"fig3_skewed.svg", "fig3_poisson.svg"}),
        "fig4a": (dict(reps=2), {"fig4a.csv": "mean_distance,t_seconds"}, {"fig4a.svg"}),
        "fig4b": ({}, {"fig4b.csv": "side,mean_distance,lambda2"}, {"fig4b.svg"}),
        "fig4c": ({}, {"fig4c.csv": "k,kappa,lambda2"}, {"fig4c.svg"}),
        "fig4d": ({}, {"fig4d.csv": "cycle_length,mean_distance_reduction"}, {"fig4d.svg"}),
        "fig5": (dict(params={"suite_size": 2}),
                 {"fig5.csv": "index,n,m,lambda2_original,lambda2_midway,lambda2_awkward"}, set()),
        "appendix": (dict(reps=20), {"appendix.csv": "mean_sd_difference,mc_standard_error,sigma,reps"},
                     set()),
    }

    @pytest.mark.parametrize("experiment", list(ARTIFACTS))
    def test_csv_artifacts_emitted(self, tmp_path, experiment):
        kwargs, csvs, svgs = self.ARTIFACTS[experiment]
        for svg in (True, False):
            out = tmp_path / f"svg_{svg}"
            run_experiment(ExperimentConfig(experiment=experiment, seed=1, out_dir=str(out), svg=svg,
                                            **kwargs))
            assert set(os.listdir(out)) == {"report.json", *csvs, *(svgs if svg else ())}
            for name, header in csvs.items():
                assert (out / name).read_text().splitlines()[0] == header

    @pytest.mark.parametrize("experiment,params", [
        ("fig5", {"suite_sise": 3}),
        ("fig4a", {"p_values": [0.0, 1.0]}),
        ("table1", {"p_values": [0.0, 1.0], "n_each": 5}),
        ("appendix", {"rule": "exponential", "reps": 3}),
        ("fig4d", {"side": 10}),
    ])
    def test_unknown_params_rejected_before_sampling(self, monkeypatch, experiment, params):
        def compute(*_args):
            raise AssertionError("the experiment started")

        spec = experiments.EXPERIMENTS[experiment]
        monkeypatch.setitem(experiments.EXPERIMENTS, experiment, spec._replace(fn=compute))
        with pytest.raises(DomainError) as exc:
            run_experiment(ExperimentConfig(experiment=experiment, params=params))
        assert repr(sorted(k for k in params if k not in spec.params)) in str(exc.value)

    def test_fig4c_too_small_n_each_fails_before_measuring(self, monkeypatch):
        def measure(*_args, **_kw):
            raise AssertionError("fig4c measured a graph")

        monkeypatch.setattr(experiments, "vertex_connectivity", measure)
        monkeypatch.setattr(experiments, "algebraic_connectivity", measure)
        with pytest.raises(DomainError, match="k = 18 leaves too few"):
            run_experiment(ExperimentConfig(experiment="fig4c", params={"n_each": 22}))

    @pytest.mark.parametrize("seed", range(20))
    def test_fig1_higher_lambda2_converges_first_on_every_seed(self, seed):
        report = run_experiment(ExperimentConfig(experiment="fig1", seed=seed))
        assert report.passed()
        assert report.cells["convergence_time_high"] < report.cells["convergence_time_low"]


class TestCliExperiments:
    def test_appendix_runs_and_passes(self, tmp_path, capsys):
        code = main(["appendix", "--seed", "4", "--reps", "3000", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert "appendix.sd_difference" in capsys.readouterr().out

    def test_figures_subcommand(self, tmp_path):
        assert main(["figures", "fig4d", "--seed", "2", "--out", str(tmp_path)]) == 0

    def test_fig1_passes_at_the_default_seed(self, tmp_path):
        assert main(["figures", "fig1", "--out", str(tmp_path)]) == 0

    def test_experiment_kind_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--kind", "binary"])
        assert exc.value.code == 2
        assert "--kind" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["2", "4", "5"])
    def test_fig3_too_few_reps_exits_3_before_sampling(self, monkeypatch, capsys, reps):
        monkeypatch.setattr(experiments, "_pooled_map", None)  # sampling would raise TypeError
        assert main(["figures", "fig3", "--reps", reps]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "reps" in err

    def test_fig4b_reports_documented_miss(self, tmp_path, capsys):
        code = main(["figures", "fig4b", "--out", str(tmp_path), "--no-svg"])
        assert code == 1  # the 0.999 published-reading target is unattainable
        out = capsys.readouterr().out
        assert "fig4b.r2_attainable" in out and "MISS" in out

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "appendix", "seed": 1, "reps": 500}))
        code = main(["appendix", "--config", str(cfg), "--reps", "800",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["reps"] == 800
        assert report["config"]["seed"] == 1

    @pytest.mark.parametrize("body,named", [({"experiment": "appendix", "repz": 500}, "repz"),
                                            ([500], "JSON object"),
                                            ({"experiment": "fig4b", "kind": "symnorm"}, "kind"),
                                            ({"experiment": "appendix", "seed": "abc"}, "seed"),
                                            ({"experiment": "appendix", "seed": 1.5}, "seed"),
                                            ({"experiment": "appendix", "seed": True}, "seed"),
                                            ({"experiment": "table1", "workers": "two"}, "workers"),
                                            ({"experiment": "appendix", "params": [1]}, "params must be"),
                                            ({"experiment": "fig4d", "out_dir": 5}, "out_dir"),
                                            ({"experiment": "fig4d", "svg": "no"}, "svg")])
    def test_config_file_with_unknown_key_or_no_object_exits_3_with_one_line(
            self, tmp_path, capsys, body, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert main(["appendix", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("argv,params,named", [
        (["table1"], {"p_values": [0.0, 0.9]}, "p_values"),  # no published targets at 0.9
        (["table1"], {"p_values": [0.0, 0.25]}, "p_values"),  # not p = 0.2's targets either
        (["table1"], {"p_values": []}, "p_values"),
        (["table1"], {"p_values": [0.0, 0.1, 0.1]}, "p_values"),  # one comparison id twice
        (["figures", "fig1"], {"pool": 0}, "pool"),
        (["figures", "fig1"], {"pool": 1}, "pool"),  # both graphs would be the same one
        (["figures", "fig1"], {"n": "a"}, "fig1 n"),
        (["figures", "fig1"], {"m": 91}, "fig1 m"),  # the complete graph on 14 nodes
        (["figures", "fig1"], {"t_end": "x"}, "t_end"),
        (["figures", "fig4c"], {"n_each": "x"}, "n_each"),
        (["figures", "fig5"], {"suite_size": 0}, "suite_size"),  # "all" of no graphs
        (["figures", "fig5"], {"suite_size": -3}, "suite_size"),
    ], ids=["table1-off-grid", "table1-between-grid", "table1-empty", "table1-repeated", "fig1-pool-0",
            "fig1-pool-1", "fig1-n", "fig1-m-complete", "fig1-t_end", "fig4c-n_each", "fig5-suite-0",
            "fig5-suite-neg"])
    def test_bad_experiment_params_exit_3_with_one_line(self, tmp_path, capsys, argv, params, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": argv[-1], "params": params}))
        assert main(argv + ["--config", str(cfg), "--reps", "2"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err

    def test_malformed_config_file_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"experiment": "appendix",')
        assert main(["appendix", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("argv,named", [(["table1", "--reps", "0"], "reps"),
                                            (["appendix", "--reps", "1"], "reps"),
                                            (["figures", "fig1", "--seed", "-1"], "seed"),
                                            (["table1", "--workers", "0"], "workers")])
    def test_bad_reps_seed_or_workers_flag_exits_3_with_one_line(self, monkeypatch, capsys, argv, named):
        # a config that passed validation would fail as an unknown experiment, before any work
        monkeypatch.setattr(experiments, "EXPERIMENTS", {})
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err


class TestSeedDerivation:
    def test_child_seed_deterministic_and_distinct(self):
        assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
        assert child_seed(1, 2, 3) != child_seed(1, 2, 4)
        assert child_seed(0) != child_seed(1)


class TestLoadGraph:
    def test_generator_spec(self):
        assert load_graph("square_lattice:4").n == 16

    def test_file_path(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0 1\n1 2\n")
        assert load_graph(str(f)).n == 3
