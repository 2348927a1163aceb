import json
import logging
import os
from dataclasses import fields

import numpy as np
import pytest

from dbmf import approx, cli, pipeline
from dbmf.errors import ValidationError


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(["simulate", "--n-rows", "20", "--n-cols", "12",
                    "--factors", "2", "--tau", "1.0", "--seed", "3",
                    "--missing", "random", "--test-fraction", "0.3",
                    "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_expected_files(self, sim_dir):
        for name in ("train.txt", "test.txt", "truth.npz", "meta.json"):
            assert (sim_dir / name).exists()
        meta = json.loads((sim_dir / "meta.json").read_text())
        assert meta["train_entries"] + meta["test_entries"] == 20 * 12
        assert meta["test_entries"] == int(0.3 * 240)

    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--n-rows", "6", "--n-cols", "5", "--factors", "1",
                "--seed", "9", "--test-fraction", "0.4"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "train.txt").read_text() == \
            (tmp_path / "b" / "train.txt").read_text()

    def test_single_cell(self, tmp_path, capsys):
        code = run_cli(["simulate", "--n-rows", "1", "--n-cols", "1",
                        "--factors", "1", "--missing", "structured",
                        "--out", str(tmp_path / "one")])
        assert code == 0
        capsys.readouterr()

    def test_structured_mode(self, tmp_path):
        out = tmp_path / "structured"
        code = run_cli(["simulate", "--n-rows", "40", "--n-cols", "30",
                        "--factors", "1", "--seed", "2",
                        "--missing", "structured", "--structured-mode",
                        "rescaled", "--test-fraction", "0.8", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        frac = meta["test_entries"] / (meta["test_entries"] + meta["train_entries"])
        assert abs(frac - 0.8) < 0.1


    @pytest.mark.parametrize("tau", ["nan", "inf", "0"])
    def test_tau_must_be_positive_and_finite(self, tmp_path, capsys, tau):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--n-rows", "4", "--n-cols", "3", "--factors", "1",
                        "--tau", tau, "--out", str(out)])
        assert code == 2
        assert "tau" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--n-rows", "20", "--n-cols", "10", "--factors", "2",
                        "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def common(self, sim_dir, extra):
        return ["run", "--train", str(sim_dir / "train.txt"),
                "--test", str(sim_dir / "test.txt"),
                "--factors", "2", "--tau", "1.0", "--iters", "30",
                "--burn-in", "20", "--thin", "1", "--seed", "4"] + extra

    def test_staged_run_prints_rmse(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run-pp"
        code = run_cli(self.common(sim_dir, ["--method", "pp-mm",
                                             "--partition", "2x2",
                                             "--order", "decreasing",
                                             "--out", str(out)]))
        assert code == 0
        text = capsys.readouterr().out
        assert "test RMSE" in text
        assert (out / "timings.json").exists()

    def test_1x1_any_method_is_full_data(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run-1x1"
        code = run_cli(self.common(sim_dir, ["--method", "ep-parametric",
                                             "--partition", "1x1",
                                             "--out", str(out)]))
        assert code == 0
        meta = json.loads((out / "run_config.json").read_text())
        assert meta["partition_rows"] == 1 and meta["partition_cols"] == 1
        capsys.readouterr()

    def test_replicates_report_mean_std(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run-reps"
        code = run_cli(self.common(sim_dir, ["--method", "full",
                                             "--partition", "1x1",
                                             "--replicates", "2",
                                             "--out", str(out)]))
        assert code == 0
        text = capsys.readouterr().out
        assert "RMSE mean" in text and "+-" in text
        assert (out / "rep0" / "run_config.json").exists()
        assert (out / "rep1" / "run_config.json").exists()

    def test_csv_output(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run-csv"
        csv = tmp_path / "results.csv"
        code = run_cli(self.common(sim_dir, ["--method", "pp-mm",
                                             "--partition", "1x2",
                                             "--csv", str(csv),
                                             "--out", str(out)]))
        assert code == 0
        assert csv.read_text().startswith("1x2,pp-mm,4,")
        capsys.readouterr()

    def test_config_file_precedence(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"factors": 2, "tau": 1.0, "iters": 30,
                                   "burn-in": 20, "thin": 1,
                                   "method": "pp-mm", "partition": "2x2"}))
        out = tmp_path / "run-cfg"
        # flag overrides the config file's partition
        code = run_cli(["run", "--train", str(sim_dir / "train.txt"),
                        "--config", str(cfg), "--partition", "1x2",
                        "--seed", "1", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "run_config.json").read_text())
        assert (meta["partition_rows"], meta["partition_cols"]) == (1, 2)
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"factors": 2, "tau": 1.0, "bogus": 1}))
        code = run_cli(["run", "--train", str(sim_dir / "train.txt"),
                        "--config", str(cfg)])
        assert code == 2
        capsys.readouterr()

    def test_full_requires_1x1(self, sim_dir, capsys):
        code = run_cli(self.common(sim_dir, ["--method", "full",
                                             "--partition", "2x2"]))
        assert code == 2
        assert "1x1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--factors", "5", "--iters", "206", "--burn-in", "200", "--thin", "1"],
         "keeps 6 samples"),
        (["--factors", "2", "--lambda", "foo"], "--lambda"),
    ])
    def test_unusable_fit_settings_are_validation_errors(self, sim_dir, capsys, flags, message):
        code = run_cli(["run", "--train", str(sim_dir / "train.txt"), "--tau", "1.0",
                        "--method", "pp-gmm", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_missing_train_file_is_io_error(self, tmp_path, capsys):
        code = run_cli(["run", "--train", str(tmp_path / "none.txt"),
                        "--factors", "1", "--tau", "1.0"])
        assert code == 4
        capsys.readouterr()

    def test_index_beyond_int64_is_validation_error(self, tmp_path, capsys):
        train = tmp_path / "train.txt"
        train.write_text("0 0 1.0\n9223372036854775808 1 2.0\n")
        code = run_cli(["run", "--train", str(train), "--factors", "1", "--tau", "1.0"])
        assert code == 2
        assert "train.txt:2:" in capsys.readouterr().err

    def test_shape_of_2_63_cells_or_more_is_validation_error(self, tmp_path, capsys):
        train, out = tmp_path / "train.txt", tmp_path / "run"
        train.write_text("0 0 1.0\n16777216 0 2.0\n0 1099511627775 3.0\n")
        code = run_cli(["run", "--train", str(train), "--factors", "1", "--tau", "1.0",
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(train) in err and "has 2**63 or more cells" in err
        assert not out.exists()


    def test_non_utf8_train_file_is_validation_error(self, tmp_path, capsys):
        train = tmp_path / "train.txt"
        train.write_bytes(b"0 0 1.0\n# caf\xe9\n1 1 2.0\n")
        code = run_cli(["run", "--train", str(train), "--factors", "1", "--tau", "1.0"])
        assert code == 2
        assert "train.txt:2:" in capsys.readouterr().err

    def test_test_index_outside_train_rejected_before_the_run(self, tmp_path, capsys):
        train, test, out = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "run"
        train.write_text("".join(f"{r} {r % 4} 1.0\n" for r in range(60)))
        test.write_text("70 3 1.5\n")
        code = run_cli(["run", "--train", str(train), "--test", str(test), "--factors", "1",
                        "--tau", "1.0", "--partition", "2x2", "--out", str(out)])
        assert code == 2
        assert "test.txt" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_is_validation_error(self, tmp_path, capsys, value):
        train, out = tmp_path / "train.txt", tmp_path / "run"
        train.write_text("".join(f"{r} {r % 4} 1.0\n" for r in range(8)) + f"3 1 {value}\n")
        code = run_cli(["run", "--train", str(train), "--factors", "1", "--tau", "1.0",
                        "--partition", "2x2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(train) in err and "non-finite" in err
        assert not out.exists()

    def test_fitted_posterior_breaking_the_contract_is_numerical_error(
            self, sim_dir, tmp_path, capsys, monkeypatch):
        # A moment-matched fit with a NaN mean is refused when its file is
        # written, naming the file; no later stage reads it.
        fit_rows = pipeline.fit_rows

        def nan_mean(*args, **kwargs):
            pset = fit_rows(*args, **kwargs)
            pset.means[0, 0] = np.nan
            return pset

        monkeypatch.setattr(pipeline, "fit_rows", nan_mean)
        out = tmp_path / "run-nan"
        code = run_cli(self.common(sim_dir, ["--method", "full", "--workers", "1",
                                             "--out", str(out)]))
        assert code == 3
        err = capsys.readouterr().err
        assert os.path.join("stage1", "x_0_0.npz") in err and "row 0: non-finite mean" in err
        assert os.listdir(out / "stage1") == []


class TestEvaluateAndCost:
    @pytest.fixture()
    def finished_run(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run-eval"
        run_cli(["run", "--train", str(sim_dir / "train.txt"),
                 "--test", str(sim_dir / "test.txt"),
                 "--factors", "2", "--tau", "1.0", "--iters", "30",
                 "--burn-in", "20", "--thin", "1", "--seed", "4",
                 "--method", "pp-mm", "--partition", "2x2",
                 "--out", str(out)])
        capsys.readouterr()
        return out

    def test_evaluate_self_baseline_wts_is_one(self, sim_dir, finished_run, capsys):
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt"),
                        "--train", str(sim_dir / "train.txt"),
                        "--baseline", str(finished_run)])
        assert code == 0
        text = capsys.readouterr().out
        assert "RMSE" in text
        assert "1.000" in text  # speed-up against itself

    def test_evaluate_custom_bins_and_json(self, sim_dir, finished_run,
                                           tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt"),
                        "--train", str(sim_dir / "train.txt"),
                        "--bins", "0,5,10", "--json", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert len(doc["bins"]) == 3
        assert doc["bins"][0]["low"] == 0.0
        assert len(doc["correlations"]) == len(
            [p for p in __import__("dbmf").evaluate.sharing_pairs(2, 2)])
        capsys.readouterr()

    @pytest.mark.parametrize("bins", ["nan", "0,nan,20"])
    def test_nan_bin_edge_is_validation_error(self, sim_dir, finished_run, capsys, bins):
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt"),
                        "--train", str(sim_dir / "train.txt"), "--bins", bins])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_evaluate_reports_repair_rates(self, sim_dir, finished_run, tmp_path, capsys):
        # Per side and per step: the share of the side's rows repaired, and
        # the median shift over the mean diagonal of the row's aggregated
        # precision, read back here from the run's own files.
        report_path = tmp_path / "report.json"
        assert run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt"),
                        "--json", str(report_path)]) == 0
        table = capsys.readouterr().out
        events = json.loads((finished_run / "aggregate" / "corrections.json").read_text())
        precisions = {side: approx.load_posterior_file(
            finished_run / "aggregate" / f"{side}.npz").precisions for side in "xw"}
        expected = {}
        for event in events["events"]:
            # an event's row is the original row of X or column of W
            diag = np.diag(precisions[event["side"]][event["row"]])
            expected.setdefault((event["side"], event["where"]), []).append(
                event["shift"] / diag.mean())
        assert expected, "the fixture run has no repairs to report"
        report = json.loads(report_path.read_text())
        got = {(rr["side"], rr["where"]): rr for rr in report["repairs"]}
        assert got.keys() == expected.keys()
        for (side, where), shifts in expected.items():
            rate = len(shifts) / precisions[side].shape[0]
            assert got[side, where]["rate"] == pytest.approx(rate, rel=1e-15)
            assert got[side, where]["median_shift"] == pytest.approx(np.median(shifts), rel=1e-12)
            assert f"{where:<16}{rate:>8.4f}" in table

    @pytest.mark.parametrize("event", [
        # rows labelled "<side>:<block>:<row within the block>", as runs once wrote them
        "q:0:0", "x:0:-1", "x:0:10", "x:2:0", "x:-1:0", "x:0",
        # the fixture has 20 rows and 12 columns
        pytest.param({"side": "q", "row": 0}, id="unknown-side"),
        pytest.param({"side": "x", "row": -1}, id="row-negative"),
        pytest.param({"side": "x", "row": 20}, id="row-n"),
        pytest.param({"side": "w", "row": 12}, id="column-n"),
        pytest.param({"side": "x", "row": 2.0}, id="row-float"),
        pytest.param({"side": "x", "row": True}, id="row-bool"),
        pytest.param({"row": 0}, id="no-side"),
    ])
    def test_malformed_corrections_is_io_error(self, sim_dir, finished_run, capsys, event):
        if isinstance(event, str):
            event = {"side": "x", "row": event}
        (finished_run / "aggregate" / "corrections.json").write_text(json.dumps(
            {"count": 1, "events": [{**event, "where": "final", "shift": 1.0}]}))
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt")])
        assert code == 4
        assert "corrections.json" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [["final", 5], [5], ["subset 0", None]])
    def test_step_not_a_string_is_io_error(self, sim_dir, finished_run, capsys, steps):
        events = [{"side": "x", "row": row, "where": where, "shift": 1.0}
                  for row, where in enumerate(steps)]
        (finished_run / "aggregate" / "corrections.json").write_text(json.dumps(
            {"count": len(events), "events": events}))
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt")])
        assert code == 4
        assert "corrections.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"method": None}, {"partition_rows": None}, {"partition_cols": None},
        {"partition_rows": "2"}, {"partition_cols": 0}, [],
    ])
    def test_malformed_run_config_is_io_error(self, sim_dir, finished_run, capsys, edit):
        path = finished_run / "run_config.json"
        doc = json.loads(path.read_text())
        if isinstance(edit, dict):
            doc.update(edit)
            doc = {key: value for key, value in doc.items() if value is not None}
        else:
            doc = edit
        path.write_text(json.dumps(doc))
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt")])
        assert code == 4
        assert f"{path} does not name the method" in capsys.readouterr().err

    def test_evaluate_reads_a_run_config_with_shared_prior_keys(self, sim_dir, finished_run,
                                                                 capsys):
        # A run recorded while the nw_* settings existed still evaluates,
        # with the same report: evaluate reads only the method and partition.
        argv = ["evaluate", "--run", str(finished_run), "--test", str(sim_dir / "test.txt"),
                "--train", str(sim_dir / "train.txt")]
        assert run_cli(argv) == 0
        report = capsys.readouterr().out
        path = finished_run / "run_config.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "nw_mu0": 0.0,
                                    "nw_beta0": 2.0, "nw_w0_scale": 1.0, "nw_nu0": None}))
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize("timings", [{}, {"total": "x"}, {"total": True}, {"total": 0.0}])
    def test_malformed_baseline_timings_is_io_error(self, sim_dir, finished_run, tmp_path,
                                                    capsys, timings):
        path = tmp_path / "baseline" / "timings.json"
        path.parent.mkdir()
        path.write_text(json.dumps(timings))
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt"), "--baseline", str(path.parent)])
        assert code == 4
        assert f"{path} has no positive, finite numeric total" in capsys.readouterr().err

    def test_evaluate_does_not_read_the_plan(self, sim_dir, finished_run, capsys):
        argv = ["evaluate", "--run", str(finished_run), "--test", str(sim_dir / "test.txt"),
                "--train", str(sim_dir / "train.txt")]
        assert run_cli(argv) == 0
        report = capsys.readouterr().out
        assert "eigenvalue repairs: none" not in report
        (finished_run / "plan.json").unlink()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize("header", [
        [1, 2], {"kind": "gaussian", "k": "2"}, {"kind": "gaussian", "k": 2.5},
        {"kind": "mixture", "k": 2},
    ])
    def test_malformed_posterior_header_is_io_error(self, sim_dir, finished_run, capsys,
                                                    header):
        path = finished_run / "aggregate" / "x.npz"
        with np.load(path) as npz:
            stored = dict(npz)
        stored["header"] = np.array(json.dumps(header))
        np.savez(path, **stored)
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt")])
        assert code == 4
        assert f"corrupt posterior file {path}" in capsys.readouterr().err

    def test_evaluate_ep_run_with_more_than_20_factors(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run-ep21"
        assert run_cli(["run", "--train", str(sim_dir / "train.txt"),
                        "--factors", "21", "--tau", "1.0", "--iters", "48",
                        "--burn-in", "2", "--thin", "2", "--method", "ep-parametric",
                        "--partition", "2x2", "--out", str(out)]) == 0
        code = run_cli(["evaluate", "--run", str(out), "--test", str(sim_dir / "test.txt")])
        assert code == 0
        assert "correlation" in capsys.readouterr().out

    def test_train_smaller_than_test_is_validation_error(self, sim_dir, finished_run,
                                                         tmp_path, capsys):
        small = tmp_path / "small.txt"
        small.write_text("0 0 1.0\n1 1 1.0\n")
        code = run_cli(["evaluate", "--run", str(finished_run),
                        "--test", str(sim_dir / "test.txt"), "--train", str(small)])
        assert code == 2
        assert "outside the training matrix" in capsys.readouterr().err

    def test_test_index_outside_run_is_validation_error(self, finished_run, tmp_path,
                                                         capsys):
        test = tmp_path / "t.txt"
        test.write_text("500 3 1.0\n")
        code = run_cli(["evaluate", "--run", str(finished_run), "--test", str(test)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(test) in err and "501x4" in err and "20x12" in err

    def test_evaluate_requires_test(self, finished_run, capsys):
        code = run_cli(["evaluate", "--run", str(finished_run)])
        assert code == 2
        capsys.readouterr()

    def test_evaluate_requires_test_before_reading_the_run(self, tmp_path, capsys):
        code = run_cli(["evaluate", "--run", str(tmp_path / "ghost")])
        assert code == 2
        assert "--test" in capsys.readouterr().err

    def test_cost_model_table(self, capsys):
        code = run_cli(["cost-model", "--n-rows", "6040", "--n-cols", "3706",
                        "--n-obs", "1000209", "--factors", "10",
                        "--workers", "1,16,841"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[1].split()[0] == "1"

    def test_missing_run_dir_is_io_error(self, tmp_path, sim_dir, capsys):
        code = run_cli(["evaluate", "--run", str(tmp_path / "ghost"),
                        "--test", str(sim_dir / "test.txt")])
        assert code == 4
        capsys.readouterr()


@pytest.mark.parametrize("argv, config, name", [
    (["run"], {"factors": "abc", "tau": 1.0}, "factors"),
    (["run"], {"factors": 2, "tau": 1.0, "partition": 3}, "partition"),
    (["run", "--factors", "2", "--tau", "1.0", "--replicates", "0"], None, "--replicates"),
    (["evaluate", "--test", "test.txt", "--bins", "0,a"], None, "--bins"),
    (["cost-model", "--n-rows", "6", "--n-cols", "5", "--n-obs", "9", "--factors", "2",
      "--workers", "1,x"], None, "--workers"),
    (["run"], {"factors": 2, "tau": 1.0, "save-chains": "false"}, "save_chains"),
    (["run"], {"factors": 2, "tau": 1.0, "workers": 2.7}, "workers"),
    (["run"], {"factors": 2, "tau": float("nan")}, "tau"),
    (["run", "--factors", "2", "--tau", "nan"], None, "tau"),
    (["run"], {"factors": 2, "tau": 1.0, "lambda": True}, "lam_policy"),
    (["run"], 5, "must hold a JSON object, got 5"),
    (["run"], "abc", "must hold a JSON object, got 'abc'"),
    (["run"], [1], "must hold a JSON object, got [1]"),
    (["run"], {"method": ["pp-mm"], "factors": 2, "tau": 1.0}, "method"),
    (["run"], {"method": {"a": 1}, "factors": 2, "tau": 1.0}, "method"),
    (["evaluate", "--test", "test.txt", "--bins", "nan"], None, "--bins needs --train"),
    (["evaluate", "--test", "test.txt", "--bins", "0,10"], None, "--bins needs --train"),
    (["evaluate", "--test", "test.txt", "--train", "train.txt", "--bins", "nan"], None,
     "--bins must be strictly increasing"),
    (["run", "--tau", "1.0"], None, "--factors and --tau are required"),
    (["run"], {"factors": 2}, "--factors and --tau are required"),
    (["run"], {"factors": 2, "tau": "1.0"}, "tau"),
    (["run"], {"factors": 2, "tau": 10 ** 400}, "tau"),
    (["run"], {"factors": 2.0, "tau": 1.0}, "n_factors"),
    (["run"], {"factors": 2, "tau": 1.0, "workers": 3.0}, "workers"),
    (["run"], {"factors": 2, "tau": 1.0, "lambda": float("inf")}, "lam_policy"),
])
def test_bad_flag_or_config_value_is_validation_error(tmp_path, capsys, argv, config, name):
    # Checked before any input is read: the train file and run directory
    # do not exist.
    argv = list(argv)
    if argv[0] == "run":
        argv += ["--train", str(tmp_path / "none.txt")]
    if argv[0] == "evaluate":
        argv += ["--run", str(tmp_path / "ghost")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run_cli(argv) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not-json"])
def test_unreadable_config_file_is_validation_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code = run_cli(["run", "--train", str(tmp_path / "none.txt"), "--config", str(path)])
    assert code == 2
    assert f"unreadable config file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("name, level", [
    ("debug", logging.DEBUG), ("Info", logging.INFO), ("WARNING", logging.WARNING),
    ("verbose", None), ("10", None), ("", None),
])
def test_log_level_named_in_any_case(monkeypatch, capsys, name, level):
    # The name itself is checked: ``logging.basicConfig`` skips its own
    # check when the root logger has handlers, as it has under pytest.
    monkeypatch.setenv("DBMF_LOG", name)
    code = run_cli(["cost-model", "--n-rows", "6", "--n-cols", "5", "--n-obs", "9",
                    "--factors", "2", "--workers", "1"])
    err = capsys.readouterr().err
    if level is None:
        assert code == 2 and "DBMF_LOG" in err
        with pytest.raises(ValidationError, match="DBMF_LOG"):
            cli._log_level()
    else:
        assert code == 0 and cli._log_level() == level


# One value per ``RUN_FIELDS`` key, none of them the ``RunConfig`` default.
RUN_VALUES = {"factors": 2, "tau": 1.5, "iters": 40, "burn-in": 10, "thin": 3, "seed": 7,
              "order": "random", "top-n": 4, "workers": 3, "save-chains": True}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_every_run_key_lands_in_its_config_field(tmp_path, source):
    assert RUN_VALUES.keys() == cli.RUN_FIELDS.keys()
    argv = ["run", "--train", str(tmp_path / "none.txt")]
    if source == "flag":
        for key, value in RUN_VALUES.items():
            argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(RUN_VALUES))
        argv += ["--config", str(tmp_path / "cfg.json")]
    args = cli.build_parser().parse_args(argv)
    config = cli._run_config_from(cli._merge_config(args, cli.RUN_CONFIG_KEYS), "pp-gmm")
    for key, (name, kind) in cli.RUN_FIELDS.items():
        assert type(getattr(config, name)) is kind, key
        assert getattr(config, name) == RUN_VALUES[key], key
    assert config.approximation == "gmm"
    defaults = pipeline.RunConfig(n_factors=2, tau=1.5)
    assert all(getattr(defaults, name) != RUN_VALUES[key]
               for key, (name, _) in cli.RUN_FIELDS.items() if key not in ("factors", "tau"))


# One value per ``RUN_FIELDS`` key that ``RunConfig`` refuses.
BAD_RUN_VALUES = {"factors": 2.0, "tau": 10 ** 400, "iters": 40.0, "burn-in": -1,
                  "thin": True, "seed": 1.5, "order": "sideways", "top-n": "3",
                  "workers": 3.0, "save-chains": "false"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key", ["nw-mu0", "nw-beta0", "nw-w0-scale", "nw-nu0"])
def test_shared_prior_is_not_a_run_key(tmp_path, capsys, key, source):
    # Every run samples under BPMF's fixed hyperprior, so an nw-* flag or
    # config key is refused before the (missing) train file is read.
    argv = ["run", "--train", str(tmp_path / "none.txt"), "--factors", "2", "--tau", "1.0"]
    if source == "flag":
        # argparse refuses the flag itself, with its usage exit status 2
        with pytest.raises(SystemExit) as exited:
            run_cli(argv + [f"--{key}", "2"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: --{key} 2" in capsys.readouterr().err
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: 2.0}))
        assert run_cli(argv + ["--config", str(tmp_path / "cfg.json")]) == 2
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err


def test_run_keys_are_checked_by_run_config_alone(tmp_path, capsys):
    # Every field is set by a run key: these four by the keys read on
    # their own (method, partition, lambda), the rest through RUN_FIELDS.
    own = {"approximation", "partition_rows", "partition_cols", "lambda_policy"}
    assert ({f.name for f in fields(pipeline.RunConfig)}
            == own | {name for name, _ in cli.RUN_FIELDS.values()})
    assert BAD_RUN_VALUES.keys() == cli.RUN_FIELDS.keys()
    for key, value in BAD_RUN_VALUES.items():
        name = cli.RUN_FIELDS[key][0]
        with pytest.raises(ValidationError) as expected:
            pipeline.RunConfig(**{"n_factors": 2, "tau": 1.0, name: value})
        (tmp_path / "cfg.json").write_text(json.dumps({"factors": 2, "tau": 1.0, key: value}))
        assert run_cli(["run", "--train", str(tmp_path / "none.txt"),
                        "--config", str(tmp_path / "cfg.json")]) == 2, key
        assert capsys.readouterr().err == f"error: {expected.value}\n", key


class TestUnwritableOutputs:
    def test_simulate_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = run_cli(["simulate", "--n-rows", "4", "--n-cols", "3", "--factors", "1",
                        "--out", str(tmp_path / "file" / "sim")])
        assert code == 4
        assert "cannot create" in capsys.readouterr().err

    def test_run_out_under_a_file(self, sim_dir, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = run_cli(["run", "--train", str(sim_dir / "train.txt"), "--factors", "1",
                        "--tau", "1.0", "--iters", "10", "--burn-in", "5", "--thin", "1",
                        "--method", "full", "--out", str(tmp_path / "file" / "run")])
        assert code == 4
        assert "cannot create run directory" in capsys.readouterr().err

    def test_run_csv_in_missing_directory(self, sim_dir, tmp_path, capsys):
        code = run_cli(["run", "--train", str(sim_dir / "train.txt"), "--factors", "1",
                        "--tau", "1.0", "--iters", "10", "--burn-in", "5", "--thin", "1",
                        "--method", "full", "--out", str(tmp_path / "run"),
                        "--csv", str(tmp_path / "missing" / "x.csv")])
        assert code == 4
        assert "x.csv" in capsys.readouterr().err

    def test_evaluate_json_in_missing_directory(self, sim_dir, tmp_path, capsys):
        run_cli(["run", "--train", str(sim_dir / "train.txt"), "--factors", "1",
                 "--tau", "1.0", "--iters", "10", "--burn-in", "5", "--thin", "1",
                 "--method", "full", "--out", str(tmp_path / "run")])
        code = run_cli(["evaluate", "--run", str(tmp_path / "run"),
                        "--test", str(sim_dir / "test.txt"),
                        "--json", str(tmp_path / "missing" / "x.json")])
        assert code == 4
        assert "x.json" in capsys.readouterr().err


class TestOutputRoot:
    def test_env_var_default_root(self, sim_dir, tmp_path, monkeypatch, capsys):
        root = tmp_path / "results-root"
        monkeypatch.setenv("DBMF_OUTPUT_ROOT", str(root))
        code = run_cli(["simulate", "--n-rows", "4", "--n-cols", "3",
                        "--factors", "1", "--seed", "1"])
        assert code == 0
        assert (root / "sim-1" / "train.txt").exists()
        capsys.readouterr()
