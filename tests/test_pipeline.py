import glob
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import oracles
from dbmf import aggregate, artifacts, data, evaluate, pipeline
from dbmf.approx import GMM_TOP_N, PosteriorSet, load_posterior_file, save_posterior_file
from dbmf.errors import ArtifactError, NumericalError, PipelineError, ValidationError
from dbmf.sampler import GibbsConfig, NormalWishartPrior, SampleChain, predict


def quick_config(**kw):
    base = dict(n_factors=2, tau=1.0, n_iters=40, burn_in=20, thin=2, seed=7,
                approximation="mm", ordering="random", partition_rows=2,
                partition_cols=2, workers=1)
    base.update(kw)
    return pipeline.RunConfig(**base)


def artifact_digests(run_dir):
    """sha256 of every stage posterior file and aggregate output of a run."""
    paths = (glob.glob(os.path.join(run_dir, "stage*", "*.npz"))
             + glob.glob(os.path.join(run_dir, "aggregate", "*")))
    return {os.path.relpath(p, run_dir): hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


@pytest.fixture(scope="module")
def small_data():
    matrix, _ = data.simulate(24, 18, 2, 1.0, seed=42)
    train, test = data.split_random(matrix, 0.3, seed=43)
    return train, test


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            quick_config(approximation="bogus")
        with pytest.raises(ValidationError):
            quick_config(ordering="bogus")
        with pytest.raises(ValidationError):
            quick_config(partition_rows=0)
        with pytest.raises(ValidationError):
            quick_config(workers=0)
        for seed in (-1, 1.5, True):
            with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
                quick_config(seed=seed)

    def test_numpy_integer_seed_recorded_as_int(self):
        cfg = quick_config(seed=np.int64(3))
        assert json.loads(json.dumps(asdict(cfg)))["seed"] == 3

    def test_numpy_settings_run_and_are_recorded_as_python_types(self, small_data, tmp_path):
        ints = dict(n_factors=2, n_iters=40, burn_in=20, thin=2, seed=7, partition_rows=1,
                    partition_cols=1, workers=1)
        cfg = quick_config(**{name: np.int64(v) for name, v in ints.items()},
                           tau=np.float32(1.0), save_chains=np.False_)
        pipeline.run_full(small_data[0], cfg, run_dir=tmp_path / "full")
        recorded = json.loads((tmp_path / "full" / "run_config.json").read_text())
        for name, value in ints.items():
            assert type(recorded[name]) is int and recorded[name] == value
        assert type(recorded["tau"]) is float and recorded["tau"] == 1.0
        assert recorded["save_chains"] is False

    @pytest.mark.parametrize("name, value", [
        ("n_factors", 2.0), ("partition_rows", 2.5), ("thin", 2.0),
        ("workers", np.True_), ("tau", True), ("tau", "1.0"), ("tau", np.True_), ("tau", None),
        ("save_chains", 1), ("save_chains", "no")])
    def test_wrong_setting_types_rejected_before_a_run(self, small_data, tmp_path, name, value):
        settings = {"partition_rows": 1, "partition_cols": 1, name: value}
        with pytest.raises(ValidationError, match=name):
            pipeline.run_full(small_data[0], quick_config(**settings), run_dir=tmp_path / "full")
        assert not (tmp_path / "full").exists()

    @pytest.mark.parametrize("name", ["tau"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            quick_config(**{name: value})

    @pytest.mark.parametrize("name", ["nw_mu0", "nw_beta0", "nw_w0_scale", "nw_nu0",
                                      "top_n", "lambda_policy"])
    def test_shared_prior_is_not_a_setting(self, name):
        # The shared hyperprior (nw_prior) and the dm/gmm fit rule (each
        # row's median pairwise lambda, at most GMM_TOP_N clusters) are
        # fixed, so no field sets them.
        assert name not in {field.name for field in fields(pipeline.RunConfig)}
        with pytest.raises(TypeError, match=name):
            quick_config(**{name: 2.0})

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_shared_hyperprior_is_bpmf_standard(self, k):
        got = pipeline.RunConfig(n_factors=k, tau=1.0).nw_prior()
        want = NormalWishartPrior(np.zeros(k), 2.0, np.eye(k), float(k))
        assert np.array_equal(got.mu0, want.mu0) and got.mu0.dtype == want.mu0.dtype
        assert np.array_equal(got.w0, want.w0) and got.w0.dtype == want.w0.dtype
        assert type(got.beta0) is float and got.beta0 == want.beta0
        assert type(got.nu0) is float and got.nu0 == want.nu0

    def test_chain_too_short_for_the_fits_rejected(self):
        # (206 - 200) / 1 = 6 retained samples, one short of K+2 = 7
        with pytest.raises(ValidationError, match="keeps 6 samples"):
            quick_config(n_factors=5, n_iters=206, burn_in=200, thin=1)
        quick_config(n_factors=5, n_iters=207, burn_in=200, thin=1)

    def test_round_trip_dict(self):
        cfg = quick_config()
        again = pipeline.RunConfig(**asdict(cfg))
        assert again == cfg


class TestSeedsAndStages:
    def test_stage_of(self):
        assert pipeline.stage_of(0, 0) == 1
        assert pipeline.stage_of(0, 3) == 2
        assert pipeline.stage_of(2, 0) == 2
        assert pipeline.stage_of(1, 1) == 3

    def test_derive_seed_deterministic_distinct(self):
        a = pipeline.derive_seed(5, 1, 0, 0)
        assert a == pipeline.derive_seed(5, 1, 0, 0)
        assert a != pipeline.derive_seed(5, 2, 0, 0)
        assert a != pipeline.derive_seed(6, 1, 0, 0)


class TestExtractBlocks:
    def test_blocks_tile_matrix(self, small_data):
        train, _ = small_data
        plan = data.partition(train, data.order_matrix(train, "random", seed=3), 3, 2)
        blocks = pipeline.extract_blocks(train, plan)
        assert len(blocks) == 6
        total = sum(b.m for b in blocks.values())
        assert total == train.m
        # checksums: map each block entry back to original coordinates
        total_sum = sum(float(b.vals.sum()) for b in blocks.values())
        assert total_sum == pytest.approx(float(train.vals.sum()), rel=1e-12)
        for (i, j), block in blocks.items():
            r_lo, r_hi = plan.row_range(i)
            c_lo, c_hi = plan.col_range(j)
            assert block.n_rows == r_hi - r_lo
            assert block.n_cols == c_hi - c_lo

    def test_block_entries_match_permuted_cells(self, small_data):
        train, _ = small_data
        plan = data.partition(train, data.order_matrix(train, "decreasing"), 2, 2)
        blocks = pipeline.extract_blocks(train, plan)
        dense = oracles.to_dense(train, fill=np.nan)
        for (i, j), block in blocks.items():
            r_lo, _ = plan.row_range(i)
            c_lo, _ = plan.col_range(j)
            for r, c, v in zip(block.rows, block.cols, block.vals):
                orig_r = plan.row_perm[r_lo + r]
                orig_c = plan.col_perm[c_lo + c]
                assert dense[orig_r, orig_c] == v

    @pytest.mark.parametrize("grid", [(1, 1), (2, 3), (3, 3), (6, 6)], ids="{0[0]}x{0[1]}".format)
    @pytest.mark.parametrize("ordering", ["decreasing", "random", "none"])
    @pytest.mark.parametrize("source", ["small_data", "sparse"])
    def test_blocks_equal_key_sort_oracle_in_csr_order(self, small_data, source, ordering, grid):
        if source == "small_data":
            matrix = small_data[0]
        else:
            # 13 entries over 13x11: most blocks of a fine grid are empty, and
            # most rows inside a nonempty block are too; -0.0 and 0.0 keep their bits.
            rows = [0, 0, 0, 2, 2, 5, 7, 7, 9, 12, 12, 12, 3]
            cols = [0, 4, 10, 1, 9, 5, 0, 6, 2, 3, 8, 10, 7]
            vals = [1.5, -2.0, 0.0, -0.0, 3.25, 7.0, -1.0, 2.5, 4.0, 0.5, -3.5, 6.0, 1e-300]
            matrix = data.SparseMatrix(13, 11, np.array(rows), np.array(cols), np.array(vals))
        plan = data.partition(matrix, data.order_matrix(matrix, ordering, seed=5), *grid)
        blocks = pipeline.extract_blocks(matrix, plan)
        expected = oracles.extract_blocks_by_key(matrix, plan)
        assert list(blocks) == list(expected)
        if source == "sparse" and grid == (6, 6):
            assert any(block.m == 0 for block in blocks.values())
        for key, block in blocks.items():
            want = expected[key]
            assert (block.n_rows, block.n_cols) == (want.n_rows, want.n_cols)
            assert block.rows.dtype == block.cols.dtype == np.int64
            assert block.vals.dtype == np.float64
            assert np.array_equal(block.rows, want.rows)
            assert np.array_equal(block.cols, want.cols)
            assert np.array_equal(block.vals.view(np.int64), want.vals.view(np.int64))
            # Canonical CSR order: rows nondecreasing, columns strictly
            # increasing within a row.
            row_steps = np.diff(block.rows)
            assert np.all(row_steps >= 0)
            assert np.all(np.diff(block.cols)[row_steps == 0] > 0)


class TestCostModel:
    def test_single_worker_closed_form(self):
        cm = pipeline.CostModel(100, 50, 2000, 3, 10, 1, 12.0)
        ev = pipeline.cost_model_eval(cm)
        expected_t0 = (150 * 27 / 2 + 2000 * 9 / 4) * 10
        assert ev.t0 == pytest.approx(expected_t0)
        assert ev.t_aggregate == pytest.approx(100 / 2 * (3 + 9))
        assert ev.total == pytest.approx(3 * ev.t0 + ev.t_aggregate)

    def test_iterations_scale_t0_only(self):
        base = pipeline.cost_model_eval(pipeline.CostModel(100, 50, 2000, 3, 10, 4, 12.0))
        double = pipeline.cost_model_eval(pipeline.CostModel(100, 50, 2000, 3, 20, 4, 12.0))
        assert double.t0 == pytest.approx(2 * base.t0)
        assert double.t_aggregate == pytest.approx(base.t_aggregate)

    def test_total_nonincreasing_in_workers(self):
        totals = [pipeline.cost_model_eval(
            pipeline.CostModel(500, 300, 10000, 5, 100, u, 30.0)).total
            for u in (1, 2, 4, 9, 16, 36, 64, 144)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_communication_formula(self):
        params = pipeline.row_param_count("gmm", 4)
        assert params == GMM_TOP_N * (4 + 16) == 3 * (4 + 16)
        ev = pipeline.cost_model_eval(pipeline.CostModel(10, 20, 50, 4, 5, 9, params))
        assert ev.communication == pytest.approx(3 * 30 * params)

    def test_validation(self):
        with pytest.raises(ValidationError):
            pipeline.CostModel(0, 1, 1, 1, 1, 1, 2.0)
        with pytest.raises(ValidationError):
            pipeline.CostModel(1, 1, 1, 1, 1, 1, 0.0)

    @pytest.mark.parametrize("index, value", [
        (0, 2.5), (1, 3.0), (2, np.inf), (3, True), (4, np.float64(10)), (5, True),
        (6, np.inf), (6, False), (6, "12")])
    def test_fields_follow_the_config_type_rule(self, index, value):
        args = [100, 50, 2000, 3, 10, 4, 12.0]
        args[index] = value
        name = [f.name for f in fields(pipeline.CostModel)][index]
        with pytest.raises(ValidationError, match=f"^{name} must be a positive"):
            pipeline.CostModel(*args)

    def test_numpy_fields_evaluate_the_same(self):
        ref = pipeline.cost_model_eval(pipeline.CostModel(100, 50, 2000, 3, 10, 4, 12))
        cm = pipeline.CostModel(*map(np.int64, (100, 50, 2000, 3, 10, 4)), np.float32(12))
        assert [type(getattr(cm, f.name)) for f in fields(cm)] == [int] * 6 + [float]
        assert pipeline.cost_model_eval(cm) == ref


class TestStagedPipeline:
    def test_result_covers_all_indices(self, small_data, tmp_path):
        train, test = small_data
        cfg = quick_config()
        res = pipeline.run_pp(train, cfg, run_dir=tmp_path / "pp")
        assert res.x_mean.shape == (24, 2)
        assert res.w_mean.shape == (18, 2)
        assert np.all(np.isfinite(res.x_mean))
        np.linalg.cholesky(res.x_precisions)
        np.linalg.cholesky(res.w_precisions)
        preds = predict(res.x_mean, res.w_mean, test.rows, test.cols)
        assert np.all(np.isfinite(preds))

    def test_run_directory_layout(self, small_data, tmp_path):
        train, _ = small_data
        cfg = quick_config(partition_rows=2, partition_cols=3)
        run_dir = tmp_path / "layout"
        pipeline.run_pp(train, cfg, run_dir=run_dir)
        assert (run_dir / "run_config.json").exists()
        assert (run_dir / "plan.json").exists()
        assert (run_dir / "timings.json").exists()
        assert (run_dir / "stage1" / "x_0_0.npz").exists()
        assert (run_dir / "stage2" / "w_1_0.npz").exists()
        assert (run_dir / "stage2" / "x_0_2.npz").exists()
        assert (run_dir / "stage3" / "x_1_1.npz").exists()
        assert (run_dir / "aggregate" / "x.npz").exists()
        assert (run_dir / "aggregate" / "corrections.json").exists()
        assert not (run_dir / "chains").exists()  # chains are not saved
        meta = pipeline.read_run_config(run_dir)
        assert meta["method"] == "pp"
        timings = pipeline.read_timings(run_dir)
        assert set(timings["stages"]) == {"1", "2", "3"}
        assert timings["total"] > 0

    def test_stage_three_waits_for_stage_two(self, small_data, tmp_path):
        train, _ = small_data
        cfg = quick_config(workers=2, partition_rows=2, partition_cols=2)
        pipeline.run_pp(train, cfg, run_dir=tmp_path / "sched")
        timings = pipeline.read_timings(tmp_path / "sched")
        stage2_end = max(b["finished"] for b in timings["stages"]["2"]["blocks"].values())
        stage3_start = min(b["started"] for b in timings["stages"]["3"]["blocks"].values())
        assert stage3_start >= stage2_end
        # stage-III width is (r-1)(c-1)
        assert len(timings["stages"]["3"]["blocks"]) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timings_record_real_time_next_to_the_ledger(self, small_data, tmp_path, workers):
        # ``total`` is the ledger (stage maxima plus aggregation);
        # ``wall_seconds`` is the real time from the first block to the
        # aggregate files, so it covers every stage's slowest block, and in
        # one process every block in turn.
        train, _ = small_data
        pipeline.run_pp(train, quick_config(workers=workers), run_dir=tmp_path / "t")
        timings = pipeline.read_timings(tmp_path / "t")
        stages = timings["stages"].values()
        assert timings["wall_seconds"] >= max(s["max_seconds"] for s in stages)
        assert timings["total"] == (sum(s["max_seconds"] for s in stages)
                                    + timings["aggregation_seconds"])
        if workers == 1:
            assert timings["wall_seconds"] >= timings["total"]

    @pytest.mark.parametrize("run", [pipeline.run_pp, pipeline.run_ep],
                             ids=["run_pp", "run_ep"])
    def test_reproducible_and_worker_invariant(self, small_data, tmp_path, run):
        train, _ = small_data
        res1 = run(train, quick_config(), run_dir=tmp_path / "a")
        res2 = run(train, quick_config(), run_dir=tmp_path / "b")
        res3 = run(train, quick_config(workers=2), run_dir=tmp_path / "c")
        assert np.array_equal(res1.x_mean, res2.x_mean)
        assert np.array_equal(res1.w_precisions, res2.w_precisions)
        assert np.array_equal(res1.x_mean, res3.x_mean)
        assert np.array_equal(res1.w_mean, res3.w_mean)
        serial = artifact_digests(tmp_path / "a")
        assert len(serial) == 2 * 4 + 3
        assert serial == artifact_digests(tmp_path / "c")

    @pytest.mark.parametrize("run, grid, workers, pools", [
        pytest.param(pipeline.run_pp, (3, 3), 2, 1, id="run_pp-3-2-1"),
        pytest.param(pipeline.run_ep, (2, 2), 2, 1, id="run_ep-2-2-1"),
        pytest.param(pipeline.run_pp, (3, 3), 1, 0, id="run_pp-3-1-0"),
        pytest.param(pipeline.run_ep, (2, 2), 1, 0, id="run_ep-2-1-0"),
        # every layer holds one block: nothing can run next to it
        pytest.param(pipeline.run_full, (1, 1), 2, 0, id="run_full-1x1-2-0"),
        pytest.param(pipeline.run_pp, (1, 2), 2, 0, id="run_pp-1x2-2-0"),
    ])
    def test_one_process_pool_per_run(self, small_data, tmp_path, monkeypatch,
                                      run, grid, workers, pools):
        made = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
        train, _ = small_data
        cfg = quick_config(workers=workers, partition_rows=grid[0], partition_cols=grid[1])
        run(train, cfg, run_dir=tmp_path / "run")
        assert made == [2] * pools

    def test_worker_death_names_stage_and_exits_4(self, small_data, tmp_path, monkeypatch):
        parent = os.getpid()
        real_gibbs_run = pipeline.gibbs_run

        def dies_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real_gibbs_run(*args, **kwargs)

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(pipeline, "gibbs_run", dies_in_workers)
        train, _ = small_data
        cfg = quick_config(workers=2, partition_rows=3, partition_cols=3)
        with pytest.raises(PipelineError, match=r"stage 1: .*\(0,0\)") as info:
            pipeline.run_pp(train, cfg, run_dir=tmp_path / "dies")
        assert info.value.exit_code == 4
        assert not os.listdir(tmp_path / "dies" / "stage2")

    def test_first_failing_block_stops_its_layer(self, small_data, tmp_path, monkeypatch):
        real_gibbs_run = pipeline.gibbs_run
        cfg = quick_config(workers=2, partition_rows=3, partition_cols=3)
        failing_seed = pipeline.derive_seed(cfg.seed, 1, 0, 0)  # block (0,0)

        def fails_first(block, priors, nw, config):
            if config.seed == failing_seed:
                raise NumericalError("injected failure")
            time.sleep(0.5)
            return real_gibbs_run(block, priors, nw, config)

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(pipeline, "gibbs_run", fails_first)
        with pytest.raises(NumericalError, match="injected failure") as info:
            pipeline.run_ep(small_data[0], cfg, run_dir=tmp_path / "fails")
        assert info.value.exit_code == 3
        # blocks still queued when (0,0) failed never start
        assert not glob.glob(str(tmp_path / "fails" / "stage3" / "*_2_2.npz"))

    def test_row_only_partition_skips_stage_three(self, small_data, tmp_path):
        train, _ = small_data
        cfg = quick_config(partition_rows=1, partition_cols=2)
        res = pipeline.run_pp(train, cfg, run_dir=tmp_path / "thin")
        timings = pipeline.read_timings(tmp_path / "thin")
        assert "3" not in timings["stages"]
        assert np.all(np.isfinite(res.x_mean))

    def test_empty_block_passes_priors_through(self, tmp_path):
        # column block 1 has no observations in row block 1
        rows = np.array([0, 0, 1, 1, 2, 3])
        cols = np.array([0, 1, 0, 1, 0, 1])
        vals = np.linspace(1, 6, 6)
        train = data.SparseMatrix(4, 4, rows, cols, vals)
        # identity ordering: rows 2..3 x cols 2..3 block is empty
        cfg = quick_config(n_factors=1, ordering="none")
        res = pipeline.run_pp(train, cfg, run_dir=tmp_path / "empty")
        run_dir = tmp_path / "empty"
        x_prior = load_posterior_file(run_dir / "stage2" / "x_1_0.npz")
        x_out = load_posterior_file(run_dir / "stage3" / "x_1_1.npz")
        assert np.array_equal(x_prior.means, x_out.means)
        assert np.array_equal(x_prior.precisions, x_out.precisions)
        assert np.all(np.isfinite(res.x_mean))

    def test_gmm_and_dm_kinds_run(self, small_data, tmp_path):
        train, _ = small_data
        for kind in ("dm", "gmm"):
            cfg = quick_config(approximation=kind, n_iters=30, burn_in=20,
                               thin=1)
            res = pipeline.run_pp(train, cfg, run_dir=tmp_path / f"kind-{kind}")
            assert np.all(np.isfinite(res.x_mean))

    def test_gmm_stage_files_bitwise_equal_per_row_fits(self, tmp_path, monkeypatch):
        matrix, _ = data.simulate(45, 36, 2, 1.0, seed=5)
        train, _ = data.split_random(matrix, 0.5, seed=6)
        cfg = quick_config(approximation="gmm", partition_rows=3, partition_cols=3,
                           n_iters=40, burn_in=16, thin=2)

        pipeline.run_pp(train, cfg, run_dir=tmp_path / "batched")
        monkeypatch.setattr(pipeline, "fit_rows", oracles.fit_rows)
        pipeline.run_pp(train, cfg, run_dir=tmp_path / "per-row")
        batched = artifact_digests(tmp_path / "batched")
        assert len(batched) == 21
        assert batched == artifact_digests(tmp_path / "per-row")
        stage3 = load_posterior_file(tmp_path / "batched" / "stage3" / "x_2_2.npz")
        assert (stage3.weights > 0).sum(axis=1).max() > 1  # some rows are mixtures


class TestDegenerateEquivalence:
    def test_full_pp_ep_identical_at_1x1(self, small_data, tmp_path):
        train, _ = small_data
        cfg = quick_config(partition_rows=1, partition_cols=1, save_chains=True)
        res_full = pipeline.run_full(train, cfg, run_dir=tmp_path / "full")
        res_pp = pipeline.run_pp(train, cfg, run_dir=tmp_path / "pp")
        res_ep = pipeline.run_ep(train, cfg, run_dir=tmp_path / "ep")

        chains = [oracles.load_chain(pipeline.chain_path(tmp_path / name, 0, 0))
                  for name in ("full", "pp", "ep")]
        for other in chains[1:]:
            assert np.array_equal(chains[0].x_samples, other.x_samples)
            assert np.array_equal(chains[0].w_samples, other.w_samples)
        for other in (res_pp, res_ep):
            assert np.array_equal(res_full.x_mean, other.x_mean)
            assert np.array_equal(res_full.w_mean, other.w_mean)
            assert np.array_equal(res_full.x_precisions, other.x_precisions)

    def test_run_full_requires_1x1(self, small_data, tmp_path):
        train, _ = small_data
        with pytest.raises(ValidationError):
            pipeline.run_full(train, quick_config(partition_rows=2), run_dir=tmp_path / "full")

    def test_run_config_json_replays_run(self, small_data, tmp_path):
        train, _ = small_data
        first = pipeline.run_pp(train, quick_config(), run_dir=tmp_path / "orig")
        meta = pipeline.read_run_config(tmp_path / "orig")
        method = meta.pop("method")
        assert method == "pp"
        replay_cfg = pipeline.RunConfig(**meta)
        replay = pipeline.run_pp(train, replay_cfg, run_dir=tmp_path / "replay")
        assert np.array_equal(first.x_mean, replay.x_mean)
        assert np.array_equal(first.w_precisions, replay.w_precisions)


class TestIndependentSubsetsPipeline:
    def test_ep_runs_and_aggregates(self, small_data, tmp_path):
        train, test = small_data
        cfg = quick_config()
        res = pipeline.run_ep(train, cfg, run_dir=tmp_path / "ep22")
        assert np.all(np.isfinite(res.x_mean))
        timings = pipeline.read_timings(tmp_path / "ep22")
        assert "ep" in timings["stages"]
        assert len(timings["stages"]["ep"]["blocks"]) == 4
        preds = predict(res.x_mean, res.w_mean, test.rows, test.cols)
        assert np.all(np.isfinite(preds))

    def test_identifiable_two_block_case_matches_staged(self, tmp_path):
        # strongly informative data with a dominant positive mode: the
        # independent-subsets estimate and the staged estimate agree
        rng = np.random.default_rng(5)
        x = 1.0 + 0.05 * rng.standard_normal((12, 1))
        w = 1.0 + 0.05 * rng.standard_normal((8, 1))
        tau = 400.0
        y = x @ w.T + rng.standard_normal((12, 8)) * tau ** -0.5
        rows = np.repeat(np.arange(12), 8)
        cols = np.tile(np.arange(8), 12)
        train = data.SparseMatrix(12, 8, rows, cols, y.ravel())
        # seed chosen so the independent blocks land on the same mode and
        # scale; without propagation that is luck, which is the point
        cfg = quick_config(n_factors=1, tau=tau, ordering="none",
                           partition_rows=1, partition_cols=2,
                           n_iters=120, burn_in=60, thin=1, seed=25)
        res_pp = pipeline.run_pp(train, cfg, run_dir=tmp_path / "pp2")
        res_ep = pipeline.run_ep(train, cfg, run_dir=tmp_path / "ep2")
        assert np.sign(res_pp.x_mean[0, 0]) == np.sign(res_ep.x_mean[0, 0])
        np.testing.assert_allclose(res_pp.x_mean, res_ep.x_mean, atol=0.08)
        np.testing.assert_allclose(res_pp.w_mean, res_ep.w_mean, atol=0.25)

    def test_repair_events_name_original_rows(self, small_data, tmp_path, monkeypatch):
        # Weak block posteriors, precision s_r I with s_r in (0.3, 0.8) per
        # row: in a 1x3 grid every X row is estimated by 3 blocks, so
        # sum_j Lj - 2 I is indefinite exactly where 3 s_r < 2.  W rows have
        # one block each and are never repaired.
        def weak_fit(samples, kind, **kwargs):
            means = samples.mean(axis=0)
            scale = 0.3 + 0.5 * np.tanh(np.abs(means).sum(axis=1))
            return PosteriorSet(means, scale[:, None, None] * np.eye(means.shape[1]))

        train, _ = small_data
        monkeypatch.setattr(pipeline, "fit_rows", weak_fit)
        cfg = quick_config(ordering="random", partition_rows=1, partition_cols=3)
        run_dir = tmp_path / "ep13"
        res = pipeline.run_ep(train, cfg, run_dir)

        plan = pipeline.build_plan(train, cfg)
        assert not np.array_equal(plan.row_perm, np.arange(train.n_rows))
        stacks = [(p.means, p.precisions) for p in
                  (pipeline.load_posteriors(run_dir, "x", 0, j) for j in range(3))]
        _, _, side_events = aggregate.ep_aggregate(stacks, (np.zeros(2), np.eye(2)))
        expected = [{"side": "x", "row": int(plan.row_perm[row]), "where": where,
                     "shift": shift} for row, where, shift in side_events]
        events = pipeline.read_corrections(run_dir)["events"]
        assert events == expected
        assert 0 < len(events) < train.n_rows

        # Independently of the rule: a row is repaired iff its summed scale
        # is below 2, and its aggregated precision's least eigenvalue is
        # then the repair constant, in original row order.
        summed = sum(np.linalg.eigvalsh(precs)[:, 0] for _, precs in stacks)
        repaired = sorted(int(plan.row_perm[row]) for row in np.flatnonzero(summed < 2.0))
        assert sorted(event["row"] for event in events) == repaired
        eps = aggregate.EV_EPS_SCALE * np.trace(stacks[0][1], axis1=1, axis2=2)[
            np.argsort(plan.row_perm)] / 2
        np.testing.assert_allclose(np.linalg.eigvalsh(res.x_precisions[repaired])[:, 0],
                                   eps[repaired], rtol=1e-6)

        rates = evaluate.repair_rates(run_dir, {"x": res.x_precisions, "w": res.w_precisions})
        shifts = [event["shift"] / np.diagonal(res.x_precisions[event["row"]]).mean()
                  for event in events]
        assert rates == [evaluate.RepairRate("x", "ep final", len(events) / train.n_rows,
                                             float(np.median(shifts)))]


class TestPersistence:
    def test_posterior_helpers_round_trip(self, small_data, tmp_path):
        train, _ = small_data
        cfg = quick_config()
        run_dir = tmp_path / "persist"
        pipeline.run_pp(train, cfg, run_dir=run_dir)
        pset = pipeline.load_posteriors(run_dir, "x", 0, 0)
        path = tmp_path / "again.npz"
        save_posterior_file(path, pset, side="x", row_start=0, row_stop=pset.n_rows)
        again = load_posterior_file(path)
        assert np.array_equal(again.means, pset.means)

    def test_missing_posterior_names_stage_and_block(self, tmp_path):
        os.makedirs(tmp_path / "stage2", exist_ok=True)
        with pytest.raises(PipelineError, match=r"stage 2 block \(1,0\)"):
            pipeline.load_posteriors(tmp_path, "x", 1, 0)

    def test_missing_prior_names_its_stage_and_block(self, small_data, tmp_path):
        # Block (1,1) takes its X prior from stage-2 block (1,0), whose file
        # is absent; the block is never sampled.
        train, _ = small_data
        task = pipeline._BlockTask((1, 1), train, str(tmp_path), quick_config(),
                                   (1, 0), (0, 1), (0, train.n_rows), (0, train.n_cols))
        with pytest.raises(PipelineError, match=r"stage 2 block \(1,0\) x-posteriors: "
                                                r"posterior file not found"):
            pipeline._run_block_task(task)

    @pytest.mark.parametrize("field, index, value, problem", [
        ("means", (3, 0), np.nan, "row 3: non-finite mean"),
        ("precisions", (3, 0, 0), -100.0, "row 3: precision not positive definite"),
    ])
    def test_invalid_stage_two_file_names_stage_and_block(self, small_data, tmp_path,
                                                          field, index, value, problem):
        train, _ = small_data
        run_dir = tmp_path / "bad"
        pipeline.run_pp(train, quick_config(), run_dir=run_dir)
        pset = pipeline.load_posteriors(run_dir, "x", 1, 0)
        getattr(pset, field)[index] = value
        # the checked writer refuses an invalid set
        oracles.write_posterior_file(pipeline.posterior_path(run_dir, "x", 1, 0), pset,
                                     side="x", row_start=0, row_stop=pset.n_rows, stage=2,
                                     block=[1, 0])
        with pytest.raises(PipelineError, match=r"stage 2 block \(1,0\) x-posteriors") as info:
            pipeline.load_posteriors(run_dir, "x", 1, 0)
        assert problem in str(info.value) and info.value.exit_code == 4

    @pytest.mark.parametrize("writer", ["posterior", "chain", "json", "plan"])
    @pytest.mark.parametrize("previous", [b"previous contents", None])
    def test_interrupted_write_keeps_target_and_leaves_no_temporary(
            self, tmp_path, monkeypatch, writer, previous):
        k = 2
        write = {
            "posterior": lambda path: save_posterior_file(
                path, PosteriorSet(np.zeros((3, k)), np.tile(np.eye(k), (3, 1, 1))),
                side="x", row_start=0, row_stop=3),
            "chain": lambda path: SampleChain(
                np.zeros((4, 3, k)), np.zeros((4, 2, k)), np.zeros((4, k)),
                np.zeros((4, k, k)), np.zeros((4, k)), np.zeros((4, k, k)),
                GibbsConfig(k, 1.0, 8, 4, 1, 0)).save(path),
            "json": lambda path: artifacts.write_json(path, {"count": 0, "events": []}),
            "plan": lambda path: data.PartitionPlan(np.arange(3), np.arange(2),
                                                   [0, 3], [0, 2]).save(path),
        }[writer]
        target = tmp_path / "artifact"
        if previous is not None:
            target.write_bytes(previous)

        def open_failing_partway(path, mode):
            fh = open(path, mode)

            class HalfWritten:
                def __getattr__(self, name):
                    return getattr(fh, name)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    fh.close()

                def write(self, chunk):
                    chunk = bytes(chunk)
                    fh.write(chunk[:len(chunk) // 2])
                    raise OSError(28, "No space left on device")

            return HalfWritten()

        monkeypatch.setattr(artifacts, "open", open_failing_partway, raising=False)
        with pytest.raises(ArtifactError, match="No space left") as info:
            write(target)
        assert info.value.exit_code == 4
        assert os.listdir(tmp_path) == ([] if previous is None else ["artifact"])
        if previous is not None:
            assert target.read_bytes() == previous
        monkeypatch.undo()
        write(target)
        assert os.listdir(tmp_path) == ["artifact"]
        assert target.read_bytes() != previous

    def test_corrupt_run_config(self, tmp_path):
        with pytest.raises(ArtifactError):
            pipeline.read_run_config(tmp_path)
        (tmp_path / "run_config.json").write_text("{not json")
        with pytest.raises(ArtifactError):
            pipeline.read_run_config(tmp_path)

    def test_loaded_mixtures_pool_to_block_means(self, small_data, tmp_path):
        train, _ = small_data
        cfg = quick_config(approximation="gmm", n_iters=30, burn_in=20, thin=1)
        run_dir = tmp_path / "gmmrun"
        pipeline.run_pp(train, cfg, run_dir=run_dir)
        pset = pipeline.load_posteriors(run_dir, "x", 0, 0)
        means = pset.pooled().means
        assert pset.kind == "gmm" and means.shape == (pset.n_rows, 2)
        assert np.all(np.isfinite(means))


class TestCorrelationsIntegration:
    def test_subset_mean_correlations_pp_vs_ep(self, small_data, tmp_path):
        train, _ = small_data
        cfg = quick_config(n_iters=60, burn_in=30, thin=1)
        pipeline.run_pp(train, cfg, run_dir=tmp_path / "pp")
        pipeline.run_ep(train, cfg, run_dir=tmp_path / "ep")
        pp_corr = evaluate.subset_mean_correlations(tmp_path / "pp")
        ep_corr = evaluate.subset_mean_correlations(tmp_path / "ep")
        assert len(pp_corr) == len(ep_corr) == len(evaluate.sharing_pairs(2, 2))
        for pc in pp_corr + ep_corr:
            assert -1.0 <= pc.correlation <= 1.0
            assert len(pc.per_dimension) == 2
