"""One measured call of a ``dbmf`` method, in a process of its own.

    python3 perfbench/call.py REQUEST.json

The request names the workload spec, the input directory, a fresh run
directory, the result path and whether to trace.  The process loads the
train and test triplets with ``dbmf.data.load_triplets`` (timed: set-up),
makes the single ``run_pp``/``run_full`` call (timed: wall), then checks the
outputs and writes a result JSON with the end-to-end figures, the check
outcomes and, when traced, the per-layer figures.

Its own process keeps peak memory honest: ``RUSAGE_SELF`` covers this call
alone and ``RUSAGE_CHILDREN`` its pool workers.  The parent sets the thread
environment before starting it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402


def install_tracer(tracer):
    from dbmf import approx, data, pipeline, sampler

    def gibbs_attrs(args, kwargs, result):
        subset = args[0] if args else kwargs["subset"]
        config = args[3] if len(args) > 3 else kwargs["config"]
        return {"entries": int(subset.m), "sweeps": int(config.n_iters)}

    def fit_attrs(args, kwargs, result):
        samples = args[0] if args else kwargs["samples"]
        return {"rows": int(np.shape(samples)[1])}

    def load_attrs(args, kwargs, result):
        return {"entries": int(result.m) if result is not None else 0}

    for attr in ("gibbs_run", "fit_rows", "save_posterior_file", "load_posterior_file",
                 "pp_aggregate_row", "extract_blocks", "build_plan"):
        attrs = {"gibbs_run": gibbs_attrs, "fit_rows": fit_attrs}.get(attr)
        tracer.wrap(pipeline, attr, f"pipeline.{attr}", attrs)
    tracer.wrap(sampler, "sample_hyper_normal_wishart", "sampler.sample_hyper_normal_wishart")
    for attr in ("lambda_means", "median_pairwise_lambda", "pool_gmm"):
        tracer.wrap(approx, attr, f"approx.{attr}")
    tracer.wrap(data, "load_triplets", "data.load_triplets", load_attrs)


def expected_posterior_files(method: str, rows: int, cols: int) -> list[str]:
    if method == "full":
        keys = [(0, 0)]
    else:
        keys = [(i, j) for i in range(rows) for j in range(cols)]
    files = []
    for i, j in keys:
        stage = 1 if i == j == 0 else (2 if i == 0 or j == 0 else 3)
        files += [f"stage{stage}/x_{i}_{j}.npz", f"stage{stage}/w_{i}_{j}.npz"]
    return files + ["aggregate/x.npz", "aggregate/w.npz"]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def all_cholesky(precisions: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(precisions)
    except np.linalg.LinAlgError:
        return False
    return True


def check_outputs(spec, result, timings, run_dir, wall_s, test_rmse) -> dict:
    """Named pass/fail outcomes for one call."""
    cfg = spec["config"]
    rows = cfg.get("partition_rows", 1)
    cols = cfg.get("partition_cols", 1)
    missing = [f for f in expected_posterior_files(spec["method"], rows, cols)
               if not os.path.isfile(os.path.join(run_dir, f))]
    busy = sum(b["seconds"] for st in timings["stages"].values()
               for b in st["blocks"].values())
    return {
        "means_finite": bool(np.isfinite(result.x_mean).all()
                             and np.isfinite(result.w_mean).all()),
        "precisions_cholesky": (all_cholesky(result.x_precisions)
                                and all_cholesky(result.w_precisions)),
        "rmse_under_ceiling": bool(test_rmse < spec["rmse_ceiling"]),
        "posterior_files": not missing,
        "ledger_sane": bool(busy + timings["aggregation_seconds"]
                            <= cfg["workers"] * wall_s),
    }


def stage_spans(timings: dict) -> dict[str, float]:
    """Wall span of each stage, first block start to last block finish."""
    out = {}
    for name, st in timings["stages"].items():
        blocks = st["blocks"].values()
        out[name] = max(b["finished"] for b in blocks) - min(b["started"] for b in blocks)
    return out


def components_per_row(run_dir: str) -> float:
    comps = rows = 0
    for path in glob.glob(os.path.join(run_dir, "stage*", "*.npz")):
        with np.load(path) as npz:
            if "offsets" in npz.files:
                comps += int(npz["weights"].size)
                rows += int(npz["offsets"].size - 1)
            else:
                comps += int(npz["means"].shape[0])
                rows += int(npz["means"].shape[0])
    return comps / rows


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 where the layer did no work."""
    return part / whole if whole else 0.0


def layer_metrics(spec, span_list, timings, run_dir, wall_s) -> dict:
    """Per-layer figures of one traced call."""
    table = spans.summarize(span_list)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def count(name):
        return table.get(name, {}).get("count", 0)

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in span_list if s["name"] == name)

    gibbs = [s for s in span_list if s["name"] == "pipeline.gibbs_run"]
    sweeps = sum(s["attrs"]["sweeps"] for s in gibbs)
    entry_updates = 2 * sum(s["attrs"]["entries"] * s["attrs"]["sweeps"] for s in gibbs)
    busy_s = total("pipeline.gibbs_run")
    hyper_s = total("sampler.sample_hyper_normal_wishart")
    fit_s = total("pipeline.fit_rows")
    load_s = total("data.load_triplets")
    agg_s = timings["aggregation_seconds"]
    ledger = timings["total"]
    workers = spec["config"]["workers"]
    st_spans = stage_spans(timings)
    block_busy = {name: sum(b["seconds"] for b in st["blocks"].values())
                  for name, st in timings["stages"].items()}
    stage_frac = {name: share(timings["stages"].get(name, {}).get("max_seconds", 0.0), ledger)
                  for name in ("1", "2", "3")}
    posterior_bytes = sum(os.path.getsize(p)
                          for p in glob.glob(os.path.join(run_dir, "stage*", "*.npz")))
    return {
        "data.load_s": load_s,
        "data.load_entries_per_s": share(attr_sum("data.load_triplets", "entries"), load_s),
        "data.plan_s": total("pipeline.build_plan"),
        "pipeline.extract_blocks_s": total("pipeline.extract_blocks"),
        "pipeline.posterior_write_s": total("pipeline.save_posterior_file"),
        "pipeline.posterior_read_s": total("pipeline.load_posterior_file"),
        "pipeline.posterior_bytes": posterior_bytes,
        "pipeline.stage1_ledger_frac": stage_frac["1"],
        "pipeline.stage2_ledger_frac": stage_frac["2"],
        "pipeline.stage3_ledger_frac": stage_frac["3"],
        "pipeline.block_busy_s": sum(block_busy.values()),
        "pipeline.worker_idle_s": sum(workers * st_spans[n] - block_busy[n] for n in st_spans),
        "pipeline.orchestration_s": wall_s - sum(st_spans.values()) - agg_s,
        "sampler.busy_s": busy_s,
        "sampler.entry_updates": entry_updates,
        "sampler.ns_per_entry_update": share(busy_s, entry_updates) * 1e9,
        "sampler.hyper_ms_per_sweep": share(hyper_s, sweeps) * 1e3,
        "sampler.side_ms_per_sweep": share(busy_s - hyper_s, sweeps) * 1e3,
        "approx.fit_s": fit_s,
        "approx.fit_us_per_row": share(fit_s, attr_sum("pipeline.fit_rows", "rows")) * 1e6,
        "approx.lambda_means_frac": share(total("approx.lambda_means"), fit_s),
        "approx.lambda_means_calls": count("approx.lambda_means"),
        "approx.lambda_select_frac": share(total("approx.median_pairwise_lambda"), fit_s),
        "approx.components_per_row": components_per_row(run_dir),
        "aggregate.s": agg_s,
        "aggregate.us_per_row": share(total("pipeline.pp_aggregate_row"),
                                      count("pipeline.pp_aggregate_row")) * 1e6,
        "aggregate.pool_frac": share(total("approx.pool_gmm"), agg_s),
    }


def trace_problems(tracer, span_list, timings) -> list[str]:
    """Spans that do not nest, or sampler spans missing from workers."""
    problems = spans.check_nesting(span_list)
    if "pipeline.gibbs_run" not in tracer.missing:
        n_blocks = sum(len(st["blocks"]) for st in timings["stages"].values())
        n_gibbs = sum(1 for s in span_list if s["name"] == "pipeline.gibbs_run")
        if n_gibbs != n_blocks:
            problems.append(f"{n_gibbs} sampler spans for {n_blocks} blocks")
    return problems


def main(request_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    spec = req["spec"]
    from dbmf import data, pipeline

    tracer = None
    if req["trace"]:
        os.makedirs(req["trace_dir"], exist_ok=True)
        tracer = spans.Tracer(req["run_id"], req["trace_dir"])
        install_tracer(tracer)

    t0 = time.perf_counter()
    train = data.load_triplets(os.path.join(req["inputs"], "train.txt"))
    data.load_triplets(os.path.join(req["inputs"], "test.txt"))
    setup_s = time.perf_counter() - t0

    config = pipeline.RunConfig(**spec["config"])
    run = pipeline.run_full if spec["method"] == "full" else pipeline.run_pp
    call_span = tracer.begin(f"pipeline.run_{spec['method']}") if tracer else None
    t0 = time.perf_counter()
    result = run(train, config, run_dir=req["run_dir"])
    wall_s = time.perf_counter() - t0
    if tracer:
        tracer.end(call_span)
        tracer.unwrap_all()
        tracer.write()

    # Held-out RMSE from the generator's own arrays, not the program's loader.
    with np.load(os.path.join(req["inputs"], "test.npz")) as npz:
        t_rows, t_cols, t_vals = npz["rows"], npz["cols"], npz["vals"]
    pred = np.einsum("mk,mk->m", result.x_mean[t_rows], result.w_mean[t_cols])
    test_rmse = float(np.sqrt(np.mean((pred - t_vals) ** 2)))
    with open(os.path.join(req["run_dir"], "timings.json"), encoding="utf-8") as fh:
        timings = json.load(fh)
    with open(os.path.join(req["run_dir"], "aggregate", "corrections.json"),
              encoding="utf-8") as fh:
        corrections = json.load(fh)["count"]

    checks = check_outputs(spec, result, timings, req["run_dir"], wall_s, test_rmse)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"wall_s": wall_s, "ledger_s": timings["total"], "setup_s": setup_s,
           "test_rmse": test_rmse, "peak_rss_mb": peak_kb / 1024.0,
           "means_digest": digest(result.x_mean, result.w_mean),
           "corrections": corrections, "checks": checks}
    if tracer:
        span_list = spans.read_spans(req["trace_dir"])
        problems = trace_problems(tracer, span_list, timings)
        checks["trace_complete"] = not problems
        out["trace_problems"] = problems
        out["unwrapped"] = tracer.missing
        out["layers"] = layer_metrics(spec, span_list, timings, req["run_dir"], wall_s)
        out["layers"]["aggregate.corrections"] = corrections
        out["span_table"] = spans.summarize(span_list)
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)


if __name__ == "__main__":
    main(sys.argv[1])
