"""Command-line entry point.

Subcommands: ``simulate`` (write synthetic train/test files), ``run``
(execute a factorization pipeline), ``evaluate`` (metrics for a finished run
directory), ``cost-model`` (print the proportional cost table).

Flag precedence: explicit flags override a ``--config`` JSON file, which
overrides built-in defaults.  Exit codes: 0 success, 2 validation error,
3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import data, evaluate, pipeline
from .approx import load_posterior_file
from .artifacts import write_atomic, write_json
from .errors import ArtifactError, DbmfError, ValidationError
from .sampler import predict

logger = logging.getLogger(__name__)

METHODS = ("full", "pp-mm", "pp-dm", "pp-gmm", "ep-parametric")


def _parse_partition(text: str) -> tuple[int, int]:
    try:
        r, c = text.lower().split("x")
        return int(r), int(c)
    except (AttributeError, ValueError) as exc:
        raise ValidationError(f"partition must look like '3x4', got {text!r}") from exc


def _convert(kind, value, name: str):
    """``kind(value)``, or a ``ValidationError`` naming the flag or key."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be {kind.__name__}, got {value!r}") from exc


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """defaults < JSON config file < explicit flags."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"unreadable config file {args.config}: {exc}") from exc
        unknown = set(doc) - set(keys)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


def _out_dir(args, default_name: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get(pipeline.OUTPUT_ROOT_ENV, ".")
    return os.path.join(root, default_name)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    out = _out_dir(args, f"sim-{args.seed}")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ArtifactError(f"cannot create output directory {out}: {exc}") from exc
    matrix, truth = data.simulate(args.n_rows, args.n_cols, args.factors,
                                  args.tau, args.seed)
    if args.missing == "random":
        train, test = data.split_random(matrix, args.test_fraction, args.seed)
    else:
        train, test = data.split_structured(matrix, args.seed,
                                            mode=args.structured_mode,
                                            target_fraction=args.test_fraction)
    data.save_triplets(train, os.path.join(out, "train.txt"))
    data.save_triplets(test, os.path.join(out, "test.txt"))
    write_atomic(os.path.join(out, "truth.npz"), lambda fh: np.savez(
        fh, x_true=truth.x_true, w_true=truth.w_true, tau=truth.tau))
    meta = {"n_rows": args.n_rows, "n_cols": args.n_cols, "factors": args.factors,
            "tau": args.tau, "seed": args.seed, "missing": args.missing,
            "structured_mode": args.structured_mode,
            "test_fraction": args.test_fraction,
            "train_entries": train.m, "test_entries": test.m}
    write_json(os.path.join(out, "meta.json"), meta)
    print(f"wrote {out}: train {train.m} entries, test {test.m} entries "
          f"({test.m / matrix.m:.1%} withheld)")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# Each ``run`` key that maps onto one ``RunConfig`` field: (field, type).
# ``method``, ``partition`` and ``lambda`` are read on their own.
RUN_FIELDS = {"factors": ("n_factors", int), "tau": ("tau", float),
              "iters": ("n_iters", int), "burn-in": ("burn_in", int), "thin": ("thin", int),
              "seed": ("seed", int), "order": ("ordering", str), "top-n": ("top_n", int),
              "workers": ("workers", int), "save-chains": ("save_chains", bool),
              "nw-mu0": ("nw_mu0", float), "nw-beta0": ("nw_beta0", float),
              "nw-w0-scale": ("nw_w0_scale", float), "nw-nu0": ("nw_nu0", float)}
RUN_CONFIG_KEYS = [*RUN_FIELDS, "method", "partition", "lambda"]


def _run_config_from(merged: dict, method: str) -> pipeline.RunConfig:
    """The ``RunConfig`` of the keys set (not None) in ``merged``; every
    other field keeps its ``RunConfig`` default."""
    r, c = _parse_partition(merged.get("partition", "1x1"))
    if method == "full" and (r, c) != (1, 1):
        raise ValidationError("method 'full' requires --partition 1x1")
    approx_kind = {"full": "mm", "pp-mm": "mm", "pp-dm": "dm", "pp-gmm": "gmm",
                   "ep-parametric": "mm"}[method]
    fields = {name: _convert(kind, merged[key], key)
              for key, (name, kind) in RUN_FIELDS.items() if merged.get(key) is not None}
    lam = merged.get("lambda")
    if isinstance(lam, str) and lam != "median-pairwise":
        try:
            lam = float(lam)
        except ValueError as exc:
            raise ValidationError(f"--lambda is 'median-pairwise' or a number, got {lam!r}") from exc
    if lam is not None:
        fields["lambda_policy"] = lam
    return pipeline.RunConfig(approximation=approx_kind, partition_rows=r, partition_cols=c,
                              **fields)


def _execute_method(method: str, train, config: pipeline.RunConfig, run_dir):
    if method == "full":
        return pipeline.run_full(train, config, run_dir=run_dir)
    if method == "ep-parametric":
        return pipeline.run_ep(train, config, run_dir=run_dir)
    return pipeline.run_pp(train, config, run_dir=run_dir)


def cmd_run(args) -> int:
    merged = _merge_config(args, RUN_CONFIG_KEYS)
    if merged.get("factors") is None or merged.get("tau") is None:
        raise ValidationError("--factors and --tau are required (flag or config file)")
    method = merged.get("method", "pp-mm")
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}")
    if args.replicates < 1:
        raise ValidationError(f"--replicates must be >= 1, got {args.replicates}")
    base_config = _run_config_from(merged, method)
    train = data.load_triplets(args.train)
    test = data.load_triplets(args.test) if args.test else None
    out = _out_dir(args, "run")

    replicate_seeds = ([base_config.seed] if args.replicates == 1 else
                       [pipeline.derive_seed(base_config.seed, rep)
                        for rep in range(args.replicates)])
    rmses, times = [], []
    for rep, seed in enumerate(replicate_seeds):
        config = pipeline.RunConfig(**{**base_config.to_dict(), "seed": seed})
        run_dir = out if args.replicates == 1 else os.path.join(out, f"rep{rep}")
        result = _execute_method(method, train, config, run_dir)
        times.append(result.total_seconds)
        line = (f"replicate {rep} (seed {seed}): "
                f"ledger {result.total_seconds:.2f}s, real {result.timings['wall_seconds']:.2f}s")
        if test is not None:
            value = evaluate.rmse(predict(result.x_mean, result.w_mean,
                                          test.rows, test.cols), test.vals)
            rmses.append(value)
            line += f", test RMSE {value:.4f}"
        print(line)
    if rmses:
        print(f"RMSE mean {np.mean(rmses):.4f} +- {np.std(rmses):.4f} "
              f"over {len(rmses)} run(s)")
    print(f"ledger mean {np.mean(times):.2f}s")
    if args.csv:
        partition = merged.get("partition", "1x1")
        try:
            with open(args.csv, "a", encoding="utf-8") as fh:
                for rep, seed in enumerate(replicate_seeds):
                    value = rmses[rep] if rmses else math.nan
                    fh.write(evaluate.csv_row(partition, method, seed, value,
                                              times[rep], None) + "\n")
        except OSError as exc:
            raise ArtifactError(f"cannot append to {args.csv}: {exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@dataclass
class _PointEstimate:
    x_mean: np.ndarray
    w_mean: np.ndarray


def cmd_evaluate(args) -> int:
    edges = ([_convert(float, e, "--bins") for e in args.bins.split(",")] + [math.inf]
             if args.bins else evaluate.DEFAULT_BIN_EDGES)
    meta = pipeline.read_run_config(args.run)
    if not args.test:
        raise ValidationError("--test is required to compute RMSE")
    test = data.load_triplets(args.test)
    train = data.load_triplets(args.train) if args.train else None

    _, x_set = load_posterior_file(os.path.join(args.run, "aggregate", "x.npz"))
    _, w_set = load_posterior_file(os.path.join(args.run, "aggregate", "w.npz"))
    point = _PointEstimate(x_set.means, w_set.means)
    preds = predict(point.x_mean, point.w_mean, test.rows, test.cols)
    report_rmse = evaluate.rmse(preds, test.vals)

    bins = evaluate.rmse_by_frequency(point, train, test, edges) if train is not None else []

    correlations = []
    if meta["partition_rows"] * meta["partition_cols"] > 1:
        correlations = evaluate.subset_mean_correlations(args.run)

    wts_value = None
    if args.baseline:
        full_time = pipeline.read_timings(args.baseline)["total"]
        wts_value = evaluate.wts(full_time, pipeline.read_timings(args.run)["total"])

    report = evaluate.MetricReport(report_rmse, bins, correlations, wts_value)
    print(report.format_table())
    if args.json:
        write_atomic(args.json, lambda fh: fh.write(report.to_json().encode("utf-8")))
    return 0


# ---------------------------------------------------------------------------
# cost-model
# ---------------------------------------------------------------------------

def cmd_cost_model(args) -> int:
    worker_counts = [_convert(int, x, "--workers") for x in args.workers.split(",")]
    params = pipeline.row_param_count(args.approx, args.factors, args.components)
    print(f"{'workers':>8} {'t0':>14} {'t_aggregate':>14} {'total':>14} "
          f"{'communication':>14}")
    for u in worker_counts:
        ev = pipeline.cost_model_eval(pipeline.CostModel(
            args.n_rows, args.n_cols, args.n_obs, args.factors, args.iters, u,
            n_components=args.components, params_per_row=params))
        print(f"{u:>8} {ev.t0:>14.4g} {ev.t_aggregate:>14.4g} {ev.total:>14.4g} "
              f"{ev.communication:>14.4g}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbmf",
        description="Distributed Bayesian matrix factorization pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic train/test split")
    sim.add_argument("--n-rows", type=int, required=True)
    sim.add_argument("--n-cols", type=int, required=True)
    sim.add_argument("--factors", type=int, required=True)
    sim.add_argument("--tau", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--missing", choices=("random", "structured"), default="random")
    sim.add_argument("--structured-mode", choices=("raw", "rescaled"), default="raw")
    sim.add_argument("--test-fraction", type=float, default=0.8)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    run = sub.add_parser("run", help="run a factorization pipeline")
    run.add_argument("--train", required=True)
    run.add_argument("--test", default=None)
    run.add_argument("--method", choices=METHODS, default=None)
    run.add_argument("--partition", default=None, help="grid like 5x5")
    run.add_argument("--order", choices=("decreasing", "random", "none"), default=None)
    run.add_argument("--factors", type=int, default=None)
    run.add_argument("--tau", type=float, default=None)
    run.add_argument("--iters", type=int, default=None)
    run.add_argument("--burn-in", type=int, default=None)
    run.add_argument("--thin", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--top-n", type=int, default=None)
    run.add_argument("--lambda", dest="lambda_", default=None,
                     help="fixed clustering radius (default: median-pairwise)")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--nw-mu0", type=float, default=None,
                     help="shared-prior mean (broadcast over factors)")
    run.add_argument("--nw-beta0", type=float, default=None)
    run.add_argument("--nw-w0-scale", type=float, default=None,
                     help="isotropic Wishart scale")
    run.add_argument("--nw-nu0", type=float, default=None)
    run.add_argument("--save-chains", action="store_true", default=None)
    run.add_argument("--replicates", type=int, default=1)
    run.add_argument("--config", default=None, help="JSON config file")
    run.add_argument("--csv", default=None, help="append result rows to this CSV")
    run.add_argument("--out", default=None)
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("evaluate", help="metrics for a finished run directory")
    ev.add_argument("--run", required=True)
    ev.add_argument("--test", default=None)
    ev.add_argument("--train", default=None)
    ev.add_argument("--baseline", default=None,
                    help="run directory whose time is the speed-up baseline")
    ev.add_argument("--bins", default=None, help="comma-separated bin edges")
    ev.add_argument("--json", default=None, help="also write the report as JSON")
    ev.set_defaults(func=cmd_evaluate)

    cost = sub.add_parser("cost-model", help="print the proportional cost table")
    cost.add_argument("--n-rows", type=int, required=True)
    cost.add_argument("--n-cols", type=int, required=True)
    cost.add_argument("--n-obs", type=int, required=True)
    cost.add_argument("--factors", type=int, required=True)
    cost.add_argument("--iters", type=int, default=1200)
    cost.add_argument("--workers", default="1,4,16,64")
    cost.add_argument("--approx", choices=("mm", "dm", "gmm"), default="mm")
    cost.add_argument("--components", type=int, default=1)
    cost.set_defaults(func=cmd_cost_model)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("DBMF_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "lambda_", None) is not None:
        setattr(args, "lambda", args.lambda_)
    try:
        return args.func(args)
    except DbmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
