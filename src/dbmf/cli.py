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
from dataclasses import replace

import numpy as np

from . import data, evaluate, pipeline
from .approx import load_posterior_file
from .artifacts import write_atomic, write_json
from .errors import ArtifactError, DbmfError, ValidationError
from .sampler import GibbsConfig, predict

# Root of the default output directories of ``simulate`` and ``run``.
OUTPUT_ROOT_ENV = "DBMF_OUTPUT_ROOT"
# Logging level name, in any case (default: warning).
LOG_ENV = "DBMF_LOG"


def _parse_partition(text: str) -> tuple[int, int]:
    try:
        r, c = text.lower().split("x")
        return int(r), int(c)
    except (AttributeError, ValueError) as exc:
        raise ValidationError(f"partition must look like '3x4', got {text!r}") from exc


def _comma_list(kind, text: str, flag: str) -> list:
    """The comma-separated values of a flag, each read by ``kind``."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{flag} must be a comma-separated list of {kind.__name__}s, "
                              f"got {text!r}") from exc


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """defaults < JSON config file < explicit flags."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"unreadable config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object, "
                                  f"got {doc!r}")
        unknown = set(doc) - set(keys)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _out_dir(args, default_name: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    return os.path.join(root, default_name)


def _check_test_indices(test: data.SparseMatrix, path, n_rows: int, n_cols: int,
                        against: str) -> None:
    """Reject a test file that indexes beyond an ``n_rows x n_cols`` matrix."""
    if test.n_rows > n_rows or test.n_cols > n_cols:
        raise ValidationError(f"test file {path} indexes a {test.n_rows}x{test.n_cols} "
                              f"matrix, outside the {n_rows}x{n_cols} {against}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    matrix, truth = data.simulate(args.n_rows, args.n_cols, args.factors,
                                  args.tau, args.seed)
    if args.missing == "random":
        train, test = data.split_random(matrix, args.test_fraction, args.seed)
    else:
        train, test = data.split_structured(matrix, args.seed,
                                            mode=args.structured_mode,
                                            target_fraction=args.test_fraction)
    out = _out_dir(args, f"sim-{args.seed}")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ArtifactError(f"cannot create output directory {out}: {exc}") from exc
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

# Each ``run`` method: (runner, approximation kind).
METHODS = {"full": (pipeline.run_full, "mm"), "pp-mm": (pipeline.run_pp, "mm"),
           "pp-dm": (pipeline.run_pp, "dm"), "pp-gmm": (pipeline.run_pp, "gmm"),
           "ep-parametric": (pipeline.run_ep, "mm")}

# Each ``run`` key that maps onto one ``RunConfig`` field: (field, flag type).
# A value goes to ``RunConfig`` as given, which checks it.  ``method`` and
# ``partition`` are read on their own.
RUN_FIELDS = {"factors": ("n_factors", int), "tau": ("tau", float),
              "iters": ("n_iters", int), "burn-in": ("burn_in", int), "thin": ("thin", int),
              "seed": ("seed", int), "order": ("ordering", str),
              "workers": ("workers", int), "save-chains": ("save_chains", bool)}
RUN_CONFIG_KEYS = [*RUN_FIELDS, "method", "partition"]


def _run_config_from(merged: dict, method: str) -> pipeline.RunConfig:
    """The ``RunConfig`` of the keys set (not None) in ``merged``; every
    other field keeps its ``RunConfig`` default."""
    r, c = _parse_partition(merged.get("partition", "1x1"))
    if method == "full" and (r, c) != (1, 1):
        raise ValidationError("method 'full' requires --partition 1x1")
    fields = {name: merged[key] for key, (name, _) in RUN_FIELDS.items()
              if merged.get(key) is not None}
    return pipeline.RunConfig(approximation=METHODS[method][1], partition_rows=r,
                              partition_cols=c, **fields)


def cmd_run(args) -> int:
    merged = _merge_config(args, RUN_CONFIG_KEYS)
    if merged.get("factors") is None or merged.get("tau") is None:
        raise ValidationError("--factors and --tau are required (flag or config file)")
    method = merged.get("method", "pp-mm")
    if not isinstance(method, str) or method not in METHODS:
        raise ValidationError(f"method must be one of {list(METHODS)}, got {method!r}")
    if args.replicates < 1:
        raise ValidationError(f"--replicates must be >= 1, got {args.replicates}")
    base_config = _run_config_from(merged, method)
    train = data.load_triplets(args.train)
    test = data.load_triplets(args.test) if args.test else None
    if test is not None:
        _check_test_indices(test, args.test, train.n_rows, train.n_cols, "training matrix")
    out = _out_dir(args, "run")

    replicate_seeds = ([base_config.seed] if args.replicates == 1 else
                       [pipeline.derive_seed(base_config.seed, rep)
                        for rep in range(args.replicates)])
    rmses, times = [], []
    for rep, seed in enumerate(replicate_seeds):
        config = replace(base_config, seed=seed)
        run_dir = out if args.replicates == 1 else os.path.join(out, f"rep{rep}")
        result = METHODS[method][0](train, config, run_dir=run_dir)
        times.append(result.timings["total"])
        line = (f"replicate {rep} (seed {seed}): "
                f"ledger {times[-1]:.2f}s, real {result.timings['wall_seconds']:.2f}s")
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
                    fh.write(evaluate.csv_row(partition, method, seed, value, times[rep])
                             + "\n")
        except OSError as exc:
            raise ArtifactError(f"cannot append to {args.csv}: {exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    edges = evaluate.DEFAULT_BIN_EDGES
    if args.bins:
        if not args.train:
            raise ValidationError("--bins needs --train: the bins count each test row's "
                                  "training entries")
        edges = evaluate.check_bin_edges(_comma_list(float, args.bins, "--bins") + [math.inf],
                                         "--bins")
    if not args.test:
        raise ValidationError("--test is required to compute RMSE")
    pipeline.read_run_config(args.run)  # a finished run directory, before any file is read
    test = data.load_triplets(args.test)
    train = data.load_triplets(args.train) if args.train else None

    x_set = load_posterior_file(os.path.join(args.run, "aggregate", "x.npz"))
    w_set = load_posterior_file(os.path.join(args.run, "aggregate", "w.npz"))
    _check_test_indices(test, args.test, x_set.means.shape[0], w_set.means.shape[0],
                        f"matrix of run {args.run}")
    preds = predict(x_set.means, w_set.means, test.rows, test.cols)
    report_rmse = evaluate.rmse(preds, test.vals)

    bins = (evaluate.rmse_by_frequency(x_set.means, w_set.means, train, test, edges)
            if train is not None else [])

    correlations = evaluate.subset_mean_correlations(args.run)

    wts_value = None
    if args.baseline:
        full_time = pipeline.read_timings(args.baseline)["total"]
        wts_value = evaluate.wts(full_time, pipeline.read_timings(args.run)["total"])

    repairs = evaluate.repair_rates(args.run, {"x": x_set.precisions, "w": w_set.precisions})
    report = evaluate.MetricReport(report_rmse, bins, correlations, wts_value, repairs)
    print(report.format_table())
    if args.json:
        write_atomic(args.json, lambda fh: fh.write(report.to_json().encode("utf-8")))
    return 0


# ---------------------------------------------------------------------------
# cost-model
# ---------------------------------------------------------------------------

def cmd_cost_model(args) -> int:
    worker_counts = _comma_list(int, args.workers, "--workers")
    params = pipeline.row_param_count(args.approx, args.factors)
    print(f"{'workers':>8} {'t0':>14} {'t_aggregate':>14} {'total':>14} "
          f"{'communication':>14}")
    for u in worker_counts:
        ev = pipeline.cost_model_eval(pipeline.CostModel(
            args.n_rows, args.n_cols, args.n_obs, args.factors, args.iters, u, params))
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
    for key, (_, kind) in RUN_FIELDS.items():
        run.add_argument(f"--{key}", dest=key, default=None,
                         **({"action": "store_true"} if kind is bool else {"type": kind}))
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
    cost.add_argument("--iters", type=int, default=GibbsConfig.n_iters)
    cost.add_argument("--workers", default="1,4,16,64")
    cost.add_argument("--approx", choices=("mm", "dm", "gmm"), default="mm")
    cost.set_defaults(func=cmd_cost_model)
    return parser


def _log_level() -> int:
    """The level that ``DBMF_LOG`` names, in any case; ``ValidationError``
    unless it names one of logging's levels."""
    name = os.environ.get(LOG_ENV, "WARNING")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ValidationError(f"{LOG_ENV} must name a logging level (debug, info, warning, "
                              f"error or critical), got {name!r}")
    return level


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        logging.basicConfig(level=_log_level())
        return args.func(args)
    except DbmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
