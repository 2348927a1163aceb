"""Three-stage factorization pipeline over a grid-partitioned matrix.

Stage I samples the top-left block under the default priors.  Stage II runs
every block sharing its row or column range, in parallel, with the stage-I
posterior of the shared side handed in as a prior.  Stage III runs the
remaining blocks with both sides' priors handed in from stage II.  Per-row
posteriors are then aggregated across the blocks that estimated the same
rows.  Baselines: a single full-data run, and independent per-block runs
combined by prior-corrected Gaussian products.  One executor runs all three:
a method names its layers of blocks and its aggregation rule.

All stage handoff happens through posterior files in a run directory, so a
stage can only start once its predecessors' files exist.  Per-block seeds
are derived by hashing (master seed, stage, block coordinates), making
results independent of scheduling order.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace

import numpy as np

from .aggregate import ep_aggregate, staged_aggregate
from .approx import (PosteriorSet, _fixed_lambda, derive_seed, fit_rows,
                     load_posterior_file, save_posterior_file)
from .artifacts import write_json
from .data import PartitionPlan, SparseMatrix, order_matrix, partition
from .errors import ArtifactError, PipelineError, ValidationError
from .sampler import GibbsConfig, NormalWishartPrior, gibbs_run

logger = logging.getLogger(__name__)

OUTPUT_ROOT_ENV = "DBMF_OUTPUT_ROOT"


@dataclass
class RunConfig:
    """Everything one pipeline run needs besides the data."""

    n_factors: int
    tau: float
    n_iters: int = 1200
    burn_in: int = 800
    thin: int = 2
    seed: int = 0
    approximation: str = "mm"            # mm | dm | gmm
    ordering: str = "decreasing"         # decreasing | random | none
    partition_rows: int = 1
    partition_cols: int = 1
    top_n: int = 3
    lambda_policy: str | float = "median-pairwise"
    workers: int = 1
    save_chains: bool = False
    # shared-prior hyperparameters (w0 is isotropic, nu0 defaults to K)
    nw_mu0: float = 0.0
    nw_beta0: float = 2.0
    nw_w0_scale: float = 1.0
    nw_nu0: float | None = None

    def __post_init__(self):
        n_samples = GibbsConfig(self.n_factors, self.tau, self.n_iters, self.burn_in,
                                self.thin, 0).n_samples  # reuse sweep-count validation
        if n_samples < self.n_factors + 2:
            raise ValidationError(
                f"the chain keeps {n_samples} samples ((n_iters - burn_in) / thin); the "
                f"posterior fits need at least n_factors + 2 = {self.n_factors + 2}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.approximation not in ("mm", "dm", "gmm"):
            raise ValidationError(f"unknown approximation kind: {self.approximation!r}")
        if self.ordering not in ("decreasing", "random", "none"):
            raise ValidationError(f"unknown ordering scheme: {self.ordering!r}")
        if self.partition_rows < 1 or self.partition_cols < 1:
            raise ValidationError("partition must be at least 1x1")
        if self.top_n < 1:
            raise ValidationError("top_n must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        _fixed_lambda(self.lambda_policy)
        if self.nw_beta0 <= 0 or self.nw_w0_scale <= 0:
            raise ValidationError("nw_beta0 and nw_w0_scale must be positive")
        if self.nw_nu0 is not None and self.nw_nu0 < self.n_factors:
            raise ValidationError("nw_nu0 must be >= n_factors")

    def nw_prior(self) -> NormalWishartPrior:
        k = self.n_factors
        nu0 = float(k) if self.nw_nu0 is None else float(self.nw_nu0)
        return NormalWishartPrior(np.full(k, self.nw_mu0), self.nw_beta0,
                                  self.nw_w0_scale * np.eye(k), nu0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CostModel:
    """Inputs of the proportional computation/communication cost formulas."""

    n_rows: int
    n_cols: int
    n_obs: int
    n_factors: int
    n_iters: int
    workers: int
    n_components: int = 1
    params_per_row: float | None = None

    def __post_init__(self):
        for name in ("n_rows", "n_cols", "n_obs", "n_factors", "n_iters",
                     "workers", "n_components"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


@dataclass
class CostEval:
    """Proportional per-submodel time, aggregation time, total, and
    input/output communication volume."""

    t0: float
    t_aggregate: float
    total: float
    communication: float


def row_param_count(kind: str, n_factors: int, n_components: int = 1) -> float:
    """Parameters communicated per row: K + K^2 per Gaussian, times the
    component count for mixtures."""
    base = n_factors + n_factors ** 2
    return float(n_components * base) if kind == "gmm" else float(base)


def cost_model_eval(cm: CostModel) -> CostEval:
    """Evaluate the proportional cost formulas.

    Per-submodel time t0 = [(N+D)K^3/(sqrt(U)+1) + M K^2/(U+2 sqrt(U)+1)] T;
    the three stages cost 3 t0, aggregation costs
    t_a = max(N, D)/(sqrt(U)+1) (K+K^2), and communication is proportional
    to sqrt(U) (N+D) L.
    """
    su = math.sqrt(cm.workers)
    k = cm.n_factors
    t0 = ((cm.n_rows + cm.n_cols) * k ** 3 / (su + 1.0)
          + cm.n_obs * k ** 2 / (cm.workers + 2.0 * su + 1.0)) * cm.n_iters
    t_a = max(cm.n_rows, cm.n_cols) / (su + 1.0) * (k + k ** 2)
    params = cm.params_per_row
    if params is None:
        params = row_param_count("gmm" if cm.n_components > 1 else "mm",
                                 k, cm.n_components)
    comm = su * (cm.n_rows + cm.n_cols) * params
    return CostEval(t0, t_a, 3.0 * t0 + t_a, comm)


# ---------------------------------------------------------------------------
# Seeds, layout, plan
# ---------------------------------------------------------------------------

def stage_of(i: int, j: int) -> int:
    if i == 0 and j == 0:
        return 1
    return 2 if (i == 0 or j == 0) else 3


def posterior_path(run_dir, side: str, i: int, j: int) -> str:
    return os.path.join(run_dir, f"stage{stage_of(i, j)}", f"{side}_{i}_{j}.npz")


def chain_path(run_dir, i: int, j: int) -> str:
    return os.path.join(run_dir, "chains", f"chain_{i}_{j}.npz")


def build_plan(matrix: SparseMatrix, config: RunConfig) -> PartitionPlan:
    """Order rows/columns per the config and tile into the config's grid."""
    perms = order_matrix(matrix, config.ordering, seed=config.seed)
    return partition(matrix, perms, config.partition_rows, config.partition_cols)


def extract_blocks(matrix: SparseMatrix, plan: PartitionPlan) -> dict:
    """Split entries into per-block matrices with block-local indices."""
    inv_r, inv_c = plan.inverse_perms()
    pr = inv_r[matrix.rows]
    pc = inv_c[matrix.cols]
    bi = np.searchsorted(plan.row_cuts, pr, side="right") - 1
    bj = np.searchsorted(plan.col_cuts, pc, side="right") - 1
    key = bi * plan.n_col_blocks + bj
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    blocks = {}
    for i in range(plan.n_row_blocks):
        r_lo, r_hi = plan.row_range(i)
        for j in range(plan.n_col_blocks):
            c_lo, c_hi = plan.col_range(j)
            lo = np.searchsorted(sorted_key, i * plan.n_col_blocks + j, side="left")
            hi = np.searchsorted(sorted_key, i * plan.n_col_blocks + j, side="right")
            sel = order[lo:hi]
            blocks[(i, j)] = SparseMatrix(r_hi - r_lo, c_hi - c_lo,
                                          pr[sel] - r_lo, pc[sel] - c_lo,
                                          matrix.vals[sel])
    return blocks


def _read_json(run_dir, name: str) -> dict:
    try:
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ArtifactError(f"missing {name} in {run_dir}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"unreadable {name} in {run_dir}: {exc}") from exc


def read_run_config(run_dir) -> dict:
    """The run's configuration echo; ``ArtifactError`` unless it is an
    object naming the method and a partition of at least 1x1."""
    meta = _read_json(run_dir, "run_config.json")
    if not (isinstance(meta, dict) and isinstance(meta.get("method"), str)
            and all(type(meta.get(key)) is int and meta[key] >= 1
                    for key in ("partition_rows", "partition_cols"))):
        raise ArtifactError(f"{os.path.join(run_dir, 'run_config.json')} does not name the "
                            "method and the partition (partition_rows, partition_cols)")
    return meta


def read_timings(run_dir) -> dict:
    return _read_json(run_dir, "timings.json")


def persist_posteriors(run_dir, side: str, i: int, j: int,
                       posteriors: PosteriorSet, row_range: tuple[int, int]) -> str:
    """Write one side's block approximations into the run layout."""
    path = posterior_path(run_dir, side, i, j)
    save_posterior_file(path, posteriors, side, row_range[0], row_range[1],
                        extra={"stage": stage_of(i, j), "block": [i, j]})
    return path


def load_posteriors(run_dir, side: str, i: int, j: int) -> PosteriorSet:
    """Read one side's block approximations; names the stage/block on failure."""
    try:
        _, pset = load_posterior_file(posterior_path(run_dir, side, i, j))
    except ArtifactError as exc:
        raise PipelineError(
            f"stage {stage_of(i, j)} block ({i},{j}) {side}-posteriors: {exc}") from exc
    return pset


# ---------------------------------------------------------------------------
# Block tasks
# ---------------------------------------------------------------------------

@dataclass
class _BlockTask:
    """One block run: the worker derives its sampler settings, hyperprior
    and seeds from ``config`` and the block's stage and coordinates.  A
    side's prior is the posterior of the block ``x_from`` (``w_from``), or
    the shared prior when that is None."""

    key: tuple[int, int]
    block: SparseMatrix
    run_dir: str
    config: RunConfig
    x_from: tuple[int, int] | None
    w_from: tuple[int, int] | None
    row_range: tuple[int, int]
    col_range: tuple[int, int]


def _default_posteriors(n_rows: int, nw: NormalWishartPrior) -> PosteriorSet:
    """Per-row Gaussian matching the hyperprior's nominal row prior
    (mean mu0, precision nu0 * w0); used as the pass-through posterior of a
    side that an empty block never updated."""
    means = np.tile(nw.mu0, (n_rows, 1))
    precs = np.tile(nw.nu0 * nw.w0, (n_rows, 1, 1))
    return PosteriorSet("gaussian", means, precs)


def _run_block_task(task: _BlockTask) -> dict:
    started = time.time()
    t0 = time.perf_counter()
    config = task.config
    i, j = task.key
    stage = stage_of(i, j)
    x_prior, w_prior = (None if source is None else load_posteriors(task.run_dir, side, *source)
                        for side, source in (("x", task.x_from), ("w", task.w_from)))
    nw = config.nw_prior()

    if task.block.m == 0:
        # Nothing observed: priors pass through unchanged as posteriors.
        x_pset = x_prior if x_prior is not None else _default_posteriors(task.block.n_rows, nw)
        w_pset = w_prior if w_prior is not None else _default_posteriors(task.block.n_cols, nw)
    else:
        gibbs = GibbsConfig(config.n_factors, config.tau, config.n_iters, config.burn_in,
                            config.thin, derive_seed(config.seed, stage, i, j))
        chain = gibbs_run(task.block, (x_prior, w_prior), nw, gibbs)
        if config.save_chains:
            chain.save(chain_path(task.run_dir, i, j))
        x_pset, w_pset = (fit_rows(samples, config.approximation,
                                   lam_policy=config.lambda_policy, top_n=config.top_n,
                                   seed=derive_seed(config.seed, stage, i, j, side))
                          for side, samples in ((1, chain.x_samples), (2, chain.w_samples)))
    persist_posteriors(task.run_dir, "x", i, j, x_pset, task.row_range)
    persist_posteriors(task.run_dir, "w", i, j, w_pset, task.col_range)
    return {"seconds": time.perf_counter() - t0, "started": started, "finished": time.time()}


def _run_layer(pool, label: str, tasks: list[_BlockTask]) -> dict:
    """Run one layer's blocks, in this process or in ``pool``, and return
    the layer's timings.  A worker's death is a ``PipelineError`` naming the
    layer and its unfinished blocks."""
    if pool is None:
        results = [_run_block_task(task) for task in tasks]
    else:
        futures = [pool.submit(_run_block_task, task) for task in tasks]
        try:
            results = [future.result() for future in futures]
        except BrokenProcessPool as exc:
            lost = ", ".join(f"({t.key[0]},{t.key[1]})" for t, f in zip(tasks, futures)
                             if not f.done() or f.exception() is not None)
            raise PipelineError(
                f"stage {label}: a worker process died; blocks not finished: {lost}") from exc
    return {"blocks": {f"{t.key[0]},{t.key[1]}": r for t, r in zip(tasks, results)},
            "max_seconds": max(r["seconds"] for r in results)}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class FactorizationResult:
    """Aggregated per-row posteriors, point matrices, and the timing ledger.

    Point and posterior arrays are indexed by original (pre-permutation)
    row/column ids.
    """

    method: str
    x_mean: np.ndarray
    w_mean: np.ndarray
    x_precisions: np.ndarray
    w_precisions: np.ndarray
    timings: dict
    run_dir: str
    config: RunConfig
    plan: PartitionPlan

    @property
    def total_seconds(self) -> float:
        return self.timings["total"]


def _make_run_dir(run_dir) -> str:
    try:
        if run_dir is None:
            root = os.environ.get(OUTPUT_ROOT_ENV)
            if root:
                os.makedirs(root, exist_ok=True)
            run_dir = tempfile.mkdtemp(prefix="dbmf-run-", dir=root)
        for sub in ("stage1", "stage2", "stage3", "aggregate", "chains"):
            os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
    except OSError as exc:
        raise ArtifactError(f"cannot create run directory {run_dir}: {exc}") from exc
    return run_dir


def _aggregate(run_dir, plan, rule) -> tuple[list, list, list]:
    """Combine by ``rule`` the pooled posteriors of each row block of X and
    each column block of W, from every block along it in grid order.
    Returns X's and W's (means, precisions) in original index order and the
    repair events, each labelled with the side, the row or column block and
    the row within it."""
    events = []

    def side(name, lines, perm):
        parts = []
        for index, keys in enumerate(lines):
            stacks = []
            for i, j in keys:
                pset = load_posteriors(run_dir, name, i, j).pooled()
                stacks.append((pset.means, pset.precisions))
            means, precs, line_events = rule(stacks)
            parts.append((means, precs))
            events.extend({"row": f"{name}:{index}:{row}", "where": where, "shift": shift}
                          for row, where, shift in line_events)
        placed = []
        for arrays in zip(*parts):
            stacked = np.concatenate(arrays)
            placed.append(np.empty_like(stacked))
            placed[-1][perm] = stacked
        return placed

    r, c = plan.n_row_blocks, plan.n_col_blocks
    x = side("x", [[(i, j) for j in range(c)] for i in range(r)], plan.row_perm)
    w = side("w", [[(i, j) for i in range(r)] for j in range(c)], plan.col_perm)
    return x, w, events


# ---------------------------------------------------------------------------
# The executor and the three methods
# ---------------------------------------------------------------------------

def _run(method, train, config, plan, run_dir, layers, rule) -> FactorizationResult:
    """Run ``layers`` in order, then combine each row's posteriors by ``rule``.

    ``layers`` lists (label, entries); an entry is (block, x-prior block,
    w-prior block), a prior block being the block whose posterior file of
    that side is handed in, or None for the shared prior.  A layer starts
    once the files of the layers before it are written.  With
    ``workers > 1`` one process pool runs every block of the run.
    """
    if plan is None:
        plan = build_plan(train, config)
    if (plan.n_rows != train.n_rows or plan.n_cols != train.n_cols
            or plan.n_row_blocks != config.partition_rows
            or plan.n_col_blocks != config.partition_cols):
        raise ValidationError("partition plan inconsistent with data or config")
    run_dir = _make_run_dir(run_dir)
    write_json(os.path.join(run_dir, "run_config.json"), {**config.to_dict(), "method": method})
    plan.save(os.path.join(run_dir, "plan.json"))
    blocks = extract_blocks(train, plan)

    stage_timings = {}
    run_start = time.perf_counter()
    width = max(len(entries) for _, entries in layers)
    with (ProcessPoolExecutor(max_workers=min(config.workers, width))
          if config.workers > 1 else contextlib.nullcontext()) as pool:
        for label, entries in layers:
            if entries:
                tasks = [_BlockTask(key, blocks[key], run_dir, config, x_from, w_from,
                                    plan.row_range(key[0]), plan.col_range(key[1]))
                         for key, x_from, w_from in entries]
                stage_timings[label] = _run_layer(pool, label, tasks)

    agg_start = time.perf_counter()
    (x_mean, x_prec), (w_mean, w_prec), events = _aggregate(run_dir, plan, rule)
    agg_seconds = time.perf_counter() - agg_start
    save_posterior_file(os.path.join(run_dir, "aggregate", "x.npz"),
                        PosteriorSet("gaussian", x_mean, x_prec), "x", 0, plan.n_rows)
    save_posterior_file(os.path.join(run_dir, "aggregate", "w.npz"),
                        PosteriorSet("gaussian", w_mean, w_prec), "w", 0, plan.n_cols)
    write_json(os.path.join(run_dir, "aggregate", "corrections.json"),
               {"count": len(events), "events": events})
    wall_seconds = time.perf_counter() - run_start
    total = sum(s["max_seconds"] for s in stage_timings.values()) + agg_seconds
    timings = {"stages": stage_timings, "aggregation_seconds": agg_seconds,
               "total": total, "wall_seconds": wall_seconds}
    write_json(os.path.join(run_dir, "timings.json"), timings)
    logger.info("%s run finished (ledger total %.2fs, real %.2fs): %s",
                method, total, wall_seconds, run_dir)
    return FactorizationResult(method, x_mean, w_mean, x_prec, w_prec,
                               timings, run_dir, config, plan)


def _pp_layers(r: int, c: int) -> list:
    """Stage I is (0,0) under the shared priors; stage II is the first
    column and row, each with the stage-I posterior of the side it shares;
    stage III is the rest, with X's prior from its row's stage-II block and
    W's from its column's."""
    return [("1", [((0, 0), None, None)]),
            ("2", [((i, 0), None, (0, 0)) for i in range(1, r)]
             + [((0, j), (0, 0), None) for j in range(1, c)]),
            ("3", [((i, j), (i, 0), (0, j)) for i in range(1, r) for j in range(1, c)])]


def _staged_rule(stacks):
    return staged_aggregate(stacks[0], stacks[1:])


def run_pp(train: SparseMatrix, config: RunConfig,
           plan: PartitionPlan | None = None, run_dir=None) -> FactorizationResult:
    """Three-stage pipeline with posterior handoff and per-row aggregation."""
    return _run("pp", train, config, plan, run_dir,
                _pp_layers(config.partition_rows, config.partition_cols), _staged_rule)


def run_full(train: SparseMatrix, config: RunConfig, run_dir=None) -> FactorizationResult:
    """Single sampler run over the whole matrix (1x1 grid); reported
    posteriors are moment-matched from the chain."""
    if config.partition_rows != 1 or config.partition_cols != 1:
        raise ValidationError("run_full requires a 1x1 partition")
    return _run("full", train, replace(config, approximation="mm"), None, run_dir,
                _pp_layers(1, 1), _staged_rule)


def run_ep(train: SparseMatrix, config: RunConfig,
           plan: PartitionPlan | None = None, run_dir=None) -> FactorizationResult:
    """Independent per-block runs (no propagation), aggregated by Gaussian
    products with the multiply-counted prior divided away.

    The divided-away prior is the standard normal row prior; subset runs
    themselves use the same default hyperprior setup as the staged
    pipeline, so a 1x1 grid degenerates to the identical chain.
    """
    prior = (np.zeros(config.n_factors), np.eye(config.n_factors))
    blocks = [((i, j), None, None) for i in range(config.partition_rows)
              for j in range(config.partition_cols)]
    return _run("ep", train, config, plan, run_dir, [("ep", blocks)],
                lambda stacks: ep_aggregate(stacks, prior))
