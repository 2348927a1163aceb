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
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import sparse

from .aggregate import ep_aggregate, staged_aggregate
from .approx import (PosteriorSet, _fixed_lambda, fit_rows, load_posterior_file,
                     save_posterior_file)
from .artifacts import write_json
from .data import PartitionPlan, SparseMatrix, check_int, check_real, order_matrix, partition
from .errors import ArtifactError, PipelineError, ValidationError
from .sampler import GibbsConfig, NormalWishartPrior, gibbs_run

logger = logging.getLogger(__name__)


@dataclass
class RunConfig(GibbsConfig):
    """Everything one pipeline run needs besides the data: the chain
    settings every block samples with (its seed being the run's master
    seed), then the partition, posterior-fit and executor settings.  Every
    block samples under BPMF's standard shared hyperprior (``nw_prior``);
    ``gibbs_run`` takes any other."""

    approximation: str = "mm"            # mm | dm | gmm
    ordering: str = "decreasing"         # decreasing | random | none
    partition_rows: int = 1
    partition_cols: int = 1
    top_n: int = 3
    lambda_policy: str | float = "median-pairwise"
    workers: int = 1
    save_chains: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.n_samples < self.n_factors + 2:
            raise ValidationError(
                f"the chain keeps {self.n_samples} samples ((n_iters - burn_in) / thin); the "
                f"posterior fits need at least n_factors + 2 = {self.n_factors + 2}")
        if self.approximation not in ("mm", "dm", "gmm"):
            raise ValidationError(f"unknown approximation kind: {self.approximation!r}")
        if self.ordering not in ("decreasing", "random", "none"):
            raise ValidationError(f"unknown ordering scheme: {self.ordering!r}")
        for name in ("partition_rows", "partition_cols", "top_n", "workers"):
            setattr(self, name, check_int(name, getattr(self, name), positive=True))
        if not isinstance(self.save_chains, (bool, np.bool_)):
            raise ValidationError(f"save_chains must be a bool, got {self.save_chains!r}")
        self.save_chains = bool(self.save_chains)
        lam = _fixed_lambda(self.lambda_policy)
        self.lambda_policy = "median-pairwise" if lam is None else lam

    def nw_prior(self) -> NormalWishartPrior:
        k = self.n_factors
        return NormalWishartPrior(np.zeros(k), 2.0, np.eye(k), float(k))


@dataclass
class CostModel:
    """Inputs of the proportional computation/communication cost formulas."""

    n_rows: int
    n_cols: int
    n_obs: int
    n_factors: int
    n_iters: int
    workers: int
    params_per_row: float

    def __post_init__(self):
        for name in ("n_rows", "n_cols", "n_obs", "n_factors", "n_iters", "workers"):
            setattr(self, name, check_int(name, getattr(self, name), positive=True))
        self.params_per_row = check_real("params_per_row", self.params_per_row, positive=True)


@dataclass
class CostEval:
    """Proportional per-submodel time, aggregation time, total, and
    input/output communication volume."""

    t0: float
    t_aggregate: float
    total: float
    communication: float


def row_param_count(kind: str, n_factors: int, n_components: int) -> float:
    """Parameters communicated per row: K + K^2 per Gaussian, times the
    component count for mixtures."""
    n_components = check_int("n_components", n_components, positive=True)
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
    comm = su * (cm.n_rows + cm.n_cols) * cm.params_per_row
    return CostEval(t0, t_a, 3.0 * t0 + t_a, comm)


# ---------------------------------------------------------------------------
# Seeds, layout, plan
# ---------------------------------------------------------------------------

def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic stream seed from the master seed and a structured key."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
    """Split entries into per-block matrices with block-local indices.

    Each block is a slice of one canonical CSR matrix of the permuted
    entries, so its entries come in (row, column) order: rows nondecreasing,
    columns strictly increasing within a row.  The order matters because the
    sampler's CSR build finds the block already canonical and skips scipy's
    index sort."""
    inv_r, inv_c = plan.inverse_perms()
    permuted = sparse.csr_array((matrix.vals, (inv_r[matrix.rows], inv_c[matrix.cols])),
                                shape=(plan.n_rows, plan.n_cols))
    blocks = {}
    for i, j in np.ndindex(plan.n_row_blocks, plan.n_col_blocks):
        (r_lo, r_hi), (c_lo, c_hi) = plan.row_range(i), plan.col_range(j)
        block = permuted[r_lo:r_hi, c_lo:c_hi].tocoo()
        blocks[(i, j)] = SparseMatrix(r_hi - r_lo, c_hi - c_lo, block.row, block.col,
                                      block.data)
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
    """The run's timing ledger; ``ArtifactError`` unless it is an object
    with a positive, finite numeric ``total``."""
    timings = _read_json(run_dir, "timings.json")
    total = timings.get("total") if isinstance(timings, dict) else None
    if not (type(total) in (int, float) and 0 < total < math.inf):
        raise ArtifactError(f"{os.path.join(run_dir, 'timings.json')} has no positive, "
                            "finite numeric total")
    return timings


def read_corrections(run_dir) -> dict:
    return _read_json(run_dir, os.path.join("aggregate", "corrections.json"))


def load_posteriors(run_dir, side: str, i: int, j: int) -> PosteriorSet:
    """Read one side's block approximations; names the stage/block on failure."""
    try:
        return load_posterior_file(posterior_path(run_dir, side, i, j))
    except ArtifactError as exc:
        raise PipelineError(
            f"stage {stage_of(i, j)} block ({i},{j}) {side}-posteriors: {exc}") from exc


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


def _run_block_task(task: _BlockTask) -> dict:
    started = time.time()
    t0 = time.perf_counter()
    config = task.config
    i, j = task.key
    stage = stage_of(i, j)
    priors = tuple(None if source is None else load_posteriors(task.run_dir, name, *source)
                   for name, source in zip("xw", (task.x_from, task.w_from)))
    nw = config.nw_prior()
    if task.block.m:
        chain = gibbs_run(task.block, priors, nw,
                          replace(config, seed=derive_seed(config.seed, stage, i, j)))
        if config.save_chains:
            chain.save(chain_path(task.run_dir, i, j))
    for side, (name, prior, (lo, hi)) in enumerate(zip("xw", priors,
                                                       (task.row_range, task.col_range))):
        if not task.block.m:
            # Nothing observed: priors (the shared one's nominal row) pass through.
            pset = prior if prior is not None else PosteriorSet(
                *(np.broadcast_to(a, (hi - lo, *a.shape)) for a in nw.nominal_row))
        else:
            pset = fit_rows((chain.x_samples, chain.w_samples)[side], config.approximation,
                            lam_policy=config.lambda_policy, top_n=config.top_n)
        save_posterior_file(posterior_path(task.run_dir, name, i, j), pset, side=name,
                            row_start=lo, row_stop=hi, stage=stage, block=[i, j])
    return {"seconds": time.perf_counter() - t0, "started": started, "finished": time.time()}


def _run_layer(pool, label: str, tasks: list[_BlockTask]) -> dict:
    """Run one layer's blocks, in this process or in ``pool``, and return
    the layer's timings.  The first failing block stops the layer; a
    worker's death is a ``PipelineError`` naming the layer and the blocks
    whose results were not collected."""
    results = []
    try:
        results.extend((map if pool is None else pool.map)(_run_block_task, tasks))
    except BrokenProcessPool as exc:
        lost = ", ".join(f"({t.key[0]},{t.key[1]})" for t in tasks[len(results):])
        raise PipelineError(
            f"stage {label}: a worker process died; blocks not collected: {lost}") from exc
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

    x_mean: np.ndarray
    w_mean: np.ndarray
    x_precisions: np.ndarray
    w_precisions: np.ndarray
    timings: dict


def _make_run_dir(run_dir, save_chains: bool) -> None:
    try:
        subs = ("stage1", "stage2", "stage3", "aggregate") + (("chains",) if save_chains else ())
        for sub in subs:
            os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
    except OSError as exc:
        raise ArtifactError(f"cannot create run directory {run_dir}: {exc}") from exc


def _aggregate(run_dir, plan, rule) -> tuple[list, list]:
    """Combine by ``rule``, all rows of a side at once, the pooled
    posteriors of X (lines: row blocks) and of W (lines: column blocks):
    stack j holds the j-th block along every line, line after line, so it
    covers the side's rows in permuted order.  Returns X's and W's (means,
    precisions) in original index order and the repair events, each naming
    the side and the original row of X or column of W."""
    r, c = plan.n_row_blocks, plan.n_col_blocks
    lines = {"x": [[(i, j) for j in range(c)] for i in range(r)],
             "w": [[(i, j) for i in range(r)] for j in range(c)]}
    placed, events = [], []
    for name, perm, inverse in zip("xw", (plan.row_perm, plan.col_perm), plan.inverse_perms()):
        psets = [[load_posteriors(run_dir, name, *key).pooled() for key in line]
                 for line in lines[name]]
        stacks = [(np.concatenate([p.means for p in blocks]),
                   np.concatenate([p.precisions for p in blocks])) for blocks in zip(*psets)]
        means, precs, side_events = rule(stacks)
        placed.append((means[inverse], precs[inverse]))
        events.extend({"side": name, "row": int(perm[row]), "where": where, "shift": shift}
                      for row, where, shift in side_events)
    return placed, events


# ---------------------------------------------------------------------------
# The executor and the three methods
# ---------------------------------------------------------------------------

def _run(method, train, config, run_dir, layers, rule) -> FactorizationResult:
    """Order and tile ``train`` per ``config``, run ``layers`` in order, then
    combine each row's posteriors by ``rule``.

    ``layers`` lists (label, entries); an entry is (block, x-prior block,
    w-prior block), a prior block being the block whose posterior file of
    that side is handed in, or None for the shared prior.  Layers run in
    order, each once the files of the ones before it exist, in this process
    or, if ``min(workers, widest layer)`` is 2 or more, in a pool that size.
    """
    plan = build_plan(train, config)
    _make_run_dir(run_dir, config.save_chains)
    write_json(os.path.join(run_dir, "run_config.json"), {**asdict(config), "method": method})
    plan.save(os.path.join(run_dir, "plan.json"))
    blocks = extract_blocks(train, plan)

    stage_timings = {}
    run_start = time.perf_counter()
    processes = min(config.workers, max(len(entries) for _, entries in layers))
    with (ProcessPoolExecutor(max_workers=processes) if processes > 1
          else contextlib.nullcontext()) as pool:
        for label, entries in layers:
            if entries:
                tasks = [_BlockTask(key, blocks[key], run_dir, config, x_from, w_from,
                                    plan.row_range(key[0]), plan.col_range(key[1]))
                         for key, x_from, w_from in entries]
                stage_timings[label] = _run_layer(pool, label, tasks)

    agg_start = time.perf_counter()
    placed, events = _aggregate(run_dir, plan, rule)
    agg_seconds = time.perf_counter() - agg_start
    for name, (means, precs) in zip("xw", placed):
        save_posterior_file(os.path.join(run_dir, "aggregate", f"{name}.npz"),
                            PosteriorSet(means, precs), side=name, row_start=0,
                            row_stop=len(means))
    write_json(os.path.join(run_dir, "aggregate", "corrections.json"),
               {"count": len(events), "events": events})
    wall_seconds = time.perf_counter() - run_start
    total = sum(s["max_seconds"] for s in stage_timings.values()) + agg_seconds
    timings = {"stages": stage_timings, "aggregation_seconds": agg_seconds,
               "total": total, "wall_seconds": wall_seconds}
    write_json(os.path.join(run_dir, "timings.json"), timings)
    logger.info("%s run finished (ledger total %.2fs, real %.2fs): %s",
                method, total, wall_seconds, run_dir)
    (x_mean, x_prec), (w_mean, w_prec) = placed
    return FactorizationResult(x_mean, w_mean, x_prec, w_prec, timings)


def pp_layers(r: int, c: int) -> list:
    """Stage I is (0,0) under the shared priors; stage II is the first
    column and row, each with the stage-I posterior of the side it shares;
    stage III is the rest, with X's prior from its row's stage-II block and
    W's from its column's."""
    return [("1", [((0, 0), None, None)]),
            ("2", [((i, 0), None, (0, 0)) for i in range(1, r)]
             + [((0, j), (0, 0), None) for j in range(1, c)]),
            ("3", [((i, j), (i, 0), (0, j)) for i in range(1, r) for j in range(1, c)])]


def run_pp(train: SparseMatrix, config: RunConfig, run_dir) -> FactorizationResult:
    """Three-stage pipeline with posterior handoff and per-row aggregation."""
    return _run("pp", train, config, run_dir,
                pp_layers(config.partition_rows, config.partition_cols), staged_aggregate)


def run_full(train: SparseMatrix, config: RunConfig, run_dir) -> FactorizationResult:
    """Single sampler run over the whole matrix (1x1 grid); reported
    posteriors are moment-matched from the chain."""
    if config.partition_rows != 1 or config.partition_cols != 1:
        raise ValidationError("run_full requires a 1x1 partition")
    return _run("full", train, replace(config, approximation="mm"), run_dir,
                pp_layers(1, 1), staged_aggregate)


def run_ep(train: SparseMatrix, config: RunConfig, run_dir) -> FactorizationResult:
    """Independent per-block runs (no propagation), aggregated by Gaussian
    products with the multiply-counted prior divided away.

    The divided-away prior is the standard normal row prior; subset runs
    themselves use the same default hyperprior setup as the staged
    pipeline, so a 1x1 grid degenerates to the identical chain.
    """
    prior = (np.zeros(config.n_factors), np.eye(config.n_factors))
    blocks = [((i, j), None, None) for i in range(config.partition_rows)
              for j in range(config.partition_cols)]
    return _run("ep", train, config, run_dir, [("ep", blocks)],
                lambda stacks: ep_aggregate(stacks, prior))
