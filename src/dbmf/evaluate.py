"""Metrics: RMSE, frequency-binned RMSE, cross-subset posterior-mean
correlations with latent-dimension alignment, wall-clock speed-up, and the
rate and size of aggregation's eigenvalue repairs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import pipeline
from .data import SparseMatrix
from .errors import ArtifactError, ValidationError
from .sampler import predict

DEFAULT_BIN_EDGES = (0, 10, 20, 40, 80, 160, math.inf)


def rmse(predictions: np.ndarray, truths: np.ndarray) -> float:
    """Root mean squared error between paired vectors."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise ValidationError("predictions and truths must have equal length")
    if predictions.size == 0:
        raise ValidationError("rmse of empty input is undefined")
    diff = predictions - truths
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class FrequencyBin:
    """RMSE over the test entries whose row has a training count in
    [low, high); ``value`` is None when the bin is empty."""

    low: float
    high: float
    value: float | None
    count: int


def check_bin_edges(bin_edges, name: str = "bin edges") -> list:
    """``bin_edges`` as a list; ``ValidationError`` naming ``name`` unless
    there are at least two and they are strictly increasing."""
    edges = list(bin_edges)
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValidationError(f"{name} must be strictly increasing, got {edges}")
    return edges


def rmse_by_frequency(x_mean: np.ndarray, w_mean: np.ndarray, train: SparseMatrix,
                      test: SparseMatrix, bin_edges=DEFAULT_BIN_EDGES) -> list[FrequencyBin]:
    """RMSE of the point matrices' predictions, with test entries binned by
    their row's training observation count.

    Every test row must be a row of ``train`` and every test entry must
    land in some bin, else a validation error.
    """
    edges = check_bin_edges(bin_edges)
    if test.m and test.rows.max() >= train.n_rows:
        raise ValidationError(f"test row {test.rows.max()} is outside the training matrix "
                              f"({train.n_rows} rows)")
    freq = train.row_counts()[test.rows]
    if test.m and (freq.min() < edges[0] or freq.max() >= edges[-1]):
        raise ValidationError("a test entry falls outside the given bins")
    preds = predict(x_mean, w_mean, test.rows, test.cols)
    out = []
    for low, high in zip(edges, edges[1:]):
        mask = (freq >= low) & (freq < high)
        n = int(mask.sum())
        value = rmse(preds[mask], test.vals[mask]) if n else None
        out.append(FrequencyBin(float(low), float(high), value, n))
    return out


# ---------------------------------------------------------------------------
# Latent-dimension alignment and cross-subset correlations
# ---------------------------------------------------------------------------

def _column_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of every column of ``a`` against every column of
    ``b``; zero-variance columns correlate as 0."""
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    num = ac.T @ bc
    na = np.linalg.norm(ac, axis=0)
    nb = np.linalg.norm(bc, axis=0)
    denom = np.outer(na, nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
    return corr


def align_latent_dimensions(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of the columns of ``b`` onto the columns of ``a``.

    Repeatedly pairs the unmatched (a-column, b-column) pair with the
    largest absolute correlation; the sign records the correlation's sign.
    Returns ``(perm, signs)`` such that ``b[:, perm] * signs`` is the
    aligned version of ``b``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValidationError("matrices must have the same shape")
    k = a.shape[1]
    signed = _column_correlations(a, b)
    perm = np.empty(k, dtype=np.int64)
    signs = np.empty(k, dtype=np.int64)
    remaining = np.abs(signed)
    for _ in range(k):
        flat = int(np.argmax(remaining))
        ai, bi = divmod(flat, k)
        perm[ai] = bi
        signs[ai] = 1 if signed[ai, bi] >= 0 else -1
        remaining[ai, :] = -np.inf
        remaining[:, bi] = -np.inf
    return perm, signs


def flattened_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the flattened matrices."""
    av, bv = a.ravel(), b.ravel()
    sa, sb = av.std(), bv.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(np.corrcoef(av, bv)[0, 1])


@dataclass
class PairCorrelation:
    """Correlation of posterior-mean estimates for one shared parameter
    block, estimated from two different subset runs."""

    side: str
    block_a: tuple[int, int]
    block_b: tuple[int, int]
    correlation: float
    per_dimension: list[float] = field(default_factory=list)


def sharing_pairs(n_row_blocks: int, n_col_blocks: int):
    """The staged pipeline's handoff edges ``(side, source, block)``: block
    ``block`` took the ``side`` posterior of ``source`` as its prior, so the
    two runs estimated the same parameter rows.  X edges first, then W,
    each by (source, block); 0-based block coordinates."""
    edges = [(side, source, block)
             for _, entries in pipeline.pp_layers(n_row_blocks, n_col_blocks)
             for block, *sources in entries
             for side, source in zip("xw", sources) if source is not None]
    return sorted(edges, key=lambda edge: (edge[0] != "x", edge))


def subset_mean_correlations(run_dir) -> list[PairCorrelation]:
    """Correlations between per-block posterior-mean estimates (mixtures
    pooled) of shared parameters, for every sharing pair of a finished run
    directory.

    Estimates from runs without cross-subset coupling (method ``ep``) are
    aligned (permutation and sign of latent dimensions) before correlating;
    staged runs are correlated directly.
    """
    meta = pipeline.read_run_config(run_dir)
    r, c = meta["partition_rows"], meta["partition_cols"]
    out = []
    for side, blk_a, blk_b in sharing_pairs(r, c):
        mean_a, mean_b = (pipeline.load_posteriors(run_dir, side, *blk).pooled().means
                          for blk in (blk_a, blk_b))
        if meta["method"] == "ep":
            perm, signs = align_latent_dimensions(mean_a, mean_b)
            mean_b = mean_b[:, perm] * signs
        per_dim = [float(_column_correlations(mean_a[:, [k]], mean_b[:, [k]])[0, 0])
                   for k in range(mean_a.shape[1])]
        out.append(PairCorrelation(side, blk_a, blk_b,
                                   flattened_correlation(mean_a, mean_b), per_dim))
    return out


def wts(full_time: float, distributed_time: float) -> float:
    """Wall-clock time speed-up: full-data time over distributed time."""
    if full_time <= 0 or distributed_time <= 0:
        raise ValidationError("wall-clock times must be positive")
    return full_time / distributed_time


@dataclass
class RepairRate:
    """Aggregation's eigenvalue repairs of one side at one step (``where``):
    the share of the side's rows repaired, and the median diagonal shift
    relative to the mean diagonal of the row's aggregated precision."""

    side: str
    where: str
    rate: float
    median_shift: float


def repair_rates(run_dir, precisions: dict[str, np.ndarray]) -> list[RepairRate]:
    """Repair rates of a finished run directory, per side and per ``where``,
    from ``aggregate/corrections.json``.  ``precisions`` maps "x" and "w"
    to the aggregated precisions, in original index order, which is the
    order of an event's ``row``."""
    relative: dict[tuple[str, str], list[float]] = {}
    try:
        for event in pipeline.read_corrections(run_dir)["events"]:
            side, row = event["side"], event["row"]
            if type(row) is not int or not 0 <= row < precisions[side].shape[0]:
                raise IndexError(f"{side} row {row!r} is not an index of the side")
            relative.setdefault((side, event["where"]), []).append(
                float(event["shift"]) / np.diagonal(precisions[side][row]).mean())
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ArtifactError(f"malformed corrections.json in {run_dir}: {exc!r}") from exc
    return [RepairRate(side, where, len(shifts) / precisions[side].shape[0],
                       float(np.median(shifts)))
            for (side, where), shifts in sorted(relative.items())]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    """All metrics of one evaluated run."""

    rmse: float
    bins: list[FrequencyBin] = field(default_factory=list)
    correlations: list[PairCorrelation] = field(default_factory=list)
    wts: float | None = None
    repairs: list[RepairRate] | None = None

    def to_json(self) -> str:
        """The report as JSON; an open bin edge is written as "inf"."""
        doc = asdict(self)
        for b in doc["bins"]:
            b.update({edge: str(b[edge]) for edge in ("low", "high") if math.isinf(b[edge])})
        return json.dumps(doc, indent=2)

    def format_table(self) -> str:
        lines = [f"{'RMSE':<24}{self.rmse:.6f}"]
        if self.wts is not None:
            lines.append(f"{'ledger speed-up':<24}{self.wts:.3f}")
        if self.bins:
            lines.append("")
            lines.append(f"{'row-count bin':<20}{'count':>8}  {'rmse':>10}")
            for b in self.bins:
                val = f"{b.value:.6f}" if b.value is not None else "n/a"
                hi = "inf" if math.isinf(b.high) else f"{b.high:g}"
                lines.append(f"[{b.low:g}, {hi}){'':<8}{b.count:>8}  {val:>10}")
        if self.correlations:
            lines.append("")
            lines.append(f"{'side':<6}{'pair':<22}{'correlation':>12}")
            for pc in self.correlations:
                pair = f"{pc.block_a}~{pc.block_b}"
                lines.append(f"{pc.side:<6}{pair:<22}{pc.correlation:>12.4f}")
        if self.repairs is not None:
            lines.append("")
            if not self.repairs:
                lines.append("eigenvalue repairs: none")
            else:
                lines.append(f"{'side':<6}{'repair':<16}{'rate':>8}  {'median shift/diag':>18}")
                for rr in self.repairs:
                    lines.append(f"{rr.side:<6}{rr.where:<16}{rr.rate:>8.4f}  "
                                 f"{rr.median_shift:>18.4g}")
        return "\n".join(lines)


def csv_row(partition: str, method: str, seed: int, rmse_value: float,
            wall_clock: float, wts_value: float | None) -> str:
    """One plotting-friendly CSV line (header: partition,method,seed,rmse,seconds,wts)."""
    wts_text = f"{wts_value:.6f}" if wts_value is not None else ""
    return f"{partition},{method},{seed},{rmse_value:.6f},{wall_clock:.3f},{wts_text}"
