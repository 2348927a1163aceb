"""Metrics: RMSE, frequency-binned RMSE, cross-subset posterior-mean
correlations with latent-dimension alignment, and wall-clock speed-up."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import SparseMatrix
from .errors import ValidationError
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


def rmse_by_frequency(result, train: SparseMatrix, test: SparseMatrix,
                      bin_edges=DEFAULT_BIN_EDGES) -> list[FrequencyBin]:
    """Bin test entries by their row's training observation count.

    ``result`` is anything with ``x_mean`` / ``w_mean`` point matrices.
    Every test entry must land in some bin, else a validation error.
    """
    edges = list(bin_edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValidationError("bin edges must be strictly increasing")
    counts = train.row_counts()
    freq = counts[test.rows]
    if test.m and (freq.min() < edges[0] or freq.max() >= edges[-1]):
        raise ValidationError("a test entry falls outside the given bins")
    preds = predict(result.x_mean, result.w_mean, test.rows, test.cols)
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
    if k > 20:
        raise ValidationError("alignment supported up to 20 latent dimensions")
    corr = np.abs(_column_correlations(a, b))
    sign = np.sign(_column_correlations(a, b))
    perm = np.empty(k, dtype=np.int64)
    signs = np.empty(k, dtype=np.int64)
    remaining = corr.copy()
    for _ in range(k):
        flat = int(np.argmax(remaining))
        ai, bi = divmod(flat, k)
        perm[ai] = bi
        signs[ai] = 1 if sign[ai, bi] >= 0 else -1
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
    """Block pairs whose runs estimated the same parameter rows.

    X pairs share a row block across column blocks; W pairs share a column
    block across row blocks.  (0-based block coordinates.)
    """
    pairs = []
    for j in range(1, n_col_blocks):
        pairs.append(("x", (0, 0), (0, j)))
    for i in range(1, n_row_blocks):
        for j in range(1, n_col_blocks):
            pairs.append(("x", (i, 0), (i, j)))
    for i in range(1, n_row_blocks):
        pairs.append(("w", (0, 0), (i, 0)))
    for j in range(1, n_col_blocks):
        for i in range(1, n_row_blocks):
            pairs.append(("w", (0, j), (i, j)))
    return pairs


def subset_mean_correlations(run_dir) -> list[PairCorrelation]:
    """Correlations between per-block posterior-mean estimates (mixtures
    pooled) of shared parameters, for every sharing pair of a finished run
    directory.

    Estimates from runs without cross-subset coupling (method ``ep``) are
    aligned (permutation and sign of latent dimensions) before correlating;
    staged runs are correlated directly.
    """
    from . import pipeline  # local import; pipeline does not import evaluate

    meta = pipeline.read_run_config(run_dir)
    r, c = meta["partition_rows"], meta["partition_cols"]
    out = []
    for side, blk_a, blk_b in sharing_pairs(r, c):
        mean_a, mean_b = (pipeline.load_posteriors(run_dir, side, *blk).pooled().means
                          for blk in (blk_a, blk_b))
        if meta["method"] == "ep":
            perm, signs = align_latent_dimensions(mean_a, mean_b)
            mean_b = mean_b[:, perm] * signs
        per_dim = [float(np.nan_to_num(_column_correlations(
            mean_a[:, [k]], mean_b[:, [k]])[0, 0])) for k in range(mean_a.shape[1])]
        out.append(PairCorrelation(side, blk_a, blk_b,
                                   flattened_correlation(mean_a, mean_b), per_dim))
    return out


def wts(full_time: float, distributed_time: float) -> float:
    """Wall-clock time speed-up: full-data time over distributed time."""
    if full_time <= 0 or distributed_time <= 0:
        raise ValidationError("wall-clock times must be positive")
    return full_time / distributed_time


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

    def to_json(self) -> str:
        """The report as JSON; an open bin edge is written as "inf"."""
        doc = asdict(self)
        for b in doc["bins"]:
            b.update({edge: str(b[edge]) for edge in ("low", "high") if math.isinf(b[edge])})
        return json.dumps(doc, indent=2, default=_json_default)

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
        return "\n".join(lines)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def csv_row(partition: str, method: str, seed: int, rmse_value: float,
            wall_clock: float, wts_value: float | None) -> str:
    """One plotting-friendly CSV line (header: partition,method,seed,rmse,seconds,wts)."""
    wts_text = f"{wts_value:.6f}" if wts_value is not None else ""
    return f"{partition},{method},{seed},{rmse_value:.6f},{wall_clock:.3f},{wts_text}"
