"""Independent numerical oracles used by the test suite.

Everything here is deliberately implemented through different routes than
the package code: dense-grid quadrature, Gauss-Hermite/trapezoid latent
integrals, extended-precision linear algebra, and exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.spatial.distance import pdist

from dbmf.approx import COV_RIDGE, PosteriorSet
from dbmf.approx import fit_rows as approx_fit_rows
from dbmf.data import PartitionPlan, SparseMatrix
from dbmf.errors import NumericalError, ValidationError
from dbmf.sampler import CHOL_JITTER, GibbsConfig, SampleChain

LOG2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Small closed forms
# ---------------------------------------------------------------------------

def to_dense(matrix, fill=np.nan) -> np.ndarray:
    """Dense copy of a ``SparseMatrix`` with ``fill`` in unobserved cells."""
    out = np.full((matrix.n_rows, matrix.n_cols), fill, dtype=np.float64)
    out[matrix.rows, matrix.cols] = matrix.vals
    return out


def log_normal_pdf(x, mean, precision):
    """Scalar/array log N(x; mean, 1/precision)."""
    return 0.5 * (np.log(precision) - LOG2PI) - 0.5 * precision * (x - mean) ** 2


def mixture_moments(weights, means, covs):
    """Exact mean and covariance of a Gaussian mixture."""
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    covs = np.asarray(covs, dtype=np.float64)
    mean = weights @ means
    diffs = means - mean
    cov = np.einsum("c,ckl->kl", weights, covs)
    cov += np.einsum("c,ck,cl->kl", weights, diffs, diffs)
    return mean, cov


def two_pass_rmse(predictions, truths):
    """Streaming-free RMSE: explicit sum of squares then sqrt."""
    total = 0.0
    for p, t in zip(predictions, truths):
        total += (p - t) ** 2
    return math.sqrt(total / len(predictions))


# ---------------------------------------------------------------------------
# Dense-grid posterior for a single Gaussian row conditional (K <= 2)
# ---------------------------------------------------------------------------

def grid_row_posterior(y_vals, partner_rows, tau, prior_mean, prior_prec,
                       half_width=8.0, n_grid=401):
    """Moments of p(x) ~ N(x; prior) * prod_i N(y_i; w_i.x, 1/tau) on a grid."""
    k = len(prior_mean)
    axes = [np.linspace(m - half_width, m + half_width, n_grid) for m in prior_mean]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    diff = pts - prior_mean
    logp = -0.5 * np.einsum("nk,kl,nl->n", diff, prior_prec, diff)
    for y, w in zip(y_vals, partner_rows):
        logp += -0.5 * tau * (y - pts @ w) ** 2
    logp -= logp.max()
    weights = np.exp(logp)
    weights /= weights.sum()
    mean = weights @ pts
    centered = pts - mean
    cov = np.einsum("n,nk,nl->kl", weights, centered, centered)
    return mean, cov


# ---------------------------------------------------------------------------
# Dense-grid Bayes oracle for a K=1 factorization with fixed Gaussian priors
# ---------------------------------------------------------------------------

@dataclass
class GridFactorMoments:
    x_mean: np.ndarray          # (N,)
    w_mean: np.ndarray          # (D,)
    product_mean: np.ndarray    # (N, D): E[x_n * w_d]


def grid_factor_means(y, tau, x_prior_mean, x_prior_prec, w_prior_mean,
                      w_prior_prec, lo=-6.0, hi=8.0, n_grid=161) -> GridFactorMoments:
    """Exact posterior means for a fully observed K=1 model, integrating X
    analytically per row and W on a dense tensor grid (D <= 3)."""
    y = np.asarray(y, dtype=np.float64)
    n_rows, n_cols = y.shape
    if n_cols > 3:
        raise ValueError("grid oracle supports at most 3 columns")
    axes = np.linspace(lo, hi, n_grid)
    grids = np.meshgrid(*([axes] * n_cols), indexing="ij", sparse=True)

    sumsq = sum(g ** 2 for g in grids)
    log_post = sum(log_normal_pdf(g, m, p)
                   for g, m, p in zip(grids, w_prior_mean, w_prior_prec))
    log_post = np.broadcast_to(log_post, (n_grid,) * n_cols).copy()
    a_rows, b_rows = [], []
    for n in range(n_rows):
        lam, mx = x_prior_prec[n], x_prior_mean[n]
        a = lam + tau * sumsq
        b = lam * mx + tau * sum(y[n, d] * grids[d] for d in range(n_cols))
        c = lam * mx ** 2 + tau * np.sum(y[n] ** 2)
        log_post += (0.5 * (np.log(lam) - np.log(a)) + 0.5 * (b * b / a - c)
                     + 0.5 * n_cols * (np.log(tau) - LOG2PI))
        a_rows.append(a)
        b_rows.append(b)
    log_post -= log_post.max()
    weights = np.exp(log_post)
    weights /= weights.sum()

    w_mean = np.array([float(np.sum(weights * np.broadcast_to(grids[d], weights.shape)))
                       for d in range(n_cols)])
    x_mean = np.empty(n_rows)
    product_mean = np.empty((n_rows, n_cols))
    for n in range(n_rows):
        cond = b_rows[n] / a_rows[n]
        x_mean[n] = float(np.sum(weights * cond))
        for d in range(n_cols):
            product_mean[n, d] = float(np.sum(
                weights * cond * np.broadcast_to(grids[d], weights.shape)))
    return GridFactorMoments(x_mean, w_mean, product_mean)


def batch_mcse(samples: np.ndarray, n_batches: int = 25) -> float:
    """Batch-means Monte Carlo standard error of a chain mean."""
    n = len(samples) // n_batches * n_batches
    batches = samples[:n].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


# ---------------------------------------------------------------------------
# Extended-precision aggregation oracles
# ---------------------------------------------------------------------------

def _to_mp(arr):
    return mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in np.atleast_2d(arr)])


def _mp_col(vec):
    return mpmath.matrix([mpmath.mpf(float(v)) for v in vec])


def mp_gaussian_product(means, precisions, dps=60):
    """Precision-weighted Gaussian product in extended precision."""
    with mpmath.workdps(dps):
        k = len(means[0])
        total = mpmath.zeros(k, k)
        rhs = mpmath.zeros(k, 1)
        for mean, prec in zip(means, precisions):
            pm = _to_mp(prec)
            total += pm
            rhs += pm * _mp_col(mean)
        mu = mpmath.lu_solve(total, rhs)
        return (np.array([float(mu[i]) for i in range(k)]),
                np.array([[float(total[i, j]) for j in range(k)] for i in range(k)]))


def mp_staged_aggregate(mean1, prec1, other_means, other_precs, dps=60):
    """Uncorrected staged aggregation (all differences assumed SPD):

        P* = (2 - J) P1 + sum_j Pj
        m* = inv(P*) ((2 - J) P1 m1 + sum_j Pj mj)
    """
    with mpmath.workdps(dps):
        k = len(mean1)
        j_total = 1 + len(other_means)
        p1 = _to_mp(prec1)
        total = (2 - j_total) * p1
        rhs = (2 - j_total) * (p1 * _mp_col(mean1))
        for mean, prec in zip(other_means, other_precs):
            pm = _to_mp(prec)
            total += pm
            rhs += pm * _mp_col(mean)
        mu = mpmath.lu_solve(total, rhs)
        return (np.array([float(mu[i]) for i in range(k)]),
                np.array([[float(total[i, j]) for j in range(k)] for i in range(k)]))


def mp_ep_aggregate(means, precisions, prior_mean, prior_prec, dps=60):
    """Prior-corrected product: P* = sum Pj - (J-1) P0, mean accordingly."""
    with mpmath.workdps(dps):
        k = len(prior_mean)
        j_total = len(means)
        p0 = _to_mp(prior_prec)
        total = -(j_total - 1) * p0
        rhs = -(j_total - 1) * (p0 * _mp_col(prior_mean))
        for mean, prec in zip(means, precisions):
            pm = _to_mp(prec)
            total += pm
            rhs += pm * _mp_col(mean)
        mu = mpmath.lu_solve(total, rhs)
        return (np.array([float(mu[i]) for i in range(k)]),
                np.array([[float(total[i, j]) for j in range(k)] for i in range(k)]))


# ---------------------------------------------------------------------------
# Single-row reference forms of the batched sampler
# ---------------------------------------------------------------------------

def _chol_with_jitter(mat: np.ndarray, context: str) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK Cholesky factor of one SPD matrix, with the sampler's single
    jittered retry: the diagonal raised by ``CHOL_JITTER`` times its mean
    (at least 1)."""
    try:
        return np.linalg.cholesky(mat), mat
    except np.linalg.LinAlgError:
        k = mat.shape[0]
        jittered = mat + CHOL_JITTER * max(np.trace(mat) / k, 1.0) * np.eye(k)
        try:
            return np.linalg.cholesky(jittered), jittered
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky failed after jitter ({context})") from exc


def sample_row_conditional(y_vals: np.ndarray, partner_rows: np.ndarray, tau: float,
                           prior_mean: np.ndarray, prior_precision: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw one row from its Gaussian full conditional.

    With observed values y against partner rows w_d, the conditional is
    Normal(mu*, inv(L*)) with L* = prior_precision + tau * sum_d w_d w_d'
    and mu* = inv(L*) (prior_precision @ prior_mean + tau * sum_d y_d w_d).
    With no observations this is a draw from the prior itself.
    """
    y_vals = np.asarray(y_vals, dtype=np.float64)
    partner_rows = np.atleast_2d(np.asarray(partner_rows, dtype=np.float64))
    if y_vals.size == 0:
        partner_rows = partner_rows.reshape(0, prior_mean.size)
    precision = prior_precision + tau * partner_rows.T @ partner_rows
    b = prior_precision @ prior_mean + tau * partner_rows.T @ y_vals
    chol, precision = _chol_with_jitter(precision, "row conditional")
    mean = np.linalg.solve(precision, b)
    return mean + np.linalg.solve(chol.T, rng.standard_normal(prior_mean.size))


def gmm_component_assign(row_value: np.ndarray, weights: np.ndarray, means: np.ndarray,
                         precisions: np.ndarray) -> int:
    """Index of the mixture component with the highest responsibility
    (weight times Gaussian density) for the current row value; ties go to
    the lowest index."""
    x = np.asarray(row_value, dtype=np.float64)
    diffs = x[None, :] - means
    quad = np.einsum("ck,ckl,cl->c", diffs, precisions, diffs)
    _, logdet = np.linalg.slogdet(precisions)
    score = np.log(weights) + 0.5 * logdet - 0.5 * quad
    return int(np.argmax(score))


def load_chain(path) -> SampleChain:
    """The chain of a file written by ``SampleChain.save``."""
    with np.load(path) as npz:
        return SampleChain(npz["x_samples"], npz["w_samples"], npz["mu_x"], npz["lambda_x"],
                           npz["mu_w"], npz["lambda_w"],
                           GibbsConfig(**json.loads(str(npz["config"]))))


def chain_posterior_mean(chain) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise average of the retained factor samples."""
    if chain.x_samples.shape[0] == 0:
        raise ValidationError("empty chain")
    return chain.x_samples.mean(axis=0), chain.w_samples.mean(axis=0)


# ---------------------------------------------------------------------------
# Structured-missingness rescale factor by a fixed-length bisection
# ---------------------------------------------------------------------------

def structured_rescale_factor(probs: np.ndarray, target_fraction: float) -> float:
    """The scale s with mean(min(1, s * probs)) == target_fraction by 200
    bisection steps after doubling an upper bound from 1; no step stops
    early.  The package stops once the bracket can no longer shrink, which
    must give the same bits."""
    def frac(s):
        return float(np.minimum(1.0, s * probs).mean())

    lo, hi = 0.0, 1.0
    while frac(hi) < target_fraction:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if frac(mid) < target_fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Block extraction by a hand-built sort key
# ---------------------------------------------------------------------------

def extract_blocks_by_key(matrix: SparseMatrix, plan: PartitionPlan) -> dict:
    """Split entries into per-block matrices with block-local indices, each
    block's entries in (row, column) order."""
    inv_r, inv_c = plan.inverse_perms()
    row_block = np.searchsorted(plan.row_cuts, inv_r, side="right") - 1
    col_block = np.searchsorted(plan.col_cuts, inv_c, side="right") - 1
    # Per entry: its block-local row and column, and its column block.
    rows = (inv_r - plan.row_cuts[row_block])[matrix.rows]
    cols = (inv_c - plan.col_cuts[col_block])[matrix.cols]
    bj = col_block[matrix.cols]
    # Block (i, j) numbers its cells row-major from starts[i, j], after the
    # blocks above it and to its left, so every key is below n_rows * n_cols.
    heights, widths = np.diff(plan.row_cuts), np.diff(plan.col_cuts)
    starts = (plan.row_cuts[:-1, None] * plan.n_cols
              + heights[:, None] * plan.col_cuts[:-1]).ravel()
    key = starts[row_block[matrix.rows] * plan.n_col_blocks + bj]
    key += rows * widths[bj]
    key += cols
    order = np.argsort(key)
    bounds = np.append(np.searchsorted(key[order], starts), matrix.m)
    blocks = {}
    for b, (i, j) in enumerate(np.ndindex(plan.n_row_blocks, plan.n_col_blocks)):
        (r_lo, r_hi), (c_lo, c_hi) = plan.row_range(i), plan.col_range(j)
        sel = order[bounds[b]:bounds[b + 1]]
        blocks[(i, j)] = SparseMatrix(r_hi - r_lo, c_hi - c_lo, rows[sel], cols[sel],
                                      matrix.vals[sel])
    return blocks


# ---------------------------------------------------------------------------
# Sampler sufficient statistics by per-component bincount
# ---------------------------------------------------------------------------

def sorted_axis(matrix, axis: str):
    """Entries sorted by one axis ("row" or "col"), ties by the other: that
    axis's index per entry, the other axis's index, and the values."""
    if axis == "row":
        order = np.lexsort((matrix.cols, matrix.rows))
        major, minor = matrix.rows[order], matrix.cols[order]
    else:
        order = np.lexsort((matrix.rows, matrix.cols))
        major, minor = matrix.cols[order], matrix.rows[order]
    return major, minor, matrix.vals[order]


def bincount_suff_stats(partner, major, minor, vals, n):
    """Per-row sums of partner outer products and of value-weighted
    partners, one bincount pass per upper-triangle component and per
    linear component, mirrored into full matrices; rows without entries get
    exact zeros.  Over ``sorted_axis`` entries it sums in ascending-partner
    order."""
    k = partner.shape[1]
    gathered = partner[minor]
    suff = np.zeros((n, k, k))
    lin = np.zeros((n, k))
    for a, b in zip(*np.triu_indices(k)):
        suff[:, a, b] = np.bincount(major, weights=gathered[:, a] * gathered[:, b],
                                    minlength=n)
        suff[:, b, a] = suff[:, a, b]
    for a in range(k):
        lin[:, a] = np.bincount(major, weights=gathered[:, a] * vals, minlength=n)
    return suff, lin


def sequential_float32_gram(partner, major, minor, n):
    """Per-row sums of partner outer products as the sampler forms them in
    single precision: each product rounded to float32, the products of a
    row added one after another in float32 in ``major``/``minor`` order
    (ascending partner order over ``sorted_axis`` entries), then widened to
    float64 and mirrored into ``(n, K, K)``; rows without entries get exact
    zeros."""
    k = partner.shape[1]
    upper = np.triu_indices(k)
    terms = (partner[minor][:, upper[0]] * partner[minor][:, upper[1]]).astype(np.float32)
    bounds = np.searchsorted(major, np.arange(n + 1))
    suff = np.zeros((n, k, k))
    for row in range(n):
        if bounds[row] < bounds[row + 1]:
            # cumsum in float32 adds the terms in sequence
            packed = np.cumsum(terms[bounds[row]:bounds[row + 1]], axis=0)[-1]
            suff[row][upper] = suff[row][upper[::-1]] = packed
    return suff


# ---------------------------------------------------------------------------
# Per-row lambda-means and cluster fits (the batched code in ``approx`` must
# reproduce these bit for bit)
# ---------------------------------------------------------------------------

def lambda_means(samples: np.ndarray, lam: float, max_iters: int = 100):
    """Lambda-means on one cloud, one sample and one iteration at a time.

    Alternates assignment (spawning a center at any point farther than
    ``lam`` from every center, in input order) and center recomputation;
    empty clusters are dropped and a recomputed center within ``lam`` of an
    earlier one is folded into its nearest earlier center.  Stops when an
    iteration spawns nothing, merges nothing and keeps every assignment, or
    after ``max_iters`` iterations.  Returns the assignments, the centers,
    the iterations run and whether the last one changed nothing."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    centers = [samples.mean(axis=0)]
    assignments = np.zeros(samples.shape[0], dtype=np.int64)
    iterations, converged = 0, False
    for iterations in range(1, max_iters + 1):
        spawned = False
        new_assignments = np.empty_like(assignments)
        center_arr = np.array(centers)
        for idx, point in enumerate(samples):
            dists = np.linalg.norm(center_arr - point, axis=1)
            best = int(np.argmin(dists))
            if dists[best] > lam:
                centers.append(point.copy())
                center_arr = np.array(centers)
                best = len(centers) - 1
                spawned = True
            new_assignments[idx] = best
        sizes = np.bincount(new_assignments, minlength=len(centers))
        keep = np.flatnonzero(sizes > 0)
        remap = np.full(len(centers), -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        new_assignments = remap[new_assignments]
        centers = [samples[new_assignments == c].mean(axis=0) for c in range(keep.size)]
        merged_any = False
        merging = True
        while merging and len(centers) > 1:
            merging = False
            center_arr = np.array(centers)
            for later in range(1, len(centers)):
                dists = np.linalg.norm(center_arr[:later] - center_arr[later], axis=1)
                target = int(np.argmin(dists))
                if dists[target] <= lam:
                    new_assignments[new_assignments == later] = target
                    new_assignments[new_assignments > later] -= 1
                    centers = [samples[new_assignments == c].mean(axis=0)
                               for c in range(len(centers) - 1)]
                    merging = merged_any = True
                    break
        converged = (not spawned and not merged_any
                     and np.array_equal(new_assignments, assignments))
        assignments = new_assignments
        if converged:
            break
    return assignments, np.array(centers), iterations, converged


def median_pairwise_lambda(samples: np.ndarray, subsample: int = 100) -> float:
    """Median ``pdist`` distance of ``subsample`` evenly spaced samples, the
    s-th being sample ``floor(s * n / subsample)``, or of all n when n is no
    larger; 1.0 when not positive."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n = samples.shape[0]
    if n > subsample:
        samples = samples[[s * n // subsample for s in range(subsample)]]
    if samples.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(samples)))
    return med if med > 0 else 1.0


def fit_gaussian(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and ridge-regularized, symmetrized precision of one
    cloud."""
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / samples.shape[0]
    mean_diag = float(np.trace(cov)) / cov.shape[0]
    ridge = COV_RIDGE * mean_diag if mean_diag > 0 else COV_RIDGE
    precision = np.linalg.inv(cov + ridge * np.eye(cov.shape[0]))
    return mean, 0.5 * (precision + precision.T)


def fit_dominant_mode(samples: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian on the largest cluster (ties to the lowest index), or on the
    whole cloud when that cluster has fewer than K+2 samples."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    assignments = lambda_means(samples, lam)[0]
    sizes = np.bincount(assignments)
    best = int(np.argmax(sizes))
    if sizes[best] < samples.shape[1] + 2:
        return fit_gaussian(samples)
    return fit_gaussian(samples[assignments == best])


def fit_gmm(samples: np.ndarray, lam: float, top_n: int = 3):
    """Mixture over the ``top_n`` largest clusters of at least K+2 samples
    (largest first, ties to the lower index), weighted by size; the whole
    cloud as one component when none qualifies.  Returns (weights, means,
    precisions)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    assignments = lambda_means(samples, lam)[0]
    sizes = np.bincount(assignments)
    order = np.lexsort((np.arange(sizes.size), -sizes))[:top_n]
    kept = [c for c in order if sizes[c] >= samples.shape[1] + 2]
    if not kept:
        mean, precision = fit_gaussian(samples)
        return np.array([1.0]), mean[None, :], precision[None, :, :]
    fits = [fit_gaussian(samples[assignments == c]) for c in kept]
    weights = sizes[kept].astype(np.float64)
    weights /= weights.sum()
    return weights, np.array([m for m, _ in fits]), np.array([p for _, p in fits])


def gmm_set(rows) -> PosteriorSet:
    """Stack one-row mixtures ``(weights, means, precisions)`` into a padded
    set: each row's components fill its first slots, each precision
    symmetrized, and the slots past them hold weight 0, mean 0 and the
    identity precision."""
    counts = [len(r[0]) for r in rows]
    n, c, k = len(rows), max(counts), np.shape(rows[0][1])[-1]
    weights, means = np.zeros((n, c)), np.zeros((n, c, k))
    precisions = np.tile(np.eye(k), (n, c, 1, 1))
    for i, (w, m, p) in enumerate(rows):
        p = np.asarray(p, dtype=np.float64)
        weights[i, :counts[i]], means[i, :counts[i]] = w, m
        precisions[i, :counts[i]] = 0.5 * (p + np.swapaxes(p, -1, -2))
    return PosteriorSet(means, precisions, weights)


def write_posterior_file(path, posteriors: PosteriorSet, **header) -> None:
    """Write README's posterior file schema straight to ``path`` with
    ``np.savez``, checking nothing: the JSON header (kind, k, then
    ``header``'s fields), a mixture's padded weights, the means and the
    upper triangles of the precisions, row by row, each triangle's entries
    row-major.  A mixture keeps only its slots of positive weight."""
    means, precisions, weights = posteriors.means, posteriors.precisions, posteriors.weights
    k = means.shape[-1]
    arrays = {"header": np.array(json.dumps(
        {"kind": "gaussian" if weights is None else "gmm", "k": k, **header}))}
    if weights is not None:
        arrays["weights"] = weights
        slots = [(r, c) for r in range(weights.shape[0]) for c in range(weights.shape[1])
                 if weights[r, c] > 0]
        means = np.array([means[r, c] for r, c in slots]).reshape(-1, k)
        precisions = np.array([precisions[r, c] for r, c in slots]).reshape(-1, k, k)
    arrays["means"] = means
    # Stored in column-major memory order, as np.savez stores the package's
    # fancy-indexed packing; np.load reads either order back the same.
    arrays["prec_ut"] = np.asfortranarray(np.array(
        [[p[i, j] for i in range(k) for j in range(i, k)] for p in precisions]
    ).reshape(len(precisions), -1))
    np.savez(path, **arrays)


def fit_rows(samples: np.ndarray, kind: str, lam_policy="median-pairwise",
             top_n: int = 3) -> PosteriorSet:
    """``approx.fit_rows`` with the dm and gmm fits made row by row, each
    row's default lambda from its evenly spaced samples."""
    samples = np.asarray(samples, dtype=np.float64)
    if kind == "mm":
        return approx_fit_rows(samples, kind, lam_policy, top_n)

    def row_lambda(i):
        if lam_policy == "median-pairwise":
            return median_pairwise_lambda(samples[:, i, :])
        return float(lam_policy)

    rows = range(samples.shape[1])
    if kind == "dm":
        means, precisions = zip(*[fit_dominant_mode(samples[:, i, :], row_lambda(i))
                                  for i in rows])
        return PosteriorSet(np.array(means), np.array(precisions))
    return gmm_set([fit_gmm(samples[:, i, :], row_lambda(i), top_n=top_n) for i in rows])


# ---------------------------------------------------------------------------
# Exhaustive latent-dimension alignment
# ---------------------------------------------------------------------------

def exhaustive_alignment(a: np.ndarray, b: np.ndarray):
    """Best permutation/signs maximizing the summed |column correlation|."""
    k = a.shape[1]
    corr = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            sa, sb = a[:, i].std(), b[:, j].std()
            if sa > 0 and sb > 0:
                corr[i, j] = np.corrcoef(a[:, i], b[:, j])[0, 1]
    best_perm, best_score = None, -np.inf
    for perm in itertools.permutations(range(k)):
        score = sum(abs(corr[i, perm[i]]) for i in range(k))
        if score > best_score:
            best_score, best_perm = score, perm
    signs = np.array([1 if corr[i, best_perm[i]] >= 0 else -1 for i in range(k)])
    return np.array(best_perm), signs


# ---------------------------------------------------------------------------
# Product-density identity check (2x2 grid, K=1, fixed standard-normal priors)
# ---------------------------------------------------------------------------

def _logn(y, mean, tau):
    return 0.5 * (math.log(tau) - LOG2PI) - 0.5 * tau * (y - mean) ** 2


@dataclass
class IdentityResolution:
    """Grid resolution bundle: route A feeds the staged densities, route B
    independently re-evaluates every divided-away marginal at a different
    resolution."""

    grid_a: int = 200
    grid_b: int = 300
    nodes_a: int = 701
    nodes_b: int = 1101
    half_width: float = 8.0


class ProductDensityIdentity:
    """Numerically evaluates the staged decomposition of a 4x4, K=1 joint
    posterior over a 2x2 grid and compares it with the direct joint density.

    Every stage posterior is normalized by its own grid-integrated constant;
    every propagated marginal that the decomposition divides away is
    evaluated twice, through two independently-resolved quadrature routes, so
    the log-difference to the joint is constant across evaluation points only
    if the decomposition (which factor, which divisor) is exactly right.
    """

    def __init__(self, y: np.ndarray, tau: float, res: IdentityResolution):
        assert y.shape == (4, 4)
        self.y = np.asarray(y, dtype=np.float64)
        self.tau = float(tau)
        self.res = res
        b = res.half_width
        self.axis_a = np.linspace(-b, b, res.grid_a)
        self.axis_b = np.linspace(-b, b, res.grid_b)
        self.nodes_a, self.weights_a = self._latent_rule(res.nodes_a)
        self.nodes_b, self.weights_b = self._latent_rule(res.nodes_b)
        self._prepare()

    def _latent_rule(self, n):
        """Trapezoid nodes/weights for the integrated scalar, with its
        standard-normal prior folded into the weights."""
        nodes = np.linspace(-self.res.half_width, self.res.half_width, n)
        weights = np.full(n, nodes[1] - nodes[0])
        weights[0] = weights[-1] = weights[0] / 2
        return nodes, weights * np.exp(log_normal_pdf(nodes, 0.0, 1.0))

    def _pair_integral(self, y0, y1, c0, c1, route):
        """int N(t;0,1) N(y0; t c0, 1/tau) N(y1; t c1, 1/tau) dt on grids of
        the coefficients, accumulated in node chunks."""
        nodes, weights = ((self.nodes_a, self.weights_a) if route == "a"
                          else (self.nodes_b, self.weights_b))
        c0 = np.asarray(c0, dtype=np.float64)
        c1 = np.asarray(c1, dtype=np.float64)
        out = np.zeros(np.broadcast_shapes(c0.shape, c1.shape))
        for lo in range(0, nodes.size, 64):
            t = nodes[lo:lo + 64]
            vals = np.exp(_logn(y0, t * c0[..., None], self.tau)
                          + _logn(y1, t * c1[..., None], self.tau))
            out = out + vals @ weights[lo:lo + 64]
        return out

    @staticmethod
    def _trapz2(values, axis):
        h = axis[1] - axis[0]
        w = np.full(axis.size, h)
        w[0] = w[-1] = h / 2
        return float(np.einsum("u,v,uv->", w, w, values))

    def _grid2(self, axis):
        return axis[:, None], axis[None, :]

    def _prepare(self):
        y, tau = self.y, self.tau
        ga, gb = self.axis_a, self.axis_b

        # Stage I marginal of W-block 1 on the route-A w-grid:
        # g11(w) = N2(w; 0, I) * prod_{n in rows 0,1} I_n(w).
        w0, w1 = self._grid2(ga)
        prior2 = np.exp(log_normal_pdf(w0, 0, 1) + log_normal_pdf(w1, 0, 1))
        self.pw1_grid_a = prior2 * self._pair_integral(y[0, 0], y[0, 1], w0, w1, "a") \
            * self._pair_integral(y[1, 0], y[1, 1], w0, w1, "a")
        self.z11 = self._trapz2(self.pw1_grid_a, ga)
        self.pw1_grid_a /= self.z11

        # Same object on the route-B grid.
        w0b, w1b = self._grid2(gb)
        prior2b = np.exp(log_normal_pdf(w0b, 0, 1) + log_normal_pdf(w1b, 0, 1))
        pw1_b = prior2b * self._pair_integral(y[0, 0], y[0, 1], w0b, w1b, "b") \
            * self._pair_integral(y[1, 0], y[1, 1], w0b, w1b, "b")
        self.z11_b = self._trapz2(pw1_b, gb)
        self.pw1_grid_b = pw1_b / self.z11_b

        # Stage I marginal of X-block 1 (columns integrated out), both routes.
        x0, x1 = self._grid2(ga)
        px_prior = np.exp(log_normal_pdf(x0, 0, 1) + log_normal_pdf(x1, 0, 1))
        self.px1_grid_a = px_prior * self._pair_integral(y[0, 0], y[1, 0], x0, x1, "a") \
            * self._pair_integral(y[0, 1], y[1, 1], x0, x1, "a")
        zx = self._trapz2(self.px1_grid_a, ga)
        assert abs(zx / self.z11 - 1) < 1e-8, "stage-I normalizers must agree"
        self.px1_grid_a /= zx
        x0b, x1b = self._grid2(gb)
        px_priorb = np.exp(log_normal_pdf(x0b, 0, 1) + log_normal_pdf(x1b, 0, 1))
        px1_b = px_priorb * self._pair_integral(y[0, 0], y[1, 0], x0b, x1b, "b") \
            * self._pair_integral(y[0, 1], y[1, 1], x0b, x1b, "b")
        self.px1_grid_b = px1_b / self._trapz2(px1_b, gb)

        # Stage II normalizers: rows 2..3 against W-block 1, and columns
        # 2..3 against X-block 1, on both routes.
        lik_rows23 = self._pair_integral(y[2, 0], y[2, 1], w0, w1, "a") \
            * self._pair_integral(y[3, 0], y[3, 1], w0, w1, "a")
        self.z21 = self._trapz2(self.pw1_grid_a * lik_rows23, ga)
        lik_rows23_b = self._pair_integral(y[2, 0], y[2, 1], w0b, w1b, "b") \
            * self._pair_integral(y[3, 0], y[3, 1], w0b, w1b, "b")
        self.z21_b = self._trapz2(self.pw1_grid_b * lik_rows23_b, gb)

        lik_cols23 = self._pair_integral(y[0, 2], y[1, 2], x0, x1, "a") \
            * self._pair_integral(y[0, 3], y[1, 3], x0, x1, "a")
        self.z12 = self._trapz2(self.px1_grid_a * lik_cols23, ga)
        lik_cols23_b = self._pair_integral(y[0, 2], y[1, 2], x0b, x1b, "b") \
            * self._pair_integral(y[0, 3], y[1, 3], x0b, x1b, "b")
        self.z12_b = self._trapz2(self.px1_grid_b * lik_cols23_b, gb)

        # Stage III prior grids and normalizer, route A only (the constant
        # does not affect the spread; divisors are re-evaluated pointwise).
        self.px2_grid_a = self._stage3_prior_grid(self.pw1_grid_a, ga,
                                                  rows=(2, 3), cols=(0, 1),
                                                  latent="w") / self.z21
        self.pw2_grid_a = self._stage3_prior_grid(self.px1_grid_a, ga,
                                                  rows=(0, 1), cols=(2, 3),
                                                  latent="x") / self.z12
        self.z22 = self._stage3_normalizer()

    def _cellw(self, axis):
        h = axis[1] - axis[0]
        w = np.full(axis.size, h)
        w[0] = w[-1] = h / 2
        return w

    def _stage3_prior_grid(self, marg_grid, axis, rows, cols, latent):
        """Unnormalized stage-II joint marginal on the grid of the propagated
        side, via one large quadrature-weighted matrix product."""
        y, tau = self.y, self.tau
        g = axis
        cw = self._cellw(axis)
        weighted = marg_grid * np.outer(cw, cw)
        if latent == "w":
            # P(xa, xb) = sum_{u,v} weighted[u,v] * prod over block entries
            f_a0 = np.exp(_logn(y[rows[0], cols[0]], np.outer(g, g), tau))
            f_a1 = np.exp(_logn(y[rows[0], cols[1]], np.outer(g, g), tau))
            f_b0 = np.exp(_logn(y[rows[1], cols[0]], np.outer(g, g), tau))
            f_b1 = np.exp(_logn(y[rows[1], cols[1]], np.outer(g, g), tau))
        else:
            f_a0 = np.exp(_logn(y[rows[0], cols[0]], np.outer(g, g), tau))
            f_a1 = np.exp(_logn(y[rows[1], cols[0]], np.outer(g, g), tau))
            f_b0 = np.exp(_logn(y[rows[0], cols[1]], np.outer(g, g), tau))
            f_b1 = np.exp(_logn(y[rows[1], cols[1]], np.outer(g, g), tau))
        n = g.size
        fa = (f_a0[:, :, None] * f_a1[:, None, :]).reshape(n, n * n)
        fb = (f_b0[:, :, None] * f_b1[:, None, :]).reshape(n, n * n)
        inner = (fa * weighted.ravel()) @ fb.T
        prior = np.exp(log_normal_pdf(g, 0, 1))
        return np.outer(prior, prior) * inner

    def _stage3_normalizer(self):
        y, tau, g = self.y, self.tau, self.axis_a
        n = g.size
        cw = self._cellw(g)
        pw = self.pw2_grid_a * np.outer(cw, cw)
        h_a0 = np.exp(_logn(y[2, 2], np.outer(g, g), tau))
        h_a1 = np.exp(_logn(y[2, 3], np.outer(g, g), tau))
        h_b0 = np.exp(_logn(y[3, 2], np.outer(g, g), tau))
        h_b1 = np.exp(_logn(y[3, 3], np.outer(g, g), tau))
        ha = (h_a0[:, :, None] * h_a1[:, None, :]).reshape(n, n * n)
        hb = (h_b0[:, :, None] * h_b1[:, None, :]).reshape(n, n * n)
        inner = (ha * pw.ravel()) @ hb.T
        px = self.px2_grid_a * np.outer(cw, cw)
        return float(np.sum(px * inner))

    # -- point evaluations ---------------------------------------------------

    def _log_block_lik(self, rows, cols, x_pair, w_pair):
        total = 0.0
        for a, n in enumerate(rows):
            for b, d in enumerate(cols):
                total += _logn(self.y[n, d], x_pair[a] * w_pair[b], self.tau)
        return total

    @staticmethod
    def _log_prior2(pair):
        return float(np.sum(log_normal_pdf(np.asarray(pair), 0.0, 1.0)))

    def _log_pw1(self, w_pair, route):
        z = self.z11 if route == "a" else self.z11_b
        val = math.exp(self._log_prior2(w_pair)) \
            * float(self._pair_integral(self.y[0, 0], self.y[0, 1],
                                        w_pair[0], w_pair[1], route)) \
            * float(self._pair_integral(self.y[1, 0], self.y[1, 1],
                                        w_pair[0], w_pair[1], route))
        return math.log(val) - math.log(z)

    def _log_px1(self, x_pair, route):
        z = self.z11 if route == "a" else self.z11_b
        val = math.exp(self._log_prior2(x_pair)) \
            * float(self._pair_integral(self.y[0, 0], self.y[1, 0],
                                        x_pair[0], x_pair[1], route)) \
            * float(self._pair_integral(self.y[0, 1], self.y[1, 1],
                                        x_pair[0], x_pair[1], route))
        return math.log(val) - math.log(z)

    def _log_stage3_prior(self, pair, which, route):
        """Marginal of a stage-II joint at one point of the propagated side,
        by 2-d quadrature over the other side."""
        y, tau = self.y, self.tau
        if route == "a":
            axis, marg, z_prev = self.axis_a, (self.pw1_grid_a if which == "x2"
                                               else self.px1_grid_a), \
                (self.z21 if which == "x2" else self.z12)
        else:
            axis, marg, z_prev = self.axis_b, (self.pw1_grid_b if which == "x2"
                                               else self.px1_grid_b), \
                (self.z21_b if which == "x2" else self.z12_b)
        u, v = self._grid2(axis)
        if which == "x2":
            lik = np.exp(_logn(y[2, 0], pair[0] * u, tau) + _logn(y[2, 1], pair[0] * v, tau)
                         + _logn(y[3, 0], pair[1] * u, tau) + _logn(y[3, 1], pair[1] * v, tau))
        else:
            lik = np.exp(_logn(y[0, 2], u * pair[0], tau) + _logn(y[0, 3], u * pair[1], tau)
                         + _logn(y[1, 2], v * pair[0], tau) + _logn(y[1, 3], v * pair[1], tau))
        val = self._log_prior2(pair) + math.log(self._trapz2(marg * lik, axis))
        return val - math.log(z_prev)

    def log_joint(self, x, w):
        total = self._log_prior2(x[:2]) + self._log_prior2(x[2:])
        total += self._log_prior2(w[:2]) + self._log_prior2(w[2:])
        for rows, cols in (((0, 1), (0, 1)), ((0, 1), (2, 3)),
                           ((2, 3), (0, 1)), ((2, 3), (2, 3))):
            total += self._log_block_lik(rows, cols,
                                         [x[rows[0]], x[rows[1]]],
                                         [w[cols[0]], w[cols[1]]])
        return total

    def log_decomposition(self, x, w):
        """Log of the staged product-density right-hand side, with every
        divided-away marginal evaluated through route B."""
        x1, x2, w1, w2 = x[:2], x[2:], w[:2], w[2:]
        f1 = (self._log_prior2(x1) + self._log_prior2(w1)
              + self._log_block_lik((0, 1), (0, 1), x1, w1) - math.log(self.z11))
        f2 = (self._log_pw1(w1, "a") + self._log_prior2(x2)
              + self._log_block_lik((2, 3), (0, 1), x2, w1) - math.log(self.z21)
              - self._log_pw1(w1, "b"))
        f3 = (self._log_px1(x1, "a") + self._log_prior2(w2)
              + self._log_block_lik((0, 1), (2, 3), x1, w2) - math.log(self.z12)
              - self._log_px1(x1, "b"))
        f4 = (self._log_stage3_prior(x2, "x2", "a")
              + self._log_stage3_prior(w2, "w2", "a")
              + self._log_block_lik((2, 3), (2, 3), x2, w2) - math.log(self.z22)
              - self._log_stage3_prior(x2, "x2", "b")
              - self._log_stage3_prior(w2, "w2", "b"))
        return f1 + f2 + f3 + f4

    def spread(self, points: np.ndarray) -> float:
        """Max - min of (decomposition - joint) over evaluation points."""
        diffs = [self.log_decomposition(p[:4], p[4:]) - self.log_joint(p[:4], p[4:])
                 for p in points]
        return float(np.max(diffs) - np.min(diffs))
