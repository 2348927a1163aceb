"""Gibbs sampler for Gaussian matrix factorization with normal-Wishart
hyperpriors.

The model: each observed entry y_nd ~ Normal(x_n' w_d, 1/tau) with row
vectors x_n, w_d of dimension K.  Row priors are either a shared Gaussian
whose (mean, precision) hyperparameters carry a normal-Wishart prior and are
resampled every sweep, or per-row Gaussians / Gaussian mixtures handed in
from an earlier inference stage.  Hyperparameters of a side are sampled only
when that side's prior is not handed in.

Within a sweep all rows of one side are conditionally independent given the
other side, so the implementation updates a full side with batched linear
algebra.

A side update needs, per row, the sufficient statistics sum_d w_d w_d' and
sum_d y_d w_d over that row's observed partners.  ``gibbs_run`` builds, once
per block and per side, a CSR pair over (rows x partners): an indicator
matrix with data 1 and a value matrix with data y, each row's partners in
ascending order.  Each side update is then two sparse products: the
indicator times the per-partner upper-triangle outer products, mirrored into
full K x K matrices, and the value matrix times the partner rows.  The fixed
partner order fixes the summation order, so the statistics do not depend on
the order of the input entries.

Each row's conditional precision is factored once, by one stacked Cholesky
over the side, and the row is drawn with one forward and one back
substitution against that factor, each a K-step loop over all rows.  A
precision that does not factor is retried alone with diagonal jitter, so
only that row's draw changes.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .approx import PosteriorSet, _triangles
from .artifacts import write_atomic
from .data import SparseMatrix
from .errors import ArtifactError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

# Relative diagonal jitter applied once when a conditional precision fails to
# factorize.
CHOL_JITTER = 1e-10


@dataclass
class NormalWishartPrior:
    """Conjugate prior over a side's Gaussian (mean, precision)."""

    mu0: np.ndarray
    beta0: float
    w0: np.ndarray
    nu0: float
    w0_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mu0 = np.asarray(self.mu0, dtype=np.float64)
        self.w0 = np.asarray(self.w0, dtype=np.float64)
        k = self.mu0.size
        if self.w0.shape != (k, k):
            raise ValidationError("w0 shape does not match mu0")
        if self.beta0 <= 0:
            raise ValidationError("beta0 must be positive")
        if self.nu0 < k:
            raise ValidationError("nu0 must be >= K")
        try:
            np.linalg.cholesky(self.w0)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("w0 must be symmetric positive definite") from exc
        self.w0_inv = np.linalg.inv(self.w0)

    @property
    def k(self) -> int:
        return self.mu0.size

    @classmethod
    def default(cls, n_factors: int) -> "NormalWishartPrior":
        return cls(np.zeros(n_factors), 2.0, np.eye(n_factors), float(n_factors))


@dataclass
class GibbsConfig:
    """Sweep counts, thinning and RNG seed for one sampler run."""

    n_factors: int
    tau: float
    n_iters: int = 1200
    burn_in: int = 800
    thin: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValidationError("n_factors must be >= 1")
        if self.tau <= 0:
            raise ValidationError("tau must be positive")
        if not self.n_iters > self.burn_in >= 0:
            raise ValidationError("need n_iters > burn_in >= 0")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if (self.n_iters - self.burn_in) % self.thin:
            raise ValidationError("thin must divide n_iters - burn_in")

    @property
    def n_samples(self) -> int:
        return (self.n_iters - self.burn_in) // self.thin


@dataclass
class SampleChain:
    """Retained post-burn-in samples of one sampler run."""

    x_samples: np.ndarray      # (S, N, K)
    w_samples: np.ndarray      # (S, D, K)
    mu_x: np.ndarray           # (S, K)
    lambda_x: np.ndarray       # (S, K, K)
    mu_w: np.ndarray
    lambda_w: np.ndarray
    config: GibbsConfig

    @property
    def n_samples(self) -> int:
        return self.x_samples.shape[0]

    def save(self, path) -> None:
        write_atomic(path, lambda fh: np.savez(
            fh, x_samples=self.x_samples, w_samples=self.w_samples,
            mu_x=self.mu_x, lambda_x=self.lambda_x, mu_w=self.mu_w, lambda_w=self.lambda_w,
            config=np.array(json.dumps(self.config.__dict__))))

    @classmethod
    def load(cls, path) -> "SampleChain":
        try:
            with np.load(path) as npz:
                config = GibbsConfig(**json.loads(str(npz["config"])))
                return cls(npz["x_samples"], npz["w_samples"], npz["mu_x"],
                           npz["lambda_x"], npz["mu_w"], npz["lambda_w"], config)
        except FileNotFoundError as exc:
            raise ArtifactError(f"chain file not found: {path}") from exc
        except (zipfile.BadZipFile, OSError, KeyError, ValueError, EOFError) as exc:
            raise ArtifactError(f"corrupt chain file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Elementary conditionals
# ---------------------------------------------------------------------------

def _chol_with_jitter(mat: np.ndarray, context: str) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of one SPD matrix, with a single jittered retry."""
    try:
        return np.linalg.cholesky(mat), mat
    except np.linalg.LinAlgError:
        k = mat.shape[0]
        bump = CHOL_JITTER * max(np.trace(mat) / k, 1.0)
        jittered = mat + bump * np.eye(k)
        logger.warning("jittered diagonal by %.3e (%s)", bump, context)
        try:
            return np.linalg.cholesky(jittered), jittered
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky failed after jitter ({context})") from exc


def _wishart_draw(rng: np.random.Generator, scale: np.ndarray, df: float) -> np.ndarray:
    """Lower-triangular factor F of a Wishart(scale, df) draw F F' via the
    Bartlett decomposition (df > K - 1): F = chol(scale) times the Bartlett
    factor, whose diagonal is positive, so F is the draw's Cholesky factor."""
    k = scale.shape[0]
    _, _, diag, lower = _triangles(k)
    chol = np.linalg.cholesky(scale)
    bart = np.zeros((k, k))
    bart[diag] = np.sqrt(rng.chisquare(df - np.arange(k)))
    if k > 1:
        bart[lower] = rng.standard_normal(k * (k - 1) // 2)
    return chol @ bart


def sample_hyper_normal_wishart(rows: np.ndarray, prior: NormalWishartPrior,
                                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw shared (mu, Lambda) given the side's current rows.

    Uses the centered scatter S = (1/N) sum (x_i - xbar)(x_i - xbar)' in the
    scale update:
        inv(W*) = inv(w0) + N S + (beta0 N / (beta0 + N)) (mu0 - xbar)(mu0 - xbar)'
    then Lambda ~ Wishart(W*, nu0 + N) and mu ~ Normal(mu*, inv((beta0 + N) Lambda))
    with mu* = (beta0 mu0 + N xbar) / (beta0 + N).  Lambda = F F' with F the
    Wishart draw's lower factor, so mu = mu* + solve(F', z) / sqrt(beta0 + N).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[0]
    if n < 1:
        raise ValidationError("need at least one row")
    xbar = rows.mean(axis=0)
    centered = rows - xbar
    scatter = centered.T @ centered / n
    beta_star = prior.beta0 + n
    mu_star = (prior.beta0 * prior.mu0 + n * xbar) / beta_star
    diff = prior.mu0 - xbar
    winv_star = (prior.w0_inv + n * scatter
                 + (prior.beta0 * n / beta_star) * np.outer(diff, diff))
    winv_star = 0.5 * (winv_star + winv_star.T)
    try:
        w_star = np.linalg.inv(winv_star)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("posterior Wishart scale not invertible") from exc
    w_star = 0.5 * (w_star + w_star.T)
    try:
        factor = _wishart_draw(rng, w_star, prior.nu0 + n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("posterior Wishart scale not positive definite") from exc
    mu = mu_star + np.linalg.solve(factor.T, rng.standard_normal(prior.k)) / np.sqrt(beta_star)
    return mu, factor @ factor.T


def log_likelihood(matrix: SparseMatrix, x: np.ndarray, w: np.ndarray,
                   tau: float) -> float:
    """Gaussian log-likelihood of the observed entries under factors (x, w)."""
    preds = np.einsum("mk,mk->m", x[matrix.rows], w[matrix.cols])
    resid = matrix.vals - preds
    return float(0.5 * matrix.m * np.log(tau / (2.0 * np.pi))
                 - 0.5 * tau * np.dot(resid, resid))


# ---------------------------------------------------------------------------
# Batched side updates
# ---------------------------------------------------------------------------

def _side_matrices(matrix: SparseMatrix):
    """Per side, the (indicator, value) CSR pair over (rows x partners):
    first the X side (rows x columns), then the W side (columns x rows).
    Each row's partners are in ascending order."""
    val_x = sparse.csr_array((matrix.vals, (matrix.rows, matrix.cols)),
                             shape=(matrix.n_rows, matrix.n_cols))
    val_w = val_x.T.tocsr()
    pairs = []
    for val in (val_x, val_w):
        val.sort_indices()
        ind = sparse.csr_array((np.ones(val.nnz), val.indices, val.indptr),
                               shape=val.shape)
        pairs.append((ind, val))
    return pairs


def _side_stats(ind, val, partner):
    """Per-row sums of partner outer products and of value-weighted partners.

    The indicator matrix sums the upper triangles of the per-partner outer
    products, which are then mirrored; rows without entries get exact zeros.
    """
    n, k = ind.shape[0], partner.shape[1]
    (upper_r, upper_c), slot, _, _ = _triangles(k)
    packed = ind @ (partner[:, upper_r] * partner[:, upper_c])
    return packed[:, slot].reshape(n, k, k), val @ partner


def _batched_chol(precisions: np.ndarray, context: str) -> np.ndarray:
    """Stacked Cholesky factors; when the stack fails, each matrix is
    factored alone, with the jittered retry of ``_chol_with_jitter``."""
    try:
        return np.linalg.cholesky(precisions)
    except np.linalg.LinAlgError:
        return np.array([_chol_with_jitter(p, f"{context}, row {i}")[0]
                         for i, p in enumerate(precisions)])


def _chol_draw(chols: np.ndarray, noise: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per row, inv(L') (inv(L) b + z) for the lower factor L of precision
    P = L L': a draw from Normal(inv(P) b, inv(P)) given the standard-normal
    ``noise`` z.  Without ``b`` it is the zero-mean draw inv(L') z.

    Each substitution is a K-step loop over all rows at once; the factors
    are laid out (K, K, rows) so that every step reads contiguous rows.
    """
    fac = np.ascontiguousarray(np.moveaxis(chols, 0, -1))
    k = fac.shape[0]
    out = np.array(noise.T, order="C")
    if b is not None:
        fwd = np.array(b.T, order="C")
        for i in range(k):
            fwd[i] /= fac[i, i]
            fwd[i + 1:] -= fac[i + 1:, i] * fwd[i]
        out += fwd
    for i in range(k - 1, -1, -1):
        out[i] /= fac[i, i]
        out[:i] -= fac[i, :i] * out[i]
    return np.ascontiguousarray(out.T)


def _sample_side(rng, partner, ind, val, tau, prior_precs, prior_b, context):
    """Resample every row of one side from its Gaussian full conditional.

    ``ind`` and ``val`` are the side's CSR pair from ``_side_matrices``.
    ``prior_precs`` broadcasts over rows when the prior is shared;
    ``prior_b`` is the per-row (or shared) prior_precision @ prior_mean term.
    """
    n, k = ind.shape[0], partner.shape[1]
    suff, lin = _side_stats(ind, val, partner)
    chols = _batched_chol(prior_precs + tau * suff, context)
    noise = rng.standard_normal((n, k))
    return _chol_draw(chols, noise, prior_b + tau * lin)


class _SideState:
    """Per-side prior bookkeeping for the sweep loop: the shared hyperprior
    when ``prior`` is None, else the handed-in per-row Gaussians or
    mixtures.  A mixture's empty slots have log weight -inf and, with the
    identity precision, log-determinant 0, so they are never selected."""

    def __init__(self, prior: PosteriorSet | None, n_rows: int, name: str):
        self.prior = prior
        if prior is None:
            return
        if prior.n_rows != n_rows:
            raise ValidationError(
                f"propagated {name} prior covers {prior.n_rows} rows, expected {n_rows}")
        if prior.kind == "gaussian":
            self.prior_b = np.einsum("rkl,rl->rk", prior.precisions, prior.means)
        else:
            with np.errstate(divide="ignore"):
                self.log_weights = np.log(prior.weights)
            self.logdet = np.linalg.slogdet(prior.precisions)[1]

    def select(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the (mean, precision) of the maximum-responsibility
        mixture component at the current row values."""
        means, precs = self.prior.means, self.prior.precisions
        diffs = values[:, None, :] - means
        quad = np.einsum("rck,rckl,rcl->rc", diffs, precs, diffs)
        chosen = np.argmax(self.log_weights + 0.5 * self.logdet - 0.5 * quad, axis=1)
        rows = np.arange(values.shape[0])
        return means[rows, chosen], precs[rows, chosen]

    def prior_terms(self, values, hyper_mu, hyper_lambda):
        if self.prior is None:
            return hyper_lambda, hyper_lambda @ hyper_mu
        if self.prior.kind == "gaussian":
            return self.prior.precisions, self.prior_b
        means, precs = self.select(values)
        return precs, np.einsum("rkl,rl->rk", precs, means)

    def initial_values(self, rng, n_rows, k, nw_prior):
        if self.prior is None:
            means = np.broadcast_to(nw_prior.mu0, (n_rows, k))
            precs = np.broadcast_to(nw_prior.nu0 * nw_prior.w0, (n_rows, k, k))
        elif self.prior.kind == "gaussian":
            means, precs = self.prior.means, self.prior.precisions
        else:
            # A component drawn by weight per row.
            weights = self.prior.weights
            cum = np.cumsum(weights, axis=1)
            chosen = np.sum(cum < rng.random((n_rows, 1)), axis=1)
            chosen = np.minimum(chosen, weights.shape[1] - 1)
            rows = np.arange(n_rows)
            means, precs = self.prior.means[rows, chosen], self.prior.precisions[rows, chosen]
        chols = np.linalg.cholesky(precs)
        return means + _chol_draw(chols, rng.standard_normal((n_rows, k)))


def gibbs_run(subset: SparseMatrix, priors: tuple[PosteriorSet | None, PosteriorSet | None],
              nw_prior: NormalWishartPrior, config: GibbsConfig) -> SampleChain:
    """Run the blocked Gibbs sampler on one data block.

    ``priors`` is (X prior, W prior): each a ``PosteriorSet`` of per-row
    Gaussians or mixtures handed in from an earlier stage, or None for the
    shared normal-Wishart hyperprior.  Each sweep samples the shared
    hyperparameters of every side without a handed-in prior, then all X
    rows, then all W rows.  Post-burn-in sweeps are retained at
    the configured thinning.  Numerical failures abort with the sweep and
    side in the message.
    """
    if subset.m == 0:
        raise ValidationError("subset has no observations")
    k = config.n_factors
    if nw_prior.k != k:
        raise ValidationError("normal-Wishart prior dimension != n_factors")
    rng = np.random.default_rng(config.seed)

    (x_ind, x_val), (w_ind, w_val) = _side_matrices(subset)

    x_prior, w_prior = priors
    x_state = _SideState(x_prior, subset.n_rows, "X")
    w_state = _SideState(w_prior, subset.n_cols, "W")

    x = x_state.initial_values(rng, subset.n_rows, k, nw_prior)
    w = w_state.initial_values(rng, subset.n_cols, k, nw_prior)
    # Constant placeholder hyperparameters for propagated sides.
    mu_x, lambda_x = nw_prior.mu0.copy(), nw_prior.nu0 * nw_prior.w0
    mu_w, lambda_w = nw_prior.mu0.copy(), nw_prior.nu0 * nw_prior.w0

    n_keep = config.n_samples
    kept_x = np.empty((n_keep, subset.n_rows, k))
    kept_w = np.empty((n_keep, subset.n_cols, k))
    kept_mu_x = np.empty((n_keep, k))
    kept_lambda_x = np.empty((n_keep, k, k))
    kept_mu_w = np.empty((n_keep, k))
    kept_lambda_w = np.empty((n_keep, k, k))

    kept = 0
    for sweep in range(1, config.n_iters + 1):
        try:
            if x_prior is None:
                mu_x, lambda_x = sample_hyper_normal_wishart(x, nw_prior, rng)
            if w_prior is None:
                mu_w, lambda_w = sample_hyper_normal_wishart(w, nw_prior, rng)
            precs, b = x_state.prior_terms(x, mu_x, lambda_x)
            x = _sample_side(rng, w, x_ind, x_val, config.tau, precs, b, "X side")
            precs, b = w_state.prior_terms(w, mu_w, lambda_w)
            w = _sample_side(rng, x, w_ind, w_val, config.tau, precs, b, "W side")
        except NumericalError as exc:
            raise NumericalError(f"sweep {sweep}: {exc}") from exc
        if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            kept_x[kept] = x
            kept_w[kept] = w
            kept_mu_x[kept], kept_lambda_x[kept] = mu_x, lambda_x
            kept_mu_w[kept], kept_lambda_w[kept] = mu_w, lambda_w
            kept += 1
    return SampleChain(kept_x, kept_w, kept_mu_x, kept_lambda_x,
                       kept_mu_w, kept_lambda_w, replace(config))


def predict(x_mean: np.ndarray, w_mean: np.ndarray, rows: np.ndarray,
            cols: np.ndarray) -> np.ndarray:
    """Inner-product predictions x_n' w_d at the requested cells (unclipped)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= x_mean.shape[0]):
        raise ValidationError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= w_mean.shape[0]):
        raise ValidationError("column index out of range")
    return np.einsum("mk,mk->m", x_mean[rows], w_mean[cols])
