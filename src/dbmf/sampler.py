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
sum_d y_d w_d over that row's observed partners.  ``gibbs_run`` builds,
once per block, one CSR pair over (rows x columns): an indicator matrix
with data 1 and a value matrix with data y, each row's columns in ascending
order.  The X side multiplies by that pair; the W side by its transposes,
CSC views that scatter each X row into its columns, so every W row still
sums its partners in ascending order.  Each side update is two sparse
products: the indicator times the per-partner upper-triangle outer
products, and the value matrix times the partner rows.  The fixed partner
order fixes the summation order, so the statistics do not depend on the
order of the input entries.

Each row's conditional precision is built in a (K, K, rows) layout and
factored by one K-step Cholesky over all rows of the side, which also
forward-substitutes the linear term; the draw is one back substitution
against the factor.  A row whose precision has a pivot that is not
positive is flagged; only the flagged rows are rebuilt with diagonal
jitter and factored again, so no other row's draw changes.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import sparse

from .approx import PosteriorSet, _kstep_cholesky, _symmetrize, _triangles, non_spd_rows
from .artifacts import write_atomic
from .data import SparseMatrix
from .errors import NumericalError, ValidationError

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
        if not 0 < self.beta0 < np.inf:
            raise ValidationError("beta0 must be positive and finite")
        if not k <= self.nu0 < np.inf:
            raise ValidationError("nu0 must be finite and >= K")
        if not (np.isfinite(self.mu0).all() and np.isfinite(self.w0).all()):
            raise ValidationError("mu0 and w0 must be finite")
        if non_spd_rows(self.w0[None]).size:
            raise ValidationError("w0 must be symmetric positive definite")
        self.w0_inv = np.linalg.inv(self.w0)

    @property
    def k(self) -> int:
        return self.mu0.size

    @property
    def nominal_row(self) -> tuple[np.ndarray, np.ndarray]:
        """The nominal row Gaussian (mean mu0, precision nu0 * w0)."""
        return self.mu0, self.nu0 * self.w0


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
        if not 0 < self.tau < np.inf:
            raise ValidationError(f"tau must be positive and finite, got {self.tau}")
        if not self.n_iters > self.burn_in >= 0:
            raise ValidationError("need n_iters > burn_in >= 0")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if (self.n_iters - self.burn_in) % self.thin:
            raise ValidationError("thin must divide n_iters - burn_in")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")

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

    def save(self, path) -> None:
        write_atomic(path, lambda fh: np.savez(
            fh, x_samples=self.x_samples, w_samples=self.w_samples,
            mu_x=self.mu_x, lambda_x=self.lambda_x, mu_w=self.mu_w, lambda_w=self.lambda_w,
            config=np.array(json.dumps({f.name: getattr(self.config, f.name)
                                        for f in fields(GibbsConfig)}))))


# ---------------------------------------------------------------------------
# Elementary conditionals
# ---------------------------------------------------------------------------

def _wishart_draw(rng: np.random.Generator, scale: np.ndarray, df: float) -> np.ndarray:
    """Lower-triangular factor F of a Wishart(scale, df) draw F F' via the
    Bartlett decomposition (df > K - 1): F = chol(scale) times the Bartlett
    factor, whose diagonal is positive, so F is the draw's Cholesky factor."""
    k = scale.shape[0]
    _, _, diag, lower = _triangles(k)
    chol = np.linalg.cholesky(scale)
    bart = np.zeros((k, k))
    bart[diag] = np.sqrt(rng.chisquare(df - np.arange(k)))
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
    winv_star = _symmetrize(winv_star)
    try:
        w_star = np.linalg.inv(winv_star)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("posterior Wishart scale not invertible") from exc
    w_star = _symmetrize(w_star)
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
    """Per side, the (indicator, value) pair over (rows x partners): a CSR
    pair over (rows x columns), each row's columns in ascending order, and
    its transposes (CSC views) for the W side."""
    val = sparse.csr_array((matrix.vals, (matrix.rows, matrix.cols)),
                           shape=(matrix.n_rows, matrix.n_cols))
    val.sort_indices()
    ind = sparse.csr_array((np.ones(val.nnz), val.indices, val.indptr), shape=val.shape)
    return [(ind, val), (ind.T, val.T)]


def _side_stats(ind, val, partner):
    """Per-row sums of partner outer products, laid out ``(K, K, rows)``,
    and of value-weighted partners, ``(rows, K)``.

    The indicator matrix sums the upper triangles of the per-partner outer
    products, which are then mirrored; rows without entries get exact zeros.
    """
    n, k = ind.shape[0], partner.shape[1]
    (upper_r, upper_c), slot, _, _ = _triangles(k)
    packed = ind @ (partner[:, upper_r] * partner[:, upper_c])
    return np.ascontiguousarray(packed.T)[slot].reshape(k, k, n), val @ partner


def _factor_draw(precs: np.ndarray, noise: np.ndarray,
                 b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a ``(K, K, rows)`` stack of precisions P = L L', factored
    in place, the draw inv(L') (inv(L) b + z) from Normal(inv(P) b, inv(P))
    given standard-normal ``noise`` z ``(rows, K)`` (without ``b``, the
    zero-mean draw).  Returns the draws and ``_kstep_cholesky``'s flags."""
    k = precs.shape[0]
    out = np.array(noise.T, order="C")
    fwd = None if b is None else np.array(b.T, order="C")
    bad = _kstep_cholesky(precs, fwd)
    if fwd is not None:
        out += fwd
    with np.errstate(all="ignore"):
        for i in range(k - 1, -1, -1):
            head, tail = out[i], out[:i]
            head /= precs[i, i]
            tail -= precs[i, :i] * head
    return np.ascontiguousarray(out.T), bad


def _sample_side(rng, partner, ind, val, tau, prior_precs, prior_b, context):
    """Resample every row of one side from its Gaussian full conditional.

    ``ind`` and ``val`` are the side's pair from ``_side_matrices``.
    ``prior_precs`` broadcasts over rows when the prior is shared;
    ``prior_b`` is the per-row (or shared) prior_precision @ prior_mean term.
    A row whose precision does not factor is rebuilt with its diagonal
    raised by ``CHOL_JITTER`` times its mean diagonal (at least 1) and
    factored again; one that still fails raises ``NumericalError``.
    """
    n, k = ind.shape[0], partner.shape[1]
    suff, lin = _side_stats(ind, val, partner)
    prior = prior_precs[..., None] if prior_precs.ndim == 2 else prior_precs.transpose(1, 2, 0)
    b = prior_b + tau * lin
    noise = rng.standard_normal((n, k))
    precs = tau * suff
    precs += prior
    draws, bad = _factor_draw(precs, noise, b)
    if bad.any():
        rows = np.flatnonzero(bad)
        precs = np.broadcast_to(prior, suff.shape)[..., rows] + tau * suff[..., rows]
        bumps = CHOL_JITTER * np.maximum(np.trace(precs) / k, 1.0)
        for row, bump in zip(rows, bumps):
            logger.warning("jittered diagonal by %.3e (%s, row %d)", bump, context, row)
        precs[_triangles(k)[2]] += bumps
        draws[rows], bad = _factor_draw(precs, noise[rows], b[rows])
        if bad.any():
            raise NumericalError(
                f"Cholesky failed after jitter ({context}, row {rows[np.argmax(bad)]})")
    return draws


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
            means, precs = (np.broadcast_to(a, (n_rows, *a.shape)) for a in nw_prior.nominal_row)
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
        draws, bad = _factor_draw(np.moveaxis(precs, 0, -1).copy(),
                                  rng.standard_normal((n_rows, k)))
        if bad.any():
            raise NumericalError(f"prior precision of row {np.argmax(bad)} is not "
                                 "positive definite")
        return means + draws


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

    # Per side, X then W: its (indicator, value) pair, prior state and rows.
    matrices = _side_matrices(subset)
    sizes = (subset.n_rows, subset.n_cols)
    states = [_SideState(prior, n, name) for prior, n, name in zip(priors, sizes, "XW")]
    rows = [state.initial_values(rng, n, k, nw_prior) for state, n in zip(states, sizes)]
    # Constant placeholder hyperparameters for propagated sides.
    hyper = [nw_prior.nominal_row for _ in sizes]
    # Per side: the retained rows, mu and Lambda.
    n_keep = config.n_samples
    kept = [(np.empty((n_keep, n, k)), np.empty((n_keep, k)), np.empty((n_keep, k, k)))
            for n in sizes]

    n_kept = 0
    for sweep in range(1, config.n_iters + 1):
        try:
            for side, state in enumerate(states):
                if state.prior is None:
                    hyper[side] = sample_hyper_normal_wishart(rows[side], nw_prior, rng)
            for side, (state, (ind, val)) in enumerate(zip(states, matrices)):
                precs, b = state.prior_terms(rows[side], *hyper[side])
                rows[side] = _sample_side(rng, rows[1 - side], ind, val, config.tau,
                                          precs, b, f"{'XW'[side]} side")
        except NumericalError as exc:
            raise NumericalError(f"sweep {sweep}: {exc}") from exc
        if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            for side, (samples, mus, lambdas) in enumerate(kept):
                samples[n_kept] = rows[side]
                mus[n_kept], lambdas[n_kept] = hyper[side]
            n_kept += 1
    (x_samples, mu_x, lambda_x), (w_samples, mu_w, lambda_w) = kept
    return SampleChain(x_samples, w_samples, mu_x, lambda_x, mu_w, lambda_w, replace(config))


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
