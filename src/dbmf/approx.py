"""Parametric approximations of per-row posterior sample clouds.

Each row of a factor matrix gets its own K-dimensional sample cloud from a
sampler chain; this module condenses a cloud into a Gaussian (moment
matching), a Gaussian on the dominant cluster, or a small Gaussian mixture
over the largest clusters.  It also owns the posterior file format used to
hand approximations between pipeline stages.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import ArtifactError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

# Ridge added to sample covariances: relative to the mean diagonal, with an
# absolute floor so degenerate (zero-spread) clouds stay invertible.
COV_RIDGE = 1e-8


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def is_spd(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def non_spd_rows(mats: np.ndarray) -> np.ndarray:
    """Indices of the matrices in a stack ``(R, K, K)`` that have no
    Cholesky factor.  One stacked factorization settles the usual all-SPD
    case; only when it fails is each matrix tried on its own."""
    if is_spd(mats):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero([not is_spd(mat) for mat in mats])


@dataclass
class RowPosterior:
    """Gaussian posterior for one K-vector row: mean and precision."""

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.precision = _symmetrize(np.asarray(self.precision, dtype=np.float64))
        problem = _contract_violation(
            PosteriorSet("gaussian", self.mean[None], self.precision[None]), self.mean.size)
        if problem:
            raise ValidationError(f"row posterior: {problem}")

    @property
    def k(self) -> int:
        return self.mean.size


@dataclass
class GmmPosterior:
    """Mixture of weighted Gaussians for one row."""

    weights: np.ndarray
    means: np.ndarray
    precisions: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.precisions = _symmetrize(np.asarray(self.precisions, dtype=np.float64))
        problem = _contract_violation(
            PosteriorSet("gmm", self.means, self.precisions, weights=self.weights,
                         offsets=np.array([0, self.weights.size])), self.means.shape[-1])
        if problem:
            raise ValidationError(f"mixture posterior: {problem}")

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def k(self) -> int:
        return self.means.shape[1]


@dataclass
class Clustering:
    """Result of lambda-means: assignments, centers, and the lambda used."""

    assignments: np.ndarray
    centers: np.ndarray
    lam: float

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.n_clusters)


# ---------------------------------------------------------------------------
# lambda-means clustering
# ---------------------------------------------------------------------------

def lambda_means(samples: np.ndarray, lam: float, max_iters: int = 100) -> Clustering:
    """Cluster samples, spawning a new center for any point farther than
    ``lam`` (Euclidean) from every existing center.

    Alternates assignment (with spawning, in input order) and center
    recomputation until assignments stabilize or ``max_iters`` is reached.
    The first center is the global mean; empty clusters are dropped, and
    recomputed centers that land within ``lam`` of an earlier center are
    merged into it (the spawn rule never creates such a pair, and keeping
    centers separated by more than ``lam`` makes the final cluster count
    nonincreasing in ``lam``).  The procedure is deterministic given the
    input order.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] < 1:
        raise ValidationError("need at least one sample")
    if lam <= 0:
        raise ValidationError("lambda must be positive")

    centers = [samples.mean(axis=0)]
    assignments = np.zeros(samples.shape[0], dtype=np.int64)
    for _ in range(max_iters):
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
        # Recompute centers; drop clusters that lost all members.
        sizes = np.bincount(new_assignments, minlength=len(centers))
        keep = np.flatnonzero(sizes > 0)
        remap = np.full(len(centers), -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        new_assignments = remap[new_assignments]
        centers = [samples[new_assignments == c].mean(axis=0) for c in range(keep.size)]
        # Fold any center within lam of an earlier one into its nearest
        # earlier center (lowest scan index first; deterministic).
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
    return Clustering(assignments, np.array(centers), float(lam))


def median_pairwise_lambda(samples: np.ndarray, seed: int = 0,
                           subsample: int = 100) -> float:
    """Scale-adaptive default lambda: median pairwise distance of a subsample."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n = samples.shape[0]
    if n > subsample:
        idx = np.random.default_rng(seed).choice(n, size=subsample, replace=False)
        samples = samples[idx]
    if samples.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(samples)))
    return med if med > 0 else 1.0


# ---------------------------------------------------------------------------
# Gaussian fits
# ---------------------------------------------------------------------------

def _fit_gaussian(samples: np.ndarray) -> RowPosterior:
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / samples.shape[0]
    mean_diag = float(np.trace(cov)) / cov.shape[0]
    ridge = COV_RIDGE * mean_diag if mean_diag > 0 else COV_RIDGE
    cov = cov + ridge * np.eye(cov.shape[0])
    try:
        precision = np.linalg.inv(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sample covariance not invertible after regularization") from exc
    return RowPosterior(mean, precision)


def fit_moment_matching(samples: np.ndarray) -> RowPosterior:
    """Gaussian with the cloud's mean and (population, ridge-regularized)
    covariance."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, k = samples.shape
    if n < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} samples, got {n}")
    return _fit_gaussian(samples)


def fit_dominant_mode(samples: np.ndarray, lam: float) -> RowPosterior:
    """Moment matching restricted to the largest lambda-means cluster.

    Size ties pick the lowest cluster index.  If the winning cluster is too
    small for a well-posed covariance (< K+2 samples), falls back to moment
    matching over the full cloud.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, k = samples.shape
    if n < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} samples, got {n}")
    clustering = lambda_means(samples, lam)
    sizes = clustering.sizes()
    best = int(np.argmax(sizes))
    if sizes[best] < k + 2:
        logger.warning("dominant cluster has %d samples (< K+2); "
                       "falling back to full-cloud moment matching", sizes[best])
        return _fit_gaussian(samples)
    return _fit_gaussian(samples[clustering.assignments == best])


def fit_gmm(samples: np.ndarray, lam: float, top_n: int = 3) -> GmmPosterior:
    """Mixture over the ``top_n`` largest lambda-means clusters.

    Clusters smaller than K+2 are dropped before weight renormalization;
    if none survive, the whole cloud collapses to a single moment-matched
    component.  Weights are proportional to kept-cluster sizes.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, k = samples.shape
    if n < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} samples, got {n}")
    if top_n < 1:
        raise ValidationError("top_n must be >= 1")
    clustering = lambda_means(samples, lam)
    sizes = clustering.sizes()
    # Largest first, ties by lower cluster index.
    order = np.lexsort((np.arange(sizes.size), -sizes))[:top_n]
    kept = [c for c in order if sizes[c] >= k + 2]
    if not kept:
        fit = _fit_gaussian(samples)
        return GmmPosterior(np.array([1.0]), fit.mean[None, :], fit.precision[None, :, :])
    fits = [_fit_gaussian(samples[clustering.assignments == c]) for c in kept]
    weights = sizes[kept].astype(np.float64)
    weights /= weights.sum()
    return GmmPosterior(weights,
                        np.array([f.mean for f in fits]),
                        np.array([f.precision for f in fits]))


def pool_gmm(gmm: GmmPosterior) -> RowPosterior:
    """Single Gaussian with the mixture's exact first two moments."""
    pooled = PosteriorSet("gmm", gmm.means, gmm.precisions, weights=gmm.weights,
                          offsets=np.array([0, gmm.n_components])).pooled()
    return RowPosterior(pooled.means[0], pooled.precisions[0])


# ---------------------------------------------------------------------------
# Per-row posterior sets and the inter-stage file format
# ---------------------------------------------------------------------------

@dataclass
class PosteriorSet:
    """Approximations for a contiguous range of rows of one factor matrix.

    ``kind`` is "gaussian" or "gmm".  Gaussian sets hold ``means (R, K)``
    and ``precisions (R, K, K)``.  Mixture sets additionally hold ragged
    per-row components flattened into ``weights``, ``means``, ``precisions``
    with ``offsets (R+1,)`` delimiting each row's slice.
    """

    kind: str
    means: np.ndarray
    precisions: np.ndarray
    weights: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "gmm"):
            raise ValidationError(f"unknown posterior set kind: {self.kind!r}")
        if self.kind == "gmm" and (self.weights is None or self.offsets is None):
            raise ValidationError("gmm posterior set requires weights and offsets")

    @property
    def n_rows(self) -> int:
        if self.kind == "gaussian":
            return self.means.shape[0]
        return self.offsets.size - 1

    @property
    def k(self) -> int:
        return self.means.shape[-1]

    def component_index(self) -> tuple[np.ndarray, np.ndarray]:
        """For each mixture component, its row and its position in that row."""
        counts = np.diff(self.offsets)
        rows = np.repeat(np.arange(counts.size), counts)
        return rows, np.arange(rows.size) - self.offsets[rows]

    def pooled(self) -> "PosteriorSet":
        """Collapse mixtures to single Gaussians with each row's exact
        mixture mean and covariance."""
        if self.kind == "gaussian":
            return self
        starts = self.offsets[:-1]
        weights = self.weights[:, None]
        mean = np.add.reduceat(weights * self.means, starts)
        diffs = self.means - mean[self.component_index()[0]]
        weights = weights[..., None]
        cov = np.add.reduceat(weights * np.linalg.inv(self.precisions), starts)
        cov = cov + np.add.reduceat(weights * diffs[:, :, None] * diffs[:, None, :], starts)
        return PosteriorSet("gaussian", mean, _symmetrize(np.linalg.inv(_symmetrize(cov))))

    @classmethod
    def from_gaussian_rows(cls, rows: list[RowPosterior]) -> "PosteriorSet":
        return cls("gaussian", np.array([r.mean for r in rows]),
                   np.array([r.precision for r in rows]))

    @classmethod
    def from_gmm_rows(cls, rows: list[GmmPosterior]) -> "PosteriorSet":
        counts = np.array([r.n_components for r in rows], dtype=np.int64)
        return cls("gmm",
                   np.concatenate([r.means for r in rows]),
                   np.concatenate([r.precisions for r in rows]),
                   weights=np.concatenate([r.weights for r in rows]),
                   offsets=np.concatenate(([0], np.cumsum(counts))))


def _contract_violation(pset: PosteriorSet, k: int) -> str | None:
    """The first way a set breaks the posterior contract, naming the row, or
    None.  The contract: K-dimensional finite means, finite precisions with
    a Cholesky factor and, for mixtures, positive weights summing to 1 (to
    1e-9) per row and offsets strictly increasing from 0 to the component
    count.  ``RowPosterior``, ``GmmPosterior`` and ``load_posterior_file``
    enforce it; each check runs once over the whole stack."""
    n = pset.means.shape[0]
    if pset.means.ndim != 2 or pset.means.shape[1] != k or pset.precisions.shape != (n, k, k):
        return f"means and precisions do not hold the same K={k} components"
    rows = np.arange(n)
    checks = [(np.isfinite(pset.means).all(axis=1), "non-finite mean"),
              (np.isfinite(pset.precisions).all(axis=(1, 2)), "non-finite precision")]
    if pset.kind == "gmm":
        offsets = pset.offsets
        if (offsets.ndim != 1 or offsets.dtype.kind not in "iu" or offsets[:1].tolist() != [0]
                or offsets[-1] != n or pset.weights.shape != (n,)):
            return f"offsets do not run from 0 to the {n} components of the weights"
        steps_ok = np.diff(offsets) > 0
        if not steps_ok.all():
            return f"row {np.argmin(steps_ok)}: offsets not strictly increasing"
        rows = pset.component_index()[0]
        sums = np.add.reduceat(pset.weights, offsets[:-1])
        checks += [(np.isfinite(pset.weights) & (pset.weights > 0), "weight not positive"),
                   (np.abs(sums - 1.0)[rows] <= 1e-9, "weights do not sum to 1")]
    for ok, what in checks:
        if not ok.all():
            return f"row {rows[np.argmin(ok)]}: {what}"
    bad = non_spd_rows(pset.precisions)
    return f"row {rows[bad[0]]}: precision not positive definite" if bad.size else None


def fit_rows(samples: np.ndarray, kind: str, lam_policy="median-pairwise",
             top_n: int = 3, seed: int = 0) -> PosteriorSet:
    """Fit every row of a chain sample block ``(S, R, K)`` independently.

    ``kind`` is "mm", "dm" or "gmm".  ``lam_policy`` is either the string
    "median-pairwise" (per-row adaptive lambda) or a fixed positive float.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 3:
        raise ValidationError("expected samples of shape (S, R, K)")
    n_rows = samples.shape[1]

    def row_lambda(i):
        if lam_policy == "median-pairwise":
            row_seed = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            sub_seed = int(row_seed.generate_state(1, dtype=np.uint64)[0])
            return median_pairwise_lambda(samples[:, i, :], seed=sub_seed)
        return float(lam_policy)

    if kind == "mm":
        means = samples.mean(axis=0)
        centered = samples - means[None, :, :]
        covs = np.einsum("srk,srl->rkl", centered, centered) / samples.shape[0]
        diag_mean = np.einsum("rkk->r", covs) / samples.shape[2]
        ridge = np.where(diag_mean > 0, COV_RIDGE * diag_mean, COV_RIDGE)
        covs = covs + ridge[:, None, None] * np.eye(samples.shape[2])
        return PosteriorSet("gaussian", means, _symmetrize(np.linalg.inv(covs)))
    if kind == "dm":
        rows = [fit_dominant_mode(samples[:, i, :], row_lambda(i)) for i in range(n_rows)]
        return PosteriorSet.from_gaussian_rows(rows)
    if kind == "gmm":
        rows = [fit_gmm(samples[:, i, :], row_lambda(i), top_n=top_n) for i in range(n_rows)]
        return PosteriorSet.from_gmm_rows(rows)
    raise ValidationError(f"unknown approximation kind: {kind!r}")


# --- file format -----------------------------------------------------------
#
# A posterior file is a .npz archive with a JSON header plus flat arrays.
# Precisions are stored as packed upper triangles, which is lossless
# because every precision in a PosteriorSet is exactly symmetric.

def _pack_ut(mats: np.ndarray) -> np.ndarray:
    k = mats.shape[-1]
    iu = np.triu_indices(k)
    return mats[..., iu[0], iu[1]]


def _unpack_ut(packed: np.ndarray, k: int) -> np.ndarray:
    iu = np.triu_indices(k)
    out = np.zeros(packed.shape[:-1] + (k, k))
    out[..., iu[0], iu[1]] = packed
    lower = np.swapaxes(out, -1, -2).copy()
    diag = np.arange(k)
    lower[..., diag, diag] = 0.0
    return out + lower


def save_posterior_file(path, posteriors: PosteriorSet, side: str,
                        row_start: int, row_stop: int, extra: dict | None = None) -> None:
    """Persist one side's approximations for a block run."""
    header = {"kind": posteriors.kind, "k": int(posteriors.k), "side": side,
              "row_start": int(row_start), "row_stop": int(row_stop)}
    if extra:
        header.update(extra)
    arrays = {"header": np.array(json.dumps(header)),
              "means": posteriors.means,
              "prec_ut": _pack_ut(posteriors.precisions)}
    if posteriors.kind == "gmm":
        arrays["weights"] = posteriors.weights
        arrays["offsets"] = posteriors.offsets
    try:
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    except OSError as exc:
        raise ArtifactError(f"cannot write posterior file {path}: {exc}") from exc


def load_posterior_file(path) -> tuple[dict, PosteriorSet]:
    """Load a posterior file; raises ArtifactError on missing or corrupt
    input, and on arrays that break the posterior contract."""
    try:
        with np.load(path) as npz:
            header = json.loads(str(npz["header"]))
            k = header["k"]
            if header["kind"] == "gaussian":
                pset = PosteriorSet("gaussian", npz["means"],
                                    _unpack_ut(npz["prec_ut"], k))
            else:
                pset = PosteriorSet("gmm", npz["means"], _unpack_ut(npz["prec_ut"], k),
                                    weights=npz["weights"], offsets=npz["offsets"])
    except FileNotFoundError as exc:
        raise ArtifactError(f"posterior file not found: {path}") from exc
    except (zipfile.BadZipFile, OSError, KeyError, ValueError, EOFError) as exc:
        raise ArtifactError(f"corrupt posterior file {path}: {exc}") from exc
    problem = _contract_violation(pset, k)
    if problem:
        raise ArtifactError(f"invalid posterior file {path}: {problem}")
    return header, pset
