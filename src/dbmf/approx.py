"""Parametric approximations of per-row posterior sample clouds.

Each row of a factor matrix gets its own K-dimensional sample cloud from a
sampler chain; this module condenses a cloud into a Gaussian (moment
matching), a Gaussian on the dominant cluster, or a small Gaussian mixture
over the largest clusters.  It also owns the posterior file format used to
hand approximations between pipeline stages.

``fit_rows`` fits all rows of a block at once.  Lambda-means runs on every
row together: the assignment scan is serial over samples and vectorized
over rows, and centers are recomputed, and Gaussians fitted, on stacks of
equal-sized clusters, so every result is bitwise the one a per-row loop
gives (``tests/oracles.py`` holds that loop).  A row stops when its
iteration changes nothing or when its assignments repeat an earlier
iteration's; in a repeat, the state the loop would reach at the iteration
cap is already stored, and that is the result.  ``lambda_means``,
``fit_dominant_mode`` and ``fit_gmm`` are one-row calls into the same code,
and ``fit_moment_matching`` uses its Gaussian fit.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import dataclass

import numpy as np

from .artifacts import write_atomic
from .errors import ArtifactError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

# Ridge added to sample covariances: relative to the mean diagonal, with an
# absolute floor so degenerate (zero-spread) clouds stay invertible.
COV_RIDGE = 1e-8

# Samples per row behind the default ("median-pairwise") lambda, and the
# iteration cap of lambda-means.
LAMBDA_SUBSAMPLE = 100
LAMBDA_MEANS_ITERS = 100


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
    """Result of lambda-means: assignments, centers, the lambda used, the
    number of iterations run and whether the last one changed nothing (False
    when the iteration cap or a repeated state ended the loop)."""

    assignments: np.ndarray
    centers: np.ndarray
    lam: float
    iterations: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.n_clusters)


# ---------------------------------------------------------------------------
# lambda-means clustering, batched over the rows of a block
# ---------------------------------------------------------------------------
#
# Clouds are stacked as ``x (R, S, K)``: row r's S samples in chain order.
# Every per-group statistic is computed on stacks of equal-sized groups, so
# numpy runs the same reduction (and BLAS the same product) on each group as
# it would on that group alone, and the results are bitwise those of a
# per-row loop.

def _label_counts(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """How many samples of each row ``labels (R, S)`` carry each label in
    ``0..n_labels-1``: ``(R, n_labels)``."""
    flat = labels + n_labels * np.arange(labels.shape[0])[:, None]
    counts = np.bincount(flat.ravel(), minlength=labels.shape[0] * n_labels)
    return counts.reshape(-1, n_labels)


def _groups(labels: np.ndarray, n_labels: int):
    """The members of every non-empty (row, label) group, stacked by size.

    ``labels (R, S)`` gives each sample's label in ``0..n_labels-1``, or -1
    for none.  Yields ``(rows, labs, pos)`` once per distinct group size n,
    with ``pos (G, n)`` the sample positions of each group's members in
    sample order."""
    key = np.where(labels < 0, n_labels, labels)
    order = np.argsort(key, axis=1, kind="stable")
    counts = _label_counts(key, n_labels + 1)
    starts = np.cumsum(counts, axis=1) - counts
    sizes = counts[:, :n_labels].ravel()
    by_size = np.argsort(sizes, kind="stable")
    for chunk in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        n = sizes[chunk[0]]
        if n:
            rows, labs = np.divmod(chunk, n_labels)
            yield rows, labs, order[rows[:, None], starts[rows, labs][:, None] + np.arange(n)]


def _group_means(x: np.ndarray, labels: np.ndarray, n_labels: int) -> np.ndarray:
    """Mean of every (row, label) group, ``(R, n_labels, K)``; 0 where empty."""
    means = np.zeros((x.shape[0], n_labels, x.shape[2]))
    for rows, labs, pos in _groups(labels, n_labels):
        means[rows, labs] = x[rows[:, None], pos].mean(axis=1)
    return means


def _distances(centers: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row's point ``(R, K)`` to each of its
    centers ``(R, C, K)``, summed as ``np.linalg.norm`` sums."""
    diff = centers - points[:, None, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _spawn_scan(x, centers, n_c, lam):
    """One assignment pass: each sample in order goes to its nearest center
    (lowest index on ties) or, when every center is farther than ``lam``,
    becomes a new center.  Serial over samples, vectorized over rows."""
    n_rows, n_samples, _ = x.shape
    rows = np.arange(n_rows)
    slots = np.arange(centers.shape[1])
    assign = np.empty((n_rows, n_samples), dtype=np.int64)
    spawned = np.zeros(n_rows, dtype=bool)
    for s in range(n_samples):
        top = n_c.max()
        if top == centers.shape[1]:
            centers = np.concatenate([centers, np.zeros_like(centers)], axis=1)
            slots = np.arange(centers.shape[1])
        point = x[:, s]
        dists = _distances(centers[:, :top], point)
        dists[slots[:top] >= n_c[:, None]] = np.inf
        best = dists.argmin(axis=1)
        far = dists[rows, best] > lam
        if far.any():
            best[far] = n_c[far]
            centers[far, n_c[far]] = point[far]
            n_c[far] += 1
            spawned |= far
        assign[:, s] = best
    return assign, n_c, spawned


def _drop_empty(assign, n_c):
    """Renumber clusters without their empty ones, keeping their order."""
    keep = _label_counts(assign, n_c.max()) > 0
    remap = np.cumsum(keep, axis=1) - 1
    return remap[np.arange(assign.shape[0])[:, None], assign], keep.sum(axis=1)


def _merge_close(x, assign, centers, n_c, lam):
    """Fold each center within ``lam`` of an earlier one into its nearest
    earlier center (lowest index on ties), taking the first such center in
    index order and rescanning after each fold.  Edits ``assign``,
    ``centers`` and ``n_c`` in place and returns which rows merged.

    Rows go in chunks of about 2**21 center pairs.  Each chunk keeps its
    pairwise center distances; a fold changes only the surviving center's
    members, so only its mean and its distances are recomputed."""
    merged = np.zeros(n_c.size, dtype=bool)
    candidates = np.flatnonzero(n_c > 1)
    width = n_c.max()
    slots = np.arange(width)
    step = max(1, 2 ** 21 // width ** 2)
    for lo in range(0, candidates.size, step):
        todo = candidates[lo:lo + step]
        # dists[t, c, j] = |center j - center c|, as the scan of c computes it
        dists = np.stack([_distances(centers[todo, :width], centers[todo, c])
                          for c in range(width)], axis=1)
        while todo.size:
            earlier = (slots[:, None] > slots) & (slots[:, None] < n_c[todo, None, None])
            masked = np.where(earlier, dists, np.inf)
            nearest = masked.argmin(axis=2)
            close = earlier.any(axis=2) & (
                np.take_along_axis(masked, nearest[..., None], axis=2)[..., 0] <= lam[todo, None])
            hit = np.flatnonzero(close.any(axis=1))
            later = close.argmax(axis=1)[hit]
            target = nearest[hit, later]
            todo, dists = todo[hit], dists[hit]
            if not todo.size:
                break
            merged[todo] = True
            moved = np.where(assign[todo] == later[:, None], target[:, None], assign[todo])
            assign[todo] = moved - (moved > later[:, None])
            n_c[todo] -= 1
            src = np.minimum(slots + (slots >= later[:, None]), width - 1)
            centers[todo] = centers[todo[:, None], src]
            members = np.where(assign[todo] == target[:, None], 0, -1)
            centers[todo, target] = _group_means(x[todo], members, 1)[:, 0]
            rows = np.arange(todo.size)
            dists = dists[rows[:, None, None], src[:, :, None], src[:, None, :]]
            fresh = _distances(centers[todo, :width], centers[todo, target])
            dists[rows, target] = fresh
            dists[rows, :, target] = fresh
            keep = n_c[todo] > 1
            todo, dists = todo[keep], dists[keep]
    return merged


def _lambda_means_rows(x: np.ndarray, lam: np.ndarray, max_iters: int):
    """Lambda-means on every row of ``x (R, S, K)`` with per-row ``lam``.

    Centers are always the cluster means of the assignments, so an
    iteration's result depends only on the assignments it starts from.  When
    a row's assignments repeat an earlier iteration's bitwise, the row is
    periodic from there, and its state after ``max_iters`` iterations is the
    stored one at ``first + (max_iters - first) % period``: the row stops
    there.  A repeat after one iteration that spawned and merged nothing is
    convergence.  Returns assignments ``(R, S)``, centers ``(R, C, K)``
    padded with zeros, cluster counts, iterations run and converged flags."""
    n_rows, n_samples, _ = x.shape
    result = np.zeros((n_rows, n_samples), dtype=np.int64)
    iterations = np.full(n_rows, max(max_iters, 0), dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    start = result[0].tobytes()
    history = [[start] for _ in range(n_rows)]
    seen = [{start: 0} for _ in range(n_rows)]
    active = np.arange(n_rows)
    n_c = np.ones(n_rows, dtype=np.int64)
    centers = _group_means(x, result, 1)
    for it in range(1, max_iters + 1):
        xa, lam_a = x[active], lam[active]
        assign, n_c, spawned = _spawn_scan(xa, centers, n_c, lam_a)
        assign, n_c = _drop_empty(assign, n_c)
        centers = _group_means(xa, assign, n_c.max())
        merged = _merge_close(xa, assign, centers, n_c, lam_a)
        result[active] = assign
        going = np.ones(active.size, dtype=bool)
        for i, row in enumerate(active.tolist()):
            key = assign[i].tobytes()
            first = seen[row].setdefault(key, it)
            if first == it:
                history[row].append(key)
                continue
            period = it - first
            going[i] = False
            iterations[row] = it
            converged[row] = period == 1 and not (spawned[i] or merged[i])
            result[row] = np.frombuffer(history[row][first + (max_iters - first) % period],
                                        dtype=np.int64)
        active, centers, n_c = active[going], centers[going], n_c[going]
        if not active.size:
            break
    counts = result.max(axis=1) + 1
    return result, _group_means(x, result, counts.max()), counts, iterations, converged


def _one_lambda(lam: float) -> np.ndarray:
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    return np.array([lam], dtype=np.float64)


def lambda_means(samples: np.ndarray, lam: float,
                 max_iters: int = LAMBDA_MEANS_ITERS) -> Clustering:
    """Cluster samples, spawning a new center for any point farther than
    ``lam`` (Euclidean) from every existing center.

    Alternates assignment (with spawning, in input order) and center
    recomputation until assignments stabilize or ``max_iters`` is reached.
    The first center is the global mean; empty clusters are dropped, and
    recomputed centers that land within ``lam`` of an earlier center are
    merged into it (the spawn rule never creates such a pair, and keeping
    centers separated by more than ``lam`` makes the final cluster count
    nonincreasing in ``lam``).  The procedure is deterministic given the
    input order; a loop that revisits an earlier state stops there with the
    result it would have had after ``max_iters`` iterations.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] < 1:
        raise ValidationError("need at least one sample")
    assign, centers, counts, iterations, converged = _lambda_means_rows(
        samples[None], _one_lambda(lam), max_iters)
    return Clustering(assign[0], centers[0, :counts[0]], float(lam), int(iterations[0]),
                      bool(converged[0]))


def _pairwise_lambdas(x: np.ndarray) -> np.ndarray:
    """Median pairwise distance of each row's cloud ``(R, n, K)``, 1.0 where
    that is not positive or n < 2.  Distances are summed over K in order, as
    ``scipy.spatial.distance.pdist`` sums them; rows are taken in chunks of
    about 2**20 distances."""
    n_rows, n, k = x.shape
    if n < 2:
        return np.ones(n_rows)
    first, second = np.triu_indices(n, 1)
    med = np.empty(n_rows)
    step = max(1, 2 ** 20 // first.size)
    for lo in range(0, n_rows, step):
        sq = np.zeros((min(step, n_rows - lo), first.size))
        for j in range(k):
            diff = x[lo:lo + step, first, j] - x[lo:lo + step, second, j]
            sq += diff * diff
        med[lo:lo + step] = np.median(np.sqrt(sq), axis=1)
    return np.where(med > 0, med, 1.0)


def _subsample(n: int, size: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).choice(n, size=size, replace=False)


def median_pairwise_lambda(samples: np.ndarray, seed: int = 0,
                           subsample: int = LAMBDA_SUBSAMPLE) -> float:
    """Scale-adaptive default lambda: median pairwise distance of a subsample."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] > subsample:
        samples = samples[_subsample(samples.shape[0], subsample, seed)]
    return float(_pairwise_lambdas(samples[None])[0])


# ---------------------------------------------------------------------------
# Gaussian fits
# ---------------------------------------------------------------------------

def _fit_gaussians(x: np.ndarray, labels: np.ndarray, n_labels: int):
    """Population mean and ridge-regularized covariance of every non-empty
    (row, label) group, as means ``(R, n_labels, K)`` and symmetrized
    precisions ``(R, n_labels, K, K)``."""
    n_rows, _, k = x.shape
    means = np.zeros((n_rows, n_labels, k))
    precisions = np.zeros((n_rows, n_labels, k, k))
    for rows, labs, pos in _groups(labels, n_labels):
        members = x[rows[:, None], pos]
        mean = members.mean(axis=1)
        centered = members - mean[:, None, :]
        cov = np.matmul(centered.transpose(0, 2, 1), centered) / pos.shape[1]
        mean_diag = np.trace(cov, axis1=1, axis2=2) / k
        ridge = np.where(mean_diag > 0, COV_RIDGE * mean_diag, COV_RIDGE)
        try:
            precision = np.linalg.inv(cov + ridge[:, None, None] * np.eye(k))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("sample covariance not invertible after regularization") from exc
        means[rows, labs] = mean
        precisions[rows, labs] = _symmetrize(precision)
    return means, precisions


def _check_contract(pset: "PosteriorSet", what: str) -> "PosteriorSet":
    problem = _contract_violation(pset, pset.k)
    if problem:
        raise ValidationError(f"{what}: {problem}")
    return pset


def _fit_clusters(x: np.ndarray, lam: np.ndarray, kind: str, top_n: int) -> "PosteriorSet":
    """Dominant-mode ("dm") or mixture ("gmm") fits of every row of
    ``x (R, S, K)`` from its lambda-means clusters."""
    n_rows, _, k = x.shape
    assign, _, counts, _, _ = _lambda_means_rows(x, lam, LAMBDA_MEANS_ITERS)
    rows = np.arange(n_rows)
    sizes = _label_counts(assign, counts.max())
    # Largest first, ties by lower cluster index; clusters under K+2 samples
    # are dropped, and a row left with none is fitted whole.
    order = np.argsort(-sizes, axis=1, kind="stable")[:, :1 if kind == "dm" else top_n]
    top = sizes[rows[:, None], order]
    kept = top >= k + 2
    whole = ~kept[:, 0]
    rank = np.full(sizes.shape, -1)
    rank[np.nonzero(kept)[0], order[kept]] = np.nonzero(kept)[1]
    labels = rank[rows[:, None], assign]
    labels[whole] = 0
    kept[whole, 0] = True
    means, precisions = _fit_gaussians(x, labels, order.shape[1])
    if kind == "dm":
        if whole.any():
            logger.warning("%d of %d rows: dominant cluster has < K+2 samples; "
                           "fitted to the full cloud", whole.sum(), n_rows)
        return _check_contract(PosteriorSet("gaussian", means[:, 0], precisions[:, 0]),
                               "row posterior")
    weights = np.where(kept, top, 0).astype(np.float64)
    weights /= weights.sum(axis=1, keepdims=True)
    offsets = np.concatenate(([0], np.cumsum(kept.sum(axis=1))))
    return _check_contract(PosteriorSet("gmm", means[kept], precisions[kept],
                                        weights=weights[kept], offsets=offsets),
                           "mixture posterior")


def _cloud(samples: np.ndarray) -> np.ndarray:
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, k = samples.shape
    if n < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} samples, got {n}")
    return samples


def fit_moment_matching(samples: np.ndarray) -> RowPosterior:
    """Gaussian with the cloud's mean and (population, ridge-regularized)
    covariance."""
    samples = _cloud(samples)
    means, precisions = _fit_gaussians(samples[None], np.zeros((1, samples.shape[0]), int), 1)
    return RowPosterior(means[0, 0], precisions[0, 0])


def fit_dominant_mode(samples: np.ndarray, lam: float) -> RowPosterior:
    """Moment matching restricted to the largest lambda-means cluster.

    Size ties pick the lowest cluster index.  If the winning cluster is too
    small for a well-posed covariance (< K+2 samples), falls back to moment
    matching over the full cloud.
    """
    pset = _fit_clusters(_cloud(samples)[None], _one_lambda(lam), "dm", 1)
    return RowPosterior(pset.means[0], pset.precisions[0])


def fit_gmm(samples: np.ndarray, lam: float, top_n: int = 3) -> GmmPosterior:
    """Mixture over the ``top_n`` largest lambda-means clusters.

    Clusters smaller than K+2 are dropped before weight renormalization;
    if none survive, the whole cloud collapses to a single moment-matched
    component.  Weights are proportional to kept-cluster sizes.
    """
    samples = _cloud(samples)
    if top_n < 1:
        raise ValidationError("top_n must be >= 1")
    pset = _fit_clusters(samples[None], _one_lambda(lam), "gmm", top_n)
    return GmmPosterior(pset.weights, pset.means, pset.precisions)


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


def _fixed_lambda(lam_policy) -> float | None:
    """The fixed lambda of a policy, or None for "median-pairwise"."""
    if isinstance(lam_policy, str):
        if lam_policy == "median-pairwise":
            return None
    else:
        try:
            if float(lam_policy) > 0:
                return float(lam_policy)
        except (TypeError, ValueError):
            pass
    raise ValidationError("lam_policy is 'median-pairwise' or a positive number, "
                          f"got {lam_policy!r}")


def _row_seed(seed: int, row: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(row,))
               .generate_state(1, dtype=np.uint64)[0])


def fit_rows(samples: np.ndarray, kind: str, lam_policy="median-pairwise",
             top_n: int = 3, seed: int = 0) -> PosteriorSet:
    """Fit every row of a chain sample block ``(S, R, K)`` independently.

    ``kind`` is "mm", "dm" or "gmm".  ``lam_policy`` is either the string
    "median-pairwise" (per-row adaptive lambda) or a fixed positive float.
    Every argument is checked before any row is fitted.  The dm and gmm fits
    run over all rows at once, with results bitwise equal to fitting each
    row alone; a row's lambda subsample (when S > ``LAMBDA_SUBSAMPLE``) is
    seeded from ``SeedSequence(seed, (row,))``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 3 or 0 in samples.shape[1:]:
        raise ValidationError("expected samples of shape (S, R, K) with R, K >= 1")
    if kind not in ("mm", "dm", "gmm"):
        raise ValidationError(f"unknown approximation kind: {kind!r}")
    n_samples, n_rows, k = samples.shape
    if n_samples < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} samples, got {n_samples}")
    if top_n < 1:
        raise ValidationError("top_n must be >= 1")
    lam = _fixed_lambda(lam_policy)

    if kind == "mm":
        means = samples.mean(axis=0)
        centered = samples - means[None, :, :]
        covs = np.einsum("srk,srl->rkl", centered, centered) / n_samples
        diag_mean = np.einsum("rkk->r", covs) / k
        ridge = np.where(diag_mean > 0, COV_RIDGE * diag_mean, COV_RIDGE)
        covs = covs + ridge[:, None, None] * np.eye(k)
        return PosteriorSet("gaussian", means, _symmetrize(np.linalg.inv(covs)))
    x = np.ascontiguousarray(samples.transpose(1, 0, 2))
    if lam is not None:
        lams = np.full(n_rows, lam)
    elif n_samples > LAMBDA_SUBSAMPLE:
        picks = [_subsample(n_samples, LAMBDA_SUBSAMPLE, _row_seed(seed, i)) for i in range(n_rows)]
        lams = _pairwise_lambdas(x[np.arange(n_rows)[:, None], np.array(picks)])
    else:
        lams = _pairwise_lambdas(x)
    return _fit_clusters(x, lams, kind, top_n)


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
    write_atomic(path, lambda fh: np.savez(fh, **arrays))


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
