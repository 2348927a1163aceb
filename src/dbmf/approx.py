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
cap is already stored, and that is the result.  ``lambda_means`` and
``median_pairwise_lambda`` likewise take a block's clouds ``(R, S, K)``;
there are no one-row forms.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .artifacts import write_atomic
from .data import check_int, check_real
from .errors import ArtifactError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

# Ridge added to sample covariances: relative to the mean diagonal, with an
# absolute floor so degenerate (zero-spread) clouds stay invertible.
COV_RIDGE = 1e-8

# Evenly spaced samples per row behind the default ("median-pairwise")
# lambda, and the iteration cap of lambda-means.
LAMBDA_SUBSAMPLE = 100
LAMBDA_MEANS_ITERS = 100


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


@lru_cache(maxsize=None)
def _triangles(k: int):
    """Read-only index constants of K x K matrices: the upper triangle
    (diagonal included) as (row, col) arrays, the flattened map from each
    entry to its upper-triangle slot, the diagonal and the strict lower
    triangle."""
    upper, diag, lower = np.triu_indices(k), np.diag_indices(k), np.tril_indices(k, -1)
    slot = np.empty((k, k), dtype=np.intp)
    slot[upper] = slot[upper[::-1]] = np.arange(upper[0].size)
    for arr in (*upper, slot, *diag, *lower):
        arr.flags.writeable = False
    return upper, slot.ravel(), diag, lower


def _kstep_cholesky(fac: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """In place, the Cholesky factors L (P = L L') of the lower triangles of
    a ``(K, K, R)`` stack of symmetric matrices, by a right-looking K-step
    loop over all R at once, and ``rhs (K, R)`` overwritten with inv(L) rhs.
    Returns per matrix whether a pivot was not positive or was NaN, that is
    whether it has no Cholesky factor (its results are then meaningless)."""
    k = fac.shape[0]
    with np.errstate(all="ignore"):
        for j in range(k):
            pivot = fac[j, j]
            np.sqrt(pivot, out=pivot)
            col = fac[j + 1:, j]
            col /= pivot
            if rhs is not None:
                head, tail = rhs[j], rhs[j + 1:]
                head /= pivot
                tail -= col * head
            for i in range(j + 1, k):
                row = fac[i, j + 1:i + 1]
                row -= col[i - j - 1] * col[:i - j]
    # sqrt keeps a positive pivot positive and makes a negative one NaN
    return ~np.all(fac[_triangles(k)[2]] > 0, axis=0)


def non_spd_rows(mats: np.ndarray) -> np.ndarray:
    """Indices of the matrices in a symmetric stack ``(R, K, K)`` that have
    no Cholesky factor, from one K-step factorization of a copy."""
    return np.flatnonzero(_kstep_cholesky(np.moveaxis(mats, 0, -1).copy()))


@dataclass
class Clustering:
    """Result of lambda-means on a stack of rows: assignments ``(R, S)``,
    centers ``(R, C, K)`` padded with zeros past each row's cluster count,
    the counts, the iterations run and whether the last one changed nothing
    (False when the iteration cap or a repeated state ended the loop)."""

    assignments: np.ndarray
    centers: np.ndarray
    counts: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def sizes(self) -> np.ndarray:
        """Members of each row's clusters, ``(R, C)``; 0 past its count."""
        return _label_counts(self.assignments, self.centers.shape[1])


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


def lambda_means(x: np.ndarray, lam: np.ndarray,
                 max_iters: int = LAMBDA_MEANS_ITERS) -> Clustering:
    """Lambda-means on every row of ``x (R, S, K)`` with per-row ``lam``:
    a sample farther than ``lam`` (Euclidean) from every center spawns a new
    center.

    Alternates assignment (with spawning, in sample order) and center
    recomputation.  The first center is the row's mean; empty clusters are
    dropped, and recomputed centers that land within ``lam`` of an earlier
    center are merged into it (the spawn rule never creates such a pair, and
    keeping centers separated by more than ``lam`` makes the final cluster
    count nonincreasing in ``lam``).

    Centers are always the cluster means of the assignments, so an
    iteration's result depends only on the assignments it starts from.  When
    a row's assignments repeat an earlier iteration's bitwise, the row is
    periodic from there, and its state after ``max_iters`` iterations is the
    stored one at ``first + (max_iters - first) % period``: the row stops
    there.  A repeat after one iteration that spawned and merged nothing is
    convergence."""
    n_rows, n_samples, _ = x.shape
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (n_rows,):
        raise ValidationError(f"lambda must hold one value per row, shape ({n_rows},), "
                              f"got shape {lam.shape}")
    if not np.all(lam > 0):
        raise ValidationError("lambda must be positive")
    result = np.zeros((n_rows, n_samples), dtype=np.int64)
    iterations = np.full(n_rows, max(max_iters, 0), dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    start = result[0].tobytes()
    # Each row's states by the iteration that first reached them; a row adds
    # one per iteration until it stops, so dict order is iteration order.
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
                continue
            period = it - first
            going[i] = False
            iterations[row] = it
            converged[row] = period == 1 and not (spawned[i] or merged[i])
            result[row] = np.frombuffer(list(seen[row])[first + (max_iters - first) % period],
                                        dtype=np.int64)
        active, centers, n_c = active[going], centers[going], n_c[going]
        if not active.size:
            break
    counts = result.max(axis=1) + 1
    return Clustering(result, _group_means(x, result, counts.max()), counts,
                      iterations, converged)


def median_pairwise_lambda(x: np.ndarray) -> np.ndarray:
    """Scale-adaptive default lambda: the median pairwise distance of each
    row's cloud ``(R, n, K)``, 1.0 where that is not positive or n < 2.
    Distances are summed over K in order, as ``scipy.spatial.distance.pdist``
    sums them; rows are taken in chunks of about 2**20 distances."""
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


# ---------------------------------------------------------------------------
# Gaussian fits
# ---------------------------------------------------------------------------

def _gaussian_fits(members: np.ndarray):
    """Population mean and ridge-regularized covariance of each cloud of a
    stack ``members (G, n, K)``, as means ``(G, K)`` and symmetrized
    precisions ``(G, K, K)``."""
    k = members.shape[2]
    mean = members.mean(axis=1)
    centered = members - mean[:, None, :]
    cov = np.matmul(centered.transpose(0, 2, 1), centered) / members.shape[1]
    mean_diag = np.trace(cov, axis1=1, axis2=2) / k
    ridge = np.where(mean_diag > 0, COV_RIDGE * mean_diag, COV_RIDGE)
    try:
        precision = np.linalg.inv(cov + ridge[:, None, None] * np.eye(k))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sample covariance not invertible after regularization") from exc
    return mean, _symmetrize(precision)


def _fit_gaussians(x: np.ndarray, labels: np.ndarray, n_labels: int):
    """``_gaussian_fits`` of every non-empty (row, label) group, as means
    ``(R, n_labels, K)`` and precisions ``(R, n_labels, K, K)``."""
    n_rows, _, k = x.shape
    means = np.zeros((n_rows, n_labels, k))
    precisions = np.zeros((n_rows, n_labels, k, k))
    for rows, labs, pos in _groups(labels, n_labels):
        means[rows, labs], precisions[rows, labs] = _gaussian_fits(x[rows[:, None], pos])
    return means, precisions


def _fit_clusters(x: np.ndarray, lam: np.ndarray, kind: str, top_n: int) -> "PosteriorSet":
    """Dominant-mode ("dm") or mixture ("gmm") fits of every row of
    ``x (R, S, K)`` from its lambda-means clusters."""
    n_rows, _, k = x.shape
    clustering = lambda_means(x, lam, LAMBDA_MEANS_ITERS)
    assign, sizes = clustering.assignments, clustering.sizes()
    rows = np.arange(n_rows)
    # Largest first, ties by lower cluster index; clusters under K+2 samples
    # are dropped, and a row left with none is fitted whole.  The kept
    # clusters of a row are a prefix of its order: they fill its first slots.
    order = np.argsort(-sizes, axis=1, kind="stable")[:, :1 if kind == "dm" else top_n]
    top = sizes[rows[:, None], order]
    kept = top >= k + 2
    whole = ~kept[:, 0]
    rank = np.full(sizes.shape, -1)
    rank[np.nonzero(kept)[0], order[kept]] = np.nonzero(kept)[1]
    labels = rank[rows[:, None], assign]
    labels[whole] = 0
    kept[whole, 0] = True
    slots = kept.sum(axis=1).max()
    means, precisions = _fit_gaussians(x, labels, slots)
    if kind == "dm":
        if whole.any():
            logger.warning("%d of %d rows: dominant cluster has < K+2 samples; "
                           "fitted to the full cloud", whole.sum(), n_rows)
        return PosteriorSet(means[:, 0], precisions[:, 0])
    weights = np.where(kept, top, 0).astype(np.float64)
    weights /= weights.sum(axis=1, keepdims=True)
    precisions[~kept[:, :slots]] = np.eye(k)
    return PosteriorSet(means, precisions, weights[:, :slots])


# ---------------------------------------------------------------------------
# Per-row posterior sets and the inter-stage file format
# ---------------------------------------------------------------------------

@dataclass
class PosteriorSet:
    """Approximations for a contiguous range of rows of one factor matrix.

    A Gaussian set holds ``means (R, K)`` and ``precisions (R, K, K)``.  A
    mixture set holds ``C`` component slots per row: ``means (R, C, K)``,
    ``precisions (R, C, K, K)`` and ``weights (R, C)``, C being the most
    components any row has.  A slot of weight 0 holds no component, with
    mean 0 and the identity precision.
    """

    means: np.ndarray
    precisions: np.ndarray
    weights: np.ndarray | None = None

    @property
    def kind(self) -> str:
        """The set's kind: "gmm" when it holds weights, else "gaussian"."""
        return "gaussian" if self.weights is None else "gmm"

    @property
    def n_rows(self) -> int:
        return self.means.shape[0]

    @property
    def k(self) -> int:
        return self.means.shape[-1]

    def pooled(self) -> "PosteriorSet":
        """Collapse mixtures to single Gaussians with each row's exact
        mixture mean and covariance.  ``np.add.reduceat`` adds each row's
        slots one after another in slot order, so a row's result does not
        depend on how many empty slots pad it."""
        if self.kind == "gaussian":
            return self
        n, c, k = self.means.shape
        starts = np.arange(0, n * c, c)
        weights = self.weights.reshape(-1, 1)
        means = self.means.reshape(-1, k)
        mean = np.add.reduceat(weights * means, starts)
        diffs = means - np.repeat(mean, c, axis=0)
        weights = weights[..., None]
        cov = np.add.reduceat(weights * np.linalg.inv(self.precisions.reshape(-1, k, k)), starts)
        cov = cov + np.add.reduceat(weights * diffs[:, :, None] * diffs[:, None, :], starts)
        return PosteriorSet(mean, _symmetrize(np.linalg.inv(_symmetrize(cov))))


def _contract_violation(pset: PosteriorSet, k: int) -> str | None:
    """The first way a set breaks the posterior contract, naming the row, or
    None.  The contract: K-dimensional finite means, finite precisions with
    a Cholesky factor in every slot and, for mixtures, finite nonnegative
    weights summing to 1 (to 1e-9) per row.  ``save_posterior_file`` and
    ``load_posterior_file`` enforce it; each check runs once over the whole
    stack."""
    slots = pset.means.shape[:-1]
    if (pset.means.ndim != (3 if pset.kind == "gmm" else 2) or pset.means.shape[-1] != k
            or pset.precisions.shape != (*slots, k, k)
            or (pset.kind == "gmm" and pset.weights.shape != slots)):
        return f"means, precisions and weights do not hold the same K={k} components"
    checks = [(np.isfinite(pset.means), "non-finite mean"),
              (np.isfinite(pset.precisions), "non-finite precision")]
    if pset.kind == "gmm":
        weights = pset.weights
        checks += [(np.isfinite(weights) & (weights >= 0), "negative or non-finite weight"),
                   (np.abs(weights.sum(axis=1) - 1.0) <= 1e-9, "weights do not sum to 1")]
    for ok, what in checks:
        ok = ok.all(axis=tuple(range(1, ok.ndim)))
        if not ok.all():
            return f"row {np.argmin(ok)}: {what}"
    bad = non_spd_rows(pset.precisions.reshape(-1, k, k))
    width = pset.weights.shape[1] if pset.kind == "gmm" else 1
    return f"row {bad[0] // width}: precision not positive definite" if bad.size else None


def _fixed_lambda(lam_policy) -> float | None:
    """The fixed lambda of a policy, a positive finite real number, or None
    for "median-pairwise"."""
    if isinstance(lam_policy, str) and lam_policy == "median-pairwise":
        return None
    return check_real("lam_policy", lam_policy, positive=True)


def fit_rows(samples: np.ndarray, kind: str, lam_policy="median-pairwise",
             top_n: int = 3) -> PosteriorSet:
    """Fit every row of a chain sample block ``(S, R, K)`` independently.

    ``kind`` is "mm", "dm" or "gmm".  ``lam_policy`` is either the string
    "median-pairwise" (per-row adaptive lambda) or a fixed positive finite
    number.  Every argument is checked before any row is fitted.  The dm
    and gmm fits run over all rows at once, with results bitwise equal to
    fitting each row alone.  The default lambda of a row reads its m = min(S,
    ``LAMBDA_SUBSAMPLE``) evenly spaced draws ``s * S // m``; fits take no seed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 3 or 0 in samples.shape[1:]:
        raise ValidationError("expected samples of shape (S, R, K) with R, K >= 1")
    if kind not in ("mm", "dm", "gmm"):
        raise ValidationError(f"unknown approximation kind: {kind!r}")
    n_samples, n_rows, k = samples.shape
    if n_samples < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} samples, got {n_samples}")
    top_n = check_int("top_n", top_n, positive=True)
    lam = _fixed_lambda(lam_policy)

    x = np.ascontiguousarray(samples.transpose(1, 0, 2))
    if kind == "mm":
        return PosteriorSet(*_gaussian_fits(x))
    if lam is not None:
        lams = np.full(n_rows, lam)
    else:
        m = min(n_samples, LAMBDA_SUBSAMPLE)
        lams = median_pairwise_lambda(x[:, np.arange(m) * n_samples // m])
    return _fit_clusters(x, lams, kind, top_n)


# --- file format -----------------------------------------------------------
#
# A posterior file is a .npz archive with a JSON header plus arrays.
# Precisions are stored as packed upper triangles, which is lossless
# because every precision in a PosteriorSet is exactly symmetric.  A
# mixture file stores its ``weights (R, C)`` whole but only the components
# of positive weight, row after row; loading puts them back in their slots.

def _pack_ut(mats: np.ndarray) -> np.ndarray:
    rows, cols = _triangles(mats.shape[-1])[0]
    return mats[..., rows, cols]


def _unpack_ut(packed: np.ndarray, k: int) -> np.ndarray:
    if packed.shape[-1] != k * (k + 1) // 2:
        raise ValueError(f"packed precisions of {packed.shape[-1]} values, not K={k}")
    # ``take`` keeps the stack C-ordered (``packed[..., slot]`` would not),
    # and the stacked products downstream sum in an order set by the layout.
    return np.take(packed, _triangles(k)[1], axis=-1).reshape(*packed.shape[:-1], k, k)


def save_posterior_file(path, posteriors: PosteriorSet, **header) -> None:
    """Write ``posteriors`` under the header ``{"kind", "k", **header}``.
    A set that breaks the posterior contract is a ``NumericalError`` naming
    the path and the row, and nothing is written."""
    problem = _contract_violation(posteriors, posteriors.k)
    if problem:
        raise NumericalError(f"invalid posteriors for {path}: {problem}")
    header = {"kind": posteriors.kind, "k": int(posteriors.k), **header}
    means, precisions = posteriors.means, posteriors.precisions
    arrays = {"header": np.array(json.dumps(header))}
    if posteriors.kind == "gmm":
        arrays["weights"] = posteriors.weights
        present = posteriors.weights > 0
        means, precisions = means[present], precisions[present]
    arrays.update(means=means, prec_ut=_pack_ut(precisions))
    write_atomic(path, lambda fh: np.savez(fh, **arrays))


def load_posterior_file(path) -> PosteriorSet:
    """Load a posterior file; raises ArtifactError on missing or corrupt
    input, and on arrays that break the posterior contract."""
    try:
        with open(path, "rb") as fh, np.load(fh) as npz:
            header = json.loads(str(npz["header"]))
            if not (isinstance(header, dict) and header.get("kind") in ("gaussian", "gmm")
                    and type(header.get("k")) is int and header["k"] >= 1):
                raise ValueError("the header is not an object with kind 'gaussian' or "
                                 "'gmm' and an integer k >= 1")
            k = header["k"]
            means, precisions = npz["means"], _unpack_ut(npz["prec_ut"], k)
            if header["kind"] == "gaussian":
                pset = PosteriorSet(means, precisions)
            else:
                weights = npz["weights"]
                present = weights > 0
                pset = PosteriorSet(np.zeros((*weights.shape, k)),
                                    np.tile(np.eye(k), (*weights.shape, 1, 1)), weights)
                pset.means[present] = means
                pset.precisions[present] = precisions
    except FileNotFoundError as exc:
        raise ArtifactError(f"posterior file not found: {path}") from exc
    except (zipfile.BadZipFile, OSError, KeyError, TypeError, ValueError, EOFError) as exc:
        raise ArtifactError(f"corrupt posterior file {path}: {exc}") from exc
    problem = _contract_violation(pset, k)
    if problem:
        raise ArtifactError(f"invalid posterior file {path}: {problem}")
    return pset
