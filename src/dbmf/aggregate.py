"""Combining per-row Gaussian subset posteriors into full-data marginals.

Each rule is one batched function over a side's stacks (all rows of the
side at once), to which every subset contributes means ``(R, K)`` and
precisions ``(R, K, K)``; a single subset comes back unchanged.  The
staged-pipeline rule removes the multiply-counted propagated posterior,
repairing indefinite differences by eigenvalue correction; the
independent-subsets rule divides away the multiply-counted prior.  Both then
share one Gaussian product step.  One row is a one-row stack.
"""

from __future__ import annotations

import logging

import numpy as np

from .approx import _symmetrize, non_spd_rows
from .errors import NumericalError

logger = logging.getLogger(__name__)

# Relative scale of the "small constant" added on top of |lambda_min| when
# repairing an indefinite matrix inside aggregation.
EV_EPS_SCALE = 1e-6

# One subset's (means (R, K), precisions (R, K, K)), and one repair:
# (row, where, diagonal shift).
Stack = tuple[np.ndarray, np.ndarray]
Event = tuple[int, str, float]


def _repair(mats: np.ndarray, eps: np.ndarray, where: str,
            events: list[Event]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue repair of a symmetric stack: the indices of the matrices
    without a Cholesky factor, and those matrices with ``|lambda_min| +
    eps`` added to their diagonals.  Appends one event per repair."""
    bad = non_spd_rows(mats)
    lam_min = np.linalg.eigvalsh(mats[bad])[:, 0]
    repaired = mats[bad] + (np.abs(lam_min) + eps[bad])[:, None, None] * np.eye(mats.shape[-1])
    shifts = repaired[:, 0, 0] - mats[bad, 0, 0]
    events.extend(zip(bad.tolist(), [where] * bad.size, shifts.tolist()))
    return bad, repaired


def _row_eps(precisions: np.ndarray) -> np.ndarray:
    k = precisions.shape[-1]
    return EV_EPS_SCALE * np.maximum(np.trace(precisions, axis1=-2, axis2=-1) / k,
                                  np.finfo(float).tiny)


def _matvec(precisions: np.ndarray, means: np.ndarray) -> np.ndarray:
    return (precisions @ means[..., None])[..., 0]


def _product(precision: np.ndarray, weighted: np.ndarray, stacks: list[Stack], eps: np.ndarray,
             where: str, events: list[Event]) -> tuple[np.ndarray, np.ndarray, list[Event]]:
    """Add each stack's precision and precision-weighted mean to the base
    ``precision`` and ``weighted``, symmetrize and repair the sum, then solve
    for the means; events come back ordered by row."""
    for means_j, precs_j in stacks:
        precision += precs_j
        weighted += _matvec(precs_j, means_j)
    precision = _symmetrize(precision)
    bad, repaired = _repair(precision, eps, where, events)
    precision[bad] = repaired
    if bad.size:
        logger.warning("%d aggregated precisions eigenvalue-corrected", bad.size)
    means = np.linalg.solve(precision, weighted[..., None])[..., 0]
    if not np.all(np.isfinite(means)):
        raise NumericalError("aggregation produced non-finite mean")
    events.sort(key=lambda ev: ev[0])
    return means, precision, events


def staged_aggregate(stacks: list[Stack]) -> tuple[np.ndarray, np.ndarray, list[Event]]:
    """The staged rule over a side's stacks, ``stacks[0]`` from stage I.

    For every later-stage subset j, the first-stage precision is subtracted;
    an indefinite difference is eigenvalue-corrected ("subset j") before the
    first-stage precision is added back.  Then, with J subsets in all,

        precision* = (2 - J) L1 + sum_j Lj*
        mean*      = inv(precision*) ((2 - J) L1 m1 + sum_j Lj* mj)

    and a still indefinite precision* is corrected once more ("final").  A
    row's repair constant is ``EV_EPS_SCALE`` times its mean first-stage
    precision diagonal.  Returns means, precisions and repair events.
    """
    means1, precs1 = stacks[0]
    if len(stacks) == 1:
        return means1, precs1, []
    eps = _row_eps(precs1)
    events: list[Event] = []
    corrected = []
    for j, (means_j, precs_j) in enumerate(stacks[1:], start=2):
        bad, repaired = _repair(_symmetrize(precs_j - precs1), eps, f"subset {j}", events)
        if bad.size:
            precs_j = precs_j.copy()
            precs_j[bad] = repaired + precs1[bad]
        corrected.append((means_j, precs_j))
    coef = 2.0 - len(stacks)
    return _product(coef * precs1, coef * _matvec(precs1, means1), corrected,
                    eps, "final", events)


def ep_aggregate(stacks: list[Stack], prior: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, list[Event]]:
    """The independent-subsets rule over a side's stacks: the product of the
    J subset Gaussians with J-1 copies of the shared prior ``(mean (K,),
    precision (K, K))`` divided away,

        precision* = sum_j Lj - (J - 1) L_prior
        mean*      = inv(precision*) (sum_j Lj mj - (J - 1) L_prior m_prior)

    An indefinite precision* is eigenvalue-corrected ("ep final"), with the
    repair constant scaled by the first subset's precision.
    """
    means0, precs0 = stacks[0]
    if len(stacks) == 1:
        return means0, precs0, []
    prior_mean, prior_precision = prior
    copies = len(stacks) - 1.0
    return _product(-copies * prior_precision + precs0,
                    -copies * (prior_precision @ prior_mean) + _matvec(precs0, means0),
                    stacks[1:], _row_eps(precs0), "ep final", [])
