import itertools

import numpy as np
import pytest

from dbmf import aggregate
from dbmf.errors import NumericalError
from oracles import mp_ep_aggregate, mp_gaussian_product, mp_staged_aggregate


def random_spd(rng, k, scale=1.0):
    a = rng.standard_normal((k, k))
    return scale * (a @ a.T + k * np.eye(k))


def row(mean, precision):
    """One row as a one-row stack ``(means (1, K), precisions (1, K, K))``,
    the precision symmetrized."""
    precision = np.asarray(precision, dtype=np.float64)
    return np.asarray(mean, dtype=np.float64)[None], (0.5 * (precision + precision.T))[None]


def random_posterior(rng, k, scale=1.0):
    return row(2 * rng.standard_normal(k), random_spd(rng, k, scale))


def no_prior(k):
    """Nothing divided away: ``ep_aggregate`` is then the plain product."""
    return np.zeros(k), np.zeros((k, k))


class TestGaussianProduct:
    def test_single_input_identity(self):
        rng = np.random.default_rng(0)
        p = random_posterior(rng, 3)
        means, precs, _ = aggregate.ep_aggregate([p], no_prior(3))
        np.testing.assert_allclose(means, p[0], rtol=1e-12)
        np.testing.assert_allclose(precs, p[1])

    def test_scalar_closed_form(self):
        # N(0,1) x N(2,1) -> N(1, var 1/2)
        a = row([0.0], [[1.0]])
        b = row([2.0], [[1.0]])
        means, precs, _ = aggregate.ep_aggregate([a, b], no_prior(1))
        assert means[0, 0] == pytest.approx(1.0)
        assert precs[0, 0, 0] == pytest.approx(2.0)

    def test_matches_grid_density_product(self):
        # product of three 2-D Gaussian densities on a dense grid
        rng = np.random.default_rng(1)
        posts = [random_posterior(rng, 2, 0.5) for _ in range(3)]
        means, precs, _ = aggregate.ep_aggregate(posts, no_prior(2))

        axis = np.linspace(-8, 8, 501)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        logp = np.zeros(pts.shape[0])
        for mean, prec in posts:
            d = pts - mean[0]
            logp -= 0.5 * np.einsum("nk,kl,nl->n", d, prec[0], d)
        logp -= logp.max()
        w = np.exp(logp)
        w /= w.sum()
        grid_mean = w @ pts
        centered = pts - grid_mean
        grid_cov = np.einsum("n,nk,nl->kl", w, centered, centered)
        np.testing.assert_allclose(means[0], grid_mean, atol=1e-5)
        np.testing.assert_allclose(np.linalg.inv(precs[0]), grid_cov, atol=1e-4)

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        posts = [random_posterior(rng, 3) for _ in range(4)]
        base_means, base_precs, _ = aggregate.ep_aggregate(posts, no_prior(3))
        for perm in itertools.permutations(range(4)):
            means, precs, _ = aggregate.ep_aggregate([posts[i] for i in perm], no_prior(3))
            np.testing.assert_allclose(means, base_means, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(precs, base_precs, rtol=1e-12, atol=1e-12)


class TestEigenvalueCorrection:
    def test_spd_unchanged(self):
        events = []
        bad, repaired = aggregate._repair(np.eye(3)[None], np.array([1e-6]), "", events)
        assert bad.size == 0 and repaired.size == 0 and events == []

    def test_closed_form_shift(self):
        mat = np.diag([1.0, -0.5])
        bad, repaired = aggregate._repair(mat[None], np.array([1e-6]), "", [])
        assert bad.tolist() == [0]
        np.testing.assert_allclose(np.diag(repaired[0]), [1.5 + 1e-6, 1e-6])
        np.testing.assert_allclose(repaired[0] - np.diag(np.diag(repaired[0])), 0)

    def test_random_indefinite_becomes_spd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            sym = rng.standard_normal((5, 5))
            sym = 0.5 * (sym + sym.T) - 1.5 * np.eye(5)
            bad, repaired = aggregate._repair(sym[None], np.array([1e-8]), "", [])
            out = repaired[0] if bad.size else sym
            np.linalg.cholesky(out)  # must not raise
            # shift matches the eigen-decomposition oracle
            lam_min = np.linalg.eigvalsh(sym)[0]
            if lam_min < 0:
                np.testing.assert_allclose(out, sym + (abs(lam_min) + 1e-8) * np.eye(5))


class TestStagedAggregation:
    def test_single_subset_unchanged(self):
        rng = np.random.default_rng(5)
        p = random_posterior(rng, 2)
        means, precs, events = aggregate.staged_aggregate([p])
        assert means is p[0] and precs is p[1] and events == []

    def test_two_subset_algebra(self):
        # second precision is twice the first with the same mean:
        # aggregate = (2 L1, m1)
        rng = np.random.default_rng(6)
        p1 = random_posterior(rng, 3)
        p2 = row(p1[0][0].copy(), 2.0 * p1[1][0])
        means, precs, _ = aggregate.staged_aggregate([p1, p2])
        np.testing.assert_allclose(precs, 2.0 * p1[1], rtol=1e-12)
        np.testing.assert_allclose(means, p1[0], rtol=1e-10)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            p1 = random_posterior(rng, k)
            others = [row(2 * rng.standard_normal(k), p1[1][0] + random_spd(rng, k))
                      for _ in range(int(rng.integers(1, 4)))]
            means, precs, events = aggregate.staged_aggregate([p1, *others])
            assert not events  # all differences SPD by construction
            mean, prec = mp_staged_aggregate(p1[0][0], p1[1][0],
                                             [o[0][0] for o in others],
                                             [o[1][0] for o in others])
            assert np.linalg.norm(means[0] - mean) <= 1e-10 * np.linalg.norm(mean)
            assert np.linalg.norm(precs[0] - prec) <= 1e-10 * np.linalg.norm(prec)

    def test_indefinite_differences_repaired(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = 4
            p1 = random_posterior(rng, k, scale=2.0)
            # later-stage precisions SMALLER than stage 1: differences are
            # negative definite, the adversarial case
            others = [row(rng.standard_normal(k), 0.25 * random_spd(rng, k))
                      for _ in range(3)]
            means, precs, events = aggregate.staged_aggregate([p1, *others])
            assert events
            np.linalg.cholesky(precs[0])
            assert np.all(np.isfinite(means[0]))

    def test_homogeneity_in_precision_scale(self):
        rng = np.random.default_rng(9)
        p1 = random_posterior(rng, 3)
        others = [row(rng.standard_normal(3), p1[1][0] + random_spd(rng, 3))
                  for _ in range(2)]
        base_means, base_precs, _ = aggregate.staged_aggregate([p1, *others])
        c = 7.0
        means, precs, _ = aggregate.staged_aggregate(
            [row(p1[0][0], c * p1[1][0]), *(row(o[0][0], c * o[1][0]) for o in others)])
        np.testing.assert_allclose(precs, c * base_precs, rtol=1e-10)
        np.testing.assert_allclose(means, base_means, rtol=1e-9)


class TestIndependentSubsetAggregation:
    def flat_prior(self, k):
        return np.zeros(k), 1e-12 * np.eye(k)

    def test_single_subset(self):
        rng = np.random.default_rng(11)
        p = random_posterior(rng, 2)
        means, precs, _ = aggregate.ep_aggregate([p], self.flat_prior(2))
        np.testing.assert_allclose(precs, p[1], rtol=1e-9)
        np.testing.assert_allclose(means, p[0], rtol=1e-9)

    def test_two_identical_posteriors_double_precision(self):
        rng = np.random.default_rng(12)
        p = random_posterior(rng, 3)
        means, precs, _ = aggregate.ep_aggregate([p, p], self.flat_prior(3))
        np.testing.assert_allclose(precs, 2 * p[1], rtol=1e-9)
        np.testing.assert_allclose(means, p[0], rtol=1e-8)

    def test_scalar_closed_form_with_standard_prior(self):
        rng = np.random.default_rng(13)
        prior = (np.zeros(1), np.eye(1))
        posts = [row(rng.standard_normal(1), np.array([[float(rng.uniform(1.5, 4.0))]]))
                 for _ in range(3)]
        means, precs, _ = aggregate.ep_aggregate(posts, prior)
        lam = sum(p[1][0, 0, 0] for p in posts) - 2.0
        mean = sum(p[1][0, 0, 0] * p[0][0, 0] for p in posts) / lam
        assert precs[0, 0, 0] == pytest.approx(lam, rel=1e-12)
        assert means[0, 0] == pytest.approx(mean, rel=1e-10)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            j = int(rng.integers(2, 5))
            prior = (np.zeros(k), np.eye(k))
            # keep subset precisions well above the subtracted prior mass
            posts = [row(rng.standard_normal(k), random_spd(rng, k) + j * np.eye(k))
                     for _ in range(j)]
            means, precs, _ = aggregate.ep_aggregate(posts, prior)
            mean, prec = mp_ep_aggregate([p[0][0] for p in posts],
                                         [p[1][0] for p in posts], *prior)
            assert np.linalg.norm(means[0] - mean) <= 1e-10 * np.linalg.norm(mean)
            assert np.linalg.norm(precs[0] - prec) <= 1e-10 * np.linalg.norm(prec)

    def test_indefinite_total_repaired(self):
        # strong prior subtraction drives the total indefinite
        posts = [row([1.0], [[0.4]]), row([-1.0], [[0.4]])]
        _, precs, events = aggregate.ep_aggregate(posts, (np.zeros(1), np.eye(1)))
        assert events
        np.linalg.cholesky(precs[0])

    def test_overflowing_mean_is_numerical_error(self):
        # The precision-weighted means sum to inf; numpy's overflow warning
        # is silenced so the finiteness check is what stops the product.
        posts = [row([1e308], [[1.0]]), row([1e308], [[1.0]])]
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
            aggregate.ep_aggregate(posts, (np.zeros(1), np.zeros((1, 1))))


class TestProductOracleBattery:
    def test_thousand_instance_oracle_battery(self):
        # the plain product vs extended precision on 500 random SPD instances
        rng = np.random.default_rng(16)
        for _ in range(500):
            k = int(rng.integers(1, 6))
            posts = [random_posterior(rng, k) for _ in range(int(rng.integers(1, 5)))]
            means, precs, _ = aggregate.ep_aggregate(posts, no_prior(k))
            mean, prec = mp_gaussian_product([p[0][0] for p in posts],
                                             [p[1][0] for p in posts])
            assert np.linalg.norm(means[0] - mean) <= 1e-10 * max(np.linalg.norm(mean), 1e-30)
            assert np.linalg.norm(precs[0] - prec) <= 1e-10 * np.linalg.norm(prec)


def _shifted(mat, eps):
    """Reference eigenvalue repair of one matrix (numpy eigvalsh)."""
    return mat + (abs(np.linalg.eigvalsh(mat)[0]) + eps) * np.eye(mat.shape[0])


def _with_eigenvalues(rng, values):
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    mat = q @ np.diag(values) @ q.T
    return 0.5 * (mat + mat.T)


class TestBatchedRules:
    """Whole-block rules, checked row by row against the extended-precision
    oracles, with the eigenvalue repairs applied to the oracle inputs."""

    def test_staged_block_with_indefinite_differences_and_total(self):
        rng = np.random.default_rng(17)
        n_rows, k = 30, 3
        means1 = 2 * rng.standard_normal((n_rows, k))
        precs1 = np.array([random_spd(rng, k) for _ in range(n_rows)])
        # Row kinds: 0 all differences SPD, 1 subset 2 indefinite, 2 both
        # indefinite, 3 indefinite stage-1 precision so the total is too.
        kinds = np.arange(n_rows) % 4
        precs1[kinds == 3] = [_with_eigenvalues(rng, [-3.0, 4.0, 5.0])
                              for _ in range(np.sum(kinds == 3))]
        others = []
        for j in (2, 3):
            diffs = np.array([
                _with_eigenvalues(rng, [-0.5, 1.0, 2.0]) if (kind == 1 and j == 2) or kind == 2
                else _with_eigenvalues(rng, [0.2, 0.5, 1.0]) for kind in kinds])
            others.append((rng.standard_normal((n_rows, k)), precs1 + diffs))

        means, precs, events = aggregate.staged_aggregate([(means1, precs1), *others])

        expected_events = []
        for row in range(n_rows):
            eps = aggregate.EV_EPS_SCALE * max(np.trace(precs1[row]) / k, np.finfo(float).tiny)
            corrected = []
            for j, (m_j, p_j) in enumerate(others, start=2):
                diff = p_j[row] - precs1[row]
                if np.linalg.eigvalsh(diff)[0] < 0:
                    expected_events.append((row, f"subset {j}"))
                    corrected.append(precs1[row] + _shifted(diff, eps))
                else:
                    corrected.append(p_j[row])
            mean, prec = mp_staged_aggregate(means1[row], precs1[row],
                                             [m[row] for m, _ in others], corrected)
            if np.linalg.eigvalsh(prec)[0] < 0:
                expected_events.append((row, "final"))
                rhs = -precs1[row] @ means1[row] + sum(
                    p @ m[row] for p, (m, _) in zip(corrected, others))
                prec = _shifted(prec, eps)
                mean = np.linalg.solve(prec, rhs)
            assert np.linalg.norm(means[row] - mean) <= 1e-9 * np.linalg.norm(mean)
            assert np.linalg.norm(precs[row] - prec) <= 1e-10 * np.linalg.norm(prec)
        assert [(row, where) for row, where, _ in events] == expected_events
        assert {where for _, where, _ in events} == {"subset 2", "subset 3", "final"}
        assert all(shift > 0 for _, _, shift in events)
        np.linalg.cholesky(precs)

    def test_ep_block_with_indefinite_total(self):
        rng = np.random.default_rng(18)
        n_rows, k, n_subsets = 24, 3, 3
        prior = (np.zeros(k), np.eye(k))
        weak = np.arange(n_rows) % 3 == 0
        subsets = []
        for _ in range(n_subsets):
            precs = np.array([0.3 * np.eye(k) if w else random_spd(rng, k) + n_subsets * np.eye(k)
                              for w in weak])
            subsets.append((rng.standard_normal((n_rows, k)), precs))

        means, precs, events = aggregate.ep_aggregate(subsets, prior)

        for row in range(n_rows):
            mean, prec = mp_ep_aggregate([m[row] for m, _ in subsets],
                                         [p[row] for _, p in subsets],
                                         *prior)
            if weak[row]:
                eps = aggregate.EV_EPS_SCALE * np.trace(subsets[0][1][row]) / k
                rhs = sum(p[row] @ m[row] for m, p in subsets)
                prec = _shifted(prec, eps)
                mean = np.linalg.solve(prec, rhs)
            assert np.linalg.norm(means[row] - mean) <= 1e-9 * np.linalg.norm(mean)
            assert np.linalg.norm(precs[row] - prec) <= 1e-10 * np.linalg.norm(prec)
        assert [(row, where) for row, where, _ in events] == \
            [(row, "ep final") for row in np.flatnonzero(weak)]

    def test_single_subset_returned_unchanged(self):
        rng = np.random.default_rng(19)
        stack = (rng.standard_normal((5, 2)), np.array([random_spd(rng, 2) for _ in range(5)]))
        prior = (np.zeros(2), np.eye(2))
        for means, precs, events in (aggregate.staged_aggregate([stack]),
                                     aggregate.ep_aggregate([stack], prior)):
            assert means is stack[0] and precs is stack[1] and events == []
