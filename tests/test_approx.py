import json
import logging
import os
import zipfile

import numpy as np
import pytest

import oracles
from dbmf import approx
from dbmf.errors import ArtifactError, NumericalError, ValidationError
from oracles import gmm_set, mixture_moments


def random_spd(rng, k, scale=1.0):
    a = rng.standard_normal((k, k))
    return scale * (a @ a.T + k * np.eye(k))


def one_row(cloud):
    """A single cloud ``(S, K)`` as the chain block ``(S, 1, K)`` of one row."""
    return np.asarray(cloud, dtype=np.float64)[:, None, :]


class TestLambdaMeans:
    def test_identical_samples_one_cluster(self):
        samples = np.ones((10, 3))
        clustering = approx.lambda_means(samples[None], np.array([0.5]))
        assert clustering.counts.tolist() == [1]
        assert np.all(clustering.assignments == 0)

    def test_two_far_clouds(self):
        rng = np.random.default_rng(0)
        cloud = 0.1 * rng.standard_normal((30, 2))
        samples = np.concatenate([cloud - 10, cloud + 10])
        clustering = approx.lambda_means(samples[None], np.array([1.0]))
        assert clustering.counts.tolist() == [2]
        assert sorted(clustering.sizes()[0].tolist()) == [30, 30]

    def test_cluster_count_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(3)
        samples = np.concatenate([rng.standard_normal((25, 2)) + c
                                  for c in ((0, 0), (6, 0), (0, 6), (9, 9))])[:50]
        lams = np.linspace(0.3, 25.0, 40)
        counts = [approx.lambda_means(samples[None], np.array([lam])).counts[0] for lam in lams]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((40, 3))
        clustering = approx.lambda_means(samples[None], np.array([2.0]))
        assert np.all(clustering.sizes() > 0)
        assert clustering.assignments.max() == clustering.counts[0] - 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            approx.lambda_means(np.ones((1, 3, 1)), np.array([0.0]))

    @pytest.mark.parametrize("lam", [2.0, np.array([2.0, 2.0]), np.array([[2.0]])])
    def test_one_lambda_per_row(self, lam):
        with pytest.raises(ValidationError, match=r"one value per row, shape \(1,\)"):
            approx.lambda_means(np.zeros((1, 5, 2)), lam)

    def test_cycling_cloud_stops_with_the_capped_result(self):
        # A unimodal cloud under its median pairwise distance: the loop
        # revisits an earlier state, and the cluster count at the cap
        # depends on the cap's parity.
        samples = np.random.default_rng(1).standard_normal((30, 2))
        lam = approx.median_pairwise_lambda(samples[None])
        counts = set()
        for max_iters in (99, 100, 101):
            got = approx.lambda_means(samples[None], lam, max_iters=max_iters)
            assign, centers, iterations, converged = oracles.lambda_means(
                samples, lam[0], max_iters=max_iters)
            assert np.array_equal(got.assignments[0], assign)
            assert got.centers[0].tobytes() == centers.tobytes()
            assert not got.converged[0] and not converged
            assert got.iterations[0] < iterations == max_iters
            counts.add(int(got.counts[0]))
        assert len(counts) == 2

    def test_converged_result_independent_of_max_iters(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate([0.1 * rng.standard_normal((30, 2)) + c for c in (-10, 0, 10)])
        lam = np.array([2.0])
        base = approx.lambda_means(samples[None], lam)
        assert base.converged[0] and base.counts[0] == 3
        _, _, iterations, converged = oracles.lambda_means(samples, lam=2.0)
        assert (iterations, converged) == (base.iterations[0], True)
        for max_iters in range(base.iterations[0], base.iterations[0] + 4):
            got = approx.lambda_means(samples[None], lam, max_iters=max_iters)
            assert (got.iterations[0], got.converged[0]) == (base.iterations[0], True)
            assert np.array_equal(got.assignments, base.assignments)
            assert got.centers.tobytes() == base.centers.tobytes()
        capped = approx.lambda_means(samples[None], lam, max_iters=base.iterations[0] - 1)
        assert not capped.converged[0]


class TestMomentMatching:
    def test_two_point_population_convention(self):
        fit = approx.fit_rows(one_row([[-1.0], [1.0], [-1.0], [1.0]]), "mm")
        assert abs(fit.means[0, 0]) < 1e-12
        # population variance 1 plus the relative ridge
        assert fit.precisions[0, 0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_degenerate_cloud_hits_ridge_floor(self):
        fit = approx.fit_rows(one_row(np.full((6, 1), 2.5)), "mm")
        assert fit.precisions[0, 0, 0] == pytest.approx(1e8, rel=1e-9)

    def test_gaussian_recovery(self):
        rng = np.random.default_rng(1)
        samples = 3.0 + 2.0 * rng.standard_normal((500, 1))
        fit = approx.fit_rows(one_row(samples), "mm")
        se_mean = 2.0 / np.sqrt(500)
        assert abs(fit.means[0, 0] - 3.0) < 3 * se_mean
        var = 1.0 / fit.precisions[0, 0, 0]
        se_var = 4.0 * np.sqrt(2.0 / 500)
        assert abs(var - 4.0) < 3 * se_var

    def test_needs_k_plus_two_samples(self):
        with pytest.raises(ValidationError):
            approx.fit_rows(one_row(np.zeros((3, 2))), "mm")

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            samples = rng.standard_normal((50, k)) @ random_spd(rng, k, 0.3)
            shift = 10.0 * rng.standard_normal(k)
            base = approx.fit_rows(one_row(samples), "mm")
            moved = approx.fit_rows(one_row(samples + shift), "mm")
            np.testing.assert_allclose(moved.means, base.means + shift,
                                       rtol=0, atol=1e-8)
            np.testing.assert_allclose(moved.precisions, base.precisions,
                                       rtol=1e-7, atol=1e-9)


class TestDominantMode:
    def test_unimodal_equals_moment_matching(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((60, 2))
        dom = approx.fit_rows(one_row(samples), "dm", lam_policy=50.0)
        mm = approx.fit_rows(one_row(samples), "mm")
        np.testing.assert_allclose(dom.means, mm.means)
        np.testing.assert_allclose(dom.precisions, mm.precisions)

    def test_majority_mode_wins(self):
        rng = np.random.default_rng(3)
        big = 0.2 * rng.standard_normal((70, 1)) + 5.0
        small = 0.2 * rng.standard_normal((30, 1)) - 5.0
        samples = np.concatenate([small, big])  # minority listed first
        fit = approx.fit_rows(one_row(samples), "dm", lam_policy=1.5)
        assert abs(fit.means[0, 0] - 5.0) < 0.2

    def test_exact_tie_takes_lowest_cluster_index(self):
        rng = np.random.default_rng(4)
        lo = 0.05 * rng.standard_normal((20, 1)) - 8.0
        hi = 0.05 * rng.standard_normal((20, 1)) + 8.0
        fit_lo_first = approx.fit_rows(one_row(np.concatenate([lo, hi])), "dm", lam_policy=1.0)
        fit_hi_first = approx.fit_rows(one_row(np.concatenate([hi, lo])), "dm", lam_policy=1.0)
        assert fit_lo_first.means[0, 0] < 0 < fit_hi_first.means[0, 0]

    def test_small_cluster_falls_back(self):
        rng = np.random.default_rng(5)
        # lambda tiny: every cluster is a near-singleton, all below K+2
        samples = rng.standard_normal((12, 2)) * 5
        fit = approx.fit_rows(one_row(samples), "dm", lam_policy=1e-6)
        mm = approx.fit_rows(one_row(samples), "mm")
        np.testing.assert_allclose(fit.means, mm.means)


class TestFitGmm:
    def _clouds(self, rng, centers, sizes, spread=0.1):
        parts = [c + spread * rng.standard_normal((s, len(np.atleast_1d(c))))
                 for c, s in zip(np.atleast_2d(centers), sizes)]
        return np.concatenate(parts)

    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((40, 1))
        gmm = approx.fit_rows(one_row(samples), "gmm", lam_policy=100.0, top_n=3)
        assert gmm.weights.shape == (1, 1)
        assert gmm.weights[0, 0] == 1.0
        mm = approx.fit_rows(one_row(samples), "mm")
        np.testing.assert_allclose(gmm.means[0, 0], mm.means[0])

    def test_three_equal_clusters(self):
        rng = np.random.default_rng(1)
        samples = self._clouds(rng, [[-10.0], [0.0], [10.0]], [20, 20, 20])
        gmm = approx.fit_rows(one_row(samples), "gmm", lam_policy=2.0, top_n=3)
        assert gmm.weights.shape == (1, 3)
        np.testing.assert_allclose(np.sort(gmm.weights[0]), [1 / 3] * 3)

    def test_top_n_renormalization(self):
        rng = np.random.default_rng(2)
        samples = self._clouds(rng, [[-30.0], [-10.0], [10.0], [30.0]],
                               [40, 30, 20, 10])
        gmm = approx.fit_rows(one_row(samples), "gmm", lam_policy=3.0, top_n=3)
        assert gmm.weights.shape == (1, 3)
        np.testing.assert_allclose(np.sort(gmm.weights[0])[::-1],
                                   np.array([40, 30, 20]) / 90.0)

    def test_weights_positive_sum_one_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            samples = rng.standard_normal((60, k)) * rng.uniform(0.5, 3)
            gmm = approx.fit_rows(one_row(samples), "gmm",
                                  lam_policy=float(rng.uniform(0.5, 5)), top_n=3)
            assert np.all(gmm.weights > 0)
            assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-12)
            np.linalg.cholesky(gmm.precisions)  # SPD or raises


class TestPoolGmm:
    def test_single_component_identity(self):
        mean = np.array([1.0, -2.0])
        prec = np.array([[2.0, 0.3], [0.3, 1.0]])
        pooled = gmm_set([(np.array([1.0]), mean[None], prec[None])]).pooled()
        np.testing.assert_allclose(pooled.means[0], mean)
        np.testing.assert_allclose(pooled.precisions[0], prec, rtol=1e-12)

    def test_symmetric_two_component_law_of_total_variance(self):
        pooled = gmm_set([(np.array([0.5, 0.5]),
                           np.array([[-1.0], [1.0]]),
                           np.array([[[1.0]], [[1.0]]]))]).pooled()
        assert pooled.means[0, 0] == pytest.approx(0.0)
        assert 1.0 / pooled.precisions[0, 0, 0] == pytest.approx(2.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        weights = np.array([0.5, 0.3, 0.2])
        means = rng.standard_normal((3, 2)) * 2
        precs = np.array([random_spd(rng, 2) for _ in range(3)])
        pooled = gmm_set([(weights, means, precs)]).pooled()

        n = 1_000_000
        comp = rng.choice(3, p=weights, size=n)
        draws = np.empty((n, 2))
        for c in range(3):
            idx = np.flatnonzero(comp == c)
            cov = np.linalg.inv(precs[c])
            draws[idx] = rng.multivariate_normal(means[c], cov, size=idx.size)
        mc_mean = draws.mean(axis=0)
        mc_cov = np.cov(draws.T)
        pooled_cov = np.linalg.inv(pooled.precisions[0])
        se_mean = np.sqrt(np.diag(pooled_cov) / n)
        assert np.all(np.abs(pooled.means[0] - mc_mean) < 4 * se_mean)
        se_cov = np.abs(pooled_cov) * np.sqrt(8.0 / n) + 4e-3 / np.sqrt(n)
        assert np.all(np.abs(pooled_cov - mc_cov) < 5 * se_cov + 5e-3)

    def test_exact_moment_preservation_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            weights = rng.dirichlet(np.ones(c))
            means = 3 * rng.standard_normal((c, k))
            precs = np.array([random_spd(rng, k) for _ in range(c)])
            pooled = gmm_set([(weights, means, precs)]).pooled()
            covs = np.linalg.inv(precs)
            exact_mean, exact_cov = mixture_moments(weights, means, covs)
            np.testing.assert_allclose(pooled.means[0], exact_mean, atol=1e-12)
            np.testing.assert_allclose(np.linalg.inv(pooled.precisions[0]), exact_cov,
                                       rtol=1e-8, atol=1e-12)


class TestFitRows:
    def test_mm_batched_equals_per_row(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((80, 5, 3))
        pset = approx.fit_rows(samples, "mm")
        for i in range(5):
            mean, precision = oracles.fit_gaussian(samples[:, i, :])
            np.testing.assert_allclose(pset.means[i], mean, atol=1e-13)
            np.testing.assert_allclose(pset.precisions[i], precision, rtol=1e-9)

    def test_kinds_and_policies(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((40, 3, 2))
        for kind in ("mm", "dm", "gmm"):
            pset = approx.fit_rows(samples, kind, lam_policy=2.0, seed=1)
            assert pset.n_rows == 3
            pset2 = approx.fit_rows(samples, kind, seed=1)  # median-pairwise
            assert pset2.n_rows == 3

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            approx.fit_rows(np.zeros((10, 2, 1)), "nope")

    @pytest.mark.parametrize("kind", ["mm", "dm", "gmm"])
    @pytest.mark.parametrize("args, message", [
        (dict(samples=np.zeros((6, 2, 5))), "7 samples, got 6"),
        (dict(lam_policy="foo"), "lam_policy"),
        (dict(lam_policy="2.0"), "lam_policy"),
        (dict(lam_policy=0.0), "lam_policy"),
        (dict(lam_policy=-1.0), "lam_policy"),
        (dict(lam_policy=float("nan")), "lam_policy"),
        (dict(lam_policy=None), "lam_policy"),
        (dict(top_n=0), "top_n"),
        (dict(lam_policy=True), "lam_policy"),
        (dict(top_n=2.5), "top_n"),
        (dict(top_n=True), "top_n"),
        (dict(samples=np.ones((10, 3))), r"expected samples of shape \(S, R, K\)"),
        (dict(samples=np.ones((10, 0, 2))), r"expected samples of shape \(S, R, K\)"),
    ])
    def test_arguments_checked_before_row_work(self, monkeypatch, kind, args, message):
        def no_row_work(*_):
            raise AssertionError("rows fitted before the arguments were checked")
        monkeypatch.setattr(approx, "_fit_clusters", no_row_work)
        monkeypatch.setattr(approx, "median_pairwise_lambda", no_row_work)
        call = {"samples": np.ones((10, 3, 2)), "kind": kind, **args}
        with pytest.raises(ValidationError, match=message):
            approx.fit_rows(**call)

    def test_one_warning_per_call_for_dominant_mode_fallbacks(self, caplog):
        rng = np.random.default_rng(8)
        samples = 5 * rng.standard_normal((12, 6, 2))
        samples[:, 4:] = 1.0  # one cluster of all 12 samples: no fallback
        with caplog.at_level(logging.WARNING, logger="dbmf.approx"):
            approx.fit_rows(samples, "dm", lam_policy=1e-6)
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().startswith("4 of 6 rows")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dbmf.approx"):
            approx.fit_rows(samples, "gmm", lam_policy=1e-6)
            approx.fit_rows(samples[:, 4:], "dm", lam_policy=1e-6)
        assert not caplog.records


def _clouds(rng, n_samples, k):
    """Rows of different shapes ``(S, 6, K)``: unimodal, two and three
    clumps, heavy tails, all samples identical, and a scattered cloud whose
    clusters under a small lambda are all below K+2 samples."""
    s = n_samples
    rows = [rng.standard_normal((s, k)),
            0.3 * rng.standard_normal((s, k)) + np.where(np.arange(s) < s // 3, 4.0, 0.0)[:, None],
            0.2 * rng.standard_normal((s, k)) + rng.choice([-3.0, 0.0, 6.0], size=(s, 1)),
            rng.standard_t(2, size=(s, k)),
            np.full((s, k), 0.7),
            20 * rng.standard_normal((s, k))]
    return np.stack(rows, axis=1)


class TestBatchedAgainstOracle:
    """fit_rows, lambda_means and median_pairwise_lambda equal the per-row
    loops of ``oracles`` bit for bit."""

    @staticmethod
    def _assert_same(got, want):
        for field in ("means", "precisions", "weights"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None) == (b is None), field
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("n_samples", [12, 40, 200])
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_fit_rows_bitwise(self, n_samples, k):
        rng = np.random.default_rng(100 * n_samples + k)
        samples = _clouds(rng, n_samples, k)
        if n_samples == 200:
            samples = samples[:, [2, 4, 5]]  # the oracle needs seconds per cycling row
        for policy in ("median-pairwise", float(rng.uniform(0.5, 3.0)), 1e-3):
            self._assert_same(approx.fit_rows(samples, "dm", policy, seed=3),
                              oracles.fit_rows(samples, "dm", policy, seed=3))
            for top_n in (1, 3):
                self._assert_same(approx.fit_rows(samples, "gmm", policy, top_n, seed=3),
                                  oracles.fit_rows(samples, "gmm", policy, top_n, seed=3))

    def test_median_pairwise_lambda_bitwise(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 5, 10):
            for n in (12, 40, 150):  # 150 > the 100-sample subsample
                for seed in range(5):
                    cloud = rng.uniform(0.1, 10) * rng.standard_normal((n, k))
                    if n > approx.LAMBDA_SUBSAMPLE:  # fit_rows's seeded subsample
                        sub = cloud[approx._subsample(n, approx.LAMBDA_SUBSAMPLE, seed)]
                    else:
                        sub = cloud
                    assert (approx.median_pairwise_lambda(sub[None])[0]
                            == oracles.median_pairwise_lambda(cloud, seed))

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_lambda_means_bitwise(self, k):
        rng = np.random.default_rng(k)
        samples = _clouds(rng, 40, k)
        for row in range(samples.shape[1]):
            cloud = samples[:, row][None]
            lam = oracles.median_pairwise_lambda(samples[:, row], seed=row)
            assert approx.median_pairwise_lambda(cloud)[0] == lam
            for max_iters in (0, 1, 7, 8, 100):
                got = approx.lambda_means(cloud, np.array([lam]), max_iters)
                assign, centers, iterations, converged = oracles.lambda_means(
                    samples[:, row], lam, max_iters)
                assert np.array_equal(got.assignments[0], assign)
                assert got.centers[0].tobytes() == centers.tobytes()
                assert got.converged[0] == converged
                if converged:
                    assert got.iterations[0] == iterations


class TestKstepCholesky:
    @staticmethod
    def mixed_stack(rng, k):
        """Shuffled SPD, singular PSD (a zero row and column, or the
        all-ones matrix: zero pivots in exact arithmetic), indefinite and
        NaN-holding symmetric matrices, with their kinds."""
        mats, kinds = [], []
        for _ in range(8):
            spd = random_spd(rng, k)
            zero_row = random_spd(rng, k)
            gap = rng.integers(k)
            zero_row[gap, :] = zero_row[:, gap] = 0.0
            q = np.linalg.qr(rng.standard_normal((k, k)))[0]
            eigs = rng.uniform(0.5, 2.0, k)
            eigs[rng.integers(k)] *= -1.0
            nan = random_spd(rng, k)
            i, j = rng.integers(k, size=2)
            nan[i, j] = nan[j, i] = np.nan
            mats += [spd, zero_row, 4.0 * np.ones((k, k)) if k > 1 else np.zeros((1, 1)),
                     (q * eigs) @ q.T, nan]
            kinds += ["spd", "psd", "psd", "indefinite", "nan"]
        order = rng.permutation(len(mats))
        mats = np.array(mats)[order]
        return 0.5 * (mats + np.swapaxes(mats, 1, 2)), np.array(kinds)[order]

    @staticmethod
    def lapack_fails(mat):
        try:
            np.linalg.cholesky(mat)
            return False
        except np.linalg.LinAlgError:
            return True

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_flags_match_lapack_per_matrix(self, k):
        # A NaN pivot is a failure too: OpenBLAS's Cholesky tests only
        # ``pivot <= 0`` and passes a matrix holding NaN, so such rows are
        # flagged by the NaN test, not by LAPACK.
        mats, kinds = self.mixed_stack(np.random.default_rng(90 + k), k)
        expected = np.array([self.lapack_fails(mat) or np.isnan(mat).any() for mat in mats])
        assert np.array_equal(expected, kinds != "spd")
        fac = np.moveaxis(mats, 0, -1).copy()
        assert np.array_equal(approx._kstep_cholesky(fac), expected)
        assert np.array_equal(approx.non_spd_rows(mats), np.flatnonzero(expected))

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_factor_and_forward_substitution(self, k):
        # On SPD rows the lower triangle is LAPACK's factor and the right-hand
        # side becomes inv(L) rhs; the strict upper triangle is untouched.
        rng = np.random.default_rng(95 + k)
        mats = np.array([random_spd(rng, k) for _ in range(30)])
        rhs = rng.standard_normal((k, 30))
        fac, fwd = np.moveaxis(mats, 0, -1).copy(), rhs.copy()
        assert not approx._kstep_cholesky(fac, fwd).any()
        chols = np.linalg.cholesky(mats)
        got = np.moveaxis(fac, -1, 0)
        np.testing.assert_allclose(np.tril(got), chols, rtol=1e-12, atol=1e-12)
        upper = np.triu_indices(k, 1)
        assert np.array_equal(got[:, upper[0], upper[1]], mats[:, upper[0], upper[1]])
        ref = np.linalg.solve(chols, rhs.T[..., None])[..., 0]
        np.testing.assert_allclose(fwd.T, ref, rtol=1e-11, atol=1e-12)

    def test_copy_leaves_input_alone(self):
        mats = np.array([[[4.0]], [[-1.0]]])
        one = mats[:1].copy()
        assert np.array_equal(approx.non_spd_rows(mats), [1])
        assert approx.non_spd_rows(one).size == 0
        assert mats[0, 0, 0] == 4.0 and one[0, 0, 0] == 4.0


class TestPosteriorFiles:
    def test_gaussian_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal((50, 4, 3))
        pset = approx.fit_rows(samples, "mm")
        path = tmp_path / "post.npz"
        approx.save_posterior_file(path, pset, side="x", row_start=0, row_stop=4)
        loaded = approx.load_posterior_file(path)
        with np.load(path) as npz:
            header = json.loads(str(npz["header"]))
        assert header == {"kind": "gaussian", "k": 3, "side": "x", "row_start": 0,
                          "row_stop": 4}
        assert np.array_equal(loaded.means, pset.means)
        assert np.array_equal(loaded.precisions, pset.precisions)
        # C order, as fitted: the stacked products that take loaded
        # precisions sum in an order set by their memory layout.
        assert loaded.precisions.flags.c_contiguous

    def test_gmm_round_trip_bit_identical(self, tmp_path):
        # Rows of 1, 2 and 3 components: the file keeps the padded weights
        # and only the components of positive weight.
        rng = np.random.default_rng(9)
        rows = [(rng.dirichlet(np.ones(c)), rng.standard_normal((c, 2)),
                 np.array([random_spd(rng, 2) for _ in range(c)])) for c in (2, 1, 3)]
        pset = gmm_set(rows)
        path = tmp_path / "gmm.npz"
        approx.save_posterior_file(path, pset, side="w", row_start=5, row_stop=8)
        with np.load(path) as npz:
            assert sorted(npz.files) == ["header", "means", "prec_ut", "weights"]
            assert npz["weights"].shape == (3, 3)
            assert npz["means"].shape == (6, 2) and npz["prec_ut"].shape == (6, 3)
        loaded = approx.load_posterior_file(path)
        for field in ("weights", "means", "precisions"):
            assert getattr(loaded, field).tobytes() == getattr(pset, field).tobytes()

    def test_truncated_file_errors(self, tmp_path):
        rng = np.random.default_rng(10)
        pset = approx.fit_rows(rng.standard_normal((30, 2, 2)), "mm")
        path = tmp_path / "post.npz"
        approx.save_posterior_file(path, pset, side="x", row_start=0, row_stop=2)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactError):
            approx.load_posterior_file(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(ArtifactError):
            approx.load_posterior_file(tmp_path / "absent.npz")

    @pytest.mark.parametrize("extra", [1, -1])
    def test_packed_precisions_of_wrong_width_error(self, tmp_path, extra):
        rng = np.random.default_rng(12)
        path = tmp_path / "post.npz"
        approx.save_posterior_file(path, approx.fit_rows(rng.standard_normal((30, 2, 2)), "mm"),
                                   side="x", row_start=0, row_stop=2)
        with np.load(path) as npz:
            arrays = dict(npz)
        width = arrays["prec_ut"].shape[1] + extra
        arrays["prec_ut"] = np.ones((2, width))
        np.savez(path, **arrays)
        with pytest.raises(ArtifactError, match="corrupt posterior file") as info:
            approx.load_posterior_file(path)
        assert str(path) in str(info.value)

    def test_pooled_set(self):
        rng = np.random.default_rng(11)
        rows = []
        for c in (2, 1, 3, 2, 1):
            rows.append((rng.dirichlet(np.ones(c)),
                         3 * rng.standard_normal((c, 3)),
                         np.array([random_spd(rng, 3) for _ in range(c)])))
        pset = gmm_set(rows)
        pooled = pset.pooled()
        assert pooled.kind == "gaussian"
        assert np.array_equal(pooled.precisions, np.swapaxes(pooled.precisions, 1, 2))
        for i, (weights, means, precisions) in enumerate(rows):
            mean, cov = mixture_moments(weights, means, np.linalg.inv(precisions))
            np.testing.assert_allclose(pooled.means[i], mean, atol=1e-12)
            np.testing.assert_allclose(np.linalg.inv(pooled.precisions[i]), cov,
                                       rtol=1e-8, atol=1e-12)

    @staticmethod
    def _arrays(kind, rng):
        """Five Gaussian rows, or three mixture rows with 2, 1 and 2
        components in two slots."""
        if kind == "gaussian":
            return dict(means=rng.standard_normal((5, 2)),
                        precisions=np.array([random_spd(rng, 2) for _ in range(5)]))
        return vars(gmm_set([(np.array([0.5, 0.5]), rng.standard_normal((2, 2)),
                         np.array([random_spd(rng, 2) for _ in range(2)])),
                        (np.array([1.0]), rng.standard_normal((1, 2)), random_spd(rng, 2)[None]),
                        (np.array([0.25, 0.75]), rng.standard_normal((2, 2)),
                         np.array([random_spd(rng, 2) for _ in range(2)]))]))

    @pytest.mark.parametrize("kind, field, index, value, message", [
        ("gaussian", "means", (2, 1), np.nan, "row 2: non-finite mean"),
        ("gaussian", "precisions", (1, 0, 0), np.inf, "row 1: non-finite precision"),
        ("gaussian", "precisions", (3, 1, 1), -50.0, "row 3: precision not positive definite"),
        ("gmm", "means", (2, 1, 0), np.nan, "row 2: non-finite mean"),
        ("gmm", "precisions", (2, 1, 0, 0), -50.0, "row 2: precision not positive definite"),
        ("gmm", "weights", (0, 1), 0.0, "row 0: weights do not sum to 1"),
        ("gmm", "weights", (0, 1), np.nan, "row 0: negative or non-finite weight"),
        ("gmm", "weights", (2, 1), 0.7, "row 2: weights do not sum to 1"),
        ("gmm", "weights", (2, 0), -0.25, "row 2: negative or non-finite weight"),
        # one component fewer stored than the weights have positive
        ("gmm", "stored means", slice(-1), None, "corrupt posterior file"),
        # a zero-weight slot may come first in its row
        ("gmm", "weights", (1,), np.array([0.0, 1.0]), None),
        # means of K=1 under a header and precisions of K=2
        ("gaussian", "stored means", (slice(None), slice(1)), None,
         "means, precisions and weights do not hold the same K=2 components"),
    ])
    def test_invalid_posteriors_rejected_at_load(self, tmp_path, kind, field, index, value,
                                                 message):
        rng = np.random.default_rng(12)
        arrays = self._arrays(kind, rng)
        path = tmp_path / "post.npz"
        approx.save_posterior_file(path, approx.PosteriorSet(**arrays), side="x", row_start=0,
                                   row_stop=5)
        approx.load_posterior_file(path)  # the untouched file is valid
        if field == "stored means":  # edit the file, not the set
            with np.load(path) as npz:
                stored = dict(npz)
            stored["means"] = stored["means"][index]
            np.savez(path, **stored)
        else:
            arrays[field] = arrays[field].copy()
            arrays[field][index] = value
            if field == "precisions":  # keep the stored upper triangle symmetric
                mat = arrays[field][index[:-2]]
                arrays[field][index[:-2]] = np.triu(mat) + np.triu(mat, 1).T
            # the checked writer refuses an invalid set
            oracles.write_posterior_file(path, approx.PosteriorSet(**arrays), side="x",
                                         row_start=0, row_stop=5)
        if message is None:
            loaded = approx.load_posterior_file(path)
            assert loaded.weights.tobytes() == arrays["weights"].tobytes()
            return
        with pytest.raises(ArtifactError) as info:
            approx.load_posterior_file(path)
        assert str(path) in str(info.value)
        assert message in str(info.value)

    @pytest.mark.parametrize("kind, field, index, value, message", [
        ("gaussian", "means", (2, 1), np.nan, "row 2: non-finite mean"),
        ("gaussian", "precisions", (1, 0, 0), np.inf, "row 1: non-finite precision"),
        ("gaussian", "precisions", (3, 1, 1), -50.0, "row 3: precision not positive definite"),
        ("gmm", "means", (2, 1, 0), np.nan, "row 2: non-finite mean"),
        ("gmm", "precisions", (2, 1, 0, 0), -50.0, "row 2: precision not positive definite"),
        ("gmm", "weights", (0, 1), np.nan, "row 0: negative or non-finite weight"),
        ("gmm", "weights", (2, 1), 0.7, "row 2: weights do not sum to 1"),
    ])
    def test_invalid_posteriors_refused_at_write(self, tmp_path, kind, field, index, value,
                                                 message):
        arrays = self._arrays(kind, np.random.default_rng(14))
        arrays[field][index] = value
        path = tmp_path / "post.npz"
        with pytest.raises(NumericalError) as info:
            approx.save_posterior_file(path, approx.PosteriorSet(**arrays), side="x",
                                       row_start=0, row_stop=5)
        assert str(path) in str(info.value) and message in str(info.value)
        assert info.value.exit_code == 3
        assert os.listdir(tmp_path) == []  # neither the target nor a temporary file

    @pytest.mark.parametrize("kind", ["gaussian", "gmm"])
    def test_independent_writer_writes_the_same_bytes(self, tmp_path, kind):
        # Every archive member, name and bytes, in order; the zip container
        # also holds each member's write time, which is left out.
        arrays = self._arrays(kind, np.random.default_rng(15))
        if kind == "gmm":
            arrays["weights"][1] = [0.0, 1.0]  # a padded row whose first slot is empty
        pset = approx.PosteriorSet(**arrays)
        header = dict(side="w", row_start=3, row_stop=6, stage=2, block=[0, 1])
        approx.save_posterior_file(tmp_path / "checked.npz", pset, **header)
        oracles.write_posterior_file(tmp_path / "direct.npz", pset, **header)
        members = []
        for name in ("checked.npz", "direct.npz"):
            with zipfile.ZipFile(tmp_path / name) as archive:
                members.append([(info.filename, archive.read(info))
                                for info in archive.infolist()])
        assert members[0] == members[1]
        assert [name for name, _ in members[0]] == (
            ["header.npy", "means.npy", "prec_ut.npy"] if kind == "gaussian"
            else ["header.npy", "weights.npy", "means.npy", "prec_ut.npy"])

    @pytest.mark.parametrize("header", [
        [1, 2], "gmm", {"kind": "gaussian"}, {"kind": "gaussian", "k": "2"},
        {"kind": "gaussian", "k": 2.5}, {"kind": "gaussian", "k": 0},
        {"kind": "gaussian", "k": True}, {"kind": "mixture", "k": 2},
    ])
    def test_malformed_header_rejected_at_load(self, tmp_path, header):
        rng = np.random.default_rng(13)
        path = tmp_path / "post.npz"
        approx.save_posterior_file(path, approx.PosteriorSet(**self._arrays("gaussian", rng)),
                                   side="x", row_start=0, row_stop=5)
        with np.load(path) as npz:
            stored = dict(npz)
        stored["header"] = np.array(json.dumps(header))
        np.savez(path, **stored)
        with pytest.raises(ArtifactError, match="corrupt posterior file .*header") as info:
            approx.load_posterior_file(path)
        assert str(path) in str(info.value)
