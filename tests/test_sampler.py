import numpy as np
import pytest

from dbmf import approx, data, pipeline, sampler
from dbmf.errors import NumericalError, ValidationError
from oracles import (bincount_suff_stats, chain_posterior_mean, gmm_component_assign,
                     gmm_set, grid_row_posterior, load_chain, sample_row_conditional,
                     sequential_float32_gram, sorted_axis)

# The sampler sums Gram terms in float32: every entry is within this much of
# its row's mean diagonal of the float64 sums.
GRAM_REL_TOL = 1e-5


def nw_prior(k):
    """Normal-Wishart hyperprior with mu0 = 0, beta0 = 2, w0 = I and nu0 = K."""
    return sampler.NormalWishartPrior(np.zeros(k), 2.0, np.eye(k), float(k))


def tiny_matrix(rng, n_rows=4, n_cols=3, tau=2.0):
    mat, _ = data.simulate(n_rows, n_cols, 1, tau, seed=int(rng.integers(1 << 30)))
    return mat


class TestRowConditional:
    def test_no_observations_draws_from_prior(self):
        rng = np.random.default_rng(0)
        prior_mean = np.array([2.0])
        prior_prec = np.array([[4.0]])
        draws = np.array([sample_row_conditional(
            np.empty(0), np.empty((0, 1)), 1.0, prior_mean, prior_prec, rng)[0]
            for _ in range(20000)])
        assert abs(draws.mean() - 2.0) < 4 * 0.5 / np.sqrt(20000)
        assert abs(draws.var() - 0.25) < 4 * 0.25 * np.sqrt(2 / 20000)

    def test_scalar_conjugate_update(self):
        # one observation y=2 with partner w=1, tau=1, prior N(0,1):
        # posterior is N(1, 1/2)
        rng = np.random.default_rng(1)
        draws = np.array([sample_row_conditional(
            np.array([2.0]), np.array([[1.0]]), 1.0,
            np.zeros(1), np.eye(1), rng)[0] for _ in range(100000)])
        se_mean = np.sqrt(0.5 / 100000)
        assert abs(draws.mean() - 1.0) < 4 * se_mean
        se_var = 0.5 * np.sqrt(2 / 100000)
        assert abs(draws.var() - 0.5) < 4 * se_var

    def test_conditional_matches_grid_posterior(self):
        # The analytic conditional moments must agree with a dense-grid
        # posterior to 3 decimals, and draws must follow them.
        rng = np.random.default_rng(2)
        tau = 1.7
        partners = rng.standard_normal((3, 2))
        y = np.array([0.7, -1.1, 0.4])
        prior_mean = np.array([0.3, -0.2])
        prior_prec = np.array([[2.0, 0.4], [0.4, 1.5]])

        grid_mean, grid_cov = grid_row_posterior(y, partners, tau,
                                                 prior_mean, prior_prec,
                                                 half_width=6.0, n_grid=501)
        analytic_prec = prior_prec + tau * partners.T @ partners
        analytic_mean = np.linalg.solve(analytic_prec,
                                        prior_prec @ prior_mean + tau * partners.T @ y)
        np.testing.assert_allclose(analytic_mean, grid_mean, atol=1e-3)
        np.testing.assert_allclose(np.linalg.inv(analytic_prec), grid_cov, atol=1e-3)

        draws = np.array([sample_row_conditional(
            y, partners, tau, prior_mean, prior_prec, rng) for _ in range(50000)])
        se = np.sqrt(np.diag(np.linalg.inv(analytic_prec)) / 50000)
        assert np.all(np.abs(draws.mean(axis=0) - analytic_mean) < 4 * se)
        np.testing.assert_allclose(np.cov(draws.T), np.linalg.inv(analytic_prec),
                                   rtol=0.05, atol=5e-3)

    def test_jitter_recovers_singular_prior(self):
        rng = np.random.default_rng(3)
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, not PD
        draw = sample_row_conditional(np.empty(0), np.empty((0, 2)), 1.0,
                                      np.zeros(2), singular, rng)
        assert np.all(np.isfinite(draw))

    def test_hopeless_precision_raises(self):
        rng = np.random.default_rng(4)
        indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalError):
            sample_row_conditional(np.empty(0), np.empty((0, 2)), 1.0,
                                   np.zeros(2), indefinite, rng)


class TestNormalWishart:
    def test_single_row_at_prior_mean(self):
        # one row equal to mu0 with beta0=1: posterior mean parameter stays
        # at mu0 and the scatter term vanishes
        prior = sampler.NormalWishartPrior(np.array([1.0, -1.0]), 1.0,
                                           np.eye(2), 5.0)
        rng = np.random.default_rng(5)
        draws = np.array([sampler.sample_hyper_normal_wishart(
            prior.mu0[None, :], prior, rng)[0] for _ in range(4000)])
        se = draws.std(axis=0) / np.sqrt(4000)
        assert np.all(np.abs(draws.mean(axis=0) - prior.mu0) < 4 * se)

    def test_wishart_mean_identity(self):
        # E[Lambda] = nu* W* for the posterior Wishart
        rng = np.random.default_rng(6)
        k = 3
        rows = rng.standard_normal((40, k)) + np.array([1.0, 0.0, -1.0])
        prior = nw_prior(k)
        n_draws = 10000
        lams = np.empty((n_draws, k, k))
        for i in range(n_draws):
            _, lams[i] = sampler.sample_hyper_normal_wishart(rows, prior, rng)

        # recompute the posterior scale like the update does
        n = rows.shape[0]
        xbar = rows.mean(axis=0)
        centered = rows - xbar
        scatter = centered.T @ centered / n
        diff = prior.mu0 - xbar
        winv = (np.linalg.inv(prior.w0) + n * scatter
                + prior.beta0 * n / (prior.beta0 + n) * np.outer(diff, diff))
        w_star = np.linalg.inv(winv)
        nu_star = prior.nu0 + n
        expected = nu_star * w_star
        sd = np.sqrt(nu_star * (w_star ** 2 + np.outer(np.diag(w_star),
                                                       np.diag(w_star))))
        assert np.all(np.abs(lams.mean(axis=0) - expected)
                      < 4 * sd / np.sqrt(n_draws))

    def test_mu_posterior_mean(self):
        rng = np.random.default_rng(7)
        k = 2
        rows = rng.standard_normal((25, k)) + 2.0
        prior = nw_prior(k)
        mus = np.array([sampler.sample_hyper_normal_wishart(rows, prior, rng)[0]
                        for _ in range(8000)])
        n = rows.shape[0]
        mu_star = (prior.beta0 * prior.mu0 + n * rows.mean(axis=0)) / (prior.beta0 + n)
        se = mus.std(axis=0) / np.sqrt(8000)
        assert np.all(np.abs(mus.mean(axis=0) - mu_star) < 4 * se)

    def test_mean_draw_uses_the_wishart_factor(self):
        # mu = mu* + solve(chol((beta0 + N) Lambda)', z): drawn with the
        # Wishart draw's own factor, it agrees up to round-off.
        k, rows = 4, np.random.default_rng(8).standard_normal((30, 4))
        prior = nw_prior(k)
        mu, lam = sampler.sample_hyper_normal_wishart(rows, prior, np.random.default_rng(9))
        replay = np.random.default_rng(9)
        replay.chisquare(prior.nu0 + 30 - np.arange(k))
        replay.standard_normal(k * (k - 1) // 2)
        beta_star = prior.beta0 + 30
        mu_star = (prior.beta0 * prior.mu0 + rows.sum(axis=0)) / beta_star
        chol = np.linalg.cholesky(beta_star * lam)
        expected = mu_star + np.linalg.solve(chol.T, replay.standard_normal(k))
        np.testing.assert_allclose(mu, expected, rtol=1e-11, atol=1e-13)

    def test_prior_validation(self):
        with pytest.raises(ValidationError):
            sampler.NormalWishartPrior(np.zeros(2), 1.0, np.eye(2), 1.0)  # nu0 < K
        with pytest.raises(ValidationError):
            sampler.NormalWishartPrior(np.zeros(2), 1.0, -np.eye(2), 2.0)
        with pytest.raises(ValidationError, match="^w0 shape does not match mu0"):
            sampler.NormalWishartPrior(np.zeros(2), 1.0, np.eye(3), 3.0)

    @pytest.mark.parametrize("field, value", [
        ("mu0", np.array([np.nan, 0.0])), ("beta0", np.nan), ("beta0", np.inf),
        ("w0", np.array([[1.0, np.nan], [np.nan, 1.0]])), ("w0", np.diag([np.inf, 1.0])),
        ("nu0", np.nan), ("nu0", np.inf)])
    def test_non_finite_prior_rejected(self, field, value):
        # np.linalg.cholesky factors a NaN matrix without error here, so
        # the positive-definiteness test alone would not catch it.
        args = {"mu0": np.zeros(2), "beta0": 1.0, "w0": np.eye(2), "nu0": 2.0, field: value}
        with pytest.raises(ValidationError, match=field):
            sampler.NormalWishartPrior(**args)

    @pytest.mark.parametrize("field, value", [("beta0", True), ("beta0", "2"),
                                              ("nu0", np.True_)])
    def test_non_numeric_prior_rejected(self, field, value):
        # At K=1, so that a boolean nu0 of 1 would pass the nu0 >= K bound.
        args = {"mu0": np.zeros(1), "beta0": 1.0, "w0": np.eye(1), "nu0": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"^{field} must be a"):
            sampler.NormalWishartPrior(**args)

    def test_empty_rows_rejected(self):
        prior = nw_prior(2)
        with pytest.raises(ValidationError):
            sampler.sample_hyper_normal_wishart(np.empty((0, 2)), prior,
                                                np.random.default_rng(0))


class TestGmmAssign:
    def test_single_component(self):
        gmm = (np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        assert gmm_component_assign(np.array([5.0, 5.0]), *gmm) == 0

    def test_nearest_of_symmetric_pair(self):
        gmm = (np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.array([[[1.0]], [[1.0]]]))
        assert gmm_component_assign(np.array([0.9]), *gmm) == 1
        assert gmm_component_assign(np.array([-0.9]), *gmm) == 0

    def test_matches_direct_density_evaluation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            c, k = 3, 2
            weights = rng.dirichlet(np.ones(c) * 2)
            means = rng.standard_normal((c, k)) * 2
            precs = np.array([np.linalg.inv(np.diag(rng.uniform(0.5, 2, k)))
                              for _ in range(c)])
            x = rng.standard_normal(k) * 2

            def density(comp):
                d = x - means[comp]
                det = np.linalg.det(precs[comp])
                return weights[comp] * np.sqrt(det) * np.exp(-0.5 * d @ precs[comp] @ d)

            expected = int(np.argmax([density(c_) for c_ in range(c)]))
            assert gmm_component_assign(x, weights, means, precs) == expected

    @staticmethod
    def check_prior_terms(rng, n, k):
        """Padded per-row mixtures of 1-3 components (the slots past a row's
        components empty): at random row values, the prepared terms are, bit
        for bit, those of the component the single-row reference picks per
        row, its precision and ``einsum("rkl,rl->rk")`` of its precision and
        mean.  Means and values lie close together, so the weights and
        log-determinants decide many rows' choice."""
        rows = []
        for c in rng.integers(1, 4, size=n):
            a = rng.standard_normal((c, k, k))
            rows.append((rng.dirichlet(np.ones(c)),
                         0.05 * rng.standard_normal((c, k)),
                         a @ np.swapaxes(a, 1, 2) + np.eye(k)))
        pset = gmm_set(rows)
        assert (pset.weights == 0).any()
        values = 0.05 * rng.standard_normal((n, k))
        precs, b = sampler._SideState(pset, n, "X").prior_terms(values, None, None)
        chosen = (np.arange(n), np.array([
            gmm_component_assign(values[i], pset.weights[i, :c], pset.means[i, :c],
                                 pset.precisions[i, :c])
            for i, c in enumerate(len(weights) for weights, _, _ in rows)]))
        assert precs.shape == (k, k, n)
        assert np.array_equal(precs, np.moveaxis(pset.precisions[chosen], 0, -1))
        assert np.array_equal(b, np.einsum("rkl,rl->rk", pset.precisions[chosen],
                                           pset.means[chosen]))

    def test_batched_selection_matches_single_row(self):
        self.check_prior_terms(np.random.default_rng(9), 40, 3)

    @pytest.mark.parametrize("k", [5, 10])
    def test_prior_terms_are_the_chosen_components(self, k):
        self.check_prior_terms(np.random.default_rng(20 + k), 60, k)


class TestGibbsRun:
    def config(self, **kw):
        base = dict(n_factors=1, tau=2.0, n_iters=40, burn_in=20, thin=2, seed=3)
        base.update(kw)
        return sampler.GibbsConfig(**base)

    def test_shapes_and_sample_count(self):
        rng = np.random.default_rng(9)
        mat = tiny_matrix(rng)
        chain = sampler.gibbs_run(mat, (None, None),
                                  nw_prior(1), self.config())
        assert chain.x_samples.shape == (10, 4, 1)
        assert chain.w_samples.shape == (10, 3, 1)
        assert np.all(np.isfinite(chain.x_samples))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        mat = tiny_matrix(rng)
        prior = nw_prior(1)
        a = sampler.gibbs_run(mat, (None, None), prior, self.config())
        b = sampler.gibbs_run(mat, (None, None), prior, self.config())
        assert np.array_equal(a.x_samples, b.x_samples)
        assert np.array_equal(a.w_samples, b.w_samples)
        assert np.array_equal(a.lambda_x, b.lambda_x)

    def test_handed_in_hyperprior_changes_the_chain(self):
        # A run's blocks all sample under RunConfig.nw_prior; another
        # hyperprior is a gibbs_run argument, and it moves the chain.
        mat, _ = data.simulate(6, 5, 2, 1.0, seed=12)
        config = self.config(n_factors=2)
        base = sampler.gibbs_run(mat, (None, None),
                                 pipeline.RunConfig(n_factors=2, tau=2.0).nw_prior(), config)
        tight = sampler.gibbs_run(mat, (None, None),
                                  sampler.NormalWishartPrior(np.zeros(2), 50.0, 25.0 * np.eye(2),
                                                             2.0), config)
        assert not np.array_equal(base.x_samples, tight.x_samples)
        assert not np.array_equal(base.w_samples, tight.w_samples)
        assert not np.array_equal(base.lambda_x, tight.lambda_x)

    def test_sampled_precisions_spd(self):
        rng = np.random.default_rng(11)
        mat, _ = data.simulate(6, 5, 2, 1.0, seed=12)
        chain = sampler.gibbs_run(mat, (None, None),
                                  nw_prior(2),
                                  self.config(n_factors=2))
        for lam in np.concatenate([chain.lambda_x, chain.lambda_w]):
            np.linalg.cholesky(lam)

    def test_hyper_constant_when_propagated(self):
        rng = np.random.default_rng(12)
        mat = tiny_matrix(rng)
        pset = approx.PosteriorSet(np.zeros((4, 1)), np.ones((4, 1, 1)))
        priors = (pset, None)
        chain = sampler.gibbs_run(mat, priors,
                                  nw_prior(1), self.config())
        # propagated X side: hyperparameters never move
        assert np.all(chain.mu_x == chain.mu_x[0])
        assert np.all(chain.lambda_x == chain.lambda_x[0])
        # shared W side: hyperparameters are resampled
        assert not np.all(chain.lambda_w == chain.lambda_w[0])

    def test_gmm_prior_runs(self):
        rng = np.random.default_rng(13)
        mat = tiny_matrix(rng)
        rows = [(np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.array([[[4.0]], [[4.0]]]))
                for _ in range(4)]
        priors = (gmm_set(rows), None)
        chain = sampler.gibbs_run(mat, priors,
                                  nw_prior(1), self.config())
        assert np.all(np.isfinite(chain.x_samples))

    def test_empty_subset_rejected(self):
        mat = data.SparseMatrix(3, 3, np.empty(0, np.int64), np.empty(0, np.int64),
                                np.empty(0))
        with pytest.raises(ValidationError):
            sampler.gibbs_run(mat, (None, None),
                              nw_prior(1), self.config())

    def test_prior_dimension_must_match_factors(self):
        mat = tiny_matrix(np.random.default_rng(14))
        with pytest.raises(ValidationError, match="^normal-Wishart prior dimension != n_factors"):
            sampler.gibbs_run(mat, (None, None), nw_prior(2), self.config())

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("kind", ["gaussian", "gmm"])
    def test_propagated_prior_dimension_must_match_factors(self, side, kind):
        mat = tiny_matrix(np.random.default_rng(14))
        n = (mat.n_rows, mat.n_cols)[side]
        pset = (approx.PosteriorSet(np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)))
                if kind == "gaussian" else
                gmm_set([(np.array([1.0]), np.zeros((1, 3)), np.eye(3)[None])] * n))
        priors = (pset, None) if side == 0 else (None, pset)
        with pytest.raises(ValidationError, match=f"^propagated {'XW'[side]} prior has "
                                                  "dimension 3, n_factors is 2$"):
            sampler.gibbs_run(mat, priors, nw_prior(2), self.config(n_factors=2))

    def test_coverage_validation(self):
        rng = np.random.default_rng(14)
        mat = tiny_matrix(rng)
        pset = approx.PosteriorSet(np.zeros((2, 1)), np.ones((2, 1, 1)))
        priors = (pset, None)
        with pytest.raises(ValidationError, match="covers"):
            sampler.gibbs_run(mat, priors, nw_prior(1),
                              self.config())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            sampler.GibbsConfig(1, 1.0, n_iters=10, burn_in=10)
        with pytest.raises(ValidationError):
            sampler.GibbsConfig(1, 1.0, n_iters=10, burn_in=5, thin=2)
        with pytest.raises(ValidationError):
            sampler.GibbsConfig(1, -1.0)
        for tau in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="tau"):
                sampler.GibbsConfig(1, tau)
        with pytest.raises(ValidationError, match="seed"):
            sampler.GibbsConfig(1, 1.0, 10, 5, 1, -1)

    def test_side_failure_names_the_sweep(self, monkeypatch):
        # Flag every row from the third factorization on: the two initial
        # draws pass, and sweep 1's X side fails even after jitter.
        real, calls = sampler._factor_draw, []

        def failing(precs, noise, b=None):
            calls.append(None)
            draws, bad = real(precs, noise, b)
            return draws, (np.ones_like(bad) if len(calls) > 2 else bad)

        monkeypatch.setattr(sampler, "_factor_draw", failing)
        mat = tiny_matrix(np.random.default_rng(15))
        with pytest.raises(NumericalError,
                           match=r"^sweep 1: Cholesky failed after jitter \(X side, row 0\)"):
            sampler.gibbs_run(mat, (None, None), nw_prior(1), self.config())

    def test_indefinite_handed_in_prior_names_the_row(self):
        mat = tiny_matrix(np.random.default_rng(16))
        precisions = np.ones((4, 1, 1))
        precisions[2] = -1.0
        pset = approx.PosteriorSet(np.zeros((4, 1)), precisions)
        with pytest.raises(NumericalError, match="row 2 is not positive definite"):
            sampler.gibbs_run(mat, (pset, None), nw_prior(1), self.config())


class TestBatchedSideAgainstReference:
    def test_batched_equals_per_row_reference(self):
        # With identical generator states, the batched side update and the
        # single-row conditional consume the same normal stream and must
        # produce the same draws, up to the float32 Gram terms (within
        # GRAM_REL_TOL of the mean diagonal) that these well-conditioned
        # precisions carry into the draws.
        rng = np.random.default_rng(15)
        mat, _ = data.simulate(6, 4, 2, 1.5, seed=16)
        partner = rng.standard_normal((4, 2))
        prior_mean = rng.standard_normal(2)
        prior_prec = np.array([[2.0, 0.3], [0.3, 1.2]])

        ind, val = sampler._side_matrices(mat)[0]
        rng_batched = np.random.default_rng(99)
        batched = sampler._sample_side(
            rng_batched, partner, ind, val, 1.5,
            prior_prec[..., None], prior_prec @ prior_mean, "test")

        major, minor, vals = sorted_axis(mat, "row")

        rng_ref = np.random.default_rng(99)
        for n in range(6):
            mask = major == n
            ref = sample_row_conditional(vals[mask], partner[minor[mask]],
                                         1.5, prior_mean, prior_prec, rng_ref)
            np.testing.assert_allclose(batched[n], ref, rtol=GRAM_REL_TOL, atol=1e-11)


def kkr(mats):
    """A ``(R, K, K)`` stack as a fresh C-ordered ``(K, K, R)`` array."""
    return np.moveaxis(mats, 0, -1).copy()


class TestCholeskyDraw:
    @staticmethod
    def assert_rows_close(got, ref, rtol):
        err = np.linalg.norm(got - ref, axis=1)
        assert np.all(err <= rtol * np.linalg.norm(ref, axis=1)), err.max()

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_matches_general_solves(self, k):
        # inv(L')(inv(L) b + z) is the mean solve(P, b) plus the noise
        # solve(L', z) of the general-solve form, up to round-off.
        rng = np.random.default_rng(60 + k)
        a = rng.standard_normal((50, k, 2 * k))
        precisions = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(k)
        b = rng.standard_normal((50, k))
        z = rng.standard_normal((50, k))
        chols = np.linalg.cholesky(precisions)
        noise = np.linalg.solve(np.swapaxes(chols, -1, -2), z[..., None])[..., 0]
        mean = np.linalg.solve(precisions, b[..., None])[..., 0]
        for rhs, ref in ((b, mean + noise), (None, noise)):
            draws, bad = sampler._factor_draw(kkr(precisions), z, rhs)
            assert not bad.any()
            self.assert_rows_close(draws, ref, 1e-11)

    @pytest.mark.parametrize("k", [1, 3])
    def test_draw_moments(self, k):
        # Over many draws at one precision, the sample mean and covariance
        # are solve(P, b) and inv(P) within sampling error.
        rng = np.random.default_rng(80 + k)
        a = rng.standard_normal((k, 2 * k))
        precision = a @ a.T + 0.5 * np.eye(k)
        b = rng.standard_normal(k)
        n = 40000
        draws, bad = sampler._factor_draw(
            kkr(np.broadcast_to(precision, (n, k, k))), rng.standard_normal((n, k)),
            np.broadcast_to(b, (n, k)))
        assert not bad.any()
        cov = np.linalg.inv(precision)
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - np.linalg.solve(precision, b)) < 4 * se)
        sd = np.sqrt(np.diag(cov))
        # entry (i, j) of a sample covariance has standard error about
        # sd_i sd_j sqrt(2 / n) or less
        tol = 4 * np.outer(sd, sd) * np.sqrt(2 / n)
        assert np.all(np.abs(np.cov(draws.T).reshape(k, k) - cov) < tol)

    @staticmethod
    def side_with_empty_row(row_prior):
        """One X-side update of a 5 x 4 block whose row 2 has no entries,
        with per-row prior precisions: the identity, and ``row_prior`` for
        row 2, which is then that row's whole conditional precision."""
        rows = np.array([0, 0, 1, 3, 3, 4, 4])
        cols = np.array([0, 2, 1, 0, 3, 1, 2])
        vals = np.linspace(-1.0, 1.0, rows.size)
        ind, val = sampler._side_matrices(data.SparseMatrix(5, 4, rows, cols, vals))[0]
        partner = np.random.default_rng(70).standard_normal((4, 2))
        precs = np.tile(np.eye(2), (5, 1, 1))
        precs[2] = row_prior
        prior_b = np.ones((5, 2))
        return sampler._sample_side(np.random.default_rng(71), partner, ind, val, 1.0,
                                    kkr(precs), prior_b, "X side")

    def test_singular_row_is_jittered_alone(self):
        draws = self.side_with_empty_row([[1.0, 1.0], [1.0, 1.0]])  # PSD, not PD
        plain = self.side_with_empty_row(np.eye(2))
        assert np.all(np.isfinite(draws))
        others = [0, 1, 3, 4]
        assert np.array_equal(draws[others], plain[others])

    def test_shared_prior_rows_are_jittered(self, caplog):
        # With a zero shared prior, the empty row's precision is 0 and the
        # one-entry row's is rank one: only those two rows are jittered.
        # Dyadic partner values have products that float32 holds exactly,
        # so the rank-one Gram stays exactly singular.
        rows = np.array([0, 0, 1, 3, 3, 4, 4])
        cols = np.array([0, 2, 1, 0, 3, 1, 2])
        ind, val = sampler._side_matrices(data.SparseMatrix(5, 4, rows, cols, np.ones(7)))[0]
        partner = np.array([[0.5, -1.25], [1.5, 0.75], [-0.25, 2.0], [1.0, -0.5]])
        with caplog.at_level("WARNING", logger="dbmf.sampler"):
            draws = sampler._sample_side(np.random.default_rng(73), partner, ind, val, 1.0,
                                         np.zeros((2, 2, 1)), np.zeros(2), "X side")
        assert np.all(np.isfinite(draws))
        jittered = [rec.getMessage() for rec in caplog.records]
        assert len(jittered) == 2
        assert "X side, row 1" in jittered[0] and "X side, row 2" in jittered[1]

    def test_indefinite_row_raises_naming_it(self):
        with pytest.raises(NumericalError, match="X side, row 2"):
            self.side_with_empty_row([[1.0, 0.0], [0.0, -1.0]])


class TestSideStatistics:
    @staticmethod
    def block(rng, n_rows, n_cols, density):
        """Random block whose last row and last column have no entries, with
        one entry valued exactly zero."""
        dense = rng.random((n_rows, n_cols)) < density
        dense[-1, :] = dense[:, -1] = False
        rows, cols = np.nonzero(dense)
        vals = rng.standard_normal(rows.size)
        vals[0] = 0.0
        order = rng.permutation(rows.size)
        return data.SparseMatrix(n_rows, n_cols, rows[order], cols[order], vals[order])

    @staticmethod
    def assert_stats_match_oracles(suff, lin, partner, mat, axis, n):
        """``suff`` bitwise equal to the sequential float32 sums and within
        GRAM_REL_TOL of its row's mean diagonal of the float64 sums; ``lin``
        bitwise equal to the float64 sums."""
        major, minor, vals = sorted_axis(mat, axis)
        ref_suff, ref_lin = bincount_suff_stats(partner, major, minor, vals, n)
        assert suff.dtype == lin.dtype == np.float64
        assert np.array_equal(suff, kkr(sequential_float32_gram(partner, major, minor, n)))
        assert np.array_equal(lin, ref_lin)
        mean_diag = np.trace(ref_suff, axis1=1, axis2=2) / partner.shape[1]
        assert np.all(np.abs(suff - kkr(ref_suff)) <= GRAM_REL_TOL * mean_diag)

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_csr_stats_bitwise_equal_bincount_oracle(self, k):
        rng = np.random.default_rng(40 + k)
        for n_rows, n_cols, density in ((9, 7, 0.5), (60, 45, 0.2), (200, 120, 0.1)):
            mat = self.block(rng, n_rows, n_cols, density)
            sides = sampler._side_matrices(mat)
            for (ind, val), axis, n, n_partners in zip(
                    sides, ("row", "col"), (n_rows, n_cols), (n_cols, n_rows)):
                partner = rng.standard_normal((n_partners, k))
                suff, lin = sampler._side_stats(ind, val, partner)
                self.assert_stats_match_oracles(suff, lin, partner, mat, axis, n)
                # the empty row/column has exactly zero statistics, so its
                # conditional is its prior
                assert not suff[..., -1].any() and not lin[-1].any()

    def test_float32_gram_at_movielens_degree(self, caplog):
        # One column observed in every one of 6,000 rows, above the largest
        # item degree of MovieLens-1M (3,428 ratings): its W row sums 6,000
        # float32 terms of mostly one sign.  The Gram stays within GRAM_REL_TOL, and
        # with a zero prior no row of either side is jittered (every row has
        # at least K partners, so only rounding could make it singular).
        rng = np.random.default_rng(47)
        n_rows, n_cols, k = 6000, 60, 10
        dense = rng.random((n_rows, n_cols)) < 0.5
        dense[:, 0] = True
        rows, cols = np.nonzero(dense)
        assert dense.sum(axis=1).min() >= k
        mat = data.SparseMatrix(n_rows, n_cols, rows, cols, rng.standard_normal(rows.size))
        for (ind, val), axis, n, n_partners in zip(
                sampler._side_matrices(mat), ("row", "col"), (n_rows, n_cols), (n_cols, n_rows)):
            partner = 1.0 + 0.3 * rng.standard_normal((n_partners, k))
            suff, lin = sampler._side_stats(ind, val, partner)
            self.assert_stats_match_oracles(suff, lin, partner, mat, axis, n)
            with caplog.at_level("WARNING", logger="dbmf.sampler"):
                sampler._sample_side(rng, partner, ind, val, 1.0, np.zeros((k, k, 1)),
                                     np.zeros(k), f"{axis} side")
        assert not caplog.records

    def test_chain_independent_of_entry_order(self):
        mat, _ = data.simulate(30, 20, 2, 1.0, seed=41)
        perm = np.random.default_rng(42).permutation(mat.m)
        shuffled = data.SparseMatrix(mat.n_rows, mat.n_cols, mat.rows[perm],
                                     mat.cols[perm], mat.vals[perm])
        before = shuffled.vals.copy()
        cfg = sampler.GibbsConfig(2, 1.0, n_iters=30, burn_in=10, thin=2, seed=43)
        prior = nw_prior(2)
        a = sampler.gibbs_run(mat, (None, None), prior, cfg)
        b = sampler.gibbs_run(shuffled, (None, None), prior, cfg)
        for name in ("x_samples", "w_samples", "mu_x", "lambda_x", "mu_w", "lambda_w"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(shuffled.vals, before)


class TestChainHelpers:
    def _chain(self, n_samples, n=3, d=2, k=1, seed=0):
        rng = np.random.default_rng(seed)
        cfg = sampler.GibbsConfig(k, 1.0, n_iters=2 * n_samples,
                                  burn_in=0, thin=2, seed=seed)
        return sampler.SampleChain(rng.standard_normal((n_samples, n, k)),
                                   rng.standard_normal((n_samples, d, k)),
                                   rng.standard_normal((n_samples, k)),
                                   np.tile(np.eye(k), (n_samples, 1, 1)),
                                   rng.standard_normal((n_samples, k)),
                                   np.tile(np.eye(k), (n_samples, 1, 1)), cfg)

    def test_single_sample_mean(self):
        chain = self._chain(1)
        x_mean, w_mean = chain_posterior_mean(chain)
        assert np.array_equal(x_mean, chain.x_samples[0])
        assert np.array_equal(w_mean, chain.w_samples[0])

    def test_two_sample_mean(self):
        chain = self._chain(2)
        x_mean, _ = chain_posterior_mean(chain)
        np.testing.assert_allclose(
            x_mean, (chain.x_samples[0] + chain.x_samples[1]) / 2)

    def test_mean_matches_two_pass_oracle(self):
        chain = self._chain(200, seed=21)
        x_mean, _ = chain_posterior_mean(chain)
        two_pass = np.zeros_like(x_mean)
        for s in range(200):
            two_pass += chain.x_samples[s]
        two_pass /= 200
        np.testing.assert_allclose(x_mean, two_pass, rtol=1e-13, atol=1e-15)

    def test_chain_round_trip(self, tmp_path):
        chain = self._chain(5)
        path = tmp_path / "chain.npz"
        chain.save(path)
        loaded = load_chain(path)
        assert np.array_equal(loaded.x_samples, chain.x_samples)
        assert loaded.config == chain.config


class TestPredict:
    def test_unit_vectors(self):
        x = np.eye(2)[:1]
        w = np.eye(2)[:1]
        out = sampler.predict(x, w, np.array([0]), np.array([0]))
        assert out.tolist() == [1.0]

    def test_zero_factors(self):
        out = sampler.predict(np.zeros((3, 2)), np.zeros((4, 2)),
                              np.array([0, 2]), np.array([1, 3]))
        assert out.tolist() == [0.0, 0.0]

    def test_matches_dense_product(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 2))
        w = rng.standard_normal((4, 2))
        rows, cols = np.meshgrid(np.arange(5), np.arange(4), indexing="ij")
        out = sampler.predict(x, w, rows.ravel(), cols.ravel())
        np.testing.assert_allclose(out.reshape(5, 4), x @ w.T, rtol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            sampler.predict(np.zeros((2, 1)), np.zeros((2, 1)),
                            np.array([2]), np.array([0]))
        with pytest.raises(ValidationError, match="^column index out of range"):
            sampler.predict(np.zeros((2, 1)), np.zeros((2, 1)),
                            np.array([0]), np.array([-1]))

    @pytest.mark.parametrize("rows, cols, field", [
        (np.array([0.7]), np.array([1]), "rows"), (np.array([0]), np.array([1.2]), "cols"),
        ([True], [1], "rows"), (np.array([0]), np.array([1], dtype=object), "cols"),
        (np.array([0]), [[1], [0, 1]], "cols")])
    def test_index_arrays_must_hold_integers(self, rows, cols, field):
        # A cast to int64 would predict cell (0, 1) for (0.7, 1.2).
        with pytest.raises(ValidationError, match=f"^{field} must hold integers"):
            sampler.predict(np.eye(2), np.eye(2), rows, cols)


class TestLogLikelihood:
    def test_sign_flip_invariance_exact(self):
        rng = np.random.default_rng(18)
        mat, truth = data.simulate(8, 6, 3, 1.5, seed=19)
        x, w = truth.x_true, truth.w_true
        base = sampler.log_likelihood(mat, x, w, 1.5)
        for k in range(3):
            flip = np.ones(3)
            flip[k] = -1.0
            flipped = sampler.log_likelihood(mat, x * flip, w * flip, 1.5)
            assert flipped == base  # bitwise: products are sign-symmetric

    def test_known_value(self):
        mat = data.SparseMatrix(1, 1, np.array([0]), np.array([0]), np.array([2.0]))
        x = np.array([[1.0]])
        w = np.array([[1.0]])
        expected = 0.5 * np.log(1.0 / (2 * np.pi)) - 0.5 * 1.0
        assert sampler.log_likelihood(mat, x, w, 1.0) == pytest.approx(expected)
