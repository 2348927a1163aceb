"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output).  The whole module is marked ``acceptance``; a full run
takes several minutes, dominated by the scaled-benchmark sampler runs.
"""

import os

import numpy as np
import pytest

from dbmf import aggregate, approx, data, evaluate, pipeline, sampler
from dbmf.sampler import predict
from oracles import (IdentityResolution, ProductDensityIdentity, batch_mcse, gmm_set,
                     grid_factor_means, load_chain, mixture_moments, mp_gaussian_product,
                     mp_staged_aggregate)

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def random_spd(rng, k, scale=1.0):
    a = rng.standard_normal((k, k))
    return scale * (a @ a.T + k * np.eye(k))


def row(mean, precision):
    """One row as a one-row stack ``(means (1, K), precisions (1, K, K))``,
    the precision symmetrized."""
    precision = np.asarray(precision, dtype=np.float64)
    return np.asarray(mean, dtype=np.float64)[None], (0.5 * (precision + precision.T))[None]


# ---------------------------------------------------------------------------
# Scaled simulated benchmark shared by criteria 1 and 7
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def scaled_runs(tmp_path_factory):
    """Per seed: full-data, staged 3x3, and independent-subsets 3x3 runs on
    a 600x400, K=5, tau=1 simulated matrix with 80% random missingness."""
    root = tmp_path_factory.mktemp("scaled")
    runs = {}
    for seed in SEEDS:
        matrix, _ = data.simulate(600, 400, 5, 1.0, seed=1000 + seed)
        train, test = data.split_random(matrix, 0.8, seed=2000 + seed)
        common = dict(n_factors=5, tau=1.0, n_iters=1200, burn_in=800, thin=2,
                      seed=seed, ordering="decreasing", workers=2)
        full_cfg = pipeline.RunConfig(**common, partition_rows=1, partition_cols=1)
        grid_cfg = pipeline.RunConfig(**common, partition_rows=3, partition_cols=3)
        full_dir = root / f"full-{seed}"
        pp_dir = root / f"pp-{seed}"
        ep_dir = root / f"ep-{seed}"
        res_full = pipeline.run_full(train, full_cfg, run_dir=full_dir)
        res_pp = pipeline.run_pp(train, grid_cfg, run_dir=pp_dir)
        res_ep = pipeline.run_ep(train, grid_cfg, run_dir=ep_dir)

        def test_rmse(res):
            return evaluate.rmse(predict(res.x_mean, res.w_mean,
                                         test.rows, test.cols), test.vals)

        runs[seed] = {
            "rmse_full": test_rmse(res_full),
            "rmse_pp": test_rmse(res_pp),
            "rmse_ep": test_rmse(res_ep),
            "pp_dir": pp_dir,
            "ep_dir": ep_dir,
        }
    return runs


def test_criterion_1_scaled_simulated_reproduction(scaled_runs):
    full_vals = [scaled_runs[s]["rmse_full"] for s in SEEDS]
    diffs = [abs(scaled_runs[s]["rmse_pp"] - scaled_runs[s]["rmse_full"])
             for s in SEEDS]
    ok_full = all(1.00 <= v <= 1.08 for v in full_vals)
    ok_pp = all(d <= 0.03 for d in diffs)
    report("1 (scaled simulated reproduction)", ok_full and ok_pp,
           f"full RMSE in [{min(full_vals):.4f}, {max(full_vals):.4f}] "
           f"(required [1.00, 1.08]); max |staged - full| = {max(diffs):.4f} "
           f"(required <= 0.03)")


def test_staged_beats_independent_rmse(scaled_runs):
    # supplementary qualitative check: at the same partition, the staged
    # pipeline is strictly more accurate than independent subset runs
    worse = all(scaled_runs[s]["rmse_ep"] > scaled_runs[s]["rmse_pp"]
                for s in SEEDS)
    report("supplementary (staged < independent RMSE)", worse,
           f"independent RMSE {np.mean([scaled_runs[s]['rmse_ep'] for s in SEEDS]):.3f} "
           f"vs staged {np.mean([scaled_runs[s]['rmse_pp'] for s in SEEDS]):.3f} "
           f"at 3x3 in all seeds")


def test_criterion_7_correlation_ordering(scaled_runs):
    wins = 0
    pp_means, ep_means = [], []
    for seed in SEEDS:
        pp_corr = np.mean([c.correlation for c in
                           evaluate.subset_mean_correlations(scaled_runs[seed]["pp_dir"])])
        ep_corr = np.mean([c.correlation for c in
                           evaluate.subset_mean_correlations(scaled_runs[seed]["ep_dir"])])
        pp_means.append(pp_corr)
        ep_means.append(ep_corr)
        wins += pp_corr > ep_corr
    report("7 (cross-subset correlation ordering)", wins >= 4,
           f"staged mean corr {np.mean(pp_means):.3f} vs independent "
           f"{np.mean(ep_means):.3f}; staged higher in {wins}/5 seeds "
           f"(required >= 4)")


# ---------------------------------------------------------------------------
# Criterion 2: benchmark-scale spot check (optional, dataset permitting)
# ---------------------------------------------------------------------------

MOVIELENS_ENV = "DBMF_MOVIELENS"


@pytest.mark.slow
@pytest.mark.skipif(MOVIELENS_ENV not in os.environ,
                    reason=f"set {MOVIELENS_ENV} to a MovieLens-1M ratings.dat")
def test_criterion_2_movielens_spot_check(tmp_path):
    ratings = data.load_triplets(os.environ[MOVIELENS_ENV], fmt="movielens-dat")
    assert (ratings.n_rows, ratings.n_cols, ratings.m) == (6040, 3706, 1000209)
    train, test = data.split_random(ratings, 0.2, seed=0)
    common = dict(n_factors=10, tau=1.5, n_iters=1200, burn_in=800, thin=2,
                  seed=0, ordering="decreasing", workers=max(os.cpu_count(), 2))
    full_cfg = pipeline.RunConfig(**common, partition_rows=1, partition_cols=1)
    res_full = pipeline.run_full(train, full_cfg, run_dir=tmp_path / "full")
    rmse_full = evaluate.rmse(predict(res_full.x_mean, res_full.w_mean,
                                      test.rows, test.cols), test.vals)
    grid_cfg = pipeline.RunConfig(**common, partition_rows=5, partition_cols=5)
    res_pp = pipeline.run_pp(train, grid_cfg, run_dir=tmp_path / "pp")
    rmse_pp = evaluate.rmse(predict(res_pp.x_mean, res_pp.w_mean,
                                    test.rows, test.cols), test.vals)
    ok = abs(rmse_full - 0.847) <= 0.010 and abs(rmse_pp - 0.851) <= 0.012
    report("2 (benchmark spot check)", ok,
           f"full RMSE {rmse_full:.4f} (0.847 +- 0.010), "
           f"staged 5x5 RMSE {rmse_pp:.4f} (0.851 +- 0.012)")


# ---------------------------------------------------------------------------
# Criterion 3: numeric identity of the staged decomposition
# ---------------------------------------------------------------------------

def test_criterion_3_decomposition_identity():
    rng = np.random.default_rng(7)
    tau = 1.5
    y = (np.outer(rng.standard_normal(4), rng.standard_normal(4))
         + rng.standard_normal((4, 4)) * tau ** -0.5)
    points = rng.standard_normal((20, 8))
    coarse = ProductDensityIdentity(y, tau, IdentityResolution(
        grid_a=100, grid_b=150, nodes_a=401, nodes_b=601))
    fine = ProductDensityIdentity(y, tau, IdentityResolution(
        grid_a=160, grid_b=240, nodes_a=601, nodes_b=901))
    spread_coarse = coarse.spread(points)
    spread_fine = fine.spread(points)
    report("3 (exact decomposition identity)", spread_fine < 1e-6,
           f"log-difference spread {spread_fine:.3e} after refinement "
           f"(coarse {spread_coarse:.3e}; required < 1e-6 over 20 points)")


# ---------------------------------------------------------------------------
# Criterion 4: aggregation against extended-precision oracles
# ---------------------------------------------------------------------------

def test_criterion_4_aggregation_oracles():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 6))
        means = [2 * rng.standard_normal(k) for _ in range(int(rng.integers(1, 5)))]
        precs = [random_spd(rng, k) for _ in means]
        out_means, out_precs, _ = aggregate.ep_aggregate(
            [row(m, p) for m, p in zip(means, precs)], (np.zeros(k), np.zeros((k, k))))
        mean, prec = mp_gaussian_product(means, precs)
        worst = max(worst,
                    np.linalg.norm(out_means[0] - mean) / max(np.linalg.norm(mean), 1e-30),
                    np.linalg.norm(out_precs[0] - prec) / np.linalg.norm(prec))
    for _ in range(500):
        k = int(rng.integers(1, 6))
        p1 = row(2 * rng.standard_normal(k), random_spd(rng, k))
        others = [row(2 * rng.standard_normal(k), p1[1][0] + random_spd(rng, k))
                  for _ in range(int(rng.integers(1, 4)))]
        out_means, out_precs, _ = aggregate.staged_aggregate([p1, *others])
        mean, prec = mp_staged_aggregate(p1[0][0], p1[1][0],
                                         [o[0][0] for o in others],
                                         [o[1][0] for o in others])
        worst = max(worst,
                    np.linalg.norm(out_means[0] - mean) / max(np.linalg.norm(mean), 1e-30),
                    np.linalg.norm(out_precs[0] - prec) / np.linalg.norm(prec))
    chol_ok = True
    for _ in range(200):
        sym = rng.standard_normal((5, 5))
        sym = 0.5 * (sym + sym.T) - 2.0 * np.eye(5)
        bad, repaired = aggregate._repair(sym[None], np.array([1e-9]), "", [])
        fixed = repaired[0] if bad.size else sym
        try:
            np.linalg.cholesky(fixed)
        except np.linalg.LinAlgError:
            chol_ok = False
    report("4 (aggregation oracle battery)", worst < 1e-10 and chol_ok,
           f"worst relative error {worst:.2e} over 1000 instances "
           f"(required < 1e-10); eigenvalue repairs all factorize: {chol_ok}")


# ---------------------------------------------------------------------------
# Criterion 5: sampler correctness against a dense-grid oracle
# ---------------------------------------------------------------------------

def test_criterion_5_sampler_grid_oracle():
    rng = np.random.default_rng(2024)
    tau = 2.0
    n, d = 4, 3
    x_mean0 = np.array([1.0, 1.4, 0.7, 1.2])
    w_mean0 = np.array([0.9, 1.3, 1.1])
    x_prec0 = np.full(n, 2.0)
    w_prec0 = np.full(d, 2.0)
    x_true = x_mean0 + rng.standard_normal(n) * 0.5
    w_true = w_mean0 + rng.standard_normal(d) * 0.5
    y = np.outer(x_true, w_true) + rng.standard_normal((n, d)) * tau ** -0.5

    oracle = grid_factor_means(y, tau, x_mean0, x_prec0, w_mean0, w_prec0,
                               lo=-6.0, hi=8.0, n_grid=181)
    refined = grid_factor_means(y, tau, x_mean0, x_prec0, w_mean0, w_prec0,
                                lo=-6.5, hi=8.5, n_grid=221)
    assert np.abs(oracle.x_mean - refined.x_mean).max() < 1e-9

    mat = data.SparseMatrix(n, d, np.repeat(np.arange(n), d),
                            np.tile(np.arange(d), n), y.ravel())
    priors = (approx.PosteriorSet(x_mean0[:, None], x_prec0[:, None, None]),
              approx.PosteriorSet(w_mean0[:, None], w_prec0[:, None, None]))

    worst = 0.0
    for seed in SEEDS:
        cfg = sampler.GibbsConfig(1, tau, n_iters=3000, burn_in=1000, thin=2,
                                  seed=seed)
        chain = sampler.gibbs_run(mat, priors,
                                  sampler.NormalWishartPrior(np.zeros(1), 2.0, np.eye(1), 1.0),
                                  cfg)
        for i in range(n):
            s = chain.x_samples[:, i, 0]
            worst = max(worst, abs(s.mean() - oracle.x_mean[i]) / batch_mcse(s))
        for j in range(d):
            s = chain.w_samples[:, j, 0]
            worst = max(worst, abs(s.mean() - oracle.w_mean[j]) / batch_mcse(s))
        for i in range(n):
            for j in range(d):
                s = chain.x_samples[:, i, 0] * chain.w_samples[:, j, 0]
                worst = max(worst,
                            abs(s.mean() - oracle.product_mean[i, j]) / batch_mcse(s))
    report("5 (sampler vs dense-grid oracle)", worst < 3.0,
           f"worst |z| = {worst:.2f} over all parameters and products, "
           f"5 seeds (required < 3 Monte Carlo standard errors)")


# ---------------------------------------------------------------------------
# Criterion 6: identifiability properties
# ---------------------------------------------------------------------------

def test_criterion_6_identifiability():
    rng = np.random.default_rng(31)
    mat, truth = data.simulate(10, 8, 4, 1.5, seed=32)
    base = sampler.log_likelihood(mat, truth.x_true, truth.w_true, 1.5)
    flips_exact = True
    for pattern in range(1, 16):
        signs = np.array([1.0 if pattern & (1 << k) == 0 else -1.0
                          for k in range(4)])
        flipped = sampler.log_likelihood(mat, truth.x_true * signs,
                                         truth.w_true * signs, 1.5)
        flips_exact &= (flipped == base)

    align_ok = True
    for k in range(1, 6):
        for _ in range(20):
            a = rng.standard_normal((40, k))
            perm_true = rng.permutation(k)
            signs_true = rng.choice([-1, 1], size=k)
            b = a[:, perm_true] * signs_true
            perm, signs = evaluate.align_latent_dimensions(a, b)
            aligned = b[:, perm] * signs
            align_ok &= np.allclose(aligned, a, atol=1e-12)
    report("6 (identifiability properties)", flips_exact and align_ok,
           f"sign-flip log-likelihood bitwise invariant over all 2^4 patterns: "
           f"{flips_exact}; alignment recovers every synthetic transform for "
           f"K<=5: {align_ok}")


# ---------------------------------------------------------------------------
# Criterion 8: degenerate-pipeline equivalence
# ---------------------------------------------------------------------------

def test_criterion_8_degenerate_equivalence(tmp_path):
    matrix, _ = data.simulate(24, 18, 2, 1.0, seed=50)
    train, _ = data.split_random(matrix, 0.3, seed=51)
    cfg = pipeline.RunConfig(n_factors=2, tau=1.0, n_iters=60, burn_in=40,
                             thin=2, seed=52, ordering="random",
                             partition_rows=1, partition_cols=1,
                             save_chains=True)
    dirs = {}
    pipeline.run_full(train, cfg, run_dir=tmp_path / "full")
    pipeline.run_pp(train, cfg, run_dir=tmp_path / "pp")
    pipeline.run_ep(train, cfg, run_dir=tmp_path / "ep")
    chains = {name: load_chain(pipeline.chain_path(tmp_path / name, 0, 0))
              for name in ("full", "pp", "ep")}
    same = all(np.array_equal(chains["full"].x_samples, c.x_samples)
               and np.array_equal(chains["full"].w_samples, c.w_samples)
               and np.array_equal(chains["full"].lambda_x, c.lambda_x)
               for c in (chains["pp"], chains["ep"]))
    report("8 (1x1 degenerate equivalence)", same,
           f"full/staged/independent chains bitwise identical: {same}")


# ---------------------------------------------------------------------------
# Criterion 9: approximation-layer unit properties
# ---------------------------------------------------------------------------

def test_criterion_9_approximation_properties():
    rng = np.random.default_rng(60)

    pool_ok = True
    for _ in range(100):
        c = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(c))
        means = 3 * rng.standard_normal((c, k))
        precs = np.array([random_spd(rng, k) for _ in range(c)])
        pooled = gmm_set([(weights, means, precs)]).pooled()
        exact_mean, exact_cov = mixture_moments(weights, means,
                                                np.linalg.inv(precs))
        pool_ok &= np.allclose(pooled.means[0], exact_mean, atol=1e-12)
        pool_ok &= np.allclose(np.linalg.inv(pooled.precisions[0]), exact_cov,
                               rtol=1e-8, atol=1e-12)

    shift_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 5))
        samples = rng.standard_normal((40, k)) * rng.uniform(0.5, 2)
        shift = 10 * rng.standard_normal(k)
        base = approx.fit_rows(samples[:, None], "mm")
        moved = approx.fit_rows((samples + shift)[:, None], "mm")
        shift_ok &= np.allclose(moved.means, base.means + shift, atol=1e-8)
        shift_ok &= np.allclose(moved.precisions, base.precisions,
                                rtol=1e-7, atol=1e-9)

    mono_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n_clumps = int(rng.integers(1, 5))
        centers = 8 * rng.standard_normal((n_clumps, k))
        samples = np.concatenate([
            centers[c] + rng.uniform(0.1, 1.0) * rng.standard_normal((15, k))
            for c in range(n_clumps)])
        lams = np.exp(np.linspace(np.log(0.2), np.log(40.0), 10))
        counts = [approx.lambda_means(samples[None], np.array([lam])).counts[0]
                  for lam in lams]
        mono_ok &= all(a >= b for a, b in zip(counts, counts[1:]))

    report("9 (approximation-layer properties)", pool_ok and shift_ok and mono_ok,
           f"mixture pooling exact: {pool_ok}; translation equivariance: "
           f"{shift_ok}; cluster-count monotone in lambda: {mono_ok} "
           f"(100 randomized instances each)")
