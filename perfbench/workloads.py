"""Workload definitions: generated inputs, the method and its run settings,
and the correctness ceiling on held-out RMSE.

Each entry says which layer it loads; the reasons are repeated one line each
in ``BENCHMARK.json``.  ``TOY`` holds miniature versions with the same
structure for the benchmark's own tests.
"""

ACCEPTANCE_INPUTS = {"shape": "dense", "n_rows": 600, "n_cols": 400, "k": 5,
                     "tau": 1.0, "test_fraction": 0.8}

WORKLOADS = {
    # The paper's staged method on the acceptance matrix: nine ~5k-entry
    # blocks make the sampler's per-sweep cost dominate, and the stage
    # barriers leave a core idle in stage I.
    "acc-pp-mm": {
        "inputs": ACCEPTANCE_INPUTS,
        "method": "pp",
        "config": {"n_factors": 5, "tau": 1.0, "n_iters": 300, "burn_in": 200,
                   "thin": 2, "approximation": "mm", "ordering": "decreasing",
                   "partition_rows": 3, "partition_cols": 3, "workers": 2},
        "rmse_ceiling": 1.2,
    },
    # Same matrix and grid with mixture posteriors: lambda-means and the
    # mixture fits dominate each block, the sampler runs with per-row
    # mixture priors and aggregation pools mixtures first.
    "acc-pp-gmm": {
        "inputs": ACCEPTANCE_INPUTS,
        "method": "pp",
        "config": {"n_factors": 5, "tau": 1.0, "n_iters": 120, "burn_in": 60,
                   "thin": 5, "approximation": "gmm", "ordering": "decreasing",
                   "partition_rows": 3, "partition_cols": 3, "workers": 2},
        "rmse_ceiling": 1.25,
    },
    # MovieLens-shaped scale target in one process: one ~900k-entry block
    # makes the sampler's sufficient-statistics pass nearly all of the
    # call, and the ~1M-line triplet load most of the set-up.
    "ml-full": {
        "inputs": {"shape": "skewed", "n_rows": 6040, "n_cols": 3706, "k": 10,
                   "tau": 1.0, "test_fraction": 0.1, "target_entries": 1_000_000,
                   "min_per_row": 20, "col_exponent": 1.0},
        "method": "full",
        "config": {"n_factors": 10, "tau": 1.0, "n_iters": 14, "burn_in": 2,
                   "thin": 1, "approximation": "mm", "workers": 1},
        "rmse_ceiling": 1.25,
    },
}

# Miniatures for the benchmark's own tests: same methods and grids,
# seconds instead of minutes.
TOY = {
    "acc-pp-mm": {
        **WORKLOADS["acc-pp-mm"],
        "inputs": {**ACCEPTANCE_INPUTS, "n_rows": 120, "n_cols": 90, "test_fraction": 0.5},
        "config": {**WORKLOADS["acc-pp-mm"]["config"], "n_iters": 40, "burn_in": 20},
        "rmse_ceiling": 2.0,
    },
    "acc-pp-gmm": {
        **WORKLOADS["acc-pp-gmm"],
        "inputs": {**ACCEPTANCE_INPUTS, "n_rows": 120, "n_cols": 90, "test_fraction": 0.5},
        "config": {**WORKLOADS["acc-pp-gmm"]["config"], "n_iters": 70, "burn_in": 20},
        "rmse_ceiling": 2.0,
    },
    "ml-full": {
        **WORKLOADS["ml-full"],
        "inputs": {**WORKLOADS["ml-full"]["inputs"], "n_rows": 300, "n_cols": 200,
                   "k": 4, "target_entries": 12_000},
        "config": {**WORKLOADS["ml-full"]["config"], "n_factors": 4},
        "rmse_ceiling": 2.0,
    },
}
