"""Seeded input generator for the benchmark workloads.

Uses numpy only, never ``dbmf.simulate`` or ``dbmf.split_random``, so a
change to the program's data layer cannot change what the benchmark feeds it.
Every input is a pure function of (workload spec, seed); the files are plain
``row col value`` triplets, the format ``dbmf.data.load_triplets`` reads.
"""

from __future__ import annotations

import json
import os

import numpy as np


def low_rank_dense(rng, n_rows, n_cols, k, tau):
    """Fully observed ``X W' + noise`` with standard-normal factors."""
    x = rng.standard_normal((n_rows, k))
    w = rng.standard_normal((n_cols, k))
    y = x @ w.T + rng.standard_normal((n_rows, n_cols)) * tau ** -0.5
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), n_cols)
    cols = np.tile(np.arange(n_cols, dtype=np.int64), n_rows)
    return rows, cols, y.ravel()


def skewed_pattern(rng, n_rows, n_cols, target_entries, min_per_row, col_exponent,
                   chunk=512):
    """MovieLens-shaped observation pattern.

    Per-row counts are log-normal, floored at ``min_per_row`` and scaled to
    about ``target_entries``; columns are drawn without replacement with a
    power-law popularity ``(rank + 1) ** -col_exponent`` over a random
    ranking (Gumbel top-k per row).  Each row's columns come out sorted.
    """
    raw = rng.lognormal(mean=0.0, sigma=0.9, size=n_rows)
    counts = min_per_row + raw / raw.sum() * (target_entries - min_per_row * n_rows)
    counts = np.minimum(np.round(counts).astype(np.int64), n_cols)
    log_p = -col_exponent * np.log(np.arange(1, n_cols + 1, dtype=np.float64))
    log_p = log_p[rng.permutation(n_cols)]
    rows, cols = [], []
    for lo in range(0, n_rows, chunk):
        hi = min(lo + chunk, n_rows)
        keys = log_p + rng.gumbel(size=(hi - lo, n_cols))
        for r in range(lo, hi):
            top = np.argpartition(-keys[r - lo], counts[r] - 1)[:counts[r]]
            chosen = np.sort(top)
            rows.append(np.full(chosen.size, r, dtype=np.int64))
            cols.append(chosen.astype(np.int64))
    return np.concatenate(rows), np.concatenate(cols)


def low_rank_sparse(rng, rows, cols, n_rows, n_cols, k, tau):
    """Values of ``X W' + noise`` at the given cells only."""
    x = rng.standard_normal((n_rows, k))
    w = rng.standard_normal((n_cols, k))
    vals = np.einsum("mk,mk->m", x[rows], w[cols])
    return vals + rng.standard_normal(rows.size) * tau ** -0.5


def holdout(rng, m, test_fraction):
    """Boolean test mask over ``m`` entries with exactly
    ``floor(test_fraction * m)`` entries held out."""
    n_test = int(test_fraction * m)
    mask = np.zeros(m, dtype=bool)
    mask[rng.permutation(m)[:n_test]] = True
    return mask


def write_triplets(path, rows, cols, vals):
    """Plain triplets; ``%r`` keeps float64 values lossless."""
    lines = [f"{r} {c} {v!r}\n" for r, c, v in zip(rows.tolist(), cols.tolist(),
                                                   vals.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {len(lines)} entries\n")
        fh.writelines(lines)


def generate(spec: dict, seed: int, out_dir: str) -> dict:
    """Write ``train.txt`` and ``test.txt`` for one workload into ``out_dir``
    and return a manifest of the parameters and the counts produced.

    Also writes ``test.npz``, the held-out entries as arrays, and
    ``inputs.json``, the manifest.

    ``spec`` keys: shape ``dense`` or ``skewed``, ``n_rows``, ``n_cols``,
    ``k``, ``tau``, ``test_fraction``; skewed shapes also take
    ``target_entries``, ``min_per_row`` and ``col_exponent``.
    """
    rng = np.random.default_rng([seed, spec["n_rows"], spec["n_cols"], spec["k"]])
    n, d, k, tau = spec["n_rows"], spec["n_cols"], spec["k"], spec["tau"]
    if spec["shape"] == "dense":
        rows, cols, vals = low_rank_dense(rng, n, d, k, tau)
    elif spec["shape"] == "skewed":
        rows, cols = skewed_pattern(rng, n, d, spec["target_entries"],
                                    spec["min_per_row"], spec["col_exponent"])
        vals = low_rank_sparse(rng, rows, cols, n, d, k, tau)
    else:
        raise ValueError(f"unknown input shape {spec['shape']!r}")
    test = holdout(rng, rows.size, spec["test_fraction"])
    train = ~test
    # Loaders infer dimensions from the largest index, so every row and
    # column must keep a training entry.
    row_counts = np.bincount(rows[train], minlength=n)
    col_counts = np.bincount(cols[train], minlength=d)
    if row_counts.min() == 0 or col_counts.min() == 0:
        raise ValueError("generated training split leaves a row or column empty")
    os.makedirs(out_dir, exist_ok=True)
    write_triplets(os.path.join(out_dir, "train.txt"), rows[train], cols[train], vals[train])
    write_triplets(os.path.join(out_dir, "test.txt"), rows[test], cols[test], vals[test])
    # The checker scores predictions against these arrays, not against what
    # the program's loader makes of test.txt.
    np.savez(os.path.join(out_dir, "test.npz"), rows=rows[test], cols=cols[test],
             vals=vals[test])
    manifest = {"seed": seed, "spec": spec, "entries": int(rows.size),
                "train_entries": int(train.sum()), "test_entries": int(test.sum()),
                "train_row_counts": {"min": int(row_counts.min()),
                                     "median": float(np.median(row_counts)),
                                     "max": int(row_counts.max())},
                "train_col_counts": {"min": int(col_counts.min()),
                                     "median": float(np.median(col_counts)),
                                     "max": int(col_counts.max())}}
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
