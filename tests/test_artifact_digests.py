"""Every artifact of three small seeded runs matches recorded digests.

A refactor of the pipeline promises bitwise-identical output, but the other
tests compare against tolerances and keep passing when bits change.  This
test compares each artifact of a pp-mm 3x3, a pp-gmm 3x3 (with mixture rows
of two or more components) and an ep 2x2 run, all at ``workers=1`` with
chains saved, against ``artifact_digests.json``.  An npz artifact is
digested array by array (name, dtype, shape and bytes), not as a zip
container; a JSON artifact is digested by its parsed content.
``timings.json`` holds clock readings and is left out.

Only a change that declares up front that it changes output bits may
re-record the file, and it says so in CHANGES.md.  To re-record, run
``PYTHONPATH=src python tests/test_artifact_digests.py``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from dbmf import data, pipeline

DIGESTS = pathlib.Path(__file__).with_name("artifact_digests.json")

RUNS = {
    "pp-mm-3x3": (pipeline.run_pp, dict(approximation="mm", partition_rows=3, partition_cols=3)),
    "pp-gmm-3x3": (pipeline.run_pp, dict(approximation="gmm", partition_rows=3,
                                         partition_cols=3)),
    "ep-2x2": (pipeline.run_ep, dict(approximation="mm", partition_rows=2, partition_cols=2)),
}


def _train():
    matrix, _ = data.simulate(60, 45, 2, 1.0, seed=11)
    train, _ = data.split_random(matrix, 0.5, seed=12)
    return train


def _run(name: str, run_dir: pathlib.Path) -> None:
    run, fields = RUNS[name]
    config = pipeline.RunConfig(n_factors=2, tau=1.0, n_iters=120, burn_in=60, thin=2,
                                seed=3, workers=1, save_chains=True, **fields)
    run(_train(), config, run_dir=str(run_dir))


def _digest(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path) as npz:
            for key in sorted(npz.files):
                array = np.ascontiguousarray(npz[key])
                h.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
                h.update(array.tobytes())
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def artifact_digests(run_dir: pathlib.Path) -> dict:
    """Digest of every npz and JSON artifact under ``run_dir`` but
    ``timings.json``, keyed by its path relative to ``run_dir``."""
    return {path.relative_to(run_dir).as_posix(): _digest(path)
            for path in sorted(run_dir.rglob("*"))
            if path.suffix in (".npz", ".json") and path.name != "timings.json"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    _run(name, tmp_path)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    got = artifact_digests(tmp_path)
    assert sorted(got) == sorted(recorded)
    changed = sorted(path for path in got if got[path] != recorded[path])
    assert not changed, f"{name}: artifacts differ from the recorded digests: {changed}"
    if name == "pp-gmm-3x3":
        # the run exercises mixtures, not one-component rows only
        with np.load(tmp_path / "stage3" / "x_1_1.npz") as npz:
            assert ((npz["weights"] > 0).sum(axis=1) >= 2).any()


if __name__ == "__main__":
    import tempfile

    digests = {}
    for run_name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            _run(run_name, pathlib.Path(tmp))
            digests[run_name] = artifact_digests(pathlib.Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
