"""dbmf benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload acc-pp-mm --seed 1 --seconds 15 --trace 0

Run from the repository root.  The run generates the workload's inputs from
the seed (numpy only), then makes measured calls of the workload's method,
each in a fresh process (``call.py``), until ``--seconds`` have passed and at
least two calls are done.  Every call is checked; repeats at one seed must
give bitwise-identical posterior means.

``--trace 0`` prints the end-to-end metrics, medians over the calls
(``setup_s`` over the triplet loads of the run).  ``--trace 1`` makes one
untraced call and one traced call and prints the per-layer metrics of the
traced call plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (environment, input
manifest, every call's figures and checks, span tables) go to
``perfbench/_work/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported; the
# call processes and their forked pool workers inherit the setting, so
# ``workers=2`` uses exactly two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

UNITS = {"wall_s": "s", "ledger_s": "s", "setup_s": "s", "test_rmse": "rmse",
         "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "data.load_s": "s", "data.load_entries_per_s": "1/s", "data.plan_s": "s",
    "pipeline.extract_blocks_s": "s", "pipeline.posterior_write_s": "s",
    "pipeline.posterior_read_s": "s", "pipeline.posterior_bytes": "bytes",
    "pipeline.stage1_ledger_frac": "frac", "pipeline.stage2_ledger_frac": "frac",
    "pipeline.stage3_ledger_frac": "frac", "pipeline.block_busy_s": "s",
    "pipeline.worker_idle_s": "s", "pipeline.orchestration_s": "s",
    "sampler.busy_s": "s", "sampler.entry_updates": "count",
    "sampler.ns_per_entry_update": "ns", "sampler.hyper_ms_per_sweep": "ms",
    "sampler.side_ms_per_sweep": "ms", "approx.fit_s": "s", "approx.fit_us_per_row": "us",
    "approx.lambda_means_frac": "frac", "approx.lambda_means_calls": "count",
    "approx.lambda_select_frac": "frac", "approx.components_per_row": "count",
    "aggregate.s": "s", "aggregate.us_per_row": "us", "aggregate.pool_frac": "frac",
    "aggregate.corrections": "count", "trace.overhead_frac": "frac",
}
# Hard limit on one run, below the 180 s a run may take.
RUN_DEADLINE_S = 170.0
MIN_CALLS = 2
# Set-up (train + test load) is also timed in this process, repeated until
# this much time has passed; every call adds one more sample.
SETUP_MIN_S = 2.0


def environment() -> dict:
    import numpy as np
    import scipy
    import multiprocessing as mp
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "mp_start_method": mp.get_start_method(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine()}


def run_call(spec, work, inputs_dir, index, trace, deadline) -> dict:
    """One measured call in a fresh process group; killed at the deadline."""
    tag = f"call{index}"
    req = {"spec": spec, "inputs": inputs_dir, "trace": trace,
           "run_dir": os.path.join(work, f"{tag}-run"),
           "trace_dir": os.path.join(work, f"{tag}-spans"),
           "result": os.path.join(work, f"{tag}.json"),
           "run_id": f"{os.path.basename(work)}-{tag}"}
    req_path = os.path.join(work, f"{tag}-request.json")
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(req, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "call.py"), req_path],
                            cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"error": "deadline reached"}
    finally:
        # Pool workers share the call's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        return {"error": f"call exited with code {proc.returncode}"}
    with open(req["result"], encoding="utf-8") as fh:
        out = json.load(fh)
    shutil.rmtree(req["run_dir"], ignore_errors=True)
    return out


def call_failed(call: dict, reference_digest: str | None) -> bool:
    if "error" in call or not all(call["checks"].values()):
        return True
    return reference_digest is not None and call["means_digest"] != reference_digest


def measure(spec, work, inputs_dir, seconds, trace, deadline):
    """Untraced calls until ``seconds`` pass (at least two), or one untraced
    and one traced call."""
    calls = []
    start = time.monotonic()
    if trace:
        calls.append(run_call(spec, work, inputs_dir, 0, False, deadline))
        calls.append(run_call(spec, work, inputs_dir, 1, True, deadline))
        return calls
    while len(calls) < MIN_CALLS or time.monotonic() - start < seconds:
        calls.append(run_call(spec, work, inputs_dir, len(calls), False, deadline))
        if "error" in calls[-1]:
            break
    return calls


def run(name, seed, seconds, trace, specs=workloads.WORKLOADS, work_root=None) -> dict:
    """Generate, measure and check one workload; returns the result line
    and writes the details next to the run's work files."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = specs[name]
    work = os.path.join(work_root or os.path.join(HERE, "_work"),
                        f"{name}-s{seed}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs_dir = os.path.join(work, "inputs")
    manifest = inputs.generate(spec["inputs"], seed, inputs_dir)

    from dbmf import data
    setup_samples = []
    setup_start = time.perf_counter()
    while time.perf_counter() - setup_start < SETUP_MIN_S or not setup_samples:
        t0 = time.perf_counter()
        data.load_triplets(os.path.join(inputs_dir, "train.txt"))
        data.load_triplets(os.path.join(inputs_dir, "test.txt"))
        setup_samples.append(time.perf_counter() - t0)

    calls = measure(spec, work, inputs_dir, seconds, trace, deadline)
    ok_calls = [c for c in calls if "error" not in c]
    reference = ok_calls[0]["means_digest"] if ok_calls else None
    failed = sum(call_failed(c, reference) for c in calls)
    setup_samples += [c["setup_s"] for c in ok_calls]

    metrics = {}
    if trace and len(ok_calls) == 2:
        layers = dict(ok_calls[1]["layers"])
        layers["trace.overhead_frac"] = ok_calls[1]["wall_s"] / ok_calls[0]["wall_s"] - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    elif not trace and ok_calls:
        values = {k: statistics.median(c[k] for c in ok_calls) for k in UNITS}
        values["setup_s"] = statistics.median(setup_samples)
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
    line = {"correct": failed == 0 and bool(metrics), "attempted": len(calls),
            "failed": failed, "metrics": metrics}

    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment(), "inputs": manifest,
               "spec": {k: v for k, v in spec.items() if k != "inputs"},
               "setup_samples": setup_samples, "calls": calls, "result": line}
    for sub in ("inputs/train.txt", "inputs/test.txt"):
        os.remove(os.path.join(work, sub))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dbmf", "__init__.py")):
        print(f"no dbmf sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in line["metrics"].items():
        print(f"{key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
