"""Tests of the benchmark itself, on miniature workloads.

    python3 -m pytest -q perfbench
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import inputs
import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_generator_deterministic_per_seed(tmp_path):
    spec = workloads.TOY["ml-full"]["inputs"]
    a = inputs.generate(spec, 5, str(tmp_path / "a"))
    b = inputs.generate(spec, 5, str(tmp_path / "b"))
    c = inputs.generate(spec, 6, str(tmp_path / "c"))
    assert a == b
    for name in ("train.txt", "test.txt", "test.npz", "inputs.json"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    assert not filecmp.cmp(tmp_path / "a" / "train.txt", tmp_path / "c" / "train.txt",
                           shallow=False)
    assert a["train_entries"] + a["test_entries"] == a["entries"]
    assert a["train_row_counts"]["min"] >= 1


def test_generator_dense_holdout_is_exact(tmp_path):
    spec = workloads.TOY["acc-pp-mm"]["inputs"]
    m = inputs.generate(spec, 1, str(tmp_path))
    total = spec["n_rows"] * spec["n_cols"]
    assert m["entries"] == total
    assert m["test_entries"] == int(spec["test_fraction"] * total)


@pytest.mark.parametrize("name", sorted(workloads.TOY))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    line = run.run(name, 3, 0.0, False, specs=workloads.TOY, work_root=str(tmp_path))
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= run.MIN_CALLS
    assert {k: m["unit"] for k, m in line["metrics"].items()} == run.UNITS
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.TOY))
def test_traced_run_prints_every_layer_metric_and_spans_nest(name, tmp_path):
    line = run.run(name, 3, 0.0, True, specs=workloads.TOY, work_root=str(tmp_path))
    assert line["correct"] and line["failed"] == 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == run.LAYER_UNITS
    span_dir = tmp_path / f"{name}-s3-t1" / "call1-spans"
    span_list = spans.read_spans(str(span_dir))
    assert spans.check_nesting(span_list) == []
    assert len({s["run"] for s in span_list}) == 1
    roots = [s for s in span_list if s["name"].startswith("pipeline.run_")]
    assert len(roots) == 1
    # Block work recorded in pool workers hangs under the call's span.
    workers = {s["pid"] for s in span_list} - {roots[0]["pid"]}
    if workloads.TOY[name]["config"]["workers"] > 1:
        assert workers
    gibbs = [s for s in span_list if s["name"] == "pipeline.gibbs_run"]
    assert gibbs and all(s["parent"] == roots[0]["id"] for s in gibbs)


def test_self_time_subtracts_covered_child_time():
    span_list = [
        {"id": "p", "name": "parent", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "name": "child", "parent": "p", "start": 1.0, "end": 4.0},
        {"id": "b", "name": "child", "parent": "p", "start": 3.0, "end": 6.0},
        {"id": "c", "name": "grandchild", "parent": "a", "start": 2.0, "end": 3.0},
    ]
    selfs = spans.self_times(span_list)
    assert selfs == {"p": 5.0, "a": 2.0, "b": 3.0, "c": 1.0}
    assert spans.check_nesting(span_list) == []
    table = spans.summarize(span_list)
    assert table["child"] == {"count": 2, "total_s": 6.0, "self_s": 5.0}


def test_wrap_records_spans_and_skips_missing_functions(tmp_path):
    module = types.SimpleNamespace(inc=lambda x: x + 1)
    original = module.inc
    tracer = spans.Tracer("run", str(tmp_path))
    tracer.wrap(module, "inc", "m.inc", lambda args, kwargs, result: {"out": result})
    tracer.wrap(module, "gone", "m.gone")
    assert module.inc(1) == 2
    tracer.unwrap_all()
    assert module.inc is original
    assert [(s["name"], s["attrs"]) for s in tracer.spans] == [("m.inc", {"out": 2})]
    assert tracer.missing == ["m.gone"]
    assert spans.read_spans(os.path.dirname(tracer.write())) == tracer.spans


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ml-full",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
