"""Tests of the benchmark itself: tracing, inputs, metric names, checks.

Run with: python3 -m pytest perfbench/tests
"""

import csv
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import run
from check import REL_TOL, check_run, expected_keys
from spans import PER_LAYER_UNITS, Span, layer_metrics, layer_shares
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Small versions of the workloads, under names that have no reference.
TINY = {
    "impute_mnar": dict(world={"n_total": 300, "train_fraction": 0.3}, steps=20),
    "oracle_sweep": dict(world={"n_total": 200, "train_fraction": 0.5}, steps=20),
    "verify_exact": dict(joints=5),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], name=f"tiny_{name}", **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_write_identical_reports(tmp_path, name):
    workload = tiny(name)
    runner = run.Runner(workload, 3, tmp_path, deadline=time.monotonic() + 120)
    plain = runner.spawn(0, traced=False, jobs=1)
    traced = runner.spawn(0, traced=True, jobs=1)
    assert plain.exit_code == 0 and traced.exit_code == 0
    assert plain.outcome.failed == 0 and traced.outcome.failed == 0
    assert plain.reports and all(plain.reports.values())
    assert traced.reports == plain.reports
    assert plain.spans is None and traced.spans

    from spans import spans_from_json

    metrics = layer_metrics(spans_from_json(traced.spans))
    if workload.is_verify:
        on_path = ["discrete.equalities_per_s", "verify.check_s.out_of_support"]
    else:
        on_path = ["nn.step_us.knockout", "nn.grad_us", "nn.predict_rows_per_s",
                   "evaluate.pattern_s.knockout", "runner.write_s", "config.parse_s"]
    if name == "impute_mnar":
        on_path += ["baselines.knn_rows_per_s", "baselines.linreg_rows_per_s",
                    "nn.step_us.knn", "augment.merge_us"]
    for key in on_path:
        assert metrics[key] > 0, key


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "from workloads import WORKLOADS;"
        "print(json.dumps({n: (w.config_text(5) if not w.is_verify else '',"
        " w.cli_args(5, 2, 'c.ini', 'out', w.jobs)) for n, w in WORKLOADS.items()}))"
    )
    other = subprocess.run(
        [sys.executable, "-c", script, str(run.BENCH_DIR)], cwd=tmp_path,
        env={"PYTHONHASHSEED": "123", "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, check=True,
    )
    fresh = json.loads(other.stdout)
    for name, w in WORKLOADS.items():
        text = w.config_text(5) if not w.is_verify else ""
        args = w.cli_args(5, 2, "c.ini", "out", w.jobs)
        assert fresh[name] == [text, args]
        if w.is_verify:
            assert w.cli_args(6, 2, "c.ini", "out", 1) != args
            assert w.cli_args(5, 3, "c.ini", "out", 1) != args
        else:
            assert "seed0 = 5\n" in text
            assert w.config_text(6) != text


def test_metric_names_and_units():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {}
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["name"] not in declared
            declared[metric["name"]] = metric["unit"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    computed = set(layer_metrics([])) | {"trace.overhead_s", "evaluate.report_max_rel_diff"}
    assert computed == set(PER_LAYER_UNITS)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def _span(name, start, end, parent=-1, kind=None, **attrs):
    return Span(name, start, end, parent, kind, attrs)


def test_self_time_subtracts_child_spans():
    spans = [
        _span("runner.train", 0.0, 12.0, kind="knockout"),
        _span("nn.train", 1.0, 11.0, 0, "knockout", steps=2),
        _span("nn.grad", 2.0, 5.0, 1, "knockout"),
        _span("nn.hook", 5.0, 6.0, 1, "knockout"),
        _span("nn.grad", 6.0, 9.0, 1, "knockout"),
        _span("nn.hook", 9.0, 10.0, 1, "knockout"),
    ]
    m = layer_metrics(spans)
    assert m["nn.step_us.knockout"] == pytest.approx(5e6)
    assert m["nn.grad_us"] == pytest.approx(3e6)
    assert m["nn.hook_us"] == pytest.approx(1e6)
    assert m["nn.opt_us"] == pytest.approx(1e6)  # (10 - 6 - 2) / 2 steps
    assert m["runner.train_s"] == pytest.approx(12.0)
    shares = layer_shares(spans, 24.0)
    assert shares["runner"] == pytest.approx(2 / 24)
    assert shares["nn"] == pytest.approx(10 / 24)
    assert shares["other"] == pytest.approx(0.5)


def _write_report(out_dir, values):
    (out_dir / "models").mkdir(parents=True)
    for method in ("knockout", "knockout_star", "common_baseline"):
        (out_dir / "models" / f"{method}_rep0.json").write_text(
            json.dumps({"weights": [[[0.5]]], "biases": [[0.0]]}))
    with open(out_dir / "report_long.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "pattern", "popcount", "metric", "rep", "value"])
        for key, value in values.items():
            method, pattern, metric, rep = key.split("|")
            writer.writerow([method, pattern, pattern.count("1"), metric, rep, repr(value)])


def test_report_check_against_reference(tmp_path):
    workload = dataclasses.replace(WORKLOADS["oracle_sweep"], k_max=1)
    keys = expected_keys(workload)
    ref = {key: 0.25 + i / 1000 for i, key in enumerate(keys)}
    reference = {"seed": 17, "values": ref}
    attempted = len(keys) + 3

    _write_report(tmp_path / "same", ref)
    assert check_run(workload, 17, tmp_path / "same", True, reference).failed == 0

    close = dict(ref, **{keys[0]: ref[keys[0]] * (1 + REL_TOL / 10)})
    _write_report(tmp_path / "close", close)
    outcome = check_run(workload, 17, tmp_path / "close", True, reference)
    assert outcome.failed == 0 and 0 < outcome.max_rel_diff < REL_TOL

    bad = dict(ref, **{keys[0]: ref[keys[0]] * (1 + 10 * REL_TOL), keys[1]: float("nan")})
    del bad[keys[2]]
    _write_report(tmp_path / "bad", bad)
    assert check_run(workload, 17, tmp_path / "bad", True, reference).failed == 3
    # Another seed gets structural checks only: the perturbed value passes.
    outcome = check_run(workload, 4, tmp_path / "bad", True, reference)
    assert (outcome.attempted, outcome.failed) == (attempted, 2)
    # A command that failed fails every operation.
    assert check_run(workload, 17, tmp_path / "same", False, reference).failed == attempted


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "train_mcar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
