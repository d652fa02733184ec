"""Tests of the benchmark itself: every workload at toy size, the checks
that must catch a wrong answer, and the BENCHMARK.json contract.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import clock
import run
import spans
import workloads
from subexp import asymptotics, cli, exact, model

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def bench_clock():
    c = clock.CalibratedClock().start()
    yield c
    c.stop()


def toy_run(bench_clock, workload, trace=0):
    args = run.parse_args(["--workload", workload, "--seed", "7",
                           "--seconds", "0", "--trace", str(trace)])
    lines, result = run.run(args, bench_clock, size="toy", setup_samples=2)
    return lines, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_runs_clean_at_toy_size(bench_clock, workload, trace):
    lines, result = toy_run(bench_clock, workload, trace)
    assert result["correct"], [line for line in lines if line.startswith("failure")]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("metric fail_frac 0 ") for line in lines)
    assert mp.dps == 38


def _off_by_one(original):
    def corrupted(m, N):
        series = original(m, N)
        coeffs = list(series.coeffs)
        coeffs[100] += 1
        return dataclasses.replace(series, coeffs=tuple(coeffs))
    return corrupted


def _shifted(original, shift):
    def corrupted(sd, n):
        le = original(sd, n)
        return dataclasses.replace(le, log_value=le.log_value + shift)
    return corrupted


def test_off_by_one_coefficient_is_a_failure(bench_clock, monkeypatch):
    monkeypatch.setattr(exact, "exact_coefficients",
                        _off_by_one(exact.exact_coefficients))
    _, result = toy_run(bench_clock, "count-narrow")
    assert not result["correct"] and result["failed"] > 0


@pytest.mark.parametrize("workload", ["predict-sweep", "count-wide"])
def test_shifted_log_estimate_is_a_failure(bench_clock, monkeypatch, workload):
    # far below the accuracy of either formula against exact counts, far
    # above the stored-reference tolerance
    monkeypatch.setattr(asymptotics, "log_estimate_khintchine",
                        _shifted(asymptotics.log_estimate_khintchine, 1e-4))
    _, result = toy_run(bench_clock, workload)
    assert not result["correct"] and result["failed"] > 0


def test_shifted_cli_column_is_a_failure(bench_clock, monkeypatch):
    monkeypatch.setattr(cli, "log_estimate_explicit",
                        _shifted(cli.log_estimate_explicit, 1e-4))
    _, result = toy_run(bench_clock, "compare-cli")
    assert not result["correct"] and result["failed"] > 0


def test_precision_drift_is_a_failure(bench_clock, monkeypatch):
    original = asymptotics.log_estimate_explicit

    def leaky(sd, n):
        mp.dps = 30
        return original(sd, n)

    monkeypatch.setattr(asymptotics, "log_estimate_explicit", leaky)
    lines, result = toy_run(bench_clock, "predict-sweep")
    assert result["failed"] > 0
    assert any("mp.dps drifted" in line for line in lines)
    assert mp.dps == 38


def test_inputs_depend_only_on_the_seed():
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(3), cls(3), cls(4)
        key = "grid" if hasattr(a, "grid") else "ns"
        assert getattr(a, key) == getattr(b, key)
        assert getattr(a, key) != getattr(c, key)


def test_recurrence_products_counts_nonzero_terms():
    for m in (model.make_preset("standard"), model.make_preset("congruent", 3, 2)):
        lam = model.lambda_coeffs(m, 40)
        nonzero = [lam.k_lambda(k) != 0 for k in range(1, 41)]
        brute = sum(sum(nonzero[:n]) for n in range(1, 41))
        assert spans.recurrence_products(m, 40) == brute
    assert spans.recurrence_products(model.make_preset("standard"), 10) == 55


def test_self_time_excludes_child_spans(bench_clock):
    tracer = spans.Tracer(bench_clock)

    def child():
        sum(i * i for i in range(20000))

    def parent():
        child()
        sum(i * i for i in range(20000))

    traced_child = tracer._wrap("child", child)
    traced_parent = tracer._wrap("parent", lambda: (traced_child(), parent()))
    traced_parent()
    (cid, cpar, _, c0, c1), (pid, ppar, _, p0, p1) = tracer.spans
    assert cpar == pid and ppar == -1
    assert tracer.self_ns["child"] == c1 - c0
    assert tracer.self_ns["parent"] == (p1 - p0) - (c1 - c0)


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.UNITS


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
