"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Each workload runs one round and must pass its own checks; a traced run
must report exactly the per-layer metrics ``BENCHMARK.json`` lists; and
corrupted results must make the checks fail.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    result = run.run(WORKLOADS[name](7, "tiny"), 0, 0, str(tmp_path))
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_declared_layer_metric(name, tmp_path):
    result = run.run(WORKLOADS[name](7, "tiny"), 0, 1, str(tmp_path))
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    assert metrics["setup.mtbdd_steps"]["value"] > 0
    assert (tmp_path / f"trace-{WORKLOADS[name](7, 'tiny').name}-7.json").is_file()


def _round(tmp_path, name="reach"):
    workload = WORKLOADS[name](7, "tiny")
    _, objs = run.Runner(workload, run.write_inputs(workload, str(tmp_path))).round()
    assert check.check_workload(workload, objs) == []
    return workload, objs


def test_flipped_target_in_determinised_result_fails_the_check(tmp_path):
    workload, objs = _round(tmp_path)
    det = objs["det.D0"]
    model = check.explicit_model(det, workload.symbols, None)
    sym, src, target = sorted(model.rules)[-1]
    other = next(q for q in det.state_names if q != target)
    det.insert_transition(sym, src, [other])
    errors = check.check_workload(workload, objs)
    assert any("det.D0" in e for e in errors), errors


def test_flipped_line_in_written_text_fails_the_check(tmp_path):
    workload, objs = _round(tmp_path)
    lines = objs["txt.min.D0"].splitlines()
    last = lines[-1].rsplit(" ", 1)
    other = next(q for q in lines[3].split()[1:] if q != last[1])
    objs["txt.min.D0"] = "\n".join(lines[:-1] + [f"{last[0]} {other}"]) + "\n"
    errors = check.check_workload(workload, objs)
    assert any("txt.min.D0" in e for e in errors), errors


def test_wrong_inclusion_answer_fails_the_check(tmp_path):
    workload, objs = _round(tmp_path)
    key = next(j.key for j in workload.jobs if j.expect == "fails")
    objs[key] = True
    errors = check.check_workload(workload, objs)
    assert any(key in e for e in errors), errors


def test_benchmark_refuses_to_run_without_the_program_sources(tmp_path):
    import shutil
    import subprocess
    copy = tmp_path / "bare"
    shutil.copytree(BENCH, copy / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reach", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
