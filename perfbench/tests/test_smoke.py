"""Reduced-size runs of every workload through the harness and the command."""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.layers import load_mapping
from perfbench.workloads import Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def leftover_workdirs():
    return glob.glob(os.path.join(ROOT, ".perfbench-*"))


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_small_untraced_run_is_correct(workload, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    before = leftover_workdirs()
    ledger, report, extras = harness.run(workload, 3, 0.0, False, ROOT, small=True)
    assert ledger.failed == 0, ledger.problems
    # warm-up and one timed pass with their gates, the repeat check and one
    # set-up import
    stages = len(harness.WORKLOADS[workload].stages(0, True))
    gates = len(harness.WORKLOADS[workload].gates)
    assert ledger.attempted == 2 * (stages + gates) + 2
    for name in ("pipeline_s", "forward_s", "sample_s", "setup_s", "peak_rss_mb"):
        assert report[name]["median"] > 0
    assert report["failed_frac"]["median"] == 0
    assert all(gate["passed"] for gate in extras["gates"].values())
    assert leftover_workdirs() == before


def test_small_traced_run_reports_every_layer_metric():
    ledger, report, extras = harness.run("readme", 3, 0.0, True, ROOT, small=True)
    assert ledger.failed == 0, ledger.problems
    assert set(report) == set(load_mapping())
    assert report["bie.solve_forward.calls"]["median"] == 16
    assert report["completion.complete_cauchy.calls"]["median"] == 16
    assert report["sampling.scan.points"]["median"] > 0
    assert report["io.bytes_written"]["median"] > 0
    names = {span["name"] for span in extras["spans"][0]}
    assert {"pass", "cli.forward", "bie.dtn_matrix", "linalg.lu_factor",
            "io.write_gamma"} <= names


def test_a_failing_stage_counts_as_failed_with_the_rest_of_its_pass(tmp_path):
    cli = harness.ensure_program(ROOT)
    workload = harness.WORKLOADS["readme"]
    broken = Workload(
        "broken", lambda seed, small: [["sample", "--data", "missing.json", "--out", "x.csv"],
                                       *workload.stages(seed, small)[2:]])
    ledger = harness.Ledger()
    result = harness.run_pass(cli, broken, 0, str(tmp_path))
    ledger.add_pass(result)
    assert not result.ok
    assert (ledger.attempted, ledger.failed) == (3, 3)


def test_every_pass_above_a_gate_tolerance_counts_as_failed():
    ledger = harness.Ledger(gates=(("gamma_rel_err", 0.25),))
    for err in (0.2, 0.3, 0.3):
        stage = harness.StageResult("impedance", 1.0, True, "digest")
        ledger.add_pass(harness.PassResult(0, [stage], 0, {"gamma_rel_err": err}))
    assert (ledger.attempted, ledger.failed) == (6, 2)


def test_command_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_command_prints_the_declared_metrics_last():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme",
                           "--seed", "2", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert list(last["metrics"]) == declared
