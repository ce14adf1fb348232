"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, traced and untraced, on every workload, and that the harness refuses
to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run("train", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_same_seed_gives_same_inputs():
    sys.path.insert(0, str(BENCH))
    import synth

    assert synth.corpus(5, 30, 5, 40, 0.4) == synth.corpus(5, 30, 5, 40, 0.4)
    assert synth.corpus(5, 30, 5, 40, 0.4) != synth.corpus(6, 30, 5, 40, 0.4)
    assert synth.explain_texts(5, (5, 9)) == synth.explain_texts(5, (5, 9))
