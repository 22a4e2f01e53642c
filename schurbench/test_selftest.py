"""Tiny-size self-test of the benchmark.

    python3 -m pytest schurbench/test_selftest.py -q

Runs every workload untraced and traced on two seeds with --tiny and
checks the result contract: every metric named in BENCHMARK.json is
printed with its unit, and no operation fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "schurbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, seed, trace):
    done = run_bench(ROOT, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]
    provenance = json.loads(lines[-2])["provenance"]
    for key in ("nproc", "cpu_model", "python", "git_commit", "workload", "seed",
                "loadavg_start", "loadavg_end", "samples"):
        assert key in provenance, key


def test_every_per_layer_metric_is_documented():
    readme = (BENCH / "README.md").read_text()
    for m in SPEC["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "schurbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "certify_cold", 1, 0)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src" in done.stderr
