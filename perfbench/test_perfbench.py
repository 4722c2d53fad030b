"""Self-test of the benchmark at a tiny size: python3 -m pytest perfbench

Each workload runs through run.py with --size tiny, untraced and traced. The
result line must name every end-to-end or per-layer metric of
BENCHMARK.json with its unit, report no failures, and repeat its loss
sequence for a repeated seed. A NaN injected into one training loss must be
counted as a failed step and left out of the step timings. Only untraced
runs time the reference kernel that scales their times.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=3, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def step_samples(lines):
    return int(re.search(r"median of (\d+) \w+ steps", "\n".join(lines)).group(1))


def digest(lines):
    return next(l.split()[-1] for l in lines if "loss_digest" in l)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    _, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["desk_train", "full_train"])
def test_same_seed_gives_identical_losses(workload):
    first, _ = run(workload, 0, 5)
    second, _ = run(workload, 0, 5)
    other, _ = run(workload, 0, 6)
    assert digest(first) == digest(second)
    assert digest(first) != digest(other)


def test_non_finite_loss_counts_as_failed_step():
    clean_lines, clean = run("desk_train", 0, 7)
    lines, result = run("desk_train", 0, 7, "--fault-step", "0")
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == clean["attempted"]
    assert step_samples(lines) == step_samples(clean_lines) - 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_only_untraced_runs_sample_the_reference(workload):
    untraced, _ = run(workload, 0)
    traced, _ = run(workload, 1)
    line = next(l for l in untraced if "reference kernel" in l)
    assert int(re.search(r"mean of (\d+) runs", line).group(1)) >= 1
    assert not any("reference kernel" in l for l in traced)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    spec = HERE.parent / "BENCHMARK.json"
    (tmp_path / "BENCHMARK.json").write_bytes(spec.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
