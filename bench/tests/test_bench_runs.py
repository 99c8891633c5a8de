"""End-to-end runs of ``bench/run.py --smoke``: correct, hermetic, traced,
and failing when a reference or the program is wrong or missing."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve-warm", "serve-mixed", "repro-offline", "mc-validate", "sched-day")


def _run(root: Path, *args: str, timeout: float = 180.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain", "--ignored=no"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def _checkout_copy(tmp_path: Path) -> Path:
    """The files a benchmark checkout holds, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "src" / "repro", ignore=ignore)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def test_smoke_run_is_correct_and_leaves_the_tree_untouched():
    in_git = (ROOT / ".git").exists()
    before = _git_status() if in_git else None
    t0 = time.perf_counter()
    proc = _run(ROOT, "--smoke")
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= len(WORKLOADS)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for metric in catalogue["end_to_end"]:
            value = line["metrics"][f"{workload}/{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0, (workload, metric["name"])
    assert not (ROOT / ".bench_tmp").exists()
    if in_git:
        assert _git_status() == before
    assert wall < 60, f"smoke took {wall:.1f} s"


def test_traced_smoke_reports_the_layer_breakdown():
    proc = _run(ROOT, "--smoke", "--trace", "--workload", "serve-mixed,repro-offline")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in catalogue["per_layer"]}
    assert {k.split("/", 1)[1] for k in line["metrics"]} == names
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["serve-mixed/serve.request_digest.calls"] >= 1
    assert metrics["serve-mixed/model.best_index.calls"] > 0
    assert metrics["serve-mixed/model.evaluate_space_arrays.calls"] > 0
    assert metrics["repro-offline/cluster.recommend_exhaustive.calls"] == 48
    assert metrics["repro-offline/serve.request_digest.calls"] == 0
    for workload in ("serve-mixed", "repro-offline"):
        assert metrics[f"{workload}/trace_overhead_ratio"] > 0
    assert "layers_within_op_wall: ok" in proc.stdout


def test_a_corrupted_reference_fails_the_run(tmp_path):
    root = _checkout_copy(tmp_path)
    path = root / "bench" / "expected" / "offline.json"
    doc = json.loads(path.read_text())
    # Every EP answer's energy, off by a millionth (the tolerance is 1e-9),
    # and one table's digest.
    for row in doc["answers"]["EP"]:
        if row is not None:
            row[3] *= 1.0 + 1e-6
    doc["artifacts"]["table7"] = "0" * 64
    path.write_text(json.dumps(doc))
    proc = _run(root, "--smoke", "--workload", "repro-offline")
    assert proc.returncode == 1
    assert _last_json(proc)["correct"] is False
    assert "check artifact_digests: FAILED" in proc.stdout
    assert "check recommend_answers: FAILED" in proc.stdout


@pytest.mark.parametrize("keep", ["bench-only", "no-benchmark-json"])
def test_refuses_to_run_without_the_program(tmp_path, keep):
    root = _checkout_copy(tmp_path)
    if keep == "bench-only":
        shutil.rmtree(root / "src")
    else:
        (root / "BENCHMARK.json").unlink()
    proc = _run(root, "--workload", "repro-offline", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
