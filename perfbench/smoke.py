"""The benchmark's own test: every workload's smoke variant, untraced and traced.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Each smoke variant runs a few documents through one EM iteration, so the
whole check takes about a minute.  It asserts that the untraced run prints
every end-to-end metric of BENCHMARK.json with its unit, and the eight
pipeline metrics by name and unit in its report, that the traced run prints
every per-layer metric, that no operation failed, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = {
    "setup_s": "s", "train_s": "s", "infer_docs_per_s": "docs/s", "peak_rss_mb": "MB",
    "engine_f1": "ratio", "logic_score": "ratio", "rules_recovered": "count", "ops_failed_frac": "ratio",
}


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def check_workload(name: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = run(f"{name}-smoke", trace)
        metrics = result_of(done)["metrics"]
        if not trace:
            report = {line.split()[1]: line.split()[-1] for line in done.stdout.splitlines()
                      if line.startswith("# ") and line.split()[1] in REPORTED}
            assert report == REPORTED, report
            assert float(next(line.split()[2] for line in done.stdout.splitlines()
                              if line.startswith("# ops_failed_frac "))) == 0.0
        expected = {metric["name"]: metric["unit"] for metric in SPEC[key]}
        assert set(metrics) == set(expected), set(metrics) ^ set(expected)
        for metric, unit in expected.items():
            assert metrics[metric]["unit"] == unit, (metric, metrics[metric])
            assert isinstance(metrics[metric]["value"], (int, float)), (metric, metrics[metric])
        if trace and name == "train-wide":
            assert metrics["generator.sample_unique_rules_calls"]["value"] > 0
            assert metrics["generator.sample_unique_indices_calls"]["value"] == 0


def test_train_std_smoke():
    check_workload("train-std")


def test_train_wide_smoke():
    check_workload("train-wide")


def test_infer_bulk_smoke():
    check_workload("infer-bulk")


def test_refuses_to_run_without_program():
    """In a directory holding only BENCHMARK.json and the benchmark, it must fail."""
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run("train-std", 0, bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_train_std_smoke, test_train_wide_smoke, test_infer_bulk_smoke,
                 test_refuses_to_run_without_program):
        test()
        print(f"ok {test.__name__}")
