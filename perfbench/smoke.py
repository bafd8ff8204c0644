"""Smoke test of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at minimum size (``--quick``),
untraced and traced, and asserts that each run exits 0, passes every
output check and prints every end-to-end (untraced) or per-layer
(traced) metric with the unit ``BENCHMARK.json`` gives it, and that
traced spans cover at least 90% of ``run_s``.  It then runs
the benchmark in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files, where it must fail without printing a result.
Takes about a minute; exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n" \
                                 f"{done.stderr[-3000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{where}: result keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, \
        f"{where}: output checks failed\n{done.stderr[-3000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, \
        f"{where}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(expected) - set(printed))}, " \
        f"extra {sorted(set(printed) - set(expected))}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{where}: {name}"
        assert f"{workload} {name} = " in done.stdout, \
            f"{where}: {name} not printed"
    if trace:
        uncovered = result["metrics"]["driver.unattributed_frac"]["value"]
        assert uncovered <= 0.1, \
            f"{where}: spans cover only {1 - uncovered:.0%} of run_s"
    print(f"ok  {where}: {len(printed)} metrics, "
          f"{result['attempted']} attempted", flush=True)


def check_bare_directory(spec: dict) -> None:
    """Without the program under test the benchmark must fail cleanly."""
    bare = ROOT / "perfbench" / "runs" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in (ROOT / "perfbench").glob("*"):
            if path.is_file():
                shutil.copy(path, bare / "perfbench" / path.name)
        workload = spec["workloads"][0]["name"]
        done = _run(bare, workload, 0)
        assert done.returncode != 0, "bare directory: exit 0"
        assert '"metrics"' not in done.stdout, \
            "bare directory: printed a result"
        print(f"ok  bare directory: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in spec["workloads"]:
            for trace in (0, 1):
                check_run(spec, workload["name"], trace)
        check_bare_directory(spec)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
