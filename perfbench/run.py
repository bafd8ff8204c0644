"""End-to-end benchmark of the NASAIC reproduction, with a per-layer ledger.

Usage, from the repository root::

    python3 perfbench/run.py --workload nasaic-w1 --seed 1 --seconds 36 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``nasaic-w1``      — the paper's RL co-exploration loop on W1,
  in-process with a private LRU and no store;
* ``mc-w1-cold``     — Monte-Carlo search on W1 through an ``EvalService``
  over a fresh, empty ``EvalStore``: every design is priced and written;
* ``serve-w1-warm``  — the same Monte-Carlo search as one closed-loop
  client of a ``repro serve`` daemon whose store this run first fills
  with that search's designs: every answer is a store read.

Each sample runs in a fresh process (``perfbench/worker.py``), one at a
time, with BLAS/OpenMP pinned to one thread.  Samples repeat until
``--seconds`` would be exceeded (at least three, or two untraced plus two
traced with ``--trace 1``).  Times are taken at the reference host
speed of ``perfbench/pace.py``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics of
``BENCHMARK.json`` (medians over samples); with ``--trace 1`` it carries the per-layer
metrics, taken from traced samples, and the tracing overhead measured
against the untraced ones.  Every run, sample by sample with its
metadata, is appended to ``perfbench/runs/history.jsonl``.

The exit code is 0 when every output check passed, 1 when one failed
and 2 when the program under test or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = Path("perfbench") / "runs"

#: NASAIC episodes or Monte-Carlo runs per sample.  Sized so a sample's
#: timed region is several seconds and a 36-second run holds four to seven
#: samples.  Both MC workloads run the same search, so the warm store
#: holds every design the served client asks for.
SIZES = {"nasaic-w1": 80, "mc-w1-cold": 2000, "serve-w1-warm": 2000}
#: Minimum sizes for the smoke test (``--quick``).
QUICK_SIZES = {"nasaic-w1": 5, "mc-w1-cold": 64, "serve-w1-warm": 64}

#: Thread pools of the numerical libraries, pinned in every sample.
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: No new sample starts once the run could not finish by this point,
#: and a sample still running then is killed and counted as failed.
RUN_BUDGET_S = 160.0
#: A sample whose run_s is this share off its run's median is marked
#: noisy: every sample of a run does the same work.
NOISY_SHARE = 0.15


def _error(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """Content digest of the program under test (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata(args, env: dict) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
        "src_digest": _src_digest(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: env[name] for name in BLAS_THREADS},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
    }


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a sample's process group (a daemon
    orphaned by a crashed worker) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runner:
    """Spawns samples one at a time and keeps their records."""

    def __init__(self, args, env: dict, rundir: Path,
                 deadline: float) -> None:
        self.args = args
        self.env = env
        self.rundir = rundir
        self.deadline = deadline
        self.size = (QUICK_SIZES if args.quick else SIZES)[args.workload]
        self.samples: list[dict] = []

    def spawn(self, name: str, workload: str, trace: int,
              store: Path | None) -> dict:
        workdir = self.rundir / name
        workdir.mkdir()
        out = workdir / "report.json"
        command = [sys.executable, str(Path("perfbench") / "worker.py"),
                   "--workload", workload, "--seed", str(self.args.seed),
                   "--size", str(self.size), "--trace", str(trace),
                   "--workdir", str(workdir), "--out", str(out)]
        if store is not None:
            command += ["--store", str(store)]
        record = {"name": name, "workload": workload, "trace": trace,
                  "loadavg_before": list(os.getloadavg())}
        with open(workdir / "worker.log", "wb") as log:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(
                command + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            timeout = max(1.0, self.deadline - spawned_at)
            try:
                record["exit_code"] = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                record["exit_code"] = None
                record["error"] = f"killed after {timeout:.0f}s"
            _reap_group(proc.pid)
        record["wall_s"] = time.monotonic() - spawned_at
        record["loadavg_after"] = list(os.getloadavg())
        if record["exit_code"] == 0 and out.is_file():
            record["report"] = json.loads(out.read_text())
        else:
            tail = (workdir / "worker.log").read_text(errors="replace")
            record.setdefault("error", tail[-2000:])
            print(f"sample {name} failed:\n{record['error']}",
                  file=sys.stderr)
        return record

    def sample(self, trace: int, store: Path | None) -> None:
        record = self.spawn(f"s{len(self.samples)}", self.args.workload,
                            trace, store)
        self.samples.append(record)
        report = record.get("report")
        if report:
            print(f"sample {record['name']} trace={trace} "
                  f"setup_s={report['setup_s']:.3f} "
                  f"run_s={report['run_s']:.3f} "
                  f"(wall {report['run_wall_s']:.3f}, probe "
                  f"{report['run_probe_us']:.0f}us) "
                  f"best_acc={report['best_acc']!r}", flush=True)


def explain_noise(samples: list[dict]) -> None:
    """Mark samples that ran on a busy or unsteady host, with the
    reason.  They stay in the medians; the mark is for the reader."""
    cpus = os.cpu_count() or 1
    for trace in (0, 1):
        group = [r for r in samples
                 if "report" in r and r["trace"] == trace]
        if not group:
            continue
        median = statistics.median(r["report"]["run_s"] for r in group)
        for record in group:
            report = record["report"]
            reasons = []
            load = max(record["loadavg_before"][0],
                       record["loadavg_after"][0])
            if load > cpus:
                reasons.append(f"1-minute load {load:.2f} above {cpus} "
                               "CPUs: other work competed for them")
            off = report["run_s"] / median - 1.0
            if abs(off) > NOISY_SHARE:
                cpu = report["run_cpu_s"] / report["run_wall_s"]
                reasons.append(
                    f"run_s {off:+.0%} off the run's median for the same "
                    f"work, at {cpu:.0%} CPU and a mean host-speed probe "
                    f"of {report['run_probe_us']:.0f}us: the host's "
                    "speed changed within the sample")
            if reasons:
                record["noisy"] = "; ".join(reasons)


def plan(trace: int):
    """Trace modes of successive samples and the minimum count: untraced
    only, or untraced and traced alternating (for the overhead)."""
    if trace:
        return (lambda i: i % 2), 4
    return (lambda i: 0), 3


def aggregate(args, samples: list[dict], prebuild: dict | None,
              spec: dict):
    """Output checks across samples, then the metrics of this mode.

    ``prebuild`` is the in-process pass that filled the served store;
    its checks count, and its results are what served samples must
    reproduce.
    """
    checks: list[tuple[str, bool]] = []
    attempted = failed = 0
    good = []
    reference = None
    if prebuild is not None:
        reference = prebuild.get("report")
        if reference is None:
            attempted += 1
            failed += 1
        else:
            attempted += len(reference["checks"])
            checks += [(f"prebuild.{name}", ok)
                       for name, ok in reference["checks"].items()]
    for record in samples:
        report = record.get("report")
        if report is None:
            attempted += 1
            failed += 1
            continue
        good.append(report)
        attempted += report["requests"] + len(report["checks"])
        failed += report["faults"]
        checks += [(f"{record['name']}.{name}", ok)
                   for name, ok in report["checks"].items()]
    anchor = reference or (good[0] if good else None)
    for record in samples:
        report = record.get("report")
        if report is None:
            continue
        checks.append((f"{record['name']}.best_acc_reproduced",
                       report["best_acc_hex"] == anchor["best_acc_hex"]))
        checks.append((f"{record['name']}.feasible_count_reproduced",
                       report["feasible"] == anchor["feasible"]))
    attempted += 2 * len(good)
    failed += sum(1 for _, ok in checks if not ok)
    correct = failed == 0 and bool(good)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    metrics: dict[str, float] = {}
    untraced = [r for r in good if not r["trace"]]
    if not good:
        names = []
    elif args.trace:
        traced = [r for r in good if r["trace"]]
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            values = [r["layers"][name] for r in traced
                      if name in r["layers"]]
            if values:
                metrics[name] = statistics.median(values)
        if traced and untraced:
            metrics["trace.overhead_frac"] = (
                statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in untraced) - 1.0)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        for name in ("setup_s", "run_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in untraced)
        metrics["best_acc"] = anchor["best_acc"]
        metrics["ok_frac"] = 1.0 - failed / max(1, attempted)
    missing = [name for name in names if name not in metrics]
    if missing:
        checks.append((f"metrics_missing:{','.join(missing)}", False))
        failed += 1
        correct = False
    return {"correct": correct, "attempted": max(1, attempted),
            "failed": failed,
            "metrics": {name: {"value": metrics[name],
                               "unit": units[name]}
                        for name in names if name in metrics}}, checks


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimum workload sizes (the smoke test)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _error(f"no {spec_path.name} at the repository root")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        return _error("the program under test (src/repro) is missing; "
                      "run from a full checkout of the repository")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _error(f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    meta = run_metadata(args, env)
    (ROOT / RUNS).mkdir(parents=True, exist_ok=True)
    rundir = RUNS / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(ROOT / rundir, ignore_errors=True)
    (ROOT / rundir).mkdir()
    runner = Runner(args, env, rundir, started + RUN_BUDGET_S)
    prebuild = store = None
    try:
        if args.workload == "serve-w1-warm":
            # The daemon's store is filled by this commit's own
            # in-process pass of the same search, outside the timing.
            store = rundir / "warm.store"
            prebuild = runner.spawn("prebuild", "mc-w1-cold", 0, store)
        if prebuild is None or "report" in prebuild:
            mode_of, minimum = plan(args.trace)
            window = time.monotonic()
            while True:
                count = len(runner.samples)
                walls = [r["wall_s"] for r in runner.samples]
                estimate = statistics.median(walls) if walls else 0.0
                now = time.monotonic()
                if count >= minimum and (
                        now - window + estimate > args.seconds
                        or now - started + estimate > RUN_BUDGET_S):
                    break
                runner.sample(mode_of(count), store)
                if "report" not in runner.samples[-1]:
                    break
    finally:
        shutil.rmtree(ROOT / rundir, ignore_errors=True)
    explain_noise(runner.samples)
    result, checks = aggregate(args, runner.samples, prebuild, spec)
    meta["numpy"] = next((r["report"]["numpy"] for r in runner.samples
                          if "report" in r), None)
    record = {"meta": meta, "prebuild": prebuild,
              "samples": runner.samples, "checks": dict(checks), **result}
    with open(ROOT / RUNS / "history.jsonl", "a") as history:
        history.write(json.dumps(record) + "\n")
    for name, ok in checks:
        if not ok:
            print(f"CHECK FAILED: {name}", file=sys.stderr)
    for sample in runner.samples:
        if "noisy" in sample:
            print(f"sample {sample['name']} noisy: {sample['noisy']}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
