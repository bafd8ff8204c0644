"""One benchmark sample, run in a fresh process by ``perfbench/run.py``.

Usage (normally spawned by ``run.py``, from the repository root, with
``PYTHONPATH=src``)::

    python3 perfbench/worker.py --workload nasaic-w1 --seed 1 --size 80 \
        --trace 0 --spawned-at <time.monotonic() before spawn> \
        --workdir perfbench/runs/<run> --out perfbench/runs/<run>/s0.json

The sample times its own set-up (from ``--spawned-at``, read on the
system-wide monotonic clock, until the search is ready to run) and the
search itself, both in wall-clock and at the reference host speed of
:mod:`pace`, runs the workload's output checks and writes one JSON
report to ``--out``.  With ``--trace 1`` the layer wrappers of
:mod:`spans` are installed before anything is built and the report also
carries the per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from pace import Pacer
from spans import CLIENT_LAYERS, Tracer, install

HERE = Path(__file__).resolve().parent

HW_STEPS = 10
RHO = 10.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _float_bits(value: float) -> str:
    return float(value).hex()


def _percentile_ms(durations: list, q: float) -> float:
    if not durations:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(durations), q)) * 1e3


def _distinct_designs(result) -> int:
    from repro.core.evalservice import design_content

    return len({design_content(s.networks, s.accelerator)
                for s in result.explored})


def _best(result) -> tuple[float, int]:
    best = result.best.weighted_accuracy if result.best else 0.0
    return best, len(result.feasible_solutions)


# ----------------------------------------------------------------------
# Workloads: each builds its search, calls ready(), runs the search
# under timed() and returns what the report and the checks need.
# ----------------------------------------------------------------------
def run_nasaic(args, ready, timed):
    from repro.core import NASAIC, NASAICConfig
    from repro.core.evaluator import Evaluator
    from repro.cost.model import CostModel
    from repro.workloads import w1

    config = NASAICConfig(episodes=args.size, hw_steps=HW_STEPS,
                          seed=args.seed, rho=RHO)
    search = NASAIC(w1(), config=config)
    ready()
    result = timed(search.run)
    search.close()
    checks = {}
    best = result.best
    if best is not None:
        fresh = Evaluator(search.workload, CostModel(), None, rho=RHO)
        again = fresh.evaluate_hardware(best.networks, best.accelerator)
        checks["best_repriced_bit_identical"] = (
            again.latency_cycles == best.latency_cycles
            and _float_bits(again.energy_nj) == _float_bits(best.energy_nj)
            and _float_bits(again.area_um2) == _float_bits(best.area_um2)
            and again.feasible == best.feasible)
    stats = search.evalservice.stats
    return {"result": result, "checks": checks, "client_stats": stats,
            "pricing_stats": stats, "store": None}


def _mc_parts():
    from repro.core.evaluator import Evaluator
    from repro.cost.model import CostModel
    from repro.workloads import w1

    workload = w1()
    cost_model = CostModel()
    return workload, cost_model, Evaluator(workload, cost_model, None,
                                           rho=RHO)


def run_mc_cold(args, ready, timed):
    from repro.core.baselines import monte_carlo_search
    from repro.core.evalservice import EvalService
    from repro.core.store import EvalStore

    workload, cost_model, evaluator = _mc_parts()
    store_path = Path(args.store or Path(args.workdir) / "cold.store")
    store = EvalStore(store_path)
    service = EvalService(evaluator, store=store)
    ready()
    result = timed(lambda: monte_carlo_search(
        workload, cost_model=cost_model, runs=args.size, seed=args.seed,
        rho=RHO, evalservice=service))
    service.close()
    distinct = _distinct_designs(result)
    entries = len(store)
    store_facts = {"entries": entries, "bytes": store.size_bytes,
                   "records_written": entries}
    store.close()
    checks = {
        "store_entries_equal_distinct_designs": entries == distinct,
        "misses_equal_distinct_designs": service.stats.misses == distinct,
    }
    return {"result": result, "checks": checks,
            "client_stats": service.stats, "pricing_stats": service.stats,
            "store": store_facts}


def spawn_daemon(args) -> subprocess.Popen:
    workdir = Path(args.workdir)
    log = open(workdir / "daemon.log", "ab")
    spawned_at = time.monotonic()
    try:
        daemon = subprocess.Popen(
            [sys.executable, str(HERE / "daemon.py"),
             "--socket", str(workdir / "d.sock"), "--store", args.store,
             "--report", str(workdir / "daemon.json"),
             "--trace", str(args.trace)],
            stdout=log, stderr=subprocess.STDOUT)
        daemon.spawned_at = spawned_at
        return daemon
    finally:
        log.close()


def _wait_for_socket(path: Path, deadline: float) -> None:
    import socket

    while True:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(str(path))
            return
        except (FileNotFoundError, ConnectionRefusedError):
            if time.monotonic() > deadline:
                raise TimeoutError(f"no daemon listening at {path}")
            time.sleep(0.005)
        finally:
            probe.close()


def run_serve_warm(args, ready, timed, daemon: subprocess.Popen):
    from repro.core.baselines import monte_carlo_search
    from repro.core.client import RemoteEvalService
    from repro.core.evalservice import EvalServiceStats

    workdir = Path(args.workdir)
    workload, cost_model, _ = _mc_parts()
    _wait_for_socket(workdir / "d.sock", time.monotonic() + 60.0)
    daemon_ready = time.monotonic()
    remote = RemoteEvalService(f"unix://{workdir / 'd.sock'}", workload,
                               cost_model.params, RHO)
    ready()
    try:
        result = timed(lambda: monte_carlo_search(
            workload, cost_model=cost_model, runs=args.size,
            seed=args.seed, rho=RHO, evalservice=remote))
    finally:
        remote.close()
        daemon.terminate()
        daemon.wait(timeout=60)
    report = json.loads((workdir / "daemon.json").read_text())
    (workdir / "daemon.json").unlink()
    stats = remote.stats
    distinct = _distinct_designs(result)
    checks = {
        "daemon_computed_nothing": report["counters"]["computed"] == 0,
        "client_saw_no_miss": stats.misses == 0,
        "every_distinct_design_a_store_hit": stats.store_hits == distinct,
        "daemon_exit_clean": report["exit_code"] == 0,
    }
    pricing = EvalServiceStats(**next(iter(report["services"].values()),
                                      {}))
    return {"result": result, "checks": checks, "client_stats": stats,
            "pricing_stats": pricing, "daemon": report,
            "daemon_ready_s": daemon_ready - daemon.spawned_at,
            "store": {"entries": report["store_entries"],
                      "bytes": report["store_bytes"],
                      "records_written": report["counters"]["persisted"]}}


# ----------------------------------------------------------------------
# Per-layer ledger
# ----------------------------------------------------------------------
def layer_metrics(facts: dict, table: dict, daemon_table: dict) -> dict:
    def span(name: str, field: str, source: dict = table) -> float:
        return source.get(name, {}).get(field, 0)

    def merged(name: str, field: str) -> float:
        return span(name, field) + span(name, field, daemon_table)

    client, pricing = facts["client_stats"], facts["pricing_stats"]
    requests = client.requests
    store = facts["store"] or {}
    evalservice_ms = table.get("evalservice.evaluate_many",
                               {}).get("durations", [])
    client_ms = table.get("client.evaluate_many", {}).get("durations", [])
    run = table["run"]
    return {
        "setup.import_s": facts["import_s"],
        "setup.daemon_ready_s": facts.get("daemon_ready_s", 0.0),
        "controller.sample.calls": span("controller.sample", "calls"),
        "controller.sample.s": span("controller.sample", "s"),
        "controller.backward.calls": span("controller.backward", "calls"),
        "controller.backward.s": span("controller.backward", "s"),
        "reinforce.apply_episodes.calls": span("reinforce.apply_episodes",
                                               "calls"),
        "reinforce.apply_episodes.self_s": span("reinforce.apply_episodes",
                                                "self_s"),
        "evalservice.evaluate_many.calls": span("evalservice.evaluate_many",
                                                "calls"),
        "evalservice.evaluate_many.s": span("evalservice.evaluate_many",
                                            "s"),
        "evalservice.evaluate_many.self_s": span(
            "evalservice.evaluate_many", "self_s"),
        "evalservice.evaluate_many.p50_ms": _percentile_ms(evalservice_ms,
                                                           50),
        "evalservice.evaluate_many.p90_ms": _percentile_ms(evalservice_ms,
                                                           90),
        "evalservice.requests": requests,
        "evalservice.hit_rate": client.hit_rate,
        "evalservice.store_hit_rate": (client.store_hits / requests
                                       if requests else 0.0),
        "evalservice.flush_store.s": span("evalservice.flush_store", "s"),
        "surrogate.build.s": span("surrogate.build", "s"),
        "evaluator.evaluate_hardware_many.calls": merged(
            "evaluator.evaluate_hardware_many", "calls"),
        "evaluator.evaluate_hardware_many.s": merged(
            "evaluator.evaluate_hardware_many", "s"),
        "evaluator.designs_priced": pricing.misses,
        "cost.prime_pairs.s": span("cost.prime_pairs", "s"),
        "cost.memo_hit_rate": pricing.cost_memo_rate,
        "cost.memo_entries": pricing.cost_memo_entries,
        "mapping.build_many.self_s": span("mapping.build_many", "self_s"),
        "mapping.solve_hap.calls": span("mapping.solve_hap", "calls"),
        "mapping.solve_hap.s": span("mapping.solve_hap", "s"),
        "mapping.hap_moves_priced": pricing.hap_moves_priced,
        "mapping.hap_batched_rounds": pricing.hap_batched_rounds,
        "store.put_many.calls": merged("store.put_many", "calls"),
        "store.put_many.s": merged("store.put_many", "s"),
        "store.put_many.records": store.get("records_written", 0),
        "store.bytes_per_entry": (store["bytes"] / store["entries"]
                                  if store.get("entries") else 0.0),
        "store.get.calls": merged("store.get", "calls"),
        "store.get.s": merged("store.get", "s"),
        "store.open_s": merged("store.open", "s"),
        "client.evaluate_many.calls": span("client.evaluate_many", "calls"),
        "client.evaluate_many.s": span("client.evaluate_many", "s"),
        "client.evaluate_many.p50_ms": _percentile_ms(client_ms, 50),
        "client.evaluate_many.p75_ms": _percentile_ms(client_ms, 75),
        "server.lookup_tiers.s": span("server.lookup_tiers", "s",
                                      daemon_table),
        "server.store_get.s": span("store.get", "s", daemon_table),
        "sampling.decode.s": span("sampling.decode", "s"),
        "sampling.random_indices.s": span("sampling.random_indices", "s"),
        "sampling.random_design.s": span("sampling.random_design", "s"),
        "evaluator.train_networks.calls": span("evaluator.train_networks",
                                               "calls"),
        "evaluator.train_networks.s": span("evaluator.train_networks", "s"),
        "result.record.s": span("result.record", "s"),
        "strategy.propose.self_s": span("strategy.propose", "self_s"),
        "strategy.observe.self_s": span("strategy.observe", "self_s"),
        "driver.unattributed_frac": run["self_s"] / run["s"],
    }


WORKLOADS = {"nasaic-w1": run_nasaic, "mc-w1-cold": run_mc_cold,
             "serve-w1-warm": run_serve_warm}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True,
                        help="NASAIC episodes or Monte-Carlo runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--store", default=None,
                        help="store path: kept after an mc-w1-cold "
                             "sample, served by serve-w1-warm")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    daemon = None
    if args.workload == "serve-w1-warm":
        # Started before this process imports anything, so the daemon's
        # start-up overlaps the client's as it would for a user.
        daemon = spawn_daemon(args)
    pacer = Pacer()
    pacer.start()
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (what every CLI invocation pays)
    import numpy

    import_s = time.perf_counter() - started
    tracer = Tracer()
    if args.trace:
        install(tracer, CLIENT_LAYERS)
    marks = {}

    def ready() -> None:
        marks["ready"] = time.monotonic()
        marks["ready_pace"] = pacer.mark()

    def timed(fn):
        begin, begin_cpu = time.perf_counter(), time.process_time()
        begin_pace = pacer.mark()
        try:
            return tracer.call("run", fn) if args.trace else fn()
        finally:
            marks["run_wall_s"] = time.perf_counter() - begin
            marks["run_cpu_s"] = time.process_time() - begin_cpu
            scaled = pacer.at_reference_speed(marks["run_wall_s"],
                                              begin_pace, pacer.mark())
            marks["run_s"], marks["run_probe_s"] = scaled
            pacer.stop()
            # Read before the output checks, which price again.
            marks["table"] = tracer.table()

    try:
        if daemon is not None:
            facts = run_serve_warm(args, ready, timed, daemon)
        else:
            facts = WORKLOADS[args.workload](args, ready, timed)
    finally:
        pacer.stop()
        if daemon is not None and daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=60)
    facts["import_s"] = import_s
    result = facts["result"]
    facts["checks"]["feasible_solution_found"] = result.best is not None
    best_acc, feasible = _best(result)
    client = facts["client_stats"]
    daemon_report = facts.get("daemon") or {}
    peak = _peak_rss_mb() + daemon_report.get("peak_rss_mb", 0.0)
    setup_wall_s = marks["ready"] - args.spawned_at
    setup_s, setup_probe_s = pacer.at_reference_speed(
        setup_wall_s, 0, marks["ready_pace"])
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "setup_probe_us": setup_probe_s * 1e6,
        "run_s": marks["run_s"],
        "run_wall_s": marks["run_wall_s"],
        "run_cpu_s": marks["run_cpu_s"],
        "run_probe_us": marks["run_probe_s"] * 1e6,
        "import_s": import_s,
        "peak_rss_mb": peak,
        "best_acc": best_acc,
        "best_acc_hex": _float_bits(best_acc),
        "feasible": feasible,
        "requests": client.requests,
        "faults": client.retries + client.reconnects + client.degraded,
        "checks": facts["checks"],
        "numpy": numpy.__version__,
    }
    if args.trace:
        daemon_table = daemon_report.get("trace") or {}
        report["layers"] = layer_metrics(facts, marks["table"],
                                         daemon_table)
        report["layers"]["run.wall_s"] = marks["run_wall_s"]
        report["layers"]["pace.probe_us"] = marks["run_probe_s"] * 1e6
        # The whole span tables, for the run record.
        report["spans"] = {
            side: {name: {k: v for k, v in row.items() if k != "durations"}
                   for name, row in table.items()}
            for side, table in (("client", marks["table"]),
                                ("daemon", daemon_table))}
    out = Path(args.out)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
