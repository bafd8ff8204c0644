"""Pricing-daemon launcher for the ``serve-w1-warm`` workload.

Usage (spawned by ``perfbench/worker.py`` with ``PYTHONPATH=src``)::

    python3 perfbench/daemon.py --socket S --store P --report R --trace 0|1

Runs the user-facing ``repro serve --socket S --store P`` in this process
until SIGTERM.  With ``--trace 1`` the daemon-side layer wrappers of
:mod:`spans` are installed before the daemon starts serving.  At shutdown
it writes one JSON report to ``R``: exit code, peak resident memory, the
daemon counters, each hosted context's service stats, the store's scale
and the span table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

from spans import DAEMON_LAYERS, Tracer, install


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro.cli
    import repro.core.server as server_module

    import_s = time.perf_counter() - started
    tracer = Tracer()
    if args.trace:
        install(tracer, DAEMON_LAYERS)
    served = []
    serve = server_module.serve

    def capturing_serve(*a, **kw):
        served.append(serve(*a, **kw))
        return served[-1]

    server_module.serve = capturing_serve
    code = repro.cli.main(["serve", "--socket", args.socket,
                           "--store", args.store])
    server = served[0]
    store = server.store
    report = {
        "exit_code": code,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": dict(server.counters),
        "services": {salt: dataclasses.asdict(service.stats)
                     for salt, service in server.services.items()},
        "store_entries": len(store) if store is not None else 0,
        "store_bytes": store.size_bytes if store is not None else 0,
        "trace": tracer.table(),
    }
    tmp = Path(args.report + ".tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
