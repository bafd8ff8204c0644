"""In-memory span recorder that times the program's layers from outside.

The benchmark never edits ``src/``: :func:`install` replaces public
functions and methods of the program's modules with wrappers that open a
span around each call.  A span records its call count, inclusive seconds
and self seconds (inclusive minus the time its child spans cover), plus
every call's duration so percentiles can be taken later.  Spans nest per
thread; a span re-entered under its own name (a decode that calls a
subclass decode) is counted once.  Nothing is written while the run is
timed: :meth:`Tracer.table` is read once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

# (span name, module, attribute path).  The attribute is patched where
# the caller looks it up, so module-level functions are patched in the
# importing module's namespace (``solve_hap`` in ``repro.core.evaluator``).
CLIENT_LAYERS = [
    ("strategy.propose", "repro.core.search", "NASAIC.propose"),
    ("strategy.observe", "repro.core.search", "NASAIC.observe"),
    ("strategy.propose", "repro.core.baselines",
     "_MonteCarloStrategy.propose"),
    ("strategy.observe", "repro.core.baselines",
     "_MonteCarloStrategy.observe"),
    ("controller.sample", "repro.core.controller", "RNNController.sample"),
    ("controller.backward", "repro.core.controller",
     "RNNController.backward"),
    ("reinforce.apply_episodes", "repro.core.reinforce",
     "ReinforceTrainer.apply_episodes"),
    ("evalservice.evaluate_many", "repro.core.evalservice",
     "EvalService.evaluate_many"),
    ("evalservice.flush_store", "repro.core.evalservice",
     "EvalService.flush_store"),
    ("surrogate.build", "repro.core.baselines", "default_surrogate"),
    ("evaluator.evaluate_hardware_many", "repro.core.evaluator",
     "Evaluator.evaluate_hardware_many"),
    ("evaluator.train_networks", "repro.core.evaluator",
     "Evaluator.train_networks"),
    ("cost.prime_pairs", "repro.cost.model", "CostModel.prime_pairs"),
    ("mapping.build_many", "repro.mapping.problem",
     "MappingProblem.build_many"),
    ("mapping.solve_hap", "repro.core.evaluator", "solve_hap"),
    ("store.open", "repro.core.store", "EvalStore.__init__"),
    ("store.get", "repro.core.store", "EvalStore.get"),
    ("store.put_many", "repro.core.store", "EvalStore.put_many"),
    ("client.evaluate_many", "repro.core.client",
     "RemoteEvalService.evaluate_many"),
    ("sampling.decode", "repro.core.choices", "JointSearchSpace.decode"),
    ("sampling.decode", "repro.arch.space", "ArchitectureSpace.decode"),
    ("sampling.decode", "repro.arch.resnet", "ResNetSpace.decode"),
    ("sampling.decode", "repro.arch.unet", "UNetSpace.decode"),
    ("sampling.random_indices", "repro.arch.space",
     "ArchitectureSpace.random_indices"),
    ("sampling.random_design", "repro.accel.allocation",
     "AllocationSpace.random_design"),
    ("result.record", "repro.core.results", "SearchResult.record"),
]

# The daemon's side of the wire: tier lookups and the store under them.
DAEMON_LAYERS = [
    ("server.lookup_tiers", "repro.core.evalservice",
     "EvalService.lookup_tiers"),
    ("store.open", "repro.core.store", "EvalStore.__init__"),
    ("store.get", "repro.core.store", "EvalStore.get"),
    ("store.put_many", "repro.core.store", "EvalStore.put_many"),
    ("evaluator.evaluate_hardware_many", "repro.core.evaluator",
     "Evaluator.evaluate_hardware_many"),
]


class _Stat:
    __slots__ = ("calls", "seconds", "self_seconds", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.durations: list[float] = []


class Tracer:
    """Accumulates spans by name; safe to use from several threads."""

    def __init__(self) -> None:
        self._stats: dict[str, _Stat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        # frame: [name, start, seconds covered by child spans]
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += elapsed
            with self._lock:
                stat = self._stats.get(name)
                if stat is None:
                    stat = self._stats[name] = _Stat()
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - frame[2]
                stat.durations.append(elapsed)

    def table(self) -> dict[str, dict]:
        """The span table: calls, inclusive and self seconds, and the
        per-call durations, by span name."""
        with self._lock:
            return {name: {"calls": stat.calls, "s": stat.seconds,
                           "self_s": stat.self_seconds,
                           "durations": list(stat.durations)}
                    for name, stat in self._stats.items()}


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def install(tracer: Tracer, layers) -> None:
    """Patch every ``(span, module, attribute)`` in ``layers``.

    Only calls made after this are traced, so it runs before the code
    under measurement.  Methods are replaced on the class that defines
    them; classmethods keep their binding.
    """
    for name, module_name, path in layers:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(tracer, name,
                                                   raw.__func__)))
        else:
            setattr(owner, attr, _wrap(tracer, name, raw))
