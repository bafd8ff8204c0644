"""Seeded random number generation.

Every stochastic component in the reproduction (controller sampling,
Monte-Carlo baselines, surrogate jitter) draws from a
:class:`numpy.random.Generator` created through this module so that full
experiment runs are reproducible from a single integer seed.

Seeding contract (relied on by ``tests/test_golden_search.py``):

1. Every public entry point that draws randomness takes an explicit
   integer ``seed`` and derives *all* of its generators from it — either
   directly (:func:`new_rng`) or as named sub-streams
   (:func:`spawn_rng`), so adding draws to one component never perturbs
   another.
2. ``new_rng(None)`` (OS entropy) is reserved for interactive
   experimentation; no library code path may reach it implicitly.
   Components with an optional ``rng`` argument must default to a
   *fixed* documented seed (e.g. ``RNNController`` uses seed 0), never
   to an unseeded generator.
3. Evaluation is RNG-free: the hardware path (cost model + HAP) and the
   surrogate accuracy landscape (:func:`repro.utils.hashing.stable_hash`
   jitter) are pure functions of their inputs.  This is what lets the
   evaluation service cache, batch and parallelise evaluations without
   changing search trajectories.
4. Checkpoint/resume never re-seeds.  The unified search driver
   (:mod:`repro.core.driver`) snapshots every live generator's exact
   stream position with :func:`rng_state` and restores it with
   :func:`restore_rng`, so a killed-and-resumed run continues the same
   stream bit-identically.  Strategies must checkpoint *every* generator
   they own; creating a fresh generator on resume — even from the same
   seed — would replay draws and desynchronise the trajectory.

CLI seed plumbing: every search subcommand (``search``, ``evolve``,
``nas``, ``mc``, ``campaign``) exposes ``--seed`` and passes it verbatim
as the master seed of the underlying strategy; per-strategy sub-streams
are derived inside the strategy (rule 1), never in the CLI.
"""

from __future__ import annotations

import numpy as np
# numpy loads ``numpy.random`` lazily; every search seeds a generator,
# so load it at start-up rather than inside the first search.
import numpy.random  # noqa: F401

__all__ = ["new_rng", "restore_rng", "rng_state", "spawn_rng"]


def new_rng(seed: int | None) -> np.random.Generator:
    """Create a fresh generator from an integer seed.

    ``None`` yields an OS-seeded generator; experiments should always pass
    an explicit seed.
    """
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, stream: int) -> np.random.Generator:
    """Derive an independent child generator for a named sub-stream.

    Deriving children (rather than sharing one generator) keeps component
    randomness decoupled: e.g. adding extra controller samples does not
    perturb the Monte-Carlo baseline sequence.
    """
    if stream < 0:
        raise ValueError(f"stream must be non-negative, got {stream}")
    seed = int(rng.bit_generator.seed_seq.generate_state(1)[0])  # type: ignore[union-attr]
    return np.random.default_rng((seed, stream))


def rng_state(rng: np.random.Generator) -> dict:
    """Picklable snapshot of a generator's exact stream position.

    Unlike re-seeding, restoring this state resumes the stream at the
    very next draw — the property checkpoint/resume relies on.
    """
    return rng.bit_generator.state


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`rng_state` snapshot."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)
