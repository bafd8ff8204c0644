"""Checkpoints written by earlier versions of the code keep resuming.

``fixtures/formats/nasaic_w1_pending_joint.ckpt`` was written at commit
a331747, before the forced flags moved from the per-step caches onto
:class:`~repro.core.controller.ControllerSample` and before the caches
stacked their gates and kept ``safe_log``.  It stops a W1 NASAIC run
(configuration in the ``.json`` beside it) after round 4, with one joint
sample still waiting for its batch update, so resuming it unpickles and
backpropagates an old-format sample.  The ``.json`` also holds the
episode rewards of that run uninterrupted, taken from the same code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import NASAIC, ControllerConfig, NASAICConfig
from repro.core.serialization import load_checkpoint
from repro.workloads import w1

FORMATS = Path(__file__).parent / "fixtures" / "formats"
CHECKPOINT = FORMATS / "nasaic_w1_pending_joint.ckpt"


@pytest.fixture(scope="module")
def meta() -> dict:
    return json.loads(CHECKPOINT.with_suffix(".json").read_text())


def _config(meta: dict) -> NASAICConfig:
    return NASAICConfig(**meta["config"],
                        controller=ControllerConfig(**meta["controller"]))


def test_old_pending_samples_are_migrated(meta):
    pending = load_checkpoint(CHECKPOINT)["strategy_state"]["pending_joint"]
    assert len(pending) == meta["pending_joint"] > 0
    sample, _reward = pending[0]
    assert sample.forced == (False,) * len(sample.actions)
    for step in sample.steps:
        assert not hasattr(step, "forced")
        assert not hasattr(step, "gate_i")
        assert step.gates.shape == (4 * meta["controller"]["hidden_size"],)
        positive = step.probs > 0
        assert np.array_equal(step.safe_log[positive],
                              np.log(step.probs[positive]))
        assert not step.safe_log[~positive].any()


def test_old_checkpoint_resumes_to_the_uninterrupted_rewards(meta):
    search = NASAIC(w1(), config=_config(meta))
    result = search.run(resume_from=CHECKPOINT)
    rewards = [record.reward for record in result.episodes]
    assert len(rewards) == meta["config"]["episodes"]
    assert rewards == pytest.approx(meta["episode_rewards"], abs=1e-9)
