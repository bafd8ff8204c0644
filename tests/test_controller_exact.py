"""Bit-exactness of the controller fast path against the original code.

:mod:`controller_reference` keeps the original ``sample``/``backward``/
``apply_episodes`` verbatim.  Whole NASAIC searches run once on the
production path and once on the reference path must end with the same
weights, RMSProp moments and episode rewards, bit for bit.  The unit
tests pin the individual pieces: the inlined categorical draw, forced
prefix sharing and the ``out=`` gradient accumulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from controller_reference import install_reference
from repro.core import (
    NASAIC,
    ControllerConfig,
    NASAICConfig,
    ReinforceConfig,
    ReinforceTrainer,
    RNNController,
)
from repro.core.choices import Decision
from repro.core.controller import _draw
from repro.cost import CostModel
from repro.workloads import generate_spec, w1, w2, w3


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _search_state(search: NASAIC) -> dict:
    """Everything the controller path determines, as raw bytes."""
    result = search.finish()
    state = {f"param:{k}": _bits(v)
             for k, v in search.controller.params.items()}
    for name, trainer in (("joint", search._joint_updates),
                          ("hw", search._hw_updates)):
        snapshot = trainer.state()
        state.update({f"{name}.rms:{k}": _bits(v)
                      for k, v in snapshot["rms"].items()})
        state[f"{name}.baseline"] = snapshot["baseline"]
        state[f"{name}.updates"] = snapshot["updates_applied"]
    state["rewards"] = [record.reward for record in result.episodes]
    state["sample_rng"] = search._sample_rng.bit_generator.state
    return state


def _assert_same(fast: dict, reference: dict) -> None:
    assert fast.keys() == reference.keys()
    differing = [key for key in fast if fast[key] != reference[key]]
    assert not differing, f"fast path differs from the reference in {differing}"


def _run_both(build, monkeypatch) -> None:
    fast = build()
    fast.run()
    fast_state = _search_state(fast)
    with monkeypatch.context() as patch:
        install_reference(patch)
        reference = build()
        reference.run()
        reference_state = _search_state(reference)
    _assert_same(fast_state, reference_state)


class TestSearchBitExact:
    @pytest.mark.parametrize("preset,episodes", [
        (w1, 8), (w2, 4), (w3, 4)])
    def test_presets(self, preset, episodes, monkeypatch):
        def build():
            return NASAIC(preset(), config=NASAICConfig(
                episodes=episodes, hw_steps=3, joint_batch=2, seed=11))

        _run_both(build, monkeypatch)

    @pytest.mark.parametrize("seed,size_class", [
        (3, "tiny"), (8, "tiny"), (5, "small"), (21, "small")])
    def test_generated_scenarios(self, seed, size_class, monkeypatch):
        scenario = generate_spec(seed, size_class=size_class).materialize()

        def build():
            return NASAIC(
                scenario.workload, allocation=scenario.allocation,
                cost_model=CostModel(scenario.cost_params),
                surrogate=scenario.build_surrogate(),
                config=NASAICConfig(
                    episodes=4, hw_steps=2, joint_batch=2,
                    seed=scenario.spec.seed, rho=scenario.rho,
                    calibrate_bounds=False))

        _run_both(build, monkeypatch)


def _decisions():
    return [Decision("a0", 4, "arch"), Decision("a1", 3, "arch"),
            Decision("a2", 5, "arch"), Decision("h0", 6, "hw"),
            Decision("h1", 2, "hw"), Decision("h2", 3, "hw")]


@pytest.fixture
def controller():
    return RNNController(_decisions(),
                         ControllerConfig(hidden_size=12, embed_size=5),
                         rng=np.random.default_rng(3))


def _mask_fn(position, _actions):
    if position == 3:
        return np.array([True, False, True, True, False, True])
    return None


class TestDraw:
    def test_matches_generator_choice(self):
        source = np.random.default_rng(99)
        ours = np.random.default_rng(7)
        theirs = np.random.default_rng(7)
        for trial in range(20_000):
            probs = source.dirichlet(np.ones(int(source.integers(1, 9))))
            if trial % 3 == 0 and probs.size > 1:
                # Zero-probability options, as left by a masked softmax.
                probs[source.integers(probs.size)] = 0.0
                probs /= probs.sum()
            assert (_draw(ours, probs)
                    == int(theirs.choice(probs.size, p=probs)))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("probs,message", [
        ([0.5, -0.1, 0.6], "non-negative"),
        ([0.5, 0.4], "sum to 1"),
        ([np.nan, 1.0], "non-negative"),
    ])
    def test_rejects_invalid_probabilities(self, probs, message):
        with pytest.raises(ValueError, match=message):
            _draw(np.random.default_rng(0), np.array(probs))


class TestPrefixSharing:
    def test_prefix_sample_equals_fresh_sample(self, controller):
        rng = np.random.default_rng(5)
        joint = controller.sample(rng, mask_fn=_mask_fn)
        forced = {t: joint.actions[t] for t in range(3)}
        state = rng.bit_generator.state
        shared = controller.sample(rng, mask_fn=_mask_fn,
                                   forced_actions=forced, prefix=joint)
        rng.bit_generator.state = state
        fresh = controller.sample(rng, mask_fn=_mask_fn,
                                  forced_actions=forced)
        assert shared.actions == fresh.actions
        assert shared.forced == fresh.forced == (True,) * 3 + (False,) * 3
        assert _bits(shared.log_probs) == _bits(fresh.log_probs)
        assert _bits(shared.entropies) == _bits(fresh.entropies)
        for a, b in zip(shared.steps, fresh.steps):
            for name in ("x", "h_prev", "c_prev", "gates", "c", "h",
                         "tanh_c", "probs", "safe_log"):
                assert _bits(getattr(a, name)) == _bits(getattr(b, name))
            assert a.action == b.action
        # The forced prefix really is shared, not recomputed.
        assert all(shared.steps[t] is joint.steps[t] for t in range(3))
        assert shared.steps[3] is not joint.steps[3]

    def test_prefix_stops_at_first_disagreeing_action(self, controller):
        rng = np.random.default_rng(6)
        joint = controller.sample(rng)
        other = (joint.actions[1] + 1) % 3
        sample = controller.sample(rng, prefix=joint,
                                   forced_actions={0: joint.actions[0],
                                                   1: other})
        assert sample.steps[0] is joint.steps[0]
        assert sample.steps[1] is not joint.steps[1]
        assert sample.actions[:2] == (joint.actions[0], other)

    def test_forced_flags_live_on_the_sample(self, controller):
        rng = np.random.default_rng(8)
        joint = controller.sample(rng)
        forced = {t: joint.actions[t] for t in range(3)}
        hw = controller.sample(rng, forced_actions=forced, prefix=joint)
        # The shared step caches came from the unforced joint sample;
        # the hardware sample still reports its prefix as forced.
        assert joint.forced == (False,) * 6
        assert hw.forced[:3] == (True,) * 3
        trainer = ReinforceTrainer(controller, ReinforceConfig())
        weights, entropy = trainer.step_weights(hw, reward=1.0)
        assert not weights[:3].any() and not entropy[:3].any()
        assert weights[3:].all() and entropy[3:].all()


class TestBackwardAccumulator:
    def test_out_equals_summed_per_sample_gradients(self, controller):
        rng = np.random.default_rng(9)
        samples = [controller.sample(rng, mask_fn=_mask_fn)
                   for _ in range(4)]
        wrng = np.random.default_rng(10)
        terms = [(wrng.normal(size=6), wrng.uniform(0, 0.2, size=6))
                 for _ in samples]
        terms[1][0][:3] = 0.0  # some skipped output heads
        terms[1][1][:3] = 0.0
        summed = {k: np.zeros_like(v) for k, v in controller.params.items()}
        for sample, (w, beta) in zip(samples, terms):
            for key, grad in controller.backward(sample, w, beta).items():
                summed[key] += grad
        total = {k: np.zeros_like(v) for k, v in controller.params.items()}
        for sample, (w, beta) in zip(samples, terms):
            returned = controller.backward(sample, w, beta, out=total)
            assert returned is total
        for key in summed:
            assert _bits(total[key]) == _bits(summed[key]), key
