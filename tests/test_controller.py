"""Unit tests for the numpy LSTM controller, including gradient checks."""

import numpy as np
import pytest

from repro.core import ControllerConfig, RNNController
from repro.core.choices import Decision


def make_decisions():
    return [
        Decision("a", 4, "arch"),
        Decision("b", 3, "arch"),
        Decision("c", 5, "hw"),
        Decision("d", 2, "hw"),
    ]


@pytest.fixture
def controller():
    return RNNController(make_decisions(),
                         ControllerConfig(hidden_size=16, embed_size=8),
                         rng=np.random.default_rng(0))


class TestSampling:
    def test_action_ranges(self, controller, rng):
        for _ in range(50):
            sample = controller.sample(rng)
            for action, decision in zip(sample.actions,
                                        controller.decisions):
                assert 0 <= action < decision.num_options

    def test_log_probs_negative(self, controller, rng):
        sample = controller.sample(rng)
        assert (sample.log_probs <= 0).all()

    def test_entropy_nonnegative(self, controller, rng):
        sample = controller.sample(rng)
        assert (sample.entropies >= 0).all()

    def test_deterministic_given_seed(self, controller):
        a = controller.sample(np.random.default_rng(42))
        b = controller.sample(np.random.default_rng(42))
        assert a.actions == b.actions

    def test_greedy_matches_argmax(self, controller, rng):
        sample = controller.sample(rng, greedy=True)
        for step, action in zip(sample.steps, sample.actions):
            assert action == int(np.argmax(step.probs))

    def test_forced_actions_respected(self, controller, rng):
        sample = controller.sample(rng, forced_actions={0: 2, 3: 1})
        assert sample.actions[0] == 2
        assert sample.actions[3] == 1
        assert sample.forced == (True, False, False, True)

    def test_forced_out_of_range(self, controller, rng):
        with pytest.raises(ValueError, match="out of range"):
            controller.sample(rng, forced_actions={0: 9})

    def test_mask_respected(self, controller, rng):
        def mask_fn(pos, _actions):
            if pos == 2:
                mask = np.zeros(5, dtype=bool)
                mask[1] = True
                return mask
            return None
        for _ in range(10):
            sample = controller.sample(rng, mask_fn=mask_fn)
            assert sample.actions[2] == 1

    def test_masked_probability_zero(self, controller, rng):
        def mask_fn(pos, _actions):
            if pos == 0:
                return np.array([True, True, False, False])
            return None
        sample = controller.sample(rng, mask_fn=mask_fn)
        assert sample.steps[0].probs[2] == 0.0
        assert sample.steps[0].probs[3] == 0.0
        assert sample.steps[0].probs.sum() == pytest.approx(1.0)

    def test_all_masked_rejected(self, controller, rng):
        def mask_fn(pos, _actions):
            return np.zeros(controller.decisions[pos].num_options,
                            dtype=bool)
        with pytest.raises(ValueError, match="every option"):
            controller.sample(rng, mask_fn=mask_fn)

    def test_forced_masked_action_rejected(self, controller, rng):
        def mask_fn(pos, _actions):
            if pos == 0:
                return np.array([True, False, False, False])
            return None
        with pytest.raises(ValueError, match="masked out"):
            controller.sample(rng, mask_fn=mask_fn, forced_actions={0: 3})


class TestGradients:
    """Finite-difference verification of the full BPTT implementation."""

    @staticmethod
    def replay_log_prob(controller, sample, weights):
        """Recompute sum_t w_t log pi(a_t) with the current parameters."""
        h = np.zeros(controller.config.hidden_size)
        c = np.zeros(controller.config.hidden_size)
        x = controller.params["x0"]
        total = 0.0
        hs = controller.config.hidden_size
        for t, _decision in enumerate(controller.decisions):
            z = (x @ controller.params["Wx"] + h @ controller.params["Wh"]
                 + controller.params["b"])
            i = 1 / (1 + np.exp(-z[:hs]))
            f = 1 / (1 + np.exp(-z[hs:2 * hs]))
            g = np.tanh(z[2 * hs:3 * hs])
            o = 1 / (1 + np.exp(-z[3 * hs:]))
            c = f * c + i * g
            h = o * np.tanh(c)
            logits = ((h @ controller.params[f"Wout{t}"]
                       + controller.params[f"bout{t}"])
                      / controller.config.temperature)
            mask = sample.steps[t].mask
            if mask is not None:
                logits = np.where(mask, logits, -np.inf)
            probs = np.exp(logits - logits.max())
            probs = probs / probs.sum()
            action = sample.actions[t]
            total += weights[t] * np.log(probs[action])
            x = controller.params[f"emb{t}"][action]
        return total

    @pytest.mark.parametrize("key", ["Wx", "Wh", "b", "x0", "Wout1",
                                     "bout2", "emb0", "emb2"])
    def test_logprob_gradient_matches_finite_difference(self, key):
        controller = RNNController(
            make_decisions(), ControllerConfig(hidden_size=8, embed_size=6),
            rng=np.random.default_rng(3))
        rng = np.random.default_rng(7)
        sample = controller.sample(rng)
        weights = np.array([1.0, -0.5, 2.0, 0.7])
        grads = controller.backward(sample, weights)
        param = controller.params[key]
        eps = 1e-6
        flat_indices = [0, param.size // 2, param.size - 1]
        for flat in flat_indices:
            idx = np.unravel_index(flat, param.shape)
            original = param[idx]
            param[idx] = original + eps
            up = self.replay_log_prob(controller, sample, weights)
            param[idx] = original - eps
            down = self.replay_log_prob(controller, sample, weights)
            param[idx] = original
            numeric = (up - down) / (2 * eps)
            assert grads[key][idx] == pytest.approx(numeric, rel=1e-4,
                                                    abs=1e-7)

    def test_gradient_with_temperature(self):
        controller = RNNController(
            make_decisions(),
            ControllerConfig(hidden_size=8, embed_size=6, temperature=1.7),
            rng=np.random.default_rng(3))
        sample = controller.sample(np.random.default_rng(9))
        weights = np.array([1.0, 1.0, 1.0, 1.0])
        grads = controller.backward(sample, weights)
        param = controller.params["Wout0"]
        eps = 1e-6
        idx = (0, 0)
        original = param[idx]
        param[idx] = original + eps
        up = TestGradients.replay_log_prob(controller, sample, weights)
        param[idx] = original - eps
        down = TestGradients.replay_log_prob(controller, sample, weights)
        param[idx] = original
        assert grads["Wout0"][idx] == pytest.approx(
            (up - down) / (2 * eps), rel=1e-4, abs=1e-7)

    def test_zero_weights_zero_head_gradients(self, controller, rng):
        sample = controller.sample(rng)
        grads = controller.backward(sample, np.zeros(4))
        for key, grad in grads.items():
            assert not grad.any(), key

    def test_weight_shape_checked(self, controller, rng):
        sample = controller.sample(rng)
        with pytest.raises(ValueError, match="weights"):
            controller.backward(sample, np.zeros(3))


class TestParamManagement:
    def test_num_parameters_positive(self, controller):
        assert controller.num_parameters() > 1000

    def test_clone_and_load_roundtrip(self, controller, rng):
        snapshot = controller.clone_params()
        sample = controller.sample(rng)
        grads = controller.backward(sample, np.ones(4))
        for key in controller.params:
            controller.params[key] += 0.1 * grads[key]
        controller.load_params(snapshot)
        for key, value in snapshot.items():
            assert np.array_equal(controller.params[key], value)

    def test_load_rejects_wrong_keys(self, controller):
        with pytest.raises(ValueError, match="keys"):
            controller.load_params({"bogus": np.zeros(3)})

    def test_empty_decisions_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RNNController([], ControllerConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(hidden_size=0)
        with pytest.raises(ValueError):
            ControllerConfig(temperature=0)
