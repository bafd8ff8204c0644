"""Test-only reference implementation of the controller's hot path.

``reference_sample``, ``reference_backward``, ``reference_step_weights``
and ``reference_apply_episodes`` are the original straightforward
implementations of :meth:`RNNController.sample`,
:meth:`RNNController.backward`, :meth:`ReinforceTrainer.step_weights`
and :meth:`ReinforceTrainer.apply_episodes`, kept verbatim (as free
functions) so the optimised production code can be checked against them
bit for bit.  They are never imported by ``src/``.

:func:`install_reference` patches them over the production methods, so a
whole search can be replayed on the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.controller import RNNController
from repro.core.reinforce import ReinforceTrainer


@dataclass
class RefStepCache:
    """Everything the backward pass needs for one step."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gate_i: np.ndarray
    gate_f: np.ndarray
    gate_g: np.ndarray
    gate_o: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tanh_c: np.ndarray
    probs: np.ndarray
    mask: np.ndarray | None
    action: int
    forced: bool


@dataclass
class RefSample:
    actions: tuple[int, ...]
    log_probs: np.ndarray
    entropies: np.ndarray
    steps: list[RefStepCache] = field(repr=False, default_factory=list)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _masked_softmax(logits, mask):
    if mask is not None:
        if mask.shape != logits.shape:
            raise ValueError(
                f"mask shape {mask.shape} != logits shape {logits.shape}")
        if not mask.any():
            raise ValueError("mask disallows every option")
        logits = np.where(mask, logits, -np.inf)
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def reference_sample(self, rng, *, mask_fn=None, forced_actions=None,
                     greedy=False, prefix=None):
    """The original ``RNNController.sample`` (``prefix`` is ignored:
    every step is recomputed from scratch)."""
    forced_actions = forced_actions or {}
    h_size = self.config.hidden_size
    h = np.zeros(h_size)
    c = np.zeros(h_size)
    x = self.params["x0"]
    actions: list[int] = []
    log_probs = np.zeros(len(self.decisions))
    entropies = np.zeros(len(self.decisions))
    steps: list[RefStepCache] = []
    for t, decision in enumerate(self.decisions):
        z = (x @ self.params["Wx"] + h @ self.params["Wh"]
             + self.params["b"])
        gate_i = _sigmoid(z[:h_size])
        gate_f = _sigmoid(z[h_size:2 * h_size])
        gate_g = np.tanh(z[2 * h_size:3 * h_size])
        gate_o = _sigmoid(z[3 * h_size:])
        c_new = gate_f * c + gate_i * gate_g
        tanh_c = np.tanh(c_new)
        h_new = gate_o * tanh_c
        logits = ((h_new @ self.params[f"Wout{t}"]
                   + self.params[f"bout{t}"])
                  / self.config.temperature)
        mask = mask_fn(t, actions) if mask_fn is not None else None
        probs = _masked_softmax(logits, mask)
        if t in forced_actions:
            action = int(forced_actions[t])
            if not 0 <= action < decision.num_options:
                raise ValueError(
                    f"forced action {action} out of range for "
                    f"{decision.name!r}")
            if probs[action] <= 0.0:
                raise ValueError(
                    f"forced action {action} for {decision.name!r} is "
                    "masked out")
        elif greedy:
            action = int(np.argmax(probs))
        else:
            action = int(rng.choice(decision.num_options, p=probs))
        log_probs[t] = float(np.log(probs[action]))
        safe_log = np.where(probs > 0, np.log(
            np.where(probs > 0, probs, 1.0)), 0.0)
        entropies[t] = float(-(probs * safe_log).sum())
        steps.append(RefStepCache(
            x=x, h_prev=h, c_prev=c, gate_i=gate_i, gate_f=gate_f,
            gate_g=gate_g, gate_o=gate_o, c=c_new, h=h_new,
            tanh_c=tanh_c, probs=probs, mask=mask, action=action,
            forced=t in forced_actions))
        actions.append(action)
        h, c = h_new, c_new
        x = self.params[f"emb{t}"][action]
    return RefSample(
        actions=tuple(actions), log_probs=log_probs,
        entropies=entropies, steps=steps)


def reference_backward(self, sample, logprob_weights,
                       entropy_weights=None):
    """The original ``RNNController.backward``."""
    t_count = len(self.decisions)
    if logprob_weights.shape != (t_count,):
        raise ValueError(
            f"expected {t_count} log-prob weights, got "
            f"{logprob_weights.shape}")
    if entropy_weights is None:
        entropy_weights = np.zeros(t_count)
    h_size = self.config.hidden_size
    grads = {k: np.zeros_like(v) for k, v in self.params.items()}
    dh_next = np.zeros(h_size)
    dc_next = np.zeros(h_size)
    for t in range(t_count - 1, -1, -1):
        step = sample.steps[t]
        probs = step.probs
        onehot = np.zeros_like(probs)
        onehot[step.action] = 1.0
        g_logits = logprob_weights[t] * (onehot - probs)
        beta = entropy_weights[t]
        if beta != 0.0:
            safe_log = np.where(probs > 0, np.log(
                np.where(probs > 0, probs, 1.0)), 0.0)
            entropy = -(probs * safe_log).sum()
            g_logits += beta * (-probs * (safe_log + entropy))
        g_logits = g_logits / self.config.temperature
        grads[f"Wout{t}"] += np.outer(step.h, g_logits)
        grads[f"bout{t}"] += g_logits
        dh = g_logits @ self.params[f"Wout{t}"].T + dh_next
        d_o = dh * step.tanh_c
        dc = dh * step.gate_o * (1.0 - step.tanh_c ** 2) + dc_next
        d_i = dc * step.gate_g
        d_g = dc * step.gate_i
        d_f = dc * step.c_prev
        dc_next = dc * step.gate_f
        dz = np.concatenate([
            d_i * step.gate_i * (1.0 - step.gate_i),
            d_f * step.gate_f * (1.0 - step.gate_f),
            d_g * (1.0 - step.gate_g ** 2),
            d_o * step.gate_o * (1.0 - step.gate_o),
        ])
        grads["Wx"] += np.outer(step.x, dz)
        grads["Wh"] += np.outer(step.h_prev, dz)
        grads["b"] += dz
        dx = dz @ self.params["Wx"].T
        if t == 0:
            grads["x0"] += dx
        else:
            prev_action = sample.steps[t - 1].action
            grads[f"emb{t - 1}"][prev_action] += dx
        dh_next = dz @ self.params["Wh"].T
    return grads


def reference_step_weights(self, sample, reward, trainable=None):
    """The original ``ReinforceTrainer.step_weights`` (forced flags read
    from the per-step caches)."""
    t_count = len(sample.log_probs)
    advantage = reward - (self.baseline
                          if self.baseline is not None else 0.0)
    weights = np.zeros(t_count)
    entropy = np.zeros(t_count)
    for t in range(t_count):
        if sample.steps[t].forced:
            continue
        if trainable is not None and t not in trainable:
            continue
        weights[t] = (self.config.gamma ** (t_count - 1 - t)) * advantage
        entropy[t] = self.config.entropy_beta
    return weights, entropy


def reference_apply_episodes(self, episodes, *, trainable=None):
    """The original ``ReinforceTrainer.apply_episodes``."""
    if not episodes:
        raise ValueError("apply_episodes needs at least one episode")
    grads_total = {
        k: np.zeros_like(v) for k, v in self.controller.params.items()}
    advantages = []
    for sample, reward in episodes:
        weights, entropy = reference_step_weights(self, sample, reward,
                                                  trainable)
        grads = reference_backward(self.controller, sample, weights,
                                   entropy)
        for key, grad in grads.items():
            grads_total[key] += grad
        base = self.baseline if self.baseline is not None else 0.0
        advantages.append(reward - base)
    scale = 1.0 / len(episodes)
    for key in grads_total:
        grads_total[key] *= scale
    total = float(np.sqrt(sum(
        float((g * g).sum()) for g in grads_total.values())))
    if total > self.config.grad_clip > 0:
        factor = self.config.grad_clip / total
        for key in grads_total:
            grads_total[key] *= factor
    lr = self.learning_rate
    for key, grad in grads_total.items():
        rms = self._rms[key]
        rms *= self.config.rms_decay
        rms += (1.0 - self.config.rms_decay) * grad * grad
        self.controller.params[key] += (
            lr * grad / (np.sqrt(rms) + self.config.rms_eps))
    mean_reward = float(np.mean([r for _, r in episodes]))
    if self.baseline is None:
        self.baseline = mean_reward
    else:
        d = self.config.baseline_decay
        self.baseline = d * self.baseline + (1.0 - d) * mean_reward
    self.updates_applied += 1
    return float(np.mean(advantages))


def install_reference(monkeypatch) -> None:
    """Route the controller and trainer through the reference code."""
    monkeypatch.setattr(RNNController, "sample", reference_sample)
    monkeypatch.setattr(RNNController, "backward", reference_backward)
    monkeypatch.setattr(ReinforceTrainer, "apply_episodes",
                        reference_apply_episodes)
