"""Reinforcement-learning RNN controller (numpy, from scratch).

The paper's controller (§IV-①, Fig. 5) is a recurrent network that emits
one categorical token per decision — architecture hyperparameters for
every DNN followed by design parameters for every sub-accelerator — and
is trained with the Monte-Carlo policy gradient of Eq. 1.  No deep
learning framework is available here, so the LSTM, the per-decision
softmax heads and full backpropagation-through-time are implemented
directly on numpy arrays (and verified against finite differences in the
test suite).

Design notes:

- each decision owns an output head (vocabularies differ per step) and an
  embedding table feeding the *next* step's input, as in Zoph & Le [1];
- option masks (from the budget-aware joint space) are applied to the
  logits before the softmax, so infeasible allocations have zero
  probability and zero gradient;
- the optimizer selector's ``SA``/``SH`` switches are realised by
  *forcing* the corresponding steps' actions and giving them zero weight
  in the gradient (see :mod:`repro.core.reinforce`).

Fast path (bit-identical to a plain per-step implementation):

- *Prefix sharing.*  A step's cache depends only on the weights and the
  earlier actions, and a forced step draws no randomness.  So a
  hardware-only sample whose architecture tokens are forced to those of
  the episode's joint sample, drawn before any update, reuses the joint
  sample's caches, log-probs and entropies up to its first unforced
  position (``sample(..., prefix=joint_sample)``).  The shared caches
  were built unforced, so whether a step was forced is recorded on the
  :class:`ControllerSample`, never on a cache.
- *Dispatch.*  One sigmoid over all four gate blocks, the categorical
  draw done inline (same checks and RNG use as ``Generator.choice``),
  ``safe_log`` cached from the forward pass, output-head work skipped on
  steps whose log-prob and entropy weights are both 0, and gradients
  accumulated straight into the caller's batch total (``out=``).
- What remains of :meth:`RNNController.backward` is mostly the exact
  outer-product accumulation into ``Wx`` and ``Wh``: one multiply and
  one add per element per step, in step order.  Only a change that
  reorders those sums (a stacked ``X.T @ dZ`` or a gemm) can cut it, and
  that changes low bits.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.choices import Decision
from repro.utils.rng import new_rng

__all__ = ["ControllerConfig", "ControllerSample", "RNNController"]

MaskFn = Callable[[int, list[int]], np.ndarray | None]


@dataclass(frozen=True)
class ControllerConfig:
    """Controller hyperparameters.

    Attributes:
        hidden_size: LSTM state width.
        embed_size: Input embedding width.
        temperature: Softmax temperature (>1 flattens early exploration).
        init_scale: Uniform init half-width for all weights.
    """

    hidden_size: int = 64
    embed_size: int = 24
    temperature: float = 1.0
    init_scale: float = 0.08

    def __post_init__(self) -> None:
        if self.hidden_size < 1 or self.embed_size < 1:
            raise ValueError("hidden_size/embed_size must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


@dataclass
class _StepCache:
    """Everything the backward pass needs for one step.

    A cache depends only on the weights and the actions before it, so
    samples drawn from the same weights may share the caches of a common
    forced prefix (see :meth:`RNNController.sample`).  Nothing that
    differs between such samples lives here — in particular not the
    forced flags, which are on :class:`ControllerSample`.
    """

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    #: The four gate activations stacked as ``[i, f, g, o]``.
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tanh_c: np.ndarray
    probs: np.ndarray
    safe_log: np.ndarray
    mask: np.ndarray | None
    action: int


@dataclass
class ControllerSample:
    """One sampled trajectory with its forward caches.

    Attributes:
        actions: Sampled (or forced) option index per decision.
        log_probs: ``log pi(a_t | a_<t)`` per step.
        entropies: Policy entropy per step.
        forced: Whether each step's action was forced (teacher forcing)
            rather than chosen by the policy.
        steps: Forward caches for backpropagation (possibly shared with
            the sample this one was drawn with as ``prefix``).
    """

    actions: tuple[int, ...]
    log_probs: np.ndarray
    entropies: np.ndarray
    forced: tuple[bool, ...]
    steps: list[_StepCache] = field(repr=False, default_factory=list)

    @property
    def total_log_prob(self) -> float:
        return float(self.log_probs.sum())

    def __setstate__(self, state: dict) -> None:
        # Samples pickled before the forced flags moved here (pending
        # joint samples inside older checkpoints) carry them on each step
        # cache instead, keep the four gates apart and lack ``safe_log``.
        if "forced" not in state:
            forced = []
            for step in state["steps"]:
                old = step.__dict__
                forced.append(bool(old.pop("forced")))
                step.gates = np.concatenate([
                    old.pop(f"gate_{name}") for name in "ifgo"])
                step.safe_log = _safe_log(step.probs)
            state["forced"] = tuple(forced)
        self.__dict__.update(state)


#: Tolerance of ``Generator.choice``'s sum-to-one check on ``p``.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _safe_log(probs: np.ndarray) -> np.ndarray:
    """``log(probs)`` with 0 where a probability is 0."""
    positive = probs > 0
    return np.where(positive, np.log(np.where(positive, probs, 1.0)), 0.0)


def _draw(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Same result and RNG advance as ``rng.choice(len(probs), p=probs)``.

    ``Generator.choice`` validates ``p``, then inverts the normalised
    cumulative sum at one ``rng.random()`` draw; this does exactly that
    without its per-call argument handling.
    """
    if not probs.min() >= 0:
        raise ValueError("probabilities are not non-negative")
    if not abs(probs.sum() - 1.0) <= _P_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _masked_softmax(logits: np.ndarray,
                    mask: np.ndarray | None) -> np.ndarray:
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


class RNNController:
    """LSTM policy over a fixed decision sequence.

    Args:
        decisions: The joint space's decision list (order defines the
            token sequence).
        config: Network hyperparameters.
        rng: Generator used for weight initialisation.  Defaults to the
            fixed seed 0 — never OS entropy — per the seeding contract
            of :mod:`repro.utils.rng`; searches always pass a sub-stream
            of their master seed instead.
    """

    def __init__(self, decisions: tuple[Decision, ...] | list[Decision],
                 config: ControllerConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.decisions = tuple(decisions)
        if not self.decisions:
            raise ValueError("controller needs at least one decision")
        self.config = config or ControllerConfig()
        if rng is None:
            rng = new_rng(0)
        h, e = self.config.hidden_size, self.config.embed_size
        s = self.config.init_scale

        def init(*shape: int) -> np.ndarray:
            return rng.uniform(-s, s, size=shape)

        self.params: dict[str, np.ndarray] = {
            "x0": init(e),
            "Wx": init(e, 4 * h),
            "Wh": init(h, 4 * h),
            "b": np.zeros(4 * h),
        }
        for idx, decision in enumerate(self.decisions):
            self.params[f"emb{idx}"] = init(decision.num_options, e)
            self.params[f"Wout{idx}"] = init(h, decision.num_options)
            self.params[f"bout{idx}"] = np.zeros(decision.num_options)

    # ------------------------------------------------------------------
    # Forward / sampling
    # ------------------------------------------------------------------
    def sample(
        self,
        rng: np.random.Generator,
        *,
        mask_fn: MaskFn | None = None,
        forced_actions: dict[int, int] | None = None,
        greedy: bool = False,
        prefix: ControllerSample | None = None,
    ) -> ControllerSample:
        """Sample one trajectory.

        Args:
            rng: Sampling randomness.
            mask_fn: ``(position, actions_so_far) -> option mask or None``;
                typically :meth:`JointSearchSpace.mask_for`.
            forced_actions: Positions whose action is pinned (teacher
                forcing) — the mechanism behind the ``SA``/``SH`` switches.
            greedy: Take the argmax instead of sampling (used to read out
                the controller's current best guess).
            prefix: An earlier sample from the *current* weights and the
                same ``mask_fn``.  Its step caches, log-probs and
                entropies are reused for the leading positions whose
                forced action equals its action; sampling resumes at the
                first other position.  The result is identical to a
                sample drawn without ``prefix``: forced steps draw no
                randomness, and a step depends only on the weights and
                the earlier actions.
        """
        forced_actions = forced_actions or {}
        t_count = len(self.decisions)
        params = self.params
        w_x, w_h, bias = params["Wx"], params["Wh"], params["b"]
        h_size = self.config.hidden_size
        temperature = self.config.temperature
        log_probs = np.zeros(t_count)
        entropies = np.zeros(t_count)
        start = 0
        if prefix is not None:
            while (start < t_count and start in forced_actions
                   and forced_actions[start] == prefix.actions[start]):
                start += 1
        if start:
            steps = prefix.steps[:start]
            actions = list(prefix.actions[:start])
            log_probs[:start] = prefix.log_probs[:start]
            entropies[:start] = prefix.entropies[:start]
            h, c = steps[-1].h, steps[-1].c
            x = params[f"emb{start - 1}"][actions[-1]]
        else:
            steps = []
            actions = []
            h = np.zeros(h_size)
            c = np.zeros(h_size)
            x = params["x0"]
        for t in range(start, t_count):
            decision = self.decisions[t]
            z = x @ w_x + h @ w_h + bias
            # Numerically stable sigmoid over all four gate blocks, then
            # tanh over the g block.
            e = np.exp(-np.abs(z))
            gates = np.where(z >= 0, 1.0, e) / (1.0 + e)
            gate_i = gates[:h_size]
            gate_f = gates[h_size:2 * h_size]
            gate_g = np.tanh(z[2 * h_size:3 * h_size],
                             out=gates[2 * h_size:3 * h_size])
            gate_o = gates[3 * h_size:]
            c_new = gate_f * c + gate_i * gate_g
            tanh_c = np.tanh(c_new)
            h_new = gate_o * tanh_c
            logits = ((h_new @ params[f"Wout{t}"] + params[f"bout{t}"])
                      / temperature)
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
                action = _draw(rng, probs)
            log_probs[t] = float(np.log(probs[action]))
            safe_log = _safe_log(probs)
            entropies[t] = float(-(probs * safe_log).sum())
            steps.append(_StepCache(
                x=x, h_prev=h, c_prev=c, gates=gates, c=c_new, h=h_new,
                tanh_c=tanh_c, probs=probs, safe_log=safe_log, mask=mask,
                action=action))
            actions.append(action)
            h, c = h_new, c_new
            x = params[f"emb{t}"][action]
        return ControllerSample(
            actions=tuple(actions), log_probs=log_probs,
            entropies=entropies,
            forced=tuple(t in forced_actions for t in range(t_count)),
            steps=steps)

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(
        self,
        sample: ControllerSample,
        logprob_weights: np.ndarray,
        entropy_weights: np.ndarray | None = None,
        *,
        out: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Gradients of ``sum_t w_t log pi(a_t) + beta_t H_t`` w.r.t. params.

        The caller chooses ``w_t`` to implement Eq. 1 (discounted
        advantage, zero on forced steps); ``beta_t`` adds an optional
        entropy bonus that keeps exploration alive.

        Args:
            out: Gradient dict to add this sample's gradients to (a batch
                total); a fresh zero dict when ``None``.  Either way the
                result is ``out`` plus exactly the gradients of this
                sample, summed in the same order.

        Returns:
            ``out``.
        """
        t_count = len(self.decisions)
        if logprob_weights.shape != (t_count,):
            raise ValueError(
                f"expected {t_count} log-prob weights, got "
                f"{logprob_weights.shape}")
        if entropy_weights is None:
            entropy_weights = np.zeros(t_count)
        params = self.params
        if out is None:
            out = {k: np.zeros_like(v) for k, v in params.items()}
        h_size = self.config.hidden_size
        temperature = self.config.temperature
        w_x_t, w_h_t = params["Wx"].T, params["Wh"].T
        # Wx, Wh and b get one term per step: sum them per sample first,
        # then add the sum to ``out`` once (the order a per-sample
        # gradient dict summed into a batch total has).  Every other
        # entry gets one term per sample and accumulates in place.
        d_wx = np.zeros_like(params["Wx"])
        d_wh = np.zeros_like(params["Wh"])
        d_b = np.zeros_like(params["b"])
        outer_x = np.empty_like(d_wx)
        outer_h = np.empty_like(d_wh)
        i_, f_, g_, o_ = (slice(k * h_size, (k + 1) * h_size)
                          for k in range(4))
        d_gates = np.empty(4 * h_size)
        dz = np.empty(4 * h_size)
        dh_next = np.zeros(h_size)
        dc_next = np.zeros(h_size)
        steps = sample.steps
        for t in range(t_count - 1, -1, -1):
            step = steps[t]
            weight = logprob_weights[t]
            beta = entropy_weights[t]
            if weight == 0.0 and beta == 0.0:
                # A zero logit gradient adds nothing to the head or dh.
                dh = dh_next
            else:
                probs = step.probs
                # d/dlogits of log p[a]:  onehot - p   (ascent direction)
                g_logits = -probs
                g_logits[step.action] += 1.0
                g_logits *= weight
                if beta != 0.0:
                    g_logits += beta * (-probs * (step.safe_log
                                                  + sample.entropies[t]))
                g_logits /= temperature
                out[f"Wout{t}"] += np.multiply.outer(step.h, g_logits)
                out[f"bout{t}"] += g_logits
                dh = g_logits @ params[f"Wout{t}"].T + dh_next
            # Input at step t+1 was emb[t][action_t]; its gradient arrives
            # via dx of step t+1, handled below when we compute dx.
            gates = step.gates
            np.multiply(dh, step.tanh_c, out=d_gates[o_])
            dc = dh * gates[o_] * (1.0 - step.tanh_c ** 2) + dc_next
            np.multiply(dc, gates[g_], out=d_gates[i_])
            np.multiply(dc, step.c_prev, out=d_gates[f_])
            np.multiply(dc, gates[i_], out=d_gates[g_])
            dc_next = dc * gates[f_]
            # dz = d * gate * (1 - gate) on the sigmoid blocks and
            # d * (1 - gate**2) on the tanh block.
            np.multiply(d_gates, gates, out=dz)
            dz *= 1.0 - gates
            np.multiply(d_gates[g_], 1.0 - gates[g_] ** 2, out=dz[g_])
            d_wx += np.multiply.outer(step.x, dz, out=outer_x)
            if t:  # h_prev of step 0 is the zero initial state
                d_wh += np.multiply.outer(step.h_prev, dz, out=outer_h)
            d_b += dz
            dx = dz @ w_x_t
            if t == 0:
                out["x0"] += dx
            else:
                out[f"emb{t - 1}"][steps[t - 1].action] += dx
            dh_next = dz @ w_h_t
        out["Wx"] += d_wx
        out["Wh"] += d_wh
        out["b"] += d_b
        return out

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(v.size for v in self.params.values())

    def clone_params(self) -> dict[str, np.ndarray]:
        """Deep copy of the current parameters (for tests/checkpoints)."""
        return {k: v.copy() for k, v in self.params.items()}

    def load_params(self, params: dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`clone_params`."""
        if set(params) != set(self.params):
            raise ValueError("parameter keys do not match this controller")
        for key, value in params.items():
            if value.shape != self.params[key].shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {value.shape} vs "
                    f"{self.params[key].shape}")
            self.params[key] = value.copy()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write a checkpoint (.npz) of the controller's parameters.

        The decision structure is stored alongside the weights so
        :meth:`load` can verify the checkpoint matches the controller it
        is loaded into.
        """
        signature = np.array(
            [f"{d.name}:{d.num_options}:{d.kind}" for d in self.decisions])
        np.savez(path, __signature__=signature, **self.params)

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`.

        Raises:
            ValueError: If the checkpoint was written for a controller
                with a different decision structure.
        """
        with np.load(path, allow_pickle=False) as data:
            signature = list(data["__signature__"])
            expected = [f"{d.name}:{d.num_options}:{d.kind}"
                        for d in self.decisions]
            if signature != expected:
                raise ValueError(
                    "checkpoint decision structure does not match this "
                    "controller")
            self.load_params({k: data[k] for k in data.files
                              if k != "__signature__"})
