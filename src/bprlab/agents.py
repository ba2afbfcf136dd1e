"""Downstream offline agents trained on raw states or frozen representations:
behavior cloning, TD3+BC, CQL (continuous and tabular), and tabular SPIBB."""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .bpr import EncoderModel, build_action_net, build_encoder, check_finite, check_learning_rate
from .envs import (
    OfflineDataset,
    PointMassEnv,
    TabularMDP,
    TabularPolicy,
    _choice_cdf,
    _uniforms,
    atomic_write,
    empirical_mdp_from_dataset,
    estimate_behavior_tabular,
    evaluate_policy_exact,
    tabular_indices,
)
from .errors import ContractViolationError, RejectedInputError
from .numerics import MlpModel

TRACE_COLUMNS = ("step", "critic_loss", "actor_loss",
                 "eval_return_mean", "eval_return_std", "effective_dimension")

# TD3+BC at its published settings (Fujimoto & Gu 2021, arXiv 2106.06860); TAU
# is also continuous CQL's target rate
TD3BC_ALPHA, TAU, POLICY_DELAY, TARGET_NOISE, NOISE_CLIP = 2.5, 0.005, 2, 0.2, 0.5
CQL_N_SAMPLES = 10  # uniform candidate actions per state (Kumar et al. 2020, arXiv 2006.04779)
CQL_TEMP = 0.2  # tabular softmax temperature; small keeps J_perp a tight lower bound
SPIBB_MAX_ITERS = 200  # policy-iteration rounds of tabular SPIBB


@dataclass
class AgentConfig:
    algorithm: str = "td3bc"
    use_encoder: bool = False
    co_train_encoder: bool = False
    gradient_steps: int = 5000
    batch_size: int = 256
    seed: int = 0
    gamma: float = 0.99
    learning_rate: float = 3e-4
    hidden: tuple[int, ...] = (64, 64)
    repr_dim: int = 64  # only used when co-training builds a fresh encoder
    cql_alpha: float = 1.0
    cql_target_every: int = 100
    n_wedge: float = 10.0
    eval_every: int = 0
    eval_episodes: int = 10
    co_train_encoder_lr: float | None = None  # defaults to learning_rate
    q_hidden_activation: str = "relu"  # tanh bounds the feature scale for spectral probes

    def __post_init__(self):
        if self.algorithm not in ("bc", "td3bc", "cql", "spibb"):
            raise RejectedInputError(f"unknown algorithm {self.algorithm!r}")
        if self.co_train_encoder and not self.use_encoder:
            raise RejectedInputError("co_train_encoder requires use_encoder")
        if self.co_train_encoder and self.algorithm != "td3bc":
            raise RejectedInputError("co-training the encoder is only supported with td3bc")
        for name, low in (("gradient_steps", 0), ("seed", 0), ("batch_size", 1), ("repr_dim", 1),
                          ("eval_every", 0), ("eval_episodes", 1)):
            if getattr(self, name) < low:
                raise RejectedInputError(f"{name} must be >= {low}, not {getattr(self, name)}")
        if any(h < 1 for h in self.hidden):
            raise RejectedInputError(f"every hidden width must be >= 1, not {self.hidden}")
        check_learning_rate("learning_rate", self.learning_rate)
        if self.co_train_encoder_lr is not None:
            check_learning_rate("co_train_encoder_lr", self.co_train_encoder_lr)
        if not 0.0 <= self.gamma <= 1.0:
            raise RejectedInputError(f"gamma must be in [0, 1], not {self.gamma}")
        if not self.n_wedge >= 0.0:  # an infinite threshold keeps the behavior policy
            raise RejectedInputError(f"n_wedge must be >= 0, not {self.n_wedge}")
        if not (np.isfinite(self.cql_alpha) and self.cql_alpha >= 0.0):
            raise RejectedInputError(f"cql_alpha must be finite and >= 0, not {self.cql_alpha}")
        if self.cql_target_every < 1:
            raise RejectedInputError(f"cql_target_every must be at least 1, not "
                                     f"{self.cql_target_every}")


def build_critic(input_dim: int, action_dim: int, hidden: tuple[int, ...],
                 rng: np.random.Generator, hidden_activation: str) -> MlpModel:
    """State-action value net with a scalar output; its last hidden layer is the
    feature layer that extract_features reads, so it needs one."""
    if not hidden:
        raise RejectedInputError("a critic needs at least one hidden layer")
    dims = [input_dim + action_dim, *hidden, 1]
    acts = [hidden_activation] * len(hidden) + ["identity"]
    return numerics.init_mlp(dims, acts, rng)


def q_value(q: MlpModel, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    return numerics.forward(q, np.concatenate([x, a], axis=1))[0][:, 0]


def extract_features(q: MlpModel, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Penultimate-layer activations, one row per (x, a) pair."""
    if x.shape[0] == 0:
        raise RejectedInputError("empty feature batch")
    _, cache = numerics.forward(q, np.concatenate([x, a], axis=1))
    return cache.inputs[-1].copy()


# ---------------------------------------------------------------- losses


def bc_loss_and_grads(policy: MlpModel, x: np.ndarray, a: np.ndarray):
    y, cache = numerics.forward(policy, x)
    diff = y - a
    n = x.shape[0]
    loss = float(np.sum(diff * diff, axis=1).mean())
    gy = 2.0 * diff / n
    grad, _ = numerics.backward(policy, cache, gy, input_grad=False)
    return loss, grad


def cql_actor_loss_and_grads(policy: MlpModel, q: MlpModel, x: np.ndarray,
                             policy_forward=None):
    """-mean Q(x, pi(x)); critic held fixed. policy_forward is the (output,
    cache) of the policy on x, when the caller has already run it."""
    y, pcache = numerics.forward(policy, x) if policy_forward is None else policy_forward
    n = x.shape[0]
    qv, qcache = numerics.forward(q, np.concatenate([x, y], axis=1))
    loss = float(-qv[:, 0].mean())
    _, gqin = numerics.backward(q, qcache, np.full((n, 1), -1.0 / n), param_grads=False)
    gy = gqin[:, x.shape[1]:]
    grad, _ = numerics.backward(policy, pcache, gy, input_grad=False)
    return loss, grad


def td3bc_actor_loss_and_grads(policy: MlpModel, q: MlpModel, x: np.ndarray,
                               a: np.ndarray, lam: float | None = None):
    """-lam * mean Q(x, pi(x)) + mean ||pi(x) - a||^2; lam is a constant.
    lam=None takes TD3+BC's lam = TD3BC_ALPHA / mean |Q(x, pi(x))| from this
    same forward pass."""
    y, pcache = numerics.forward(policy, x)
    n = x.shape[0]
    qin = np.concatenate([x, y], axis=1)
    qv, qcache = numerics.forward(q, qin)
    if lam is None:
        lam = TD3BC_ALPHA / max(np.mean(np.abs(qv[:, 0])), 1e-8)
    diff = y - a
    loss = float(-lam * qv[:, 0].mean() + np.sum(diff * diff, axis=1).mean())
    _, gqin = numerics.backward(q, qcache, np.full((n, 1), -lam / n), param_grads=False)
    gy = gqin[:, x.shape[1]:] + 2.0 * diff / n
    grad, _ = numerics.backward(policy, pcache, gy, input_grad=False)
    return loss, grad


def critic_td_loss_and_grads(q: MlpModel, x: np.ndarray, a: np.ndarray, target: np.ndarray,
                             out: np.ndarray | None = None, g_x: np.ndarray | None = None):
    """Mean squared TD error and its parameter gradient, written into out when
    given; when g_x is given, the gradient w.r.t. x is added into it."""
    qv, cache = numerics.forward(q, np.concatenate([x, a], axis=1))
    td = qv[:, 0] - target
    n = x.shape[0]
    loss = float(np.mean(td * td))
    grad, gin = numerics.backward(q, cache, (2.0 * td / n)[:, None],
                                  input_grad=g_x is not None, out=out)
    if g_x is not None:
        g_x += gin[:, : x.shape[1]]
    return loss, grad


def cql_critic_loss_and_grads(q: MlpModel, x: np.ndarray, a_data: np.ndarray,
                              target: np.ndarray, candidates: np.ndarray,
                              alpha: float):
    """TD loss plus alpha * mean(logsumexp_j Q(x, c_j) - Q(x, a_data)).
    candidates has shape (n, m, action_dim)."""
    n, m, adim = candidates.shape
    qd, dcache = numerics.forward(q, np.concatenate([x, a_data], axis=1))
    td = qd[:, 0] - target
    loss = float(np.mean(td * td))
    g_qd = 2.0 * td / n

    # the repeated x rows live only until they are joined to the candidates
    qin = np.concatenate([np.repeat(x, m, axis=0), candidates.reshape(n * m, adim)], axis=1)
    qc, ccache = numerics.forward(q, qin)
    qc = qc.reshape(n, m)
    mx = qc.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.sum(np.exp(qc - mx), axis=1))
    soft = np.exp(qc - lse[:, None])
    loss += float(alpha * np.mean(lse - qd[:, 0]))
    g_qd = g_qd - alpha / n
    g_qc = alpha * soft / n

    grad, _ = numerics.backward(q, dcache, g_qd[:, None], input_grad=False)
    grad += numerics.backward(q, ccache, g_qc.reshape(n * m, 1), input_grad=False)[0]
    return loss, grad


# ---------------------------------------------------------------- helpers


def _soft_update(target: np.ndarray, source: np.ndarray, tau: float):
    """target <- (1 - tau) * target + tau * source, in place on a parameter buffer."""
    numerics.check_writable([target])
    target *= 1.0 - tau
    target += tau * source


@dataclass
class TrainResult:
    policy: MlpModel | None
    critics: tuple[MlpModel, ...]
    encoder: EncoderModel | None
    trace: list[dict] = field(default_factory=list)
    psi_trace: list[tuple[int, np.ndarray]] = field(default_factory=list)


def _state_table(states: np.ndarray, next_states: np.ndarray):
    """(table, x2_rows) with next_states[i] equal to table[x2_rows[i]] byte for
    byte. The table holds the rows of states, then only those next states that
    are not byte for byte the following row's state, compared through an int64
    view so that -0.0 and 0.0 stay apart: in a log of whole episodes, one row per
    episode end."""
    n = len(states)
    fresh = np.ones(n, dtype=bool)
    fresh[:-1] = np.any(next_states[:-1].view(np.int64) != states[1:].view(np.int64), axis=1)
    x2_rows = np.arange(1, n + 1)
    x2_rows[fresh] = n + np.arange(np.count_nonzero(fresh))
    return np.concatenate([states, next_states[fresh]]), x2_rows


def _encoder_inputs(config: AgentConfig, encoder: EncoderModel | None, state_dim: int,
                    rng: np.random.Generator, states: np.ndarray,
                    next_states: np.ndarray | None = None):
    """Check the encoder against the config and return (encoder, x, x2, x2_rows):
    state i's input is x[i] and, when next_states are given, next state i's is
    x2[x2_rows[i]]. A fixed encoder encodes the _state_table of both in one pass,
    which x and x2 then share; without an encoder, or when co-training (from rng
    if no encoder is given), x and x2 are the arrays themselves and x2_rows is the
    identity. Every row of the table is encoded in a batch of many rows, so it
    has the bytes of encoding its own array."""
    x2_rows = None if next_states is None else np.arange(len(states))
    if config.co_train_encoder:
        if encoder is None:
            encoder = build_encoder(state_dim, config.repr_dim, config.hidden, rng)
        if encoder.frozen:
            raise ContractViolationError("co-training requires an unfrozen encoder")
    elif config.use_encoder:
        if encoder is None:
            raise RejectedInputError("use_encoder requires an encoder")
        if next_states is None:
            states = encoder.encode(states)
        else:
            table, x2_rows = _state_table(states, next_states)
            states = next_states = encoder.encode(table)
    return encoder, states, next_states, x2_rows


def _rollout_policy(policy: MlpModel, encoder: EncoderModel | None, use_encoder: bool):
    def act(state):
        x = state[None, :]
        return numerics.forward(policy, encoder.encode(x) if use_encoder else x)[0][0]
    return act


def evaluate_return(policy_fn, env: PointMassEnv, episodes: int, seed: int):
    """Mean/std/per-episode return of a deterministic policy callable."""
    if episodes < 1:
        raise RejectedInputError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    returns = np.zeros(episodes)
    for ep in range(episodes):
        s = env.reset(rng)
        total = 0.0
        for _ in range(env.max_steps):
            s, r = env.step(s, policy_fn(s))
            total += r
        # a non-finite action passes the clip and reaches the reward
        check_finite(total, f"return in evaluation episode {ep}")
        returns[ep] = total
    return float(returns.mean()), float(returns.std()), returns


def evaluate_return_tabular(mdp: TabularMDP, policy: TabularPolicy, episodes: int,
                            seed: int, horizon: int = 400):
    """Monte Carlo discounted returns of policy in mdp, one episode of at most
    horizon steps each. Every start, action and next-state draw is the index
    np.random.default_rng(seed).choice(k, p=row) would return at that point
    of the stream, found as generate_tabular_dataset finds it."""
    start_cdf = _choice_cdf(mdp.initial_dist, "initial distribution")
    action_cdf = _choice_cdf(policy.probs, "policy")
    next_cdf = _choice_cdf(mdp.transition, "transition")
    reward, terminal = mdp.reward.tolist(), mdp.terminal.tolist()
    uniform = _uniforms(np.random.default_rng(seed)).__next__
    returns = np.zeros(episodes)
    for ep in range(episodes):
        s = bisect_right(start_cdf, uniform())
        total, disc = 0.0, 1.0
        for _ in range(horizon):
            if terminal[s]:
                break
            a = bisect_right(action_cdf[s], uniform())
            total += disc * reward[s][a]
            disc *= mdp.discount
            s = bisect_right(next_cdf[s][a], uniform())
        returns[ep] = total
    return float(returns.mean()), float(returns.std()), returns


def _train_loop(config: AgentConfig, result: TrainResult, env: PointMassEnv | None,
                probe_batch, probe_every: int, step_fn) -> TrainResult:
    """Run step_fn(step) -> (critic loss or None, actor loss) for each gradient
    step, with the bookkeeping the continuous trainers share: effective-dimension
    probes of the first critic, the eval trace, and the check that a frozen
    encoder did not change."""
    if probe_batch is not None and not result.critics:
        raise RejectedInputError(f"{config.algorithm} has no critic to probe")
    if probe_every < 0:
        raise RejectedInputError(f"probe_every must be >= 0, not {probe_every}")
    encoder = result.encoder
    frozen_hash = encoder.param_hash() if (encoder is not None and encoder.frozen) else None

    def probe(step):
        if probe_batch is not None:
            ps, pa = probe_batch
            x = encoder.encode(ps) if config.use_encoder else ps
            psi = extract_features(result.critics[0], x, pa)
            check_finite(psi, f"critic features at step {step}")
            result.psi_trace.append((step, psi))

    probe(0)
    for step in range(config.gradient_steps):
        closs, aloss = step_fn(step)
        done_step = step + 1
        if probe_every and done_step % probe_every == 0:
            probe(done_step)
        if config.eval_every and done_step % config.eval_every == 0 and env is not None:
            mean, std, _ = evaluate_return(
                _rollout_policy(result.policy, encoder, config.use_encoder),
                env, config.eval_episodes, seed=config.seed * 100003 + done_step)
            result.trace.append({"step": done_step, "critic_loss": closs,
                                 "actor_loss": aloss,
                                 "eval_return_mean": mean, "eval_return_std": std})

    if frozen_hash is not None and encoder.param_hash() != frozen_hash:
        raise ContractViolationError("frozen encoder parameters changed during training")
    return result


# ---------------------------------------------------------------- trainers


def train_bc(dataset: OfflineDataset, config: AgentConfig,
             encoder: EncoderModel | None = None,
             env: PointMassEnv | None = None,
             probe_batch=None, probe_every: int = 0) -> TrainResult:
    states, actions, _, _, _ = dataset.arrays()
    rng = np.random.default_rng(config.seed)
    encoder, x_all, _, _ = _encoder_inputs(config, encoder, dataset.state_dim, rng, states)
    policy = build_action_net(x_all.shape[1], dataset.action_dim, config.hidden, rng)
    adam = numerics.AdamState.for_params(policy.flat, config.learning_rate)

    def step_fn(step):
        idx = rng.integers(0, x_all.shape[0], size=config.batch_size)
        loss, grad = bc_loss_and_grads(policy, x_all[idx], actions[idx])
        check_finite(loss, f"bc loss at step {step}")
        numerics.adam_step(adam, policy.flat, grad)
        return None, loss

    result = TrainResult(policy, (), encoder)
    return _train_loop(config, result, env, probe_batch, probe_every, step_fn)


def train_td3bc(dataset: OfflineDataset, config: AgentConfig,
                encoder: EncoderModel | None = None,
                env: PointMassEnv | None = None,
                probe_batch=None, probe_every: int = 0) -> TrainResult:
    states, actions, rewards, next_states, dones = dataset.arrays()
    rng = np.random.default_rng(config.seed)
    co_train = config.co_train_encoder
    encoder, x_all, x2_all, x2_rows = _encoder_inputs(config, encoder, dataset.state_dim,
                                                      rng, states, next_states)
    input_dim = encoder.repr_dim if config.use_encoder else dataset.state_dim
    adim = dataset.action_dim

    policy = build_action_net(input_dim, adim, config.hidden, rng)
    q1 = build_critic(input_dim, adim, config.hidden, rng, config.q_hidden_activation)
    q2 = build_critic(input_dim, adim, config.hidden, rng, config.q_hidden_activation)
    policy_t, q1_t, q2_t = policy.copy(), q1.copy(), q2.copy()
    # the twin critics share one buffer, and so do their targets
    q_flat = numerics.share_buffer([q1, q2])
    q_t_flat = numerics.share_buffer([q1_t, q2_t])
    q_grad = np.empty_like(q_flat)  # the twin critics' joint gradient

    adam_pi = numerics.AdamState.for_params(policy.flat, config.learning_rate)
    adam_q = numerics.AdamState.for_params(q_flat, config.learning_rate)
    enc_lr = config.co_train_encoder_lr if config.co_train_encoder_lr is not None \
        else config.learning_rate
    adam_enc = (numerics.AdamState.for_params(encoder.net.flat, enc_lr)
                if co_train else None)

    last_actor_loss = float("nan")

    def step_fn(step):
        nonlocal last_actor_loss
        idx = rng.integers(0, states.shape[0], size=config.batch_size)
        if co_train:
            xb, enc_cache = numerics.forward(encoder.net, states[idx])
            x2b = encoder.encode(next_states[idx])
        else:
            xb, x2b = x_all[idx], x2_all[x2_rows[idx]]
        ab, rb, db = actions[idx], rewards[idx], dones[idx]

        noise = np.clip(rng.normal(0.0, TARGET_NOISE, size=(len(idx), adim)),
                        -NOISE_CLIP, NOISE_CLIP)
        a2 = np.clip(numerics.forward(policy_t, x2b)[0] + noise, -1.0, 1.0)
        tq = np.minimum(q_value(q1_t, x2b, a2), q_value(q2_t, x2b, a2))
        target = rb + config.gamma * (1.0 - db.astype(np.float64)) * tq

        # critic update; in co-train mode the critic gradient also reaches the encoder
        closs = 0.0
        g_x = np.zeros_like(xb) if co_train else None
        for qm, grad in zip((q1, q2), np.split(q_grad, [q1.flat.size])):
            closs += critic_td_loss_and_grads(qm, xb, ab, target, out=grad, g_x=g_x)[0]
        check_finite(closs, f"critic loss at step {step}")
        numerics.adam_step(adam_q, q_flat, q_grad)

        if co_train:
            enc_grad, _ = numerics.backward(encoder.net, enc_cache, g_x, input_grad=False)
            numerics.adam_step(adam_enc, encoder.net.flat, enc_grad)

        if step % POLICY_DELAY == 0:
            aloss, pgrad = td3bc_actor_loss_and_grads(policy, q1, xb, ab)
            check_finite(aloss, f"actor loss at step {step}")
            numerics.adam_step(adam_pi, policy.flat, pgrad)
            last_actor_loss = aloss
            _soft_update(policy_t.flat, policy.flat, TAU)
            _soft_update(q_t_flat, q_flat, TAU)
        return closs, last_actor_loss

    result = TrainResult(policy, (q1, q2), encoder)
    return _train_loop(config, result, env, probe_batch, probe_every, step_fn)


def train_cql_continuous(dataset: OfflineDataset, config: AgentConfig,
                         encoder: EncoderModel | None = None,
                         env: PointMassEnv | None = None,
                         probe_batch=None, probe_every: int = 0) -> TrainResult:
    states, actions, rewards, next_states, dones = dataset.arrays()
    rng = np.random.default_rng(config.seed)
    encoder, x_all, x2_all, x2_rows = _encoder_inputs(config, encoder, dataset.state_dim,
                                                      rng, states, next_states)
    input_dim, adim = x_all.shape[1], dataset.action_dim

    policy = build_action_net(input_dim, adim, config.hidden, rng)
    q = build_critic(input_dim, adim, config.hidden, rng, config.q_hidden_activation)
    q_t = q.copy()
    adam_pi = numerics.AdamState.for_params(policy.flat, config.learning_rate)
    adam_q = numerics.AdamState.for_params(q.flat, config.learning_rate)

    def step_fn(step):
        idx = rng.integers(0, states.shape[0], size=config.batch_size)
        xb, x2b = x_all[idx], x2_all[x2_rows[idx]]
        ab, rb, db = actions[idx], rewards[idx], dones[idx]
        a2 = numerics.forward(policy, x2b)[0]
        target = rb + config.gamma * (1.0 - db.astype(np.float64)) * q_value(q_t, x2b, a2)
        cand = rng.uniform(-1.0, 1.0, size=(len(idx), CQL_N_SAMPLES, adim))
        # the policy's forward pass on xb serves the candidates and the actor loss
        pi_forward = numerics.forward(policy, xb)
        cand = np.concatenate([cand, pi_forward[0][:, None, :]], axis=1)
        closs, cgrad = cql_critic_loss_and_grads(q, xb, ab, target, cand, config.cql_alpha)
        check_finite(closs, f"cql critic loss at step {step}")
        numerics.adam_step(adam_q, q.flat, cgrad)

        aloss, pgrad = cql_actor_loss_and_grads(policy, q, xb, pi_forward)
        check_finite(aloss, f"cql actor loss at step {step}")
        numerics.adam_step(adam_pi, policy.flat, pgrad)
        _soft_update(q_t.flat, q.flat, TAU)
        return closs, aloss

    result = TrainResult(policy, (q,), encoder)
    return _train_loop(config, result, env, probe_batch, probe_every, step_fn)


@dataclass
class TabularCQLResult:
    q: np.ndarray  # (S, A) conservative action values
    policy: TabularPolicy  # greedy
    trace: list[dict]

    def j_perp(self, policy_probs: np.ndarray, initial_dist: np.ndarray) -> float:
        """E_{s0}[Q(s0, pi(s0))] under the conservative critic."""
        per_state = np.sum(policy_probs * self.q, axis=1)
        return float(initial_dist @ per_state)


def _check_tabular_shape(dataset: OfflineDataset, n_states: int, n_actions: int) -> None:
    if (n_states, n_actions) != (shape := (dataset.state_dim, dataset.action_dim)):
        raise RejectedInputError(f"({n_states}, {n_actions}) does not fit the dataset's {shape}")


def train_cql_tabular(dataset: OfflineDataset, n_states: int, n_actions: int,
                      config: AgentConfig) -> TabularCQLResult:
    """Gradient-trained conservative Q table: TD loss toward a periodically
    copied target table plus the logsumexp-minus-data penalty, exact over A.
    With the penalty on, the bootstrap uses the same softmax-weighted value,
    so the learned values stay pessimistic at the greedy action instead of
    re-inflating through a hard max over penalized entries.

    The target table changes once per cql_target_every steps, so each such
    window draws its minibatch indices in one call and gathers all of its TD
    targets and the bincount index rows of all its steps at once, from
    per-row tables built once per run. Each step computes the penalty's
    logsumexp and softmax once per state and sums the TD, softmax and
    -alpha/n gradient terms with one bincount, cell by cell in the same order
    as per-sample accumulation."""
    _check_tabular_shape(dataset, n_states, n_actions)
    s, a, r, s2, d = tabular_indices(dataset)
    rng = np.random.default_rng(config.seed)
    temp, alpha, every = CQL_TEMP, config.cql_alpha, config.cql_target_every
    n = min(config.batch_size, len(s))
    # per dataset row: its cell, its state's softmax cells and its bootstrap factor
    row_cells = s * n_actions + a
    row_soft_cells = s[:, None] * n_actions + np.arange(n_actions)
    row_discount = config.gamma * (1.0 - d.astype(np.float64))
    # gradient terms in accumulation order: n TD terms, n softmax rows, n -alpha/n terms
    weights = np.full(n * (n_actions + 2) if alpha > 0.0 else n, -alpha / n)
    w_td, w_soft = weights[:n], weights[n:-n].reshape(-1, n_actions)  # w_soft: (n, A), or empty
    q = np.zeros((n_states, n_actions))
    q_flat = q.ravel()  # a view: Adam updates q through it
    adam = numerics.AdamState.for_params(q_flat, config.learning_rate)
    trace = []
    for start in range(0, config.gradient_steps, every):
        if alpha > 0.0:
            rows_t = q / temp
            w = np.exp(rows_t - rows_t.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            v_t = np.sum(w * q, axis=1)
        else:
            v_t = q.max(axis=1)
        idx = rng.integers(0, len(s), size=(min(every, config.gradient_steps - start), n))
        targets = r.take(idx) + row_discount.take(idx) * v_t.take(s2.take(idx))
        states, cells = s.take(idx), row_cells.take(idx)
        # each step's bincount indices: its cells, its states' softmax cells, its cells
        flats = cells if alpha == 0.0 else np.concatenate(
            (cells, row_soft_cells.take(idx, axis=0).reshape(len(idx), -1), cells), axis=1)
        for step, si, cell, target, flat in zip(range(start, config.gradient_steps),
                                                states, cells, targets, flats):
            q_sa = q_flat.take(cell)
            td = q_sa - target
            np.multiply(2.0, td, out=w_td)
            w_td /= n
            # np.add.reduce(x) / n is np.mean(x) without its Python wrapper
            loss = float(np.add.reduce(td * td) / n)
            if alpha > 0.0:
                rows = q / temp
                mx = rows.max(axis=1, keepdims=True)
                lse = temp * (mx[:, 0] + np.log(np.add.reduce(np.exp(rows - mx), axis=1)))
                soft = np.exp(rows - lse[:, None] / temp)
                loss += float(alpha * (np.add.reduce(lse.take(si) - q_sa) / n))
                (alpha * soft / n).take(si, axis=0, out=w_soft)
            check_finite(loss, f"tabular cql loss at step {step}")
            numerics.adam_step(adam, q_flat, np.bincount(flat, weights, minlength=q.size))
            if config.eval_every and (step + 1) % config.eval_every == 0:
                trace.append({"step": step + 1, "critic_loss": loss})
    greedy = TabularPolicy.deterministic(q.argmax(axis=1), n_actions)
    return TabularCQLResult(q, greedy, trace)


def train_cql(dataset: OfflineDataset, config: AgentConfig,
              encoder: EncoderModel | None = None, env: PointMassEnv | None = None,
              tabular_shape: tuple[int, int] | None = None, **kw):
    if tabular_shape is not None:
        return train_cql_tabular(dataset, tabular_shape[0], tabular_shape[1], config)
    return train_cql_continuous(dataset, config, encoder, env, **kw)


@dataclass
class SpibbResult:
    policy: TabularPolicy
    behavior_estimate: TabularPolicy
    counts: np.ndarray
    j_hat_out: float
    j_hat_behavior: float
    empirical_mdp: TabularMDP


def train_spibb_tabular(dataset: OfflineDataset, n_states: int, n_actions: int,
                        config: AgentConfig) -> SpibbResult:
    """Policy iteration on the empirical MDP, constrained to copy the estimated
    behavior at state-action pairs with fewer than n_wedge visits: each round
    moves every state's free mass to its best free action. The behavior and the
    free pairs carry a row for the absorbing state: uniform, and never free."""
    _check_tabular_shape(dataset, n_states, n_actions)
    behavior, counts = estimate_behavior_tabular(dataset)
    mdp_hat, _ = empirical_mdp_from_dataset(dataset, config.gamma)
    beh = np.vstack([behavior.probs, np.full(n_actions, 1.0 / n_actions)])
    free = np.vstack([counts >= config.n_wedge, np.zeros(n_actions, dtype=bool)])
    free_mass = np.where(free, beh, 0.0).sum(axis=1)
    probs = beh
    for _ in range(SPIBB_MAX_ITERS):
        v, _ = evaluate_policy_exact(mdp_hat, TabularPolicy(probs))
        q = mdp_hat.reward + mdp_hat.discount * (mdp_hat.transition @ v)
        new = np.where(free, 0.0, beh)
        new[np.arange(len(new)), np.where(free, q, -np.inf).argmax(axis=1)] += free_mass
        if np.allclose(new, probs, atol=1e-12):
            break
        probs = new
    _, j_out = evaluate_policy_exact(mdp_hat, TabularPolicy(probs))
    _, j_beh = evaluate_policy_exact(mdp_hat, TabularPolicy(beh))
    return SpibbResult(TabularPolicy(probs[:n_states]), behavior, counts, j_out, j_beh, mdp_hat)


def write_trace_csv(rows: list[dict], path: str) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TRACE_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in TRACE_COLUMNS})
    atomic_write(path, buf.getvalue())
