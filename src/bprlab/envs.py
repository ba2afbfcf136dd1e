"""Finite MDPs with exact evaluation, a 2D point-mass control task, offline
dataset generation, and the two-state state-collapse counterexample."""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    RejectedInputError,
    UndefinedModelError,
    UnsupportedDiscountError,
)

_PROB_TOL = 1e-12


@dataclass
class TabularMDP:
    n_states: int
    n_actions: int
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S, A)
    initial_dist: np.ndarray  # (S,)
    discount: float
    r_max: float
    terminal: np.ndarray  # (S,) bool

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.reward = np.asarray(self.reward, dtype=np.float64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        self.terminal = np.asarray(self.terminal, dtype=bool)
        if self.transition.shape != (self.n_states, self.n_actions, self.n_states):
            raise RejectedInputError("transition tensor shape mismatch")
        if self.reward.shape != (self.n_states, self.n_actions):
            raise RejectedInputError("reward shape mismatch")
        for name, dist in (("transition", self.transition), ("initial distribution", self.initial_dist)):
            if not np.all(np.isfinite(dist)) or np.any(dist < 0):
                raise RejectedInputError(f"{name} entries must be finite and non-negative")
        row_sums = self.transition.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > 1e-9:
            raise RejectedInputError("transition rows must sum to 1")
        if np.max(np.abs(self.reward)) > self.r_max + _PROB_TOL:
            raise RejectedInputError("reward exceeds r_max")
        if abs(self.initial_dist.sum() - 1.0) > 1e-9:
            raise RejectedInputError("initial distribution must sum to 1")


@dataclass
class TabularPolicy:
    probs: np.ndarray  # (S, A)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if not np.all(np.isfinite(self.probs)):
            raise RejectedInputError("non-finite policy probability")
        if np.any(self.probs < -_PROB_TOL):
            raise RejectedInputError("negative policy probability")
        if np.max(np.abs(self.probs.sum(axis=1) - 1.0)) > 1e-9:
            raise RejectedInputError("policy rows must sum to 1")

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "TabularPolicy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    @classmethod
    def deterministic(cls, actions: np.ndarray, n_actions: int) -> "TabularPolicy":
        probs = np.zeros((len(actions), n_actions))
        probs[np.arange(len(actions)), actions] = 1.0
        return cls(probs)


_ROW_KEYS = ("s", "a", "r", "s2", "d")
_HEADER_KEYS = ("state_dim", "action_dim", "n", "behavior_tag")


@dataclass
class OfflineDataset:
    """n logged transitions stored as five read-only column arrays: states
    (n, state_dim), actions (n, action_dim), rewards (n,), next_states
    (n, state_dim) and dones (n,) bool. The columns are the dataset's own
    copies; arrays() hands them out without copying, so they cannot be
    written in place. Derive a changed dataset with dataclasses.replace."""
    state_dim: int
    action_dim: int
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    behavior_tag: str = ""

    def __post_init__(self):
        try:
            self.state_dim = operator.index(self.state_dim)
            self.action_dim = operator.index(self.action_dim)
            self.states = np.array(self.states, dtype=np.float64)
            self.actions = np.array(self.actions, dtype=np.float64)
            self.rewards = np.array(self.rewards, dtype=np.float64)
            self.next_states = np.array(self.next_states, dtype=np.float64)
            self.dones = np.array(self.dones, dtype=bool)
        except (TypeError, ValueError) as exc:
            raise RejectedInputError(f"malformed dataset fields: {exc}") from None
        if not isinstance(self.behavior_tag, str):
            raise RejectedInputError("behavior_tag must be a string")
        n = self.rewards.size
        if n == 0:
            raise RejectedInputError("dataset has no rows")
        columns = (self.states, self.actions, self.rewards, self.next_states, self.dones)
        shapes = [(n, self.state_dim), (n, self.action_dim), (n,), (n, self.state_dim), (n,)]
        for key, col, shape in zip(_ROW_KEYS, columns, shapes):
            if col.shape != shape or not np.all(np.isfinite(col)):
                raise RejectedInputError(f"dataset column {key!r} must be finite with shape "
                                         f"{shape}; got shape {col.shape}")
            col.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.rewards)

    def arrays(self):
        """(states, actions, rewards, next_states, dones), shared and read-only."""
        return self.states, self.actions, self.rewards, self.next_states, self.dones


def atomic_write(path: str, data: str | bytes) -> None:
    """Write via temp file + rename so interrupted runs never truncate."""
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(dataset: OfflineDataset, path: str) -> None:
    """JSON lines. The header line is
    {"state_dim": int, "action_dim": int, "n": int, "behavior_tag": str}.
    Each of the n lines after it is one transition,
    {"s": [state_dim floats], "a": [action_dim floats], "r": float,
     "s2": [state_dim floats], "d": 0 or 1}, with keys in that order. json
    round-trips float64 exactly (repr is shortest-round-trip)."""
    header = dict(zip(_HEADER_KEYS, (dataset.state_dim, dataset.action_dim,
                                     dataset.n, dataset.behavior_tag)))
    s, a, r, s2, d = dataset.arrays()
    columns = (s.tolist(), a.tolist(), r.tolist(), s2.tolist(), d.astype(int).tolist())
    lines = [json.dumps(header)] + [json.dumps(dict(zip(_ROW_KEYS, row))) for row in zip(*columns)]
    atomic_write(path, "\n".join(lines) + "\n")


def load_dataset(path: str) -> OfflineDataset:
    """Read a save_dataset file. Any malformed header, line or value raises
    RejectedInputError."""
    try:
        with open(path) as fh:
            header, *rows = [json.loads(line) for line in fh if line.strip()]
        state_dim, action_dim, n, tag = (header[k] for k in _HEADER_KEYS)
        columns = [np.array([row[k] for row in rows]) for k in _ROW_KEYS]
    except (KeyError, TypeError, ValueError) as exc:
        raise RejectedInputError(f"{path}: malformed dataset file: {exc!r}") from None
    if len(rows) != n:
        raise RejectedInputError(f"{path}: header n={n!r} but the file holds {len(rows)} rows")
    if any(col.dtype.kind not in "iuf" for col in columns):
        raise RejectedInputError(f"{path}: a transition holds a non-numeric value")
    if not np.isin(columns[4], (0, 1)).all():
        raise RejectedInputError(f"{path}: a done flag is not 0 or 1")
    return OfflineDataset(state_dim, action_dim, *columns, tag)


def _tabular_dataset(n_states: int, n_actions: int, s, a, r, s2, d,
                     behavior_tag: str) -> OfflineDataset:
    """A tabular dataset from integer state and action indices, one-hot encoded."""
    eye_s, eye_a = np.eye(n_states), np.eye(n_actions)
    return OfflineDataset(n_states, n_actions, eye_s.take(s, axis=0), eye_a.take(a, axis=0), r,
                          eye_s.take(s2, axis=0), d, behavior_tag)


def tabular_indices(dataset: OfflineDataset):
    """Decode one-hot states/actions back to integer indices. Every state,
    action and next-state row must hold exactly one 1 and zeros elsewhere."""
    s, a, r, s2, d = dataset.arrays()
    indices = []
    for name, col in (("state", s), ("action", a), ("next_state", s2)):
        idx = col.argmax(axis=1)
        bad = np.flatnonzero((col != np.eye(col.shape[1])[idx]).any(axis=1))
        if bad.size:
            raise RejectedInputError(f"{name} of row {bad[0]} is not one-hot: {col[bad[0]].tolist()}")
        indices.append(idx)
    return indices[0], indices[1], r, indices[2], d


def evaluate_policy_exact(mdp: TabularMDP, policy: TabularPolicy) -> tuple[np.ndarray, float]:
    """Solve the Bellman equations directly. gamma = 1 is supported only for
    absorbing episodic MDPs (linear solve on the transient states)."""
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
    r_pi = np.sum(policy.probs * mdp.reward, axis=1)
    v = np.zeros(mdp.n_states)
    live = ~mdp.terminal
    if np.any(live):
        p_live = p_pi[np.ix_(live, live)]
        a = np.eye(p_live.shape[0]) - mdp.discount * p_live
        if mdp.discount >= 1.0:
            # only valid when every policy trajectory is absorbed
            if np.linalg.matrix_rank(a) < a.shape[0] or np.max(np.abs(np.linalg.eigvals(p_live))) >= 1.0 - 1e-12:
                raise UnsupportedDiscountError("gamma >= 1 with non-terminal cycles")
        v[live] = np.linalg.solve(a, r_pi[live])
    residual = np.max(np.abs(v[live] - (r_pi[live] + mdp.discount * (p_pi[live] @ v)))) if np.any(live) else 0.0
    if residual > 1e-10:
        raise UnsupportedDiscountError(f"Bellman residual {residual:.3e} after direct solve")
    j = float(mdp.initial_dist @ v)
    return v, j


def random_mdp(n_states: int, n_actions: int, rng: np.random.Generator,
               discount: float = 0.9, r_max: float = 1.0) -> TabularMDP:
    """Dense random MDP with Dirichlet rows; no terminal states."""
    t = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    r = rng.uniform(-r_max, r_max, size=(n_states, n_actions))
    rho = rng.dirichlet(np.ones(n_states))
    return TabularMDP(n_states, n_actions, t, r, rho, discount, r_max,
                      np.zeros(n_states, dtype=bool))


def value_iteration(mdp: TabularMDP, tol: float = 1e-12, max_iters: int = 100_000):
    """Exact-to-tolerance optimal values; returns (V, Q, greedy policy)."""
    v = np.zeros(mdp.n_states)
    live = ~mdp.terminal
    for _ in range(max_iters):
        q = mdp.reward + mdp.discount * (mdp.transition @ v)
        v_new = np.where(live, q.max(axis=1), 0.0)
        if np.max(np.abs(v_new - v)) < tol:
            v = v_new
            break
        v = v_new
    q = mdp.reward + mdp.discount * (mdp.transition @ v)
    return v, q, TabularPolicy.deterministic(q.argmax(axis=1), mdp.n_actions)


def make_gridworld(size: int = 5, slip: float = 0.1, discount: float = 0.95,
                   r_max: float = 1.0) -> TabularMDP:
    """size x size grid, 4 moves, slip probability to a uniform random move,
    start at one corner, absorbing goal at the opposite corner paying r_max."""
    n_states = size * size
    n_actions = 4
    moves = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    goal = n_states - 1

    def clamp(r, c):
        return min(max(r, 0), size - 1) * size + min(max(c, 0), size - 1)

    t = np.zeros((n_states, n_actions, n_states))
    rew = np.zeros((n_states, n_actions))
    for s in range(n_states):
        r, c = divmod(s, size)
        for a in range(n_actions):
            if s == goal:
                t[s, a, s] = 1.0
                continue
            for a2, (dr, dc) in enumerate(moves):
                p = (1.0 - slip) if a2 == a else slip / (n_actions - 1)
                s2 = clamp(r + dr, c + dc)
                t[s, a, s2] += p
                if s2 == goal:
                    rew[s, a] += p * r_max
    rho = np.zeros(n_states)
    rho[0] = 1.0
    terminal = np.zeros(n_states, dtype=bool)
    terminal[goal] = True
    return TabularMDP(n_states, n_actions, t, rew, rho, discount, r_max, terminal)


def epsilon_greedy_policy(greedy: TabularPolicy, epsilon: float) -> TabularPolicy:
    n_actions = greedy.probs.shape[1]
    probs = (1.0 - epsilon) * greedy.probs + epsilon / n_actions
    return TabularPolicy(probs)


def build_counterexample() -> tuple[TabularMDP, OfflineDataset, np.ndarray]:
    """Two-state episodic MDP (gamma = 1), its six-transition dataset of four
    trajectories, and the state-collapse map that merges both live states."""
    n_states, n_actions = 3, 2  # s0, s1, terminal
    t = np.zeros((n_states, n_actions, n_states))
    t[0, 0, 2] = 1.0
    t[0, 1, 1] = 1.0
    t[1, 0, 2] = 1.0
    t[1, 1, 2] = 1.0
    t[2, :, 2] = 1.0
    r = np.zeros((n_states, n_actions))
    r[1, 0] = 1.0
    rho = np.array([1.0, 0.0, 0.0])
    terminal = np.array([False, False, True])
    mdp = TabularMDP(n_states, n_actions, t, r, rho, 1.0, 1.0, terminal)

    rows = [  # (s, a, r, s2, done)
        (0, 0, 0.0, 2, True),
        (0, 0, 0.0, 2, True),
        (0, 1, 0.0, 1, False),
        (1, 0, 1.0, 2, True),
        (0, 1, 0.0, 1, False),
        (1, 1, 0.0, 2, True),
    ]
    dataset = _tabular_dataset(n_states, n_actions, *zip(*rows), "counterexample-four-trajectories")
    collapse = np.array([0, 0, 1])  # both live states map to z; terminal kept apart
    return mdp, dataset, collapse


def empirical_mdp_from_dataset(dataset: OfflineDataset, n_states: int, n_actions: int,
                               discount: float) -> tuple[TabularMDP, np.ndarray]:
    """Maximum-likelihood tabular model. Returns (mdp, counts). Unvisited pairs
    self-loop with zero reward. A synthetic absorbing state indexes done
    transitions; initial distribution is empirical over episode starts."""
    s, a, r, s2, d = tabular_indices(dataset)
    n_total = n_states + 1  # + absorbing terminal
    n_pairs = n_states * n_actions
    pair = s * n_actions + a
    counts = np.bincount(pair, minlength=n_pairs).astype(np.float64).reshape(n_states, n_actions)
    reward_sums = np.bincount(pair, weights=r, minlength=n_pairs).reshape(n_states, n_actions)
    next_counts = np.bincount(pair * n_total + np.where(d, n_states, s2),
                              minlength=n_pairs * n_total).reshape(n_states, n_actions, n_total)
    # episodes start at row 0 and after every done
    start_counts = np.bincount(s[np.concatenate(([True], d[:-1]))], minlength=n_total)
    seen = counts > 0
    t = np.zeros((n_total, n_actions, n_total))
    np.divide(next_counts, counts[:, :, None], out=t[:n_states], where=seen[:, :, None])
    unseen_s, unseen_a = np.nonzero(~seen)
    t[unseen_s, unseen_a, unseen_s] = 1.0
    rew = np.zeros((n_total, n_actions))
    np.divide(reward_sums, counts, out=rew[:n_states], where=seen)
    t[n_states, :, n_states] = 1.0
    rho = start_counts / start_counts.sum()
    terminal = np.zeros(n_total, dtype=bool)
    terminal[n_states] = True
    # states never visited as a current state have no model; absorb them at 0
    terminal[:n_states] |= counts.sum(axis=1) == 0
    r_max = max(1.0, np.max(np.abs(rew)))
    mdp = TabularMDP(n_total, n_actions, t, rew, rho, discount, r_max, terminal)
    return mdp, counts


def collapse_dataset(dataset: OfflineDataset, collapse: np.ndarray) -> OfflineDataset:
    """Re-encode a tabular dataset through a state-collapse map."""
    s, a, r, s2, d = tabular_indices(dataset)
    return _tabular_dataset(int(collapse.max()) + 1, dataset.action_dim, collapse[s], a, r,
                           collapse[s2], d, dataset.behavior_tag + "+collapsed")


def evaluate_on_empirical_collapsed_model(dataset: OfflineDataset, collapse: np.ndarray,
                                          policy_probs: np.ndarray, discount: float = 1.0) -> float:
    """Build the ML empirical MDP over collapsed states and evaluate the given
    policy (rows indexed by collapsed state) exactly."""
    collapsed = collapse_dataset(dataset, collapse)
    n_collapsed = collapsed.state_dim
    mdp, counts = empirical_mdp_from_dataset(collapsed, n_collapsed, collapsed.action_dim, discount)
    probs = np.asarray(policy_probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = np.tile(probs, (n_collapsed, 1))
    for s in range(n_collapsed):
        if counts[s].sum() == 0:
            continue  # unreachable in the empirical model
        unseen = counts[s] == 0
        if np.any(probs[s, unseen] > 0):
            raise UndefinedModelError(f"policy puts mass on unseen action at collapsed state {s}")
    full = np.vstack([probs, np.full((1, collapsed.action_dim), 1.0 / collapsed.action_dim)])
    _, j = evaluate_policy_exact(mdp, TabularPolicy(full))
    return j


def estimate_behavior_tabular(dataset: OfflineDataset, n_states: int, n_actions: int):
    """ML count-ratio estimate of the behavior policy. Unvisited states fall
    back to uniform and are flagged."""
    s, a, _, _, _ = tabular_indices(dataset)
    counts = np.zeros((n_states, n_actions))
    np.add.at(counts, (s, a), 1.0)
    totals = counts.sum(axis=1)
    unvisited = totals == 0
    probs = np.full((n_states, n_actions), 1.0 / n_actions)
    seen = ~unvisited
    probs[seen] = counts[seen] / totals[seen, None]
    return TabularPolicy(probs), counts, unvisited


_UNIFORM_BLOCK = 4096  # doubles per rng.random call in generate_tabular_dataset
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p)


def _choice_cdf(p: np.ndarray, name: str) -> list:
    """The CDF that Generator.choice(k, p=row) builds for each row (last axis)
    of p, cumsum then divide by the total, as nested lists of Python floats.
    Like choice, rejects a negative or non-finite entry and a row whose sum is
    off 1 by more than sqrt(eps)."""
    if np.all(np.isfinite(p)) and not np.any(p < 0):
        cdf = np.cumsum(p, axis=-1)
        if np.all(np.abs(cdf[..., -1] - 1.0) <= _CHOICE_ATOL):
            return (cdf / cdf[..., -1:]).tolist()
    raise RejectedInputError(f"cannot sample from the {name}: entries must be finite and "
                             "non-negative and each row must sum to 1")


def _uniforms(rng: np.random.Generator):
    """The doubles of successive rng.random() calls, drawn _UNIFORM_BLOCK at a time."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def generate_tabular_dataset(mdp: TabularMDP, policy: TabularPolicy, n: int, seed: int,
                             max_episode_len: int = 200, behavior_tag: str = "tabular") -> OfflineDataset:
    """Roll the policy out in the MDP until n rows are logged. Each episode
    draws a start state from initial_dist, then an action and a next state
    per row, and ends at a terminal state or after max_episode_len rows. The
    dataset is a function of (mdp, policy, n, seed, max_episode_len) alone:
    each draw is the index np.random.default_rng(seed).choice(k, p=row) would
    return at that point of the stream, found by bisecting choice's own CDF
    (built once per call) at the next rng.random() double. The files under
    tests/data/ pin the generated bytes. A policy of the wrong shape,
    max_episode_len < 1 and a row that choice rejected (a negative or
    non-finite entry, a sum off 1) raise RejectedInputError."""
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise RejectedInputError(f"policy shape {policy.probs.shape} does not fit the MDP's "
                                 f"({mdp.n_states}, {mdp.n_actions})")
    if max_episode_len < 1:
        raise RejectedInputError("max_episode_len must be positive")
    start_cdf = _choice_cdf(mdp.initial_dist, "initial distribution")
    action_cdf = _choice_cdf(policy.probs, "policy")
    next_cdf = _choice_cdf(mdp.transition, "transition")
    reward, terminal = mdp.reward.tolist(), mdp.terminal.tolist()
    uniform = _uniforms(np.random.default_rng(seed)).__next__
    rows = []
    while len(rows) < n:
        s = bisect_right(start_cdf, uniform())
        for _ in range(max_episode_len):
            a = bisect_right(action_cdf[s], uniform())
            s2 = bisect_right(next_cdf[s][a], uniform())
            done = terminal[s2]
            rows.append((s, a, reward[s][a], s2, done))
            if done or len(rows) >= n:
                break
            s = s2
    return _tabular_dataset(mdp.n_states, mdp.n_actions, *zip(*rows), behavior_tag)


@dataclass
class PointMassEnv:
    """Damped point mass on the plane. State = (position, velocity), actions
    clipped to [-1, 1]^2, reward = -||position - goal|| after the move."""
    goal: np.ndarray = field(default_factory=lambda: np.zeros(2))
    max_steps: int = 100

    state_dim: int = 4
    action_dim: int = 2

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        p = rng.uniform(-1.0, 1.0, size=2)
        return np.concatenate([p, np.zeros(2)])

    def step(self, state: np.ndarray, action: np.ndarray) -> tuple[np.ndarray, float]:
        a = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), -1.0), 1.0)
        p, v = state[:2], state[2:]
        v = 0.9 * v + 0.1 * a
        p = p + 0.05 * v
        d = p - self.goal
        reward = -math.sqrt(d.dot(d))
        return np.concatenate([p, v]), reward


def pointmass_behavior(name: str, env: PointMassEnv):
    """Named behavior policies: (state, rng) -> action."""

    def controller(gain: float, noise: float):
        def act(state, rng):
            a = gain * (env.goal - state[:2]) - 0.2 * state[2:]
            if noise > 0:
                a = a + rng.normal(0.0, noise, size=2)
            return np.minimum(np.maximum(a, -1.0), 1.0)

        return act

    if name == "expert":
        return controller(1.0, 0.05)
    if name == "medium":
        return controller(0.3, 0.3)
    if name == "random":
        return lambda state, rng: rng.uniform(-1.0, 1.0, size=2)
    raise RejectedInputError(f"unknown point-mass behavior {name!r}")


def generate_pointmass_dataset(env: PointMassEnv, behavior, n: int, seed: int,
                               behavior_tag: str = "pointmass") -> OfflineDataset:
    """behavior is (state, rng) -> action, or a list of (weight, fn) pairs
    sampled per episode."""
    rng = np.random.default_rng(seed)
    mixture = isinstance(behavior, list)
    rows = []
    while len(rows) < n:
        if mixture:
            weights = np.array([w for w, _ in behavior])
            idx = rng.choice(len(behavior), p=weights / weights.sum())
            act = behavior[idx][1]
        else:
            act = behavior
        s = env.reset(rng)
        for step in range(env.max_steps):
            a = act(s, rng)
            s2, r = env.step(s, a)
            done = step == env.max_steps - 1
            rows.append((s, a, r, s2, done))
            if len(rows) >= n:
                break
            s = s2
    return OfflineDataset(env.state_dim, env.action_dim, *zip(*rows), behavior_tag)


def generate_dataset(env_or_mdp, behavior, n: int, seed: int, behavior_tag: str = "") -> OfflineDataset:
    if n <= 0:
        raise RejectedInputError("n must be positive")
    if isinstance(env_or_mdp, TabularMDP):
        return generate_tabular_dataset(env_or_mdp, behavior, n, seed,
                                        behavior_tag=behavior_tag or "tabular")
    if isinstance(env_or_mdp, PointMassEnv):
        return generate_pointmass_dataset(env_or_mdp, behavior, n, seed,
                                          behavior_tag=behavior_tag or "pointmass")
    raise RejectedInputError(f"unsupported environment type {type(env_or_mdp)!r}")
