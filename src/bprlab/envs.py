"""Finite MDPs with exact evaluation, a 2D point-mass control task, offline
dataset generation, and the two-state state-collapse counterexample."""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import tempfile
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    RejectedInputError,
    UndefinedModelError,
    UnsupportedDiscountError,
)

_PROB_TOL = 1e-12

# Rows per block of every dataset-sized pass (EncoderModel.encode, save_dataset,
# load_dataset): a pass holds one block's temporaries at a time, so its memory
# beyond its result is O(ROW_BLOCK), not O(rows).
ROW_BLOCK = 2048

GRID_SIZE, GRID_SLIP, GRID_DISCOUNT = 5, 0.1, 0.95  # the gridworld task (make_gridworld)
COUNTEREXAMPLE_DISCOUNT = 1.0  # the state-collapse counterexample is undiscounted
VI_TOL, VI_MAX_ITERS = 1e-12, 100_000  # value_iteration's stopping rule


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
        if not (np.all(np.isfinite(self.reward)) and math.isfinite(self.r_max)):
            raise RejectedInputError("reward entries and r_max must be finite")
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
    # tabular_indices' decoded columns, kept after the first decode that succeeds
    _tabular: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def row_blocks(n: int) -> list[slice]:
    """Slices covering range(n) in ceil(n / ROW_BLOCK) near-equal blocks, each
    of more than ROW_BLOCK / 2 rows when n > ROW_BLOCK. Near-equal rather than
    full blocks and a short tail: OpenBLAS picks other kernels for small row
    counts, so a few-row block of a matmul can round differently from the
    one-pass matmul (tests/test_bpr.py pins the one-pass bytes)."""
    k = max(1, -(-n // ROW_BLOCK))
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def atomic_write(path: str, data: str | bytes | Iterable[str]) -> None:
    """Write via temp file + rename so interrupted runs never truncate. data is
    one str or bytes, or an iterable of str chunks written in order."""
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.writelines([data] if isinstance(data, (str, bytes)) else data)
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
     "s2": [state_dim floats], "d": 0 or 1}, with keys in that order. Floats
    are written as repr writes them, as json.dumps does; repr is the shortest
    string that round-trips the float64. Rows are formatted and written one
    block (row_blocks) at a time, and each distinct row of a block, keyed by
    its raw bytes so that -0.0 and 0.0 stay apart, is formatted once."""
    header = dict(zip(_HEADER_KEYS, (dataset.state_dim, dataset.action_dim,
                                     dataset.n, dataset.behavior_tag)))
    s, a, r, s2, d = dataset.arrays()

    def floats(k):
        return "[" + ", ".join(["%r"] * k) + "]"

    row = (f'{{"s": {floats(dataset.state_dim)}, "a": {floats(dataset.action_dim)}, "r": %r, '
           f'"s2": {floats(dataset.state_dim)}, "d": %d}}\n')

    def chunks():
        yield json.dumps(header) + "\n"
        for b in row_blocks(dataset.n):
            table = np.hstack([s[b], a[b], r[b, None], s2[b], d[b, None]])
            keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            lines = [row % tuple(x) for x in table[first].tolist()]
            yield "".join([lines[i] for i in inverse.tolist()])

    atomic_write(path, chunks())


def _block_column(distinct: list, key: str, inverse: np.ndarray) -> np.ndarray:
    """Column key of a block whose row i is distinct[inverse[i]]."""
    try:
        return np.array([row[key] for row in distinct])[inverse]
    except ValueError:
        # a ragged column; numpy's message names the row count, so build the
        # whole block's column to raise it as a per-line parse would
        np.array([distinct[i][key] for i in inverse])
        raise


def load_dataset(path: str) -> OfflineDataset:
    """Read a save_dataset file, parsing ROW_BLOCK lines at a time into column
    blocks; each distinct line text of a block is parsed once. Any malformed
    header, line or value raises RejectedInputError, the same error for the
    same first bad line as parsing every line would raise."""
    try:
        with open(path) as fh:
            lines = (line for line in fh if line.strip())
            header = json.loads(next(lines, ""))
            state_dim, action_dim, n, tag = (header[k] for k in _HEADER_KEYS)
            for key, value in zip(_HEADER_KEYS, (state_dim, action_dim, n)):
                if type(value) is not int:  # a JSON integer: no bool, no float
                    raise RejectedInputError(f"{path}: header {key}={value!r} is not an integer")
            rows, blocks = 0, []
            while block := list(itertools.islice(lines, ROW_BLOCK)):
                rows += len(block)
                first = {}
                inverse = np.array([first.setdefault(line, len(first)) for line in block])
                distinct = [json.loads(line) for line in first]
                blocks.append([_block_column(distinct, k, inverse) for k in _ROW_KEYS])
        columns = [np.concatenate(col) for col in zip(*blocks)]
    except (KeyError, TypeError, ValueError) as exc:
        raise RejectedInputError(f"{path}: malformed dataset file: {exc!r}") from None
    if rows != n:
        raise RejectedInputError(f"{path}: header n={n!r} but the file holds {rows} rows")
    if not rows:
        raise RejectedInputError(f"{path}: dataset has no rows")
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
    """(states, actions, rewards, next_states, dones) with one-hot states and
    actions decoded to integer indices. Every state, action and next-state row
    must hold exactly one 1 and zeros elsewhere. A dataset is decoded and
    checked once; later calls return the same read-only arrays."""
    if dataset._tabular is None:
        s, a, r, s2, d = dataset.arrays()
        indices = []
        for name, col in (("state", s), ("action", a), ("next_state", s2)):
            idx = col.argmax(axis=1)
            bad = np.flatnonzero((col != np.eye(col.shape[1])[idx]).any(axis=1))
            if bad.size:
                raise RejectedInputError(f"{name} of row {bad[0]} is not one-hot: {col[bad[0]].tolist()}")
            idx.setflags(write=False)
            indices.append(idx)
        dataset._tabular = (indices[0], indices[1], r, indices[2], d)
    return dataset._tabular


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


def value_iteration(mdp: TabularMDP):
    """Exact-to-tolerance optimal values; returns (V, Q, greedy policy)."""
    v = np.zeros(mdp.n_states)
    live = ~mdp.terminal
    for _ in range(VI_MAX_ITERS):
        q = mdp.reward + mdp.discount * (mdp.transition @ v)
        v_new = np.where(live, q.max(axis=1), 0.0)
        if np.max(np.abs(v_new - v)) < VI_TOL:
            v = v_new
            break
        v = v_new
    q = mdp.reward + mdp.discount * (mdp.transition @ v)
    return v, q, TabularPolicy.deterministic(q.argmax(axis=1), mdp.n_actions)


def make_gridworld() -> TabularMDP:
    """GRID_SIZE x GRID_SIZE grid, 4 moves, GRID_SLIP probability to a uniform
    random move, start at one corner, absorbing goal at the opposite corner
    paying 1 (r_max)."""
    size, slip = GRID_SIZE, GRID_SLIP
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
                    rew[s, a] += p
    rho = np.zeros(n_states)
    rho[0] = 1.0
    terminal = np.zeros(n_states, dtype=bool)
    terminal[goal] = True
    return TabularMDP(n_states, n_actions, t, rew, rho, GRID_DISCOUNT, 1.0, terminal)


def epsilon_greedy_policy(greedy: TabularPolicy, epsilon: float) -> TabularPolicy:
    n_actions = greedy.probs.shape[1]
    probs = (1.0 - epsilon) * greedy.probs + epsilon / n_actions
    return TabularPolicy(probs)


def build_counterexample() -> tuple[TabularMDP, OfflineDataset, np.ndarray]:
    """Two-state episodic MDP (undiscounted), its six-transition dataset of four
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
    mdp = TabularMDP(n_states, n_actions, t, r, rho, COUNTEREXAMPLE_DISCOUNT, 1.0, terminal)

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


def empirical_mdp_from_dataset(dataset: OfflineDataset,
                               discount: float) -> tuple[TabularMDP, np.ndarray]:
    """Maximum-likelihood tabular model of the dataset's own states and actions; returns
    (mdp, counts). Unvisited pairs self-loop with zero reward. A synthetic absorbing state
    indexes done transitions; initial distribution is empirical over episode starts."""
    s, a, r, s2, d = tabular_indices(dataset)
    n_states, n_actions = dataset.state_dim, dataset.action_dim
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
    # states never visited as a current state have no model; absorb them at 0
    terminal = np.append(counts.sum(axis=1) == 0, True)
    r_max = max(1.0, np.max(np.abs(rew)))
    return TabularMDP(n_total, n_actions, t, rew, rho, discount, r_max, terminal), counts


def collapse_dataset(dataset: OfflineDataset, collapse: np.ndarray) -> OfflineDataset:
    """Re-encode a tabular dataset through a state-collapse map."""
    s, a, r, s2, d = tabular_indices(dataset)
    return _tabular_dataset(int(collapse.max()) + 1, dataset.action_dim, collapse[s], a, r,
                           collapse[s2], d, dataset.behavior_tag + "+collapsed")


def evaluate_on_empirical_collapsed_model(dataset: OfflineDataset, collapse: np.ndarray,
                                          action_probs: np.ndarray) -> float:
    """Build the ML empirical MDP over collapsed states, with the counterexample's
    discount, and evaluate exactly the policy that takes action_probs, one
    distribution over actions, in every collapsed state."""
    collapsed = collapse_dataset(dataset, collapse)
    mdp, counts = empirical_mdp_from_dataset(collapsed, COUNTEREXAMPLE_DISCOUNT)
    probs = np.asarray(action_probs, dtype=np.float64)
    if probs.shape != (collapsed.action_dim,):
        raise RejectedInputError(f"action_probs has shape {probs.shape}, not "
                                 f"({collapsed.action_dim},)")
    # a state with no visits is unreachable in the empirical model
    unseen = (counts == 0) & (counts.sum(axis=1, keepdims=True) > 0)
    bad = np.flatnonzero(np.any(unseen & (probs > 0), axis=1))
    if bad.size:
        raise UndefinedModelError(f"policy puts mass on unseen action at collapsed state {bad[0]}")
    return evaluate_policy_exact(mdp, TabularPolicy(np.tile(probs, (mdp.n_states, 1))))[1]


def estimate_behavior_tabular(dataset: OfflineDataset) -> tuple[TabularPolicy, np.ndarray]:
    """ML count-ratio estimate of the behavior policy over the dataset's
    state_dim states and action_dim actions. Returns (policy, counts); an
    unvisited state (counts.sum(axis=1) == 0) falls back to uniform."""
    s, a, _, _, _ = tabular_indices(dataset)
    n_states, n_actions = dataset.state_dim, dataset.action_dim
    pair_counts = np.bincount(s * n_actions + a, minlength=n_states * n_actions)
    counts = pair_counts.astype(np.float64).reshape(n_states, n_actions)
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.full((n_states, n_actions), 1.0 / n_actions)
    np.divide(counts, totals, out=probs, where=totals > 0)
    return TabularPolicy(probs), counts


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

    @staticmethod
    def _move(p: np.ndarray, v: np.ndarray, action: np.ndarray):
        """(position, velocity) after one step; elementwise, so p, v and action
        may be (..., 2) stacks."""
        a = np.minimum(np.maximum(action, -1.0), 1.0)
        v = 0.9 * v + 0.1 * a
        return p + 0.05 * v, v

    def step(self, state: np.ndarray, action: np.ndarray) -> tuple[np.ndarray, float]:
        p, v = self._move(state[:2], state[2:], np.asarray(action, dtype=np.float64))
        d = p - self.goal
        reward = -math.sqrt(d.dot(d))
        return np.concatenate([p, v]), reward


@dataclass(frozen=True, eq=False)
class PointMassBehavior:
    """A point-mass behavior policy, called as (state, rng) -> action.
    With a gain it is the controller clip(gain * (goal - position)
    - 0.2 * velocity + N(0, noise^2) per coordinate) and makes no draw at
    noise 0; with gain None it draws each action uniformly from [-1, 1)^2."""
    goal: np.ndarray
    gain: float | None
    noise: float

    def __call__(self, state, rng):
        if self.gain is None:
            return rng.uniform(-1.0, 1.0, size=2)
        a = self.gain * (self.goal - state[:2]) - 0.2 * state[2:]
        if self.noise > 0:
            a = a + rng.normal(0.0, self.noise, size=2)
        return np.minimum(np.maximum(a, -1.0), 1.0)


_POINTMASS_BEHAVIORS = {"expert": (1.0, 0.05), "medium": (0.3, 0.3), "random": (None, 0.0)}


def pointmass_behavior(name: str, env: PointMassEnv) -> PointMassBehavior:
    """The named behavior policy ("expert", "medium" or "random") for env's goal."""
    if name not in _POINTMASS_BEHAVIORS:
        raise RejectedInputError(f"unknown point-mass behavior {name!r}")
    goal = np.array(env.goal, dtype=np.float64)
    goal.setflags(write=False)
    return PointMassBehavior(goal, *_POINTMASS_BEHAVIORS[name])


def generate_pointmass_dataset(env: PointMassEnv, behavior, n: int, seed: int,
                               behavior_tag: str = "pointmass") -> OfflineDataset:
    """Log n rows of episodes of env.max_steps steps, the last one cut short.
    behavior is a pointmass_behavior, or a list of (weight, pointmass_behavior)
    pairs of which each episode draws one by weight.

    Each episode's draws come from np.random.default_rng(seed) in this order:
    the mixture draw (the index rng.choice(k, p=weights / weights.sum())
    returns, found by bisecting its CDF at one rng.random() double), the
    start position rng.uniform(-1, 1, size=2), and then one (steps, 2) block
    of rng.normal(0, noise) or, for "random", rng.uniform(-1, 1) action
    draws, the doubles that one call per step would give. All episodes are
    then stepped together, and each row is bitwise what stepping that
    episode alone with env.step gives. The files under tests/data/ pin the
    bytes. Any other behavior, n < 1 and max_steps < 1 raise
    RejectedInputError."""
    try:
        horizon = operator.index(env.max_steps)
        n = operator.index(n)
    except TypeError:
        raise RejectedInputError("n and max_steps must be integers") from None
    if n < 1 or horizon < 1:
        raise RejectedInputError("n and max_steps must be positive")
    cdf = None
    options = [behavior]
    if isinstance(behavior, list):
        try:
            weights = np.array([w for w, _ in behavior], dtype=np.float64)
            options = [b for _, b in behavior]
        except (TypeError, ValueError):
            raise RejectedInputError("a behavior mixture is a list of (weight, behavior) "
                                     "pairs") from None
        if not (weights.size and np.all(weights >= 0) and 0.0 < weights.sum() < np.inf):
            raise RejectedInputError("mixture weights must be non-negative with a finite, "
                                     "positive sum")
        cdf = _choice_cdf(weights / weights.sum(), "behavior mixture")
    if not all(isinstance(b, PointMassBehavior) for b in options):
        raise RejectedInputError("point-mass behaviors must come from pointmass_behavior")

    rng = np.random.default_rng(seed)
    n_episodes = -(-n // horizon)
    episodes, start = [], np.empty((n_episodes, 2))
    draws = np.zeros((n_episodes, horizon, 2))
    for e in range(n_episodes):
        b = options[0] if cdf is None else options[bisect_right(cdf, rng.random())]
        start[e] = rng.uniform(-1.0, 1.0, size=2)
        steps = min(horizon, n - e * horizon)
        if b.gain is None:
            draws[e, :steps] = rng.uniform(-1.0, 1.0, size=(steps, 2))
        elif b.noise > 0:
            draws[e, :steps] = rng.normal(0.0, b.noise, size=(steps, 2))
        episodes.append(b)

    uniform = np.array([b.gain is None for b in episodes])[:, None]
    noisy = np.array([b.noise > 0 for b in episodes])[:, None]
    gain = np.array([b.gain or 0.0 for b in episodes])[:, None]
    goal = np.array([b.goal for b in episodes])
    pos = np.empty((n_episodes, horizon + 1, 2))
    vel = np.empty((n_episodes, horizon + 1, 2))
    actions = np.empty((n_episodes, horizon, 2))
    pos[:, 0], vel[:, 0] = start, 0.0
    for t in range(horizon):
        p, v = pos[:, t], vel[:, t]
        a = gain * (goal - p) - 0.2 * v
        a = np.minimum(np.maximum(np.where(noisy, a + draws[:, t], a), -1.0), 1.0)
        actions[:, t] = a = np.where(uniform, draws[:, t], a)
        pos[:, t + 1], vel[:, t + 1] = env._move(p, v, a)
    # d @ d per row as a stacked (1, 2) @ (2, 1) matmul: the dot product env.step takes
    d = (pos[:, 1:] - env.goal).reshape(-1, 1, 2)[:n]
    rewards = -np.sqrt((d @ d.transpose(0, 2, 1)).ravel())
    states = np.concatenate([pos[:, :-1], vel[:, :-1]], axis=2).reshape(-1, 4)[:n]
    next_states = np.concatenate([pos[:, 1:], vel[:, 1:]], axis=2).reshape(-1, 4)[:n]
    dones = np.arange(n) % horizon == horizon - 1
    return OfflineDataset(env.state_dim, env.action_dim, states, actions.reshape(-1, 2)[:n],
                          rewards, next_states, dones, behavior_tag)


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
