"""Output checks for the benchmark, computed apart from bprlab.

Each check returns a list of problems (empty when the output is right). The
reference values come from this file's own arithmetic (a Bellman linear
solve, value iteration, LAPACK eigenvalues, a re-simulation of the point-mass
dynamics, the documented checkpoint layout) or from a property the method
must have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

VALUE_TOL = 1e-9  # absolute tolerance on returns and J values
EIG_TIE = 1e-10  # eigenvalues this close to epsilon may fall on either side
CHECKPOINT_MAGIC = b"BPRCKPT1"
ACTIVATION_TAGS = {"relu": 0, "tanh": 1, "identity": 2}


# ---------------------------------------------------------------- pretraining


def check_pretrain_losses(losses) -> list[str]:
    """Every loss is a squared distance between unit vectors, so it lies in
    [0, 4]; training must lower it, so the mean of the last tenth of the
    steps is below the mean of the first tenth."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size < 10:
        return [f"pretrain loss trace has shape {losses.shape}, need >= 10 steps"]
    problems = []
    bad = ~np.isfinite(losses) | (losses < 0.0) | (losses > 4.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        problems.append(f"pretrain loss {losses[i]!r} at step {i} is outside [0, 4]")
    k = losses.size // 10
    early, late = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    if not late < early:
        problems.append(f"pretrain late mean loss {late:.6f} is not below early mean {early:.6f}")
    return problems


def checkpoint_layout(layers) -> bytes:
    """The checkpoint format documented in bprlab.numerics.save_checkpoint,
    written from (weight, bias, activation) triples: magic, layer count, then
    per layer rows, cols, activation tag, row-major weights and bias, all
    little-endian."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(layers))]
    for weight, bias, activation in layers:
        rows, cols = weight.shape
        chunks.append(struct.pack("<IIB", rows, cols, ACTIVATION_TAGS[activation]))
        chunks.append(np.ascontiguousarray(weight, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(bias, dtype="<f8").tobytes())
    return b"".join(chunks)


def check_checkpoint_roundtrip(layers, saved: bytes, resaved: bytes) -> list[str]:
    """saved: the file written from the trained encoder; resaved: the file
    written again from the encoder loaded back from it."""
    problems = []
    if saved != checkpoint_layout(layers):
        problems.append("encoder checkpoint does not match the documented layout of its weights")
    if resaved != saved:
        problems.append("encoder checkpoint changed across a save and load")
    return problems


def check_params_unchanged(before, after) -> list[str]:
    if len(before) != len(after):
        return ["frozen encoder parameter count changed"]
    for i, (b, a) in enumerate(zip(before, after)):
        if b.shape != a.shape or not np.array_equal(b, a):
            return [f"frozen encoder parameter {i} changed during training"]
    return []


# ---------------------------------------------------------------- rollouts


def simulate_pointmass_return(goal, max_steps: int, episodes: int, seed: int,
                              states, actions) -> tuple[float, list[str]]:
    """Mean return of a recorded rollout, re-simulated from the dynamics in
    bprlab.envs.PointMassEnv: start at a uniform position in [-1, 1]^2 with
    zero velocity, clip the action to [-1, 1]^2, v <- 0.9 v + 0.1 a,
    p <- p + 0.05 v, reward -||p - goal||. The policy is taken as given: its
    recorded actions are replayed, and each recorded state must be the state
    this simulation reached."""
    goal = np.asarray(goal, dtype=np.float64)
    if len(states) != episodes * max_steps or len(actions) != len(states):
        return float("nan"), [f"rollout recorded {len(states)} steps, "
                              f"expected {episodes} x {max_steps}"]
    rng = np.random.default_rng(seed)
    problems = []
    returns = []
    k = 0
    for _ in range(episodes):
        p = rng.uniform(-1.0, 1.0, size=2)
        v = np.zeros(2)
        total = 0.0
        for _ in range(max_steps):
            seen = states[k]
            if not problems and np.max(np.abs(seen - np.concatenate([p, v]))) > VALUE_TOL:
                problems.append(f"rollout state at step {k} differs from the simulated state")
            a = np.minimum(np.maximum(actions[k], -1.0), 1.0)
            v = 0.9 * v + 0.1 * a
            p = p + 0.05 * v
            d = p - goal
            total -= float(np.sqrt(d @ d))
            k += 1
        returns.append(total)
    return float(np.mean(returns)), problems


def check_eval_return(reported_mean: float, simulated_mean: float) -> list[str]:
    if not abs(reported_mean - simulated_mean) <= VALUE_TOL:
        return [f"evaluate_return mean {reported_mean!r} != simulated {simulated_mean!r}"]
    return []


# ---------------------------------------------------------------- spectra


def check_effective_dimension(psi, count: int, epsilon: float) -> list[str]:
    """count must equal the number of LAPACK eigenvalues of psi^T psi / n
    above epsilon; an eigenvalue within EIG_TIE of epsilon may go either way."""
    psi = np.asarray(psi, dtype=np.float64)
    eigs = np.linalg.eigvalsh(psi.T @ psi / psi.shape[0])
    lo = int(np.sum(eigs > epsilon + EIG_TIE))
    hi = int(np.sum(eigs > epsilon - EIG_TIE))
    if not lo <= count <= hi:
        return [f"effective dimension {count} != {lo} eigenvalues above {epsilon}"]
    return []


# ---------------------------------------------------------------- tabular


def policy_value(transition, reward, initial_dist, terminal, discount, probs) -> float:
    """J(pi) by a direct solve of (I - gamma P_pi) v = r_pi on live states."""
    p_pi = np.einsum("sa,sat->st", probs, transition)
    r_pi = np.sum(probs * reward, axis=1)
    live = ~np.asarray(terminal, dtype=bool)
    v = np.zeros(len(r_pi))
    a = np.eye(int(live.sum())) - discount * p_pi[np.ix_(live, live)]
    v[live] = np.linalg.solve(a, r_pi[live])
    return float(initial_dist @ v)


def optimal_value(transition, reward, initial_dist, terminal, discount,
                  tol: float = 1e-13, max_iters: int = 100_000) -> float:
    """J* by value iteration with terminal states held at zero."""
    live = ~np.asarray(terminal, dtype=bool)
    v = np.zeros(transition.shape[0])
    for _ in range(max_iters):
        v_new = np.where(live, (reward + discount * transition @ v).max(axis=1), 0.0)
        done = np.max(np.abs(v_new - v)) < tol
        v = v_new
        if done:
            break
    return float(initial_dist @ v)


def array_digest(arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check_roundtrip(name: str, digest_before: str, arrays_after) -> list[str]:
    if array_digest(arrays_after) != digest_before:
        return [f"dataset {name} changed across the JSONL round trip"]
    return []


def check_close(name: str, got: float, want: float) -> list[str]:
    if not abs(got - want) <= VALUE_TOL:
        return [f"{name} {got!r} != reference {want!r}"]
    return []


def check_not_above_optimal(j_out: float, j_star: float) -> list[str]:
    if j_out > j_star + VALUE_TOL:
        return [f"J(pi_out) {j_out!r} exceeds J* {j_star!r}"]
    return []


def check_lower_bound(j_perp: float, j_out: float) -> list[str]:
    if j_perp > j_out + VALUE_TOL:
        return [f"CQL J_perp(pi_out) {j_perp!r} exceeds J(pi_out) {j_out!r}"]
    return []


def check_safe_rate(safe: int, total: int, min_rate: float = 0.95) -> list[str]:
    if total < 1 or safe < min_rate * total:
        return [f"SPIBB was safe on {safe}/{total} seeds, below {min_rate:.0%}"]
    return []
