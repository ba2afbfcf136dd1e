"""Diagnostics and theory checks: effective dimension of value-net features,
the empirical behavior-cloning error term, the total-variation suboptimality
bound, conditional safe-improvement verification, and the state-collapse
counterexample audit."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics
from .bpr import EncoderModel, PredictorModel
from .envs import (
    OfflineDataset,
    TabularMDP,
    TabularPolicy,
    build_counterexample,
    estimate_behavior_tabular,
    evaluate_on_empirical_collapsed_model,
    evaluate_policy_exact,
    tabular_indices,
)
from .errors import (
    AuditFailureError,
    RejectedInputError,
    UnavailableOracleError,
    UnsupportedDiscountError,
)

DEFAULT_EPSILON = 0.01


@dataclass
class EffectiveDimensionReport:
    epsilon: float
    eigenvalues: np.ndarray  # descending spectrum of (1/n) Psi^T Psi
    count: int
    n: int
    d: int


def effective_dimension(psi: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> EffectiveDimensionReport:
    """Count eigenvalues of the normalized feature Gram matrix above epsilon."""
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim != 2 or psi.shape[0] < 1:
        raise RejectedInputError("feature matrix must be (n, d) with n >= 1")
    if epsilon <= 0:
        raise RejectedInputError("epsilon must be positive")
    if not np.all(np.isfinite(psi)):
        raise RejectedInputError("non-finite features")
    n, d = psi.shape
    gram = (psi.T @ psi) / n
    gram = 0.5 * (gram + gram.T)  # kill rounding asymmetry before the eigensolve
    eigs = numerics.symmetric_eigenvalues(gram)
    count = int(np.sum(eigs > epsilon))
    return EffectiveDimensionReport(epsilon, eigs, count, n, d)


def make_probe_batch(dataset: OfflineDataset, size: int = 512, seed: int = 0):
    """Fixed seeded batch of (state, action) pairs, reused by every probe."""
    s, a, _, _, _ = dataset.arrays()
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, s.shape[0], size=size)
    return s[idx], a[idx]


def effective_dimension_trace(psi_trace: list[tuple[int, np.ndarray]],
                              epsilon: float = DEFAULT_EPSILON) -> list[tuple[int, int]]:
    """(step, feature matrix) snapshots -> (step, effective dimension) series."""
    return [(step, effective_dimension(psi, epsilon).count) for step, psi in psi_trace]


def eps_beta_empirical_tabular(dataset: OfflineDataset, true_behavior: TabularPolicy,
                               predicted_rows: np.ndarray) -> float:
    """Mean l2 distance between true behavior rows and the rows predicted
    through the representation, over dataset states. predicted_rows is
    (n_states, n_actions), already composed with the state mapping."""
    if true_behavior is None:
        raise UnavailableOracleError("tabular mode needs the ground-truth behavior")
    s, _, _, _, _ = tabular_indices(dataset)
    diffs = true_behavior.probs[s] - np.asarray(predicted_rows)[s]
    return float(np.mean(np.linalg.norm(diffs, axis=1)))


def eps_beta_empirical_continuous(dataset: OfflineDataset, encoder: EncoderModel,
                                  predictor: PredictorModel) -> float:
    """(1/n) sum ||f(phi(s_i)) - a_i||_2 with dataset actions standing in for
    behavior samples (un-squared norm)."""
    s, a, _, _, _ = dataset.arrays()
    z = encoder.encode(s)
    y, _ = numerics.forward(predictor.net, z)
    return float(np.mean(np.linalg.norm(y - a, axis=1)))


def _occupancy(mdp: TabularMDP, policy: TabularPolicy) -> np.ndarray:
    """Normalized discounted state occupancy (1-gamma) sum_t gamma^t P_t."""
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
    p_pi[mdp.terminal] = 0.0  # no mass flows out of terminal states
    a = np.eye(mdp.n_states) - mdp.discount * p_pi.T
    return (1.0 - mdp.discount) * np.linalg.solve(a, mdp.initial_dist)


def tvd_suboptimality_bound(mdp: TabularMDP, pi_a: TabularPolicy,
                            pi_b: TabularPolicy) -> tuple[float, float]:
    """Returns (bound, exact gap): |J(a) - J(b)| <= 2 R_max / (1-gamma)^2 times
    the occupancy-weighted total variation between the policies."""
    if mdp.discount >= 1.0:
        raise UnsupportedDiscountError("the bound diverges at gamma = 1")
    _, ja = evaluate_policy_exact(mdp, pi_a)
    _, jb = evaluate_policy_exact(mdp, pi_b)
    gap = abs(ja - jb)
    tvd = 0.5 * np.sum(np.abs(pi_a.probs - pi_b.probs), axis=1)
    expected_tvd = max(float(_occupancy(mdp, pi_a) @ tvd),
                       float(_occupancy(mdp, pi_b) @ tvd))
    bound = 2.0 * mdp.r_max / (1.0 - mdp.discount) ** 2 * expected_tvd
    if bound < gap - 1e-9:
        raise AuditFailureError(f"TVD bound {bound} below exact gap {gap}")
    return bound, gap


@dataclass
class BoundReport:
    J_behavior: float
    J_behavior_hat: float
    J_output: float
    K: float
    eps_beta: float
    delta_hat: float | None = None
    eps_delta: float | None = None
    theorem2_slack: float | None = None
    delta_lower: float | None = None
    eps_lower: float | None = None
    lower_bound_precondition_held: bool | None = None
    theorem3_slack: float | None = None
    eps_beta_empirical: float | None = None
    symbolic_terms: dict = field(default_factory=lambda: {
        "C": "unevaluated constant",
        "Rad(Phi)": "unevaluated Rademacher complexity of the encoder class",
    })


def verify_theorem2(mdp: TabularMDP, dataset: OfflineDataset, spibb_result,
                    behavior: TabularPolicy) -> BoundReport:
    """Realized-terms check of the conservative improvement bound:
    J(pi_out) >= J(pi_beta) + Delta_hat - eps_Delta - eps_beta, with
    eps_beta and eps_Delta computed exactly on this instance."""
    pi_hat = spibb_result.behavior_estimate
    pi_out = spibb_result.policy
    _, j_beh = evaluate_policy_exact(mdp, behavior)
    _, j_hat = evaluate_policy_exact(mdp, pi_hat)
    _, j_out = evaluate_policy_exact(mdp, pi_out)
    eps_beta = j_beh - j_hat
    delta_hat = spibb_result.j_hat_out - spibb_result.j_hat_behavior
    # realized over the evaluated policy set {pi_out, pi_beta_hat}
    eps_delta = max(delta_hat - (j_out - j_hat), 0.0)
    k = mdp.r_max / (1.0 - mdp.discount) if mdp.discount < 1.0 else float("inf")
    slack = j_out - (j_beh + delta_hat - eps_delta - eps_beta)
    return BoundReport(J_behavior=j_beh, J_behavior_hat=j_hat, J_output=j_out,
                       K=k, eps_beta=eps_beta, delta_hat=delta_hat,
                       eps_delta=eps_delta, theorem2_slack=slack)


def verify_theorem3(mdp: TabularMDP, dataset: OfflineDataset, cql_result,
                    behavior: TabularPolicy) -> BoundReport:
    """Realized-terms check of the pessimistic lower-bound variant:
    J(pi_out) >= J(pi_beta) + Delta_lower - eps_lower - eps_beta."""
    pi_hat, _, _ = estimate_behavior_tabular(dataset, mdp.n_states, mdp.n_actions)
    pi_out = cql_result.policy
    _, j_beh = evaluate_policy_exact(mdp, behavior)
    _, j_hat = evaluate_policy_exact(mdp, pi_hat)
    _, j_out = evaluate_policy_exact(mdp, pi_out)
    eps_beta = j_beh - j_hat
    j_perp_out = cql_result.j_perp(pi_out.probs, mdp.initial_dist)
    j_perp_hat = cql_result.j_perp(pi_hat.probs, mdp.initial_dist)
    delta_lower = j_perp_out - j_perp_hat
    eps_lower = j_hat - j_perp_hat
    held = j_perp_out <= j_out + 1e-9
    k = mdp.r_max / (1.0 - mdp.discount) if mdp.discount < 1.0 else float("inf")
    slack = j_out - (j_beh + delta_lower - eps_lower - eps_beta)
    return BoundReport(J_behavior=j_beh, J_behavior_hat=j_hat, J_output=j_out,
                       K=k, eps_beta=eps_beta, delta_lower=delta_lower,
                       eps_lower=eps_lower, lower_bound_precondition_held=held,
                       theorem3_slack=slack)


def run_counterexample_audit(reward_perturbation: float = 0.0, tol: float = 1e-9) -> dict:
    """Reproduce the collapsed-representation failure: the four exact values,
    the greedy collapsed-model policy, and its zero true-environment value.
    reward_perturbation is a test hook that corrupts one dataset reward."""
    mdp, dataset, collapse = build_counterexample()
    if reward_perturbation != 0.0:
        rewards = dataset.rewards.copy()
        rewards[3] += reward_perturbation
        dataset = replace(dataset, rewards=rewards)
        mdp.reward[1, 0] += reward_perturbation

    def check(name, got, want):
        if abs(got - want) > tol:
            raise AuditFailureError(f"{name}: got {got!r}, expected {want!r}")
        return got

    pi_hat, _, _ = estimate_behavior_tabular(dataset, mdp.n_states, mdp.n_actions)
    _, j_hat = evaluate_policy_exact(mdp, pi_hat)
    report = {"J_behavior_hat": check("J(pi_behavior_hat)", j_hat, 0.25)}

    j_a0 = evaluate_on_empirical_collapsed_model(dataset, collapse, np.array([1.0, 0.0]))
    j_a1 = evaluate_on_empirical_collapsed_model(dataset, collapse, np.array([0.0, 1.0]))
    j_mix = evaluate_on_empirical_collapsed_model(dataset, collapse, np.array([0.5, 0.5]))
    report["J_collapsed_a0"] = check("J_collapsed(a0)", j_a0, 1.0 / 3.0)
    report["J_collapsed_a1"] = check("J_collapsed(a1)", j_a1, 0.0)
    report["J_collapsed_mix"] = check("J_collapsed(0.5)", j_mix, 0.25)

    # greedy optimization over deterministic collapsed policies
    greedy_action = int(np.argmax([j_a0, j_a1]))
    if greedy_action != 0:
        raise AuditFailureError(f"greedy collapsed policy picked a{greedy_action}, expected a0")
    report["greedy_collapsed_action"] = greedy_action

    greedy_true = TabularPolicy.deterministic(np.zeros(mdp.n_states, dtype=int), mdp.n_actions)
    _, j_greedy_true = evaluate_policy_exact(mdp, greedy_true)
    report["J_true_of_greedy"] = check("J_true(greedy a0)", j_greedy_true, 0.0)
    report["behavior_beats_greedy"] = bool(j_hat > j_greedy_true)
    if not report["behavior_beats_greedy"]:
        raise AuditFailureError("expected J(pi_behavior_hat) > J_true(greedy)")
    report["passed"] = True
    return report


def iqm(values) -> float:
    """Interquartile mean: drop the lowest and highest quarter of runs."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    k = len(v) // 4
    return float(v[k: len(v) - k].mean())
