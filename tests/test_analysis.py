import dataclasses
import json

import numpy as np
import pytest

from bprlab import agents, analysis, bpr, envs, numerics
from bprlab.errors import AuditFailureError, RejectedInputError, UnsupportedDiscountError


def svd_oracle_count(psi, epsilon):
    """Independent count via singular values: sigma_i(Psi^T Psi / n) = s_i^2 / n."""
    s = np.linalg.svd(psi, compute_uv=False)
    return int(np.sum(s * s / psi.shape[0] > epsilon))


class TestEffectiveDimension:
    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 257))
            d = int(rng.integers(1, 17))
            psi = rng.normal(size=(n, d)) * rng.uniform(0.01, 3.0)
            rep = analysis.effective_dimension(psi)
            assert rep.count == svd_oracle_count(psi, 0.01)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=(64, 8))
        qmat, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = analysis.effective_dimension(psi).count
        b = analysis.effective_dimension(psi @ qmat).count
        assert a == b

    def test_rank_one_features(self):
        u = np.ones((100, 1)) @ np.array([[3.0, 1.0, -2.0]])
        rep = analysis.effective_dimension(u)
        assert rep.count == 1

    def test_zero_features(self):
        rep = analysis.effective_dimension(np.zeros((10, 4)))
        assert rep.count == 0

    def test_epsilon_thresholding(self):
        psi = np.diag([10.0, 0.5, 0.01]) @ np.ones((3, 3))
        # scale rows so eigenvalues straddle the default epsilon
        rng = np.random.default_rng(2)
        psi = rng.normal(size=(50, 5))
        big = analysis.effective_dimension(psi, epsilon=1e-6).count
        small = analysis.effective_dimension(psi, epsilon=1e6).count
        assert big == 5 and small == 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(RejectedInputError):
            analysis.effective_dimension(np.zeros((0, 3)))
        with pytest.raises(RejectedInputError):
            analysis.effective_dimension(np.zeros((3, 3)), epsilon=0.0)
        with pytest.raises(RejectedInputError):
            analysis.effective_dimension(np.full((2, 2), np.nan))

    def test_trace_conversion(self):
        rng = np.random.default_rng(3)
        snaps = [(0, rng.normal(size=(20, 4))), (10, np.zeros((20, 4)))]
        out = analysis.effective_dimension_trace(snaps)
        assert out[0][0] == 0 and out[1] == (10, 0)

    def test_probe_batch_fixed(self):
        env = envs.PointMassEnv()
        ds = envs.generate_dataset(env, envs.pointmass_behavior("random", env), 100, 0)
        a = analysis.make_probe_batch(ds, 16, seed=4)
        b = analysis.make_probe_batch(ds, 16, seed=4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestTvdBound:
    def test_sound_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mdp = envs.random_mdp(int(rng.integers(2, 7)), int(rng.integers(2, 5)), rng,
                                  discount=float(rng.uniform(0.3, 0.95)))
            pa = envs.TabularPolicy(rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states))
            pb = envs.TabularPolicy(rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states))
            bound, gap = analysis.tvd_suboptimality_bound(mdp, pa, pb)
            assert bound >= gap - 1e-9

    def test_identical_policies_zero(self):
        rng = np.random.default_rng(1)
        mdp = envs.random_mdp(4, 3, rng)
        pol = envs.TabularPolicy(rng.dirichlet(np.ones(3), size=4))
        bound, gap = analysis.tvd_suboptimality_bound(mdp, pol, pol)
        assert bound == 0.0 and gap < 1e-12

    def test_gamma_one_rejected(self):
        mdp, _, _ = envs.build_counterexample()
        pol = envs.TabularPolicy.uniform(3, 2)
        with pytest.raises(UnsupportedDiscountError):
            analysis.tvd_suboptimality_bound(mdp, pol, pol)

    def test_single_state_closed_form(self):
        # one state, two actions, rewards differing by 2*r_max: the exact gap
        # equals 2 r_max t / (1 - gamma); the bound carries 1 / (1 - gamma)^2
        t = np.ones((1, 2, 1))
        r = np.array([[1.0, -1.0]])
        mdp = envs.TabularMDP(1, 2, t, r, np.array([1.0]), 0.9, 1.0,
                              np.zeros(1, dtype=bool))
        mix = 0.3
        pa = envs.TabularPolicy(np.array([[1.0, 0.0]]))
        pb = envs.TabularPolicy(np.array([[1.0 - mix, mix]]))
        bound, gap = analysis.tvd_suboptimality_bound(mdp, pa, pb)
        assert abs(gap - 2.0 * mix / 0.1) < 1e-9
        assert abs(bound - 2.0 * mix / 0.01) < 1e-9


class TestTheoremReports:
    def setup_method(self):
        self.mdp = envs.make_gridworld()
        _, _, greedy = envs.value_iteration(self.mdp)
        self.behavior = envs.epsilon_greedy_policy(greedy, 0.3)
        self.ds = envs.generate_tabular_dataset(self.mdp, self.behavior, 3000, seed=0)

    def test_theorem2_slack_nonnegative(self):
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95, n_wedge=10.0)
        res = agents.train_spibb_tabular(self.ds, 25, 4, cfg)
        rep = analysis.verify_theorem2(self.mdp, self.ds, res, self.behavior)
        assert rep.theorem2_slack >= -1e-9
        assert rep.eps_delta >= 0.0
        # realized-term decomposition is exact
        lhs = rep.J_output
        rhs = rep.J_behavior + rep.delta_hat - rep.eps_delta - rep.eps_beta
        assert abs((lhs - rhs) - rep.theorem2_slack) < 1e-12

    @pytest.mark.parametrize("n_wedge", [0.0, 10.0, np.inf])
    def test_theorem2_slack_identity(self, n_wedge):
        # the slack restates J_output - J_behavior_hat - delta_hat, clipped at 0
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95, n_wedge=n_wedge)
        res = agents.train_spibb_tabular(self.ds, 25, 4, cfg)
        rep = analysis.verify_theorem2(self.mdp, self.ds, res, self.behavior)
        identity = max(0.0, rep.J_output - rep.J_behavior_hat - rep.delta_hat)
        assert abs(rep.theorem2_slack - identity) < 1e-12

    def test_theorem3_slack_identity(self):
        cfg = agents.AgentConfig(algorithm="cql", gamma=0.95, gradient_steps=1500,
                                 learning_rate=1e-2, cql_alpha=1.0)
        res = agents.train_cql(self.ds, cfg, tabular_shape=(25, 4))
        rep = analysis.verify_theorem3(self.mdp, self.ds, res, self.behavior)
        j_perp_out = res.j_perp(rep_policy_probs := res.policy.probs, self.mdp.initial_dist)
        assert abs(rep.theorem3_slack - (rep.J_output - j_perp_out)) < 1e-9
        if rep.lower_bound_precondition_held:
            assert rep.theorem3_slack >= -1e-9

    def test_symbolic_terms_present(self):
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95, n_wedge=10.0)
        res = agents.train_spibb_tabular(self.ds, 25, 4, cfg)
        rep = analysis.verify_theorem2(self.mdp, self.ds, res, self.behavior)
        assert "C" in rep.symbolic_terms and "Rad(Phi)" in rep.symbolic_terms
        # a --probe-bounds summary holds the report, so every field is strict JSON
        json.dumps(dataclasses.asdict(rep), allow_nan=False)


class TestEpsBeta:
    def test_tabular_zero_when_rows_match(self):
        _, ds, _ = envs.build_counterexample()
        true_pol = envs.TabularPolicy(np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]))
        val = analysis.eps_beta_empirical_tabular(ds, true_pol, true_pol.probs)
        assert val == 0.0

    def test_tabular_known_distance(self):
        _, ds, _ = envs.build_counterexample()
        true_pol = envs.TabularPolicy(np.full((3, 2), 0.5))
        predicted = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        # 4 of 6 transitions sit at s0 where the row error is ||(0.5,-0.5)||
        want = (4.0 / 6.0) * np.sqrt(0.5)
        val = analysis.eps_beta_empirical_tabular(ds, true_pol, predicted)
        assert abs(val - want) < 1e-12

    def test_continuous_matches_direct_computation(self):
        env = envs.PointMassEnv()
        ds = envs.generate_dataset(env, envs.pointmass_behavior("expert", env), 200, 0)
        rng = np.random.default_rng(0)
        enc = bpr.build_encoder(4, 6, (8,), rng)
        pred = bpr.build_action_net(6, 2, (8,), rng)
        val = analysis.eps_beta_empirical_continuous(ds, enc, pred)
        s, a, _, _, _ = ds.arrays()
        y, _ = numerics.forward(pred, enc.encode(s))
        want = float(np.mean(np.linalg.norm(y - a, axis=1)))
        assert abs(val - want) < 1e-12


class TestCounterexampleAudit:
    def test_passes_clean(self):
        report = analysis.run_counterexample_audit()
        assert report["passed"]
        assert report["greedy_collapsed_action"] == 0
        assert abs(report["J_collapsed_a0"] - 1.0 / 3.0) < 1e-9
        assert report["J_true_of_greedy"] == 0.0

    def test_perturbation_trips_audit(self):
        with pytest.raises(AuditFailureError):
            analysis.run_counterexample_audit(reward_perturbation=0.5)

    def test_failure_names_quantity(self):
        with pytest.raises(AuditFailureError, match=r"J\("):
            analysis.run_counterexample_audit(reward_perturbation=-0.25)


class TestIqm:
    def test_drops_extremes(self):
        assert analysis.iqm([100.0, 1.0, 2.0, -50.0]) == 1.5

    def test_short_input_is_plain_mean(self):
        assert analysis.iqm([3.0]) == 3.0
        assert analysis.iqm([1.0, 3.0]) == 2.0
