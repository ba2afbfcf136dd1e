import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bprlab import agents, bpr, envs, numerics
from bprlab.errors import ContractViolationError, RejectedInputError, TrainingDivergenceError


def pm_dataset(n=600, seed=0, behavior="expert"):
    env = envs.PointMassEnv()
    return envs.generate_dataset(env, envs.pointmass_behavior(behavior, env), n, seed)


def fd_check_params(loss_fn, net, rel_tol=1e-5, n_coords=12, seed=0, h=1e-6):
    """loss_fn(model) -> (loss, gradient in model.flat order)."""
    rng = np.random.default_rng(seed)
    _, analytic = loss_fn(net)
    flat = net.flat_parameters()
    idx = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
    for i in idx:
        def at(v):
            f = flat.copy()
            f[i] = v
            m = net.copy()
            m.set_flat_parameters(f)
            return loss_fn(m)[0]
        fd = (at(flat[i] + h) - at(flat[i] - h)) / (2 * h)
        denom = max(abs(fd), abs(analytic[i]), 1e-6)
        assert abs(fd - analytic[i]) / denom < rel_tol, f"coord {i}: {fd} vs {analytic[i]}"


class TestLossGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.x = self.rng.normal(size=(8, 3))
        self.a = np.clip(self.rng.normal(size=(8, 2)), -0.9, 0.9)

    def _policy(self):
        return bpr.build_action_net(3, 2, (6,), self.rng)

    def test_bc_gradients(self):
        pol = self._policy()
        fd_check_params(lambda m: agents.bc_loss_and_grads(m, self.x, self.a), pol)

    def test_td3bc_actor_gradients(self):
        pol = self._policy()
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        fd_check_params(
            lambda m: agents.td3bc_actor_loss_and_grads(m, q, self.x, self.a, lam=1.7), pol)

    def test_cql_actor_gradients(self):
        pol = self._policy()
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        fd_check_params(lambda m: agents.cql_actor_loss_and_grads(m, q, self.x), pol,
                        rel_tol=1e-4)

    def test_critic_td_gradients(self):
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        target = self.rng.normal(size=8)
        fd_check_params(lambda m: agents.critic_td_loss_and_grads(m, self.x, self.a, target), q,
                        rel_tol=1e-4)

    def test_cql_critic_gradients(self):
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        target = self.rng.normal(size=8)
        cand = self.rng.uniform(-1, 1, size=(8, 4, 2))
        fd_check_params(
            lambda m: agents.cql_critic_loss_and_grads(m, self.x, self.a, target, cand, alpha=0.8),
            q, rel_tol=1e-4)

    def test_cql_critic_alpha_zero_equals_td(self):
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        target = self.rng.normal(size=8)
        cand = self.rng.uniform(-1, 1, size=(8, 4, 2))
        l1, g1 = agents.critic_td_loss_and_grads(q, self.x, self.a, target)
        l2, g2 = agents.cql_critic_loss_and_grads(q, self.x, self.a, target, cand, alpha=0.0)
        assert abs(l1 - l2) < 1e-12
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_td3bc_lambda_zero_equals_bc(self):
        pol = self._policy()
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        l_bc, g_bc = agents.bc_loss_and_grads(pol, self.x, self.a)
        l_td, g_td = agents.td3bc_actor_loss_and_grads(pol, q, self.x, self.a, lam=0.0)
        assert abs(l_bc - l_td) < 1e-10
        np.testing.assert_allclose(g_bc, g_td, atol=1e-10)

    def test_td3bc_lambda_from_the_actor_forward_equals_the_two_forward_lambda(self):
        pol = self._policy()
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        # the trainer's former lambda: a separate policy and Q1 forward pass
        qv = agents.q_value(q, self.x, numerics.forward(pol, self.x)[0])
        lam = 2.5 / max(np.mean(np.abs(qv)), 1e-8)
        l_own, g_own = agents.td3bc_actor_loss_and_grads(pol, q, self.x, self.a)
        l_fix, g_fix = agents.td3bc_actor_loss_and_grads(pol, q, self.x, self.a, lam=lam)
        assert np.float64(l_own).tobytes() == np.float64(l_fix).tobytes()
        assert g_own.tobytes() == g_fix.tobytes()
        # one ulp of lambda shows in the gradient
        _, g_ulp = agents.td3bc_actor_loss_and_grads(
            pol, q, self.x, self.a, lam=np.nextafter(lam, np.inf))
        assert g_own.tobytes() != g_ulp.tobytes()

    def test_cql_actor_reuses_a_given_policy_forward(self):
        pol = self._policy()
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        l1, g1 = agents.cql_actor_loss_and_grads(pol, q, self.x)
        l2, g2 = agents.cql_actor_loss_and_grads(pol, q, self.x,
                                                 numerics.forward(pol, self.x))
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_cql_penalty_pushes_down_candidates(self):
        # minimizing the penalty raises Q at the data action, lowers elsewhere
        q = agents.build_critic(3, 2, (6,), self.rng, "relu")
        cand = self.rng.uniform(-1, 1, size=(8, 6, 2))
        target = agents.q_value(q, self.x, self.a)  # zero TD term
        adam = numerics.AdamState.for_params(q.flat, learning_rate=1e-2)
        before_data = agents.q_value(q, self.x, self.a).mean()
        before_cand = agents.q_value(q, np.repeat(self.x, 6, axis=0), cand.reshape(-1, 2)).mean()
        for _ in range(200):
            _, grad = agents.cql_critic_loss_and_grads(q, self.x, self.a, target, cand, alpha=1.0)
            numerics.adam_step(adam, q.flat, grad)
        after_data = agents.q_value(q, self.x, self.a).mean()
        after_cand = agents.q_value(q, np.repeat(self.x, 6, axis=0), cand.reshape(-1, 2)).mean()
        assert (after_data - after_cand) > (before_data - before_cand) + 0.1


def test_soft_update_is_bitwise_the_out_of_place_formula():
    rng = np.random.default_rng(0)
    target, source = rng.normal(size=300), rng.normal(size=300)
    for tau in (0.005, 0.3, 1.0):
        expected = (1.0 - tau) * target + tau * source
        agents._soft_update(target, source, tau)
        assert target.tobytes() == expected.tobytes()


class TestFeatures:
    def test_reconstructs_q_value(self):
        rng = np.random.default_rng(0)
        q = agents.build_critic(4, 2, (8, 8), rng, "relu")
        x = rng.normal(size=(16, 4))
        a = rng.normal(size=(16, 2))
        psi = agents.extract_features(q, x, a)
        last = q.layers[-1]
        recon = psi @ last.weight.T + last.bias
        np.testing.assert_allclose(recon[:, 0], agents.q_value(q, x, a), atol=1e-12)

    def test_feature_dim(self):
        rng = np.random.default_rng(1)
        q = agents.build_critic(4, 2, (8, 5), rng, "relu")
        assert agents.extract_features(q, np.zeros((3, 4)), np.zeros((3, 2))).shape[1] == 5

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(2)
        q = agents.build_critic(2, 1, (4,), rng, "relu")
        with pytest.raises(RejectedInputError):
            agents.extract_features(q, np.zeros((0, 2)), np.zeros((0, 1)))


class TestEvaluation:
    def test_same_seed_same_returns(self):
        env = envs.PointMassEnv()
        fn = lambda s: np.array([0.1, -0.1])
        m1, s1, r1 = agents.evaluate_return(fn, env, 5, seed=3)
        m2, s2, r2 = agents.evaluate_return(fn, env, 5, seed=3)
        assert m1 == m2 and s1 == s2
        np.testing.assert_array_equal(r1, r2)

    def test_different_seed_differs(self):
        env = envs.PointMassEnv()
        fn = lambda s: np.array([0.1, -0.1])
        m1 = agents.evaluate_return(fn, env, 5, seed=3)[0]
        m2 = agents.evaluate_return(fn, env, 5, seed=4)[0]
        assert m1 != m2

    def test_non_finite_return_is_a_divergence(self):
        # the clip passes a NaN action on to the state and the reward
        fn = lambda s: np.array([np.nan, 0.0])
        with pytest.raises(TrainingDivergenceError, match="return in evaluation episode 0"):
            agents.evaluate_return(fn, envs.PointMassEnv(), 2, seed=0)


class TestBehaviorCloning:
    def test_fits_expert(self):
        ds = pm_dataset(800)
        cfg = agents.AgentConfig(algorithm="bc", gradient_steps=600, batch_size=128,
                                 hidden=(32,), learning_rate=1e-3, eval_every=100,
                                 eval_episodes=2)
        res = agents.train_bc(ds, cfg, env=envs.PointMassEnv())
        s, a, _, _, _ = ds.arrays()
        pred = numerics.forward(res.policy, s[:200])[0]
        mse = float(np.mean(np.sum((pred - a[:200]) ** 2, axis=1)))
        assert mse < 0.05
        # one eval row after every 100 done steps, as the other trainers write
        assert [t["step"] for t in res.trace] == [100, 200, 300, 400, 500, 600]
        for t in res.trace:
            assert t["critic_loss"] is None and np.isfinite(t["actor_loss"])
            assert np.isfinite(t["eval_return_mean"]) and t["eval_return_std"] >= 0.0
        # without an env there is nothing to evaluate, so no rows
        assert agents.train_bc(ds, cfg).trace == []

    def test_with_frozen_encoder(self):
        ds = pm_dataset(300)
        enc, _, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(
            steps=100, batch_size=64, repr_dim=8, encoder_hidden=(16,), predictor_hidden=(16,)))
        cfg = agents.AgentConfig(algorithm="bc", use_encoder=True, gradient_steps=50,
                                 batch_size=64, hidden=(16,))
        res = agents.train_bc(ds, cfg, enc)
        assert res.policy.input_dim == 8

    def test_encoder_missing_or_probe_without_critic_rejected(self):
        ds = pm_dataset(100)
        with pytest.raises(RejectedInputError, match="requires an encoder"):
            agents.train_bc(ds, agents.AgentConfig(algorithm="bc", use_encoder=True,
                                                   gradient_steps=1))
        from bprlab.analysis import make_probe_batch
        with pytest.raises(RejectedInputError, match="no critic"):
            agents.train_bc(ds, agents.AgentConfig(algorithm="bc", gradient_steps=1),
                            probe_batch=make_probe_batch(ds, 8), probe_every=1)

    def test_frozen_encoder_that_changes_is_caught(self, monkeypatch):
        ds = pm_dataset(100)
        enc, _, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(
            steps=1, batch_size=16, repr_dim=4, encoder_hidden=(8,), predictor_hidden=(8,)))
        hashes = iter(["before", "after"])
        monkeypatch.setattr(enc, "param_hash", lambda: next(hashes))
        cfg = agents.AgentConfig(algorithm="bc", use_encoder=True, gradient_steps=2,
                                 batch_size=8, hidden=(8,))
        with pytest.raises(ContractViolationError, match="frozen encoder"):
            agents.train_bc(ds, cfg, enc)


class TestTd3bc:
    def test_frozen_encoder_unchanged(self):
        ds = pm_dataset(400)
        enc, _, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(
            steps=50, batch_size=64, repr_dim=8, encoder_hidden=(16,), predictor_hidden=(16,)))
        before = enc.param_hash()
        cfg = agents.AgentConfig(algorithm="td3bc", use_encoder=True, gradient_steps=60,
                                 batch_size=64, hidden=(16,))
        agents.train_td3bc(ds, cfg, enc)
        assert enc.param_hash() == before

    def test_co_training_changes_encoder(self):
        ds = pm_dataset(400)
        cfg = agents.AgentConfig(algorithm="td3bc", use_encoder=True, co_train_encoder=True,
                                 gradient_steps=40, batch_size=64, hidden=(16,), repr_dim=8)
        res = agents.train_td3bc(ds, cfg, None, None)
        assert res.encoder is not None and not res.encoder.frozen
        fresh = bpr.build_encoder(4, 8, (16,), np.random.default_rng(cfg.seed))
        assert res.encoder.param_hash() != fresh.param_hash()

    def test_co_training_frozen_encoder_rejected(self):
        ds = pm_dataset(100)
        enc, _, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(
            steps=1, batch_size=16, repr_dim=4, encoder_hidden=(8,), predictor_hidden=(8,)))
        cfg = agents.AgentConfig(algorithm="td3bc", use_encoder=True, co_train_encoder=True,
                                 gradient_steps=5, batch_size=16, hidden=(8,), repr_dim=4)
        with pytest.raises(ContractViolationError):
            agents.train_td3bc(ds, cfg, enc)

    def test_deterministic(self):
        ds = pm_dataset(300)
        cfg = agents.AgentConfig(algorithm="td3bc", gradient_steps=30, batch_size=32, hidden=(8,))
        r1 = agents.train_td3bc(ds, cfg)
        r2 = agents.train_td3bc(ds, cfg)
        np.testing.assert_array_equal(r1.policy.flat_parameters(), r2.policy.flat_parameters())

    def test_probe_snapshots(self):
        ds = pm_dataset(300)
        cfg = agents.AgentConfig(algorithm="td3bc", gradient_steps=40, batch_size=32, hidden=(8,))
        from bprlab.analysis import make_probe_batch
        pb = make_probe_batch(ds, 32)
        res = agents.train_td3bc(ds, cfg, probe_batch=pb, probe_every=20)
        assert [s for s, _ in res.psi_trace] == [0, 20, 40]
        assert res.psi_trace[0][1].shape == (32, 8)

    def test_non_finite_probe_features_are_a_divergence(self, monkeypatch):
        ds = pm_dataset(300)
        cfg = agents.AgentConfig(algorithm="td3bc", gradient_steps=2, batch_size=32, hidden=(8,))
        monkeypatch.setattr(agents, "extract_features",
                            lambda q, x, a: np.full((len(x), 8), np.nan))
        from bprlab.analysis import make_probe_batch
        with pytest.raises(TrainingDivergenceError, match="critic features at step 0"):
            agents.train_td3bc(ds, cfg, probe_batch=make_probe_batch(ds, 8), probe_every=1)


@pytest.fixture(scope="module")
def mixture_20k():
    """The 20 000-row medium-expert point-mass mixture of criteria 7 and 8."""
    env = envs.PointMassEnv()
    mix = [(0.5, envs.pointmass_behavior("expert", env)),
           (0.5, envs.pointmass_behavior("medium", env))]
    return envs.generate_dataset(env, mix, 20_000, 0, behavior_tag="pointmass:medium-expert")


class TestStateTable:
    """Frozen TD3+BC and continuous CQL encode one table of the states and the
    next states that do not repeat the following row's state."""

    ENCODER_SHAPES = [((64,), 32), ((64,), 16), ((256, 256), 64)]

    def _check(self, states, next_states, encoder):
        table, x2_rows = agents._state_table(states, next_states)
        assert table[x2_rows].tobytes() == next_states.tobytes()
        x_table = encoder.encode(table)
        assert x_table[: len(states)].tobytes() == encoder.encode(states).tobytes()
        assert x_table[x2_rows].tobytes() == encoder.encode(next_states).tobytes()
        return table

    @pytest.mark.parametrize("hidden, repr_dim", ENCODER_SHAPES)
    def test_encoded_table_has_the_bytes_of_encoding_each_array(self, mixture_20k,
                                                                hidden, repr_dim):
        # the table relies on a row's encoding not depending on the other rows
        # of a multi-row matmul; a one-row forward may round differently, and
        # no table row comes from one
        s, _, _, s2, d = mixture_20k.arrays()
        enc = bpr.build_encoder(4, repr_dim, hidden, np.random.default_rng(0)).freeze()
        table = self._check(s, s2, enc)
        # one fresh next state per episode end: the log holds whole episodes
        assert len(table) == len(s) + np.count_nonzero(d) + (not d[-1])
        perm = np.random.default_rng(1).permutation(len(s))
        self._check(s[perm], s2[perm], enc)  # shuffled: nearly every next state is fresh
        for rows in (slice(0, 256), slice(0, 3), slice(500, 757)):
            self._check(s[rows], s2[rows], enc)

    def test_signed_zeros_and_episode_ends_are_fresh_rows(self):
        enc = bpr.build_encoder(2, 8, (16,), np.random.default_rng(2)).freeze()
        states = np.array([[0.0, 1.0], [0.0, 2.0], [-0.0, 3.0], [5.0, 5.0], [6.0, 6.0]])
        next_states = np.array([[0.0, 2.0], [0.0, 3.0], [5.0, 5.0], [9.0, 9.0], [7.0, 7.0]])
        # row 1's next state is row 2's state up to the sign of zero; row 3 ends
        # an episode; the last next state has no following row
        table = self._check(states, next_states, enc)
        np.testing.assert_array_equal(table[5:], next_states[[1, 3, 4]])
        assert np.signbit(table[5, 0]) == np.signbit(next_states[1, 0])
        _, x2_rows = agents._state_table(states, next_states)
        assert x2_rows.tolist() == [1, 5, 3, 6, 7]

    def test_raw_states_are_read_through_an_identity_index(self, mixture_20k):
        s, _, _, s2, _ = mixture_20k.arrays()
        cfg = agents.AgentConfig(algorithm="td3bc")
        _, x, x2, x2_rows = agents._encoder_inputs(cfg, None, 4, None, s, s2)
        assert x is s and x2 is s2
        np.testing.assert_array_equal(x2_rows, np.arange(len(s)))

    @pytest.mark.parametrize("algorithm, train, bound", [
        ("td3bc", agents.train_td3bc, 2.0), ("cql", agents.train_cql_continuous, 3.0)])
    def test_frozen_training_holds_one_encoded_copy(self, mixture_20k, algorithm, train,
                                                    bound):
        # a second encoded (n, repr_dim) array would add 1.0 to the ratio
        enc = bpr.build_encoder(4, 32, (64,), np.random.default_rng(0)).freeze()
        cfg = agents.AgentConfig(algorithm=algorithm, use_encoder=True, gradient_steps=2)
        tracemalloc.start()
        try:
            train(mixture_20k, cfg, enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * mixture_20k.n * enc.repr_dim * 8


class TestTabularCql:
    def make_chain(self):
        # 3-state deterministic chain: a1 advances (reward on reaching goal),
        # a0 stays; gamma 0.9
        t = np.zeros((3, 2, 3))
        t[0, 0, 0] = 1.0
        t[0, 1, 1] = 1.0
        t[1, 0, 1] = 1.0
        t[1, 1, 2] = 1.0
        t[2, :, 2] = 1.0
        r = np.zeros((3, 2))
        r[1, 1] = 1.0
        rho = np.array([1.0, 0.0, 0.0])
        terminal = np.array([False, False, True])
        return envs.TabularMDP(3, 2, t, r, rho, 0.9, 1.0, terminal)

    def test_alpha_zero_matches_exact_dp(self):
        mdp = self.make_chain()
        ds = envs.generate_tabular_dataset(mdp, envs.TabularPolicy.uniform(3, 2), 2000, seed=0)
        cfg = agents.AgentConfig(algorithm="cql", gamma=0.9, cql_alpha=0.0,
                                 gradient_steps=4000, learning_rate=2e-2, cql_target_every=50)
        res = agents.train_cql(ds, cfg, tabular_shape=(3, 2))
        _, q_star, _ = envs.value_iteration(mdp)
        np.testing.assert_allclose(res.q[:2], q_star[:2], atol=0.05)

    def test_alpha_positive_is_pessimistic_on_rare_actions(self):
        mdp = self.make_chain()
        beh = envs.TabularPolicy(np.array([[0.95, 0.05], [0.95, 0.05], [0.5, 0.5]]))
        ds = envs.generate_tabular_dataset(mdp, beh, 2000, seed=0)
        cfg0 = agents.AgentConfig(algorithm="cql", gamma=0.9, cql_alpha=0.0,
                                  gradient_steps=3000, learning_rate=2e-2)
        cfg1 = agents.AgentConfig(algorithm="cql", gamma=0.9, cql_alpha=2.0,
                                  gradient_steps=3000, learning_rate=2e-2)
        q0 = agents.train_cql(ds, cfg0, tabular_shape=(3, 2)).q
        q1 = agents.train_cql(ds, cfg1, tabular_shape=(3, 2)).q
        # the rarely-taken advancing action is pushed down hardest
        assert q1[0, 1] < q0[0, 1] - 0.05

    def test_j_perp_formula(self):
        res = agents.TabularCQLResult(np.array([[1.0, 3.0], [0.0, 2.0]]),
                                      envs.TabularPolicy.uniform(2, 2), [])
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        rho = np.array([0.25, 0.75])
        assert res.j_perp(probs, rho) == 0.25 * 2.0 + 0.75 * 0.0

    def test_greedy_policy_recovers_optimum(self):
        mdp = self.make_chain()
        ds = envs.generate_tabular_dataset(mdp, envs.TabularPolicy.uniform(3, 2), 2000, seed=1)
        cfg = agents.AgentConfig(algorithm="cql", gamma=0.9, cql_alpha=0.5,
                                 gradient_steps=4000, learning_rate=2e-2)
        res = agents.train_cql(ds, cfg, tabular_shape=(3, 2))
        assert res.policy.probs[0, 1] == 1.0 and res.policy.probs[1, 1] == 1.0

    def test_j_perp_lower_bounds_true_value(self):
        # conservative values of the returned greedy policy never exceed its
        # exact value by more than the fitting-error allowance
        mdp = envs.make_gridworld()
        _, _, greedy = envs.value_iteration(mdp)
        behavior = envs.epsilon_greedy_policy(greedy, 0.3)
        for seed in range(5):
            ds = envs.generate_tabular_dataset(mdp, behavior, 2000, seed=seed)
            cfg = agents.AgentConfig(algorithm="cql", gamma=mdp.discount, cql_alpha=1.0,
                                     gradient_steps=4000, learning_rate=1e-2, seed=seed)
            res = agents.train_cql(ds, cfg, tabular_shape=(25, 4))
            j_perp = res.j_perp(res.policy.probs, mdp.initial_dist)
            _, j_exact = envs.evaluate_policy_exact(mdp, res.policy)
            assert j_perp <= j_exact + 0.1


def reference_cql_tabular(dataset, n_states, n_actions, config, nudge_targets=False):
    """The per-sample tabular CQL loop that train_cql_tabular must reproduce
    bit for bit. nudge_targets moves every TD target up by one ulp."""
    s, a, r, s2, d = envs.tabular_indices(dataset)
    rng = np.random.default_rng(config.seed)
    temp = agents.CQL_TEMP
    q = np.zeros((n_states, n_actions))
    q_t = q.copy()
    adam = numerics.AdamState.for_params(q, config.learning_rate)
    trace = []
    for step in range(config.gradient_steps):
        idx = rng.integers(0, len(s), size=min(config.batch_size, len(s)))
        si, ai, ri, s2i, di = s[idx], a[idx], r[idx], s2[idx], d[idx]
        if config.cql_alpha > 0.0:
            rows_t = q_t[s2i] / temp
            w = np.exp(rows_t - rows_t.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            next_v = np.sum(w * q_t[s2i], axis=1)
        else:
            next_v = q_t[s2i].max(axis=1)
        target = ri + config.gamma * (1.0 - di.astype(np.float64)) * next_v
        if nudge_targets:
            target = np.nextafter(target, np.inf)
        td = q[si, ai] - target
        loss = float(np.mean(td * td))
        grad = np.zeros_like(q)
        np.add.at(grad, (si, ai), 2.0 * td / len(idx))
        if config.cql_alpha > 0.0:
            rows = q[si] / temp
            mx = rows.max(axis=1, keepdims=True)
            lse = temp * (mx[:, 0] + np.log(np.sum(np.exp(rows - mx), axis=1)))
            soft = np.exp(rows - lse[:, None] / temp)
            loss += float(config.cql_alpha * np.mean(lse - q[si, ai]))
            np.add.at(grad, (si,), config.cql_alpha * soft / len(idx))
            np.add.at(grad, (si, ai), -config.cql_alpha / len(idx))
        numerics.adam_step(adam, q, grad)
        if (step + 1) % config.cql_target_every == 0:
            q_t = q.copy()
        if config.eval_every and (step + 1) % config.eval_every == 0:
            trace.append({"step": step + 1, "critic_loss": loss})
    return q, trace


class TestTabularCqlMatchesPerSampleLoop:
    """Per-window targets, per-state penalty and one bincount reorder no sum."""

    @staticmethod
    @functools.cache
    def gridworld_data():
        mdp = envs.make_gridworld()
        _, _, greedy = envs.value_iteration(mdp)
        ds = envs.generate_tabular_dataset(mdp, envs.epsilon_greedy_policy(greedy, 0.3), 2000, seed=3)
        return ds, (25, 4)

    @staticmethod
    @functools.cache
    def counterexample_data():
        _, ds, _ = envs.build_counterexample()
        return ds, (3, 2)

    @pytest.mark.parametrize("data", ["gridworld_data", "counterexample_data"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("target_every, steps", [(7, 60), (1000, 40), (100, 1)])
    def test_bitwise_equal(self, data, alpha, target_every, steps):
        ds, shape = getattr(self, data)()
        cfg = agents.AgentConfig(algorithm="cql", gamma=0.95, cql_alpha=alpha, batch_size=256,
                                 cql_target_every=target_every, gradient_steps=steps,
                                 learning_rate=1e-2, eval_every=3, seed=5)
        res = agents.train_cql_tabular(ds, *shape, cfg)
        q_ref, trace_ref = reference_cql_tabular(ds, *shape, cfg)
        assert res.q.tobytes() == q_ref.tobytes()
        greedy = envs.TabularPolicy.deterministic(q_ref.argmax(axis=1), shape[1])
        assert res.policy.probs.tobytes() == greedy.probs.tobytes()
        assert res.trace == trace_ref

    @settings(max_examples=60, deadline=None)
    @given(data=st.sampled_from(["gridworld_data", "counterexample_data"]),
           seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 300),
           alpha=st.sampled_from([0.0, 0.5, 1.0, 3.0]), target_every=st.integers(1, 50),
           steps=st.integers(1, 60), eval_every=st.integers(0, 61))
    def test_bitwise_equal_on_drawn_settings(self, data, seed, batch_size, alpha, target_every,
                                             steps, eval_every):
        ds, shape = getattr(self, data)()
        cfg = agents.AgentConfig(algorithm="cql", gamma=0.95, cql_alpha=alpha,
                                 batch_size=batch_size, cql_target_every=target_every,
                                 gradient_steps=steps, learning_rate=1e-2,
                                 eval_every=eval_every, seed=seed)
        res = agents.train_cql_tabular(ds, *shape, cfg)
        q_ref, trace_ref = reference_cql_tabular(ds, *shape, cfg)
        assert res.q.tobytes() == q_ref.tobytes()
        assert res.trace == trace_ref

    def test_one_ulp_in_the_targets_breaks_equality(self):
        ds, shape = self.gridworld_data()
        cfg = agents.AgentConfig(algorithm="cql", gamma=0.95, cql_alpha=1.0,
                                 cql_target_every=7, gradient_steps=30, learning_rate=1e-2)
        q_ref, _ = reference_cql_tabular(ds, *shape, cfg, nudge_targets=True)
        assert agents.train_cql_tabular(ds, *shape, cfg).q.tobytes() != q_ref.tobytes()

    def test_target_period_below_one_rejected(self):
        ds, shape = self.counterexample_data()
        with pytest.raises(RejectedInputError):
            cfg = agents.AgentConfig(algorithm="cql", cql_target_every=0)
            agents.train_cql_tabular(ds, *shape, cfg)


class TestSpibb:
    def setup_method(self):
        self.mdp = envs.make_gridworld()
        _, _, greedy = envs.value_iteration(self.mdp)
        self.behavior = envs.epsilon_greedy_policy(greedy, 0.4)
        self.ds = envs.generate_tabular_dataset(self.mdp, self.behavior, 4000, seed=0)

    def test_infinite_threshold_copies_behavior_estimate(self):
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95, n_wedge=np.inf)
        res = agents.train_spibb_tabular(self.ds, 25, 4, cfg)
        np.testing.assert_array_equal(res.policy.probs, res.behavior_estimate.probs)

    def test_zero_threshold_solves_empirical_mdp(self):
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95, n_wedge=0.0)
        res = agents.train_spibb_tabular(self.ds, 25, 4, cfg)
        _, _, greedy_hat = envs.value_iteration(res.empirical_mdp)
        _, j_greedy = envs.evaluate_policy_exact(res.empirical_mdp, greedy_hat)
        assert abs(res.j_hat_out - j_greedy) < 1e-8

    def test_estimated_improvement_nonnegative(self):
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95, n_wedge=10.0)
        res = agents.train_spibb_tabular(self.ds, 25, 4, cfg)
        assert res.j_hat_out >= res.j_hat_behavior - 1e-9

    def test_constrained_pairs_copy_behavior(self):
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95, n_wedge=10.0)
        res = agents.train_spibb_tabular(self.ds, 25, 4, cfg)
        low = res.counts < 10.0
        np.testing.assert_allclose(res.policy.probs[low],
                                   res.behavior_estimate.probs[low], atol=1e-12)


def reference_spibb_tabular(dataset, n_wedge, gamma):
    """The per-state SPIBB loop that train_spibb_tabular must reproduce byte
    for byte: each round evaluates the iterate padded with a uniform row for
    the empirical MDP's absorbing state, then improves one state at a time.
    Returns (policy, behavior estimate, counts, J_hat(out), J_hat(behavior))."""
    s, a, _, _, _ = envs.tabular_indices(dataset)
    n_states, n_actions = dataset.state_dim, dataset.action_dim
    counts = np.zeros((n_states, n_actions))
    np.add.at(counts, (s, a), 1.0)
    totals = counts.sum(axis=1)
    behavior = np.full((n_states, n_actions), 1.0 / n_actions)
    behavior[totals > 0] = counts[totals > 0] / totals[totals > 0, None]
    mdp_hat, _ = envs.empirical_mdp_from_dataset(dataset, gamma)

    def padded(probs):
        return envs.TabularPolicy(np.vstack([probs, np.full((1, n_actions), 1.0 / n_actions)]))

    probs = behavior.copy()
    for _ in range(agents.SPIBB_MAX_ITERS):
        v, _ = envs.evaluate_policy_exact(mdp_hat, padded(probs))
        q = (mdp_hat.reward + mdp_hat.discount * (mdp_hat.transition @ v))[:n_states]
        new = behavior.copy()
        for st in range(n_states):
            free = counts[st] >= n_wedge
            if not np.any(free):
                continue
            new[st, free] = 0.0
            free_idx = np.flatnonzero(free)
            new[st, free_idx[np.argmax(q[st, free_idx])]] = behavior[st, free].sum()
        if np.allclose(new, probs, atol=1e-12):
            break
        probs = new
    _, j_out = envs.evaluate_policy_exact(mdp_hat, padded(probs))
    _, j_beh = envs.evaluate_policy_exact(mdp_hat, padded(behavior))
    return probs, behavior, counts, j_out, j_beh


class TestSpibbMatchesPerStateLoop:
    """One vectorised improvement step per round reorders no sum."""

    @staticmethod
    @functools.cache
    def gridworld_greedy():
        mdp = envs.make_gridworld()
        return mdp, envs.value_iteration(mdp)[2]

    @staticmethod
    def assert_matches(ds, n_wedge, gamma):
        cfg = agents.AgentConfig(algorithm="spibb", gamma=gamma, n_wedge=n_wedge)
        res = agents.train_spibb_tabular(ds, ds.state_dim, ds.action_dim, cfg)
        probs, behavior, counts, j_out, j_beh = reference_spibb_tabular(ds, n_wedge, gamma)
        assert res.policy.probs.tobytes() == probs.tobytes()
        assert res.behavior_estimate.probs.tobytes() == behavior.tobytes()
        assert res.counts.tobytes() == counts.tobytes()
        assert (res.j_hat_out, res.j_hat_behavior) == (j_out, j_beh)

    @settings(max_examples=40, deadline=None)
    @given(epsilon=st.sampled_from([0.0, 0.3, 0.8, 1.0]), seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([50, 300, 2000]),
           n_wedge=st.sampled_from([0.0, 1.0, 3.0, 10.0, 50.0, np.inf]))
    def test_bitwise_equal_on_drawn_gridworld_settings(self, epsilon, seed, n, n_wedge):
        mdp, greedy = self.gridworld_greedy()
        behavior = envs.epsilon_greedy_policy(greedy, epsilon)
        self.assert_matches(envs.generate_tabular_dataset(mdp, behavior, n, seed), n_wedge,
                            mdp.discount)

    @pytest.mark.parametrize("n_wedge", [0.0, 1.0, 2.0, 3.0, np.inf])
    def test_bitwise_equal_on_the_undiscounted_counterexample(self, n_wedge):
        _, ds, _ = envs.build_counterexample()
        self.assert_matches(ds, n_wedge, 1.0)


@pytest.mark.parametrize("trainer", ["train_spibb_tabular", "train_cql_tabular"])
@pytest.mark.parametrize("shape", [(25, 2), (25, 5), (20, 4), (26, 4)])
def test_tabular_trainer_rejects_a_shape_that_is_not_the_datasets(trainer, shape):
    # a wrong pair once trained a table on colliding cells, or hit a raw IndexError
    ds, _ = TestTabularCqlMatchesPerSampleLoop.gridworld_data()
    cfg = agents.AgentConfig(algorithm=trainer.split("_")[1], gradient_steps=3)
    with pytest.raises(RejectedInputError, match=r"does not fit the dataset's \("):
        getattr(agents, trainer)(ds, *shape, cfg)


class TestTraceCsv:
    def test_writes_known_columns(self, tmp_path):
        rows = [{"step": 0, "critic_loss": 1.5, "extra": "ignored"},
                {"step": 10, "eval_return_mean": -2.0}]
        path = str(tmp_path / "t.csv")
        agents.write_trace_csv(rows, path)
        lines = open(path).read().splitlines()
        assert lines[0] == ",".join(agents.TRACE_COLUMNS)
        assert lines[1].startswith("0,1.5")
        assert len(lines) == 3


class TestConfigValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(RejectedInputError):
            agents.AgentConfig(algorithm="dqn")

    def test_co_train_requires_encoder(self):
        with pytest.raises(RejectedInputError):
            agents.AgentConfig(co_train_encoder=True, use_encoder=False)

    @pytest.mark.parametrize("algorithm", ["bc", "cql", "spibb"])
    def test_co_train_requires_td3bc(self, algorithm):
        with pytest.raises(RejectedInputError, match="td3bc"):
            agents.AgentConfig(algorithm=algorithm, use_encoder=True, co_train_encoder=True)
        agents.AgentConfig(algorithm="td3bc", use_encoder=True, co_train_encoder=True)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -1), ("gradient_steps", -1), ("seed", -1),
        ("repr_dim", 0), ("hidden", (64, 0)), ("hidden", (-3,)),
        ("eval_every", -1), ("eval_episodes", 0), ("eval_episodes", -2),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(RejectedInputError, match="must be >= "):
            agents.AgentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.nan), ("learning_rate", -1.0), ("learning_rate", 0.0),
        ("learning_rate", np.inf), ("co_train_encoder_lr", np.nan), ("co_train_encoder_lr", 0.0),
        ("cql_alpha", -1.0), ("cql_alpha", np.inf), ("cql_alpha", np.nan),
        ("cql_target_every", 0),
        ("gamma", np.nan), ("gamma", np.inf), ("gamma", 1.5), ("gamma", -1.0),
        ("n_wedge", np.nan), ("n_wedge", -1.0),
    ])
    def test_bad_rate_or_cql_setting_rejected(self, field, value):
        with pytest.raises(RejectedInputError, match=field):
            agents.AgentConfig(**{field: value})
        agents.AgentConfig(cql_alpha=0.0, co_train_encoder_lr=1e-3, gamma=1.0, n_wedge=np.inf)
        agents.AgentConfig(gamma=0.0, n_wedge=0.0)

    @pytest.mark.parametrize("trainer", [agents.train_td3bc, agents.train_cql_continuous])
    def test_critic_without_a_hidden_layer_rejected(self, trainer):
        # a critic's features are its last hidden layer; a policy needs none
        ds = pm_dataset(100)
        cfg = agents.AgentConfig(hidden=(), gradient_steps=2, batch_size=16)
        with pytest.raises(RejectedInputError, match="hidden layer"):
            trainer(ds, cfg)
        res = agents.train_bc(ds, dataclasses.replace(cfg, algorithm="bc"))
        assert len(res.policy.layers) == 1 and res.policy.layers[0].activation == "tanh"
