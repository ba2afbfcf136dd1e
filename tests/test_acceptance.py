"""Acceptance gate: one test per release criterion, each printing a single
PASS line (pytest -v shows the per-criterion pass/fail status)."""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from bprlab import agents, analysis, bpr, cli, envs, numerics


def report(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}")


# ---------------------------------------------------------------- shared data


@pytest.fixture(scope="module")
def pointmass_setup():
    """Medium-expert dataset, reference returns, and a long-pretrained encoder,
    shared by the two qualitative mirrors."""
    env = envs.PointMassEnv()
    mix = [(0.5, envs.pointmass_behavior("expert", env)),
           (0.5, envs.pointmass_behavior("medium", env))]
    dataset = envs.generate_dataset(env, mix, 20000, 0, behavior_tag="pointmass:medium-expert")

    def behavior_return(name, episodes=50):
        pol = envs.pointmass_behavior(name, env)
        rng = np.random.default_rng(123)
        mean, _, _ = agents.evaluate_return(lambda s: pol(s, rng), env, episodes, seed=99)
        return mean

    expert_ret = behavior_return("expert")
    random_ret = behavior_return("random")

    t0 = time.time()
    pcfg = bpr.PretrainConfig(steps=100_000, batch_size=256, repr_dim=32,
                              encoder_hidden=(64,), predictor_hidden=(64,), seed=0)
    encoder, _, _, _ = bpr.pretrain(dataset, pcfg)
    pretrain_seconds = time.time() - t0
    return env, dataset, encoder, expert_ret, random_ret, pretrain_seconds


def normalized(ret, expert_ret, random_ret):
    return (ret - random_ret) / (expert_ret - random_ret)


# ---------------------------------------------------------------- criteria


def test_criterion_1_counterexample_exactness():
    t0 = time.time()
    rep = analysis.run_counterexample_audit()
    elapsed = time.time() - t0
    assert abs(rep["J_behavior_hat"] - 0.25) <= 1e-9
    assert abs(rep["J_collapsed_a0"] - 1.0 / 3.0) <= 1e-9
    assert abs(rep["J_collapsed_a1"] - 0.0) <= 1e-9
    assert abs(rep["J_collapsed_mix"] - 0.25) <= 1e-9
    assert rep["greedy_collapsed_action"] == 0
    assert abs(rep["J_true_of_greedy"]) <= 1e-9
    assert elapsed < 1.0
    report(1, f"(counterexample exact, {elapsed:.2f}s)")


def test_criterion_2_gradient_fidelity():
    h = 1e-5
    rel_tol = 1e-4
    t0 = time.time()

    def fd_worst(loss_of_flat, flat, analytic, rng, n_coords=4):
        worst = 0.0
        for i in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            fd = (loss_of_flat(fp) - loss_of_flat(fm)) / (2 * h)
            denom = max(abs(fd), abs(analytic[i]), 1e-6)
            worst = max(worst, abs(fd - analytic[i]) / denom)
        return worst

    def smooth_policy(rng, in_dim, out_dim):
        hid = int(rng.integers(3, 9))
        return numerics.init_mlp([in_dim, hid, out_dim], ["tanh", "tanh"], rng)

    def smooth_q(rng, in_dim):
        hid = int(rng.integers(3, 9))
        return numerics.init_mlp([in_dim, hid, 1], ["tanh", "identity"], rng)

    rng = np.random.default_rng(0)
    worst = {"bpr": 0.0, "bc": 0.0, "td3bc_actor": 0.0, "cql_critic": 0.0}
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        sdim = int(rng.integers(2, 5))

        # normalized-action prediction loss, gradient w.r.t. the prediction
        y = rng.normal(size=dim) * rng.uniform(0.5, 5.0)
        a = rng.normal(size=dim)
        while np.linalg.norm(a) < 0.1:
            a = rng.normal(size=dim)
        _, grad = bpr.bpr_loss(y, a)
        w = 0.0
        for i in range(dim):
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            fd = (bpr.bpr_loss(yp, a)[0] - bpr.bpr_loss(ym, a)[0]) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-6)
            w = max(w, abs(fd - grad[i]) / denom)
        worst["bpr"] = max(worst["bpr"], w)

        x = rng.normal(size=(n, sdim))
        act = np.clip(rng.normal(size=(n, dim)), -0.9, 0.9)
        pol = smooth_policy(rng, sdim, dim)
        q = smooth_q(rng, sdim + dim)

        _, g = agents.bc_loss_and_grads(pol, x, act)
        flat = pol.flat_parameters()

        def bc_at(f, pol=pol, x=x, act=act):
            m = pol.copy()
            m.set_flat_parameters(f)
            return agents.bc_loss_and_grads(m, x, act)[0]

        worst["bc"] = max(worst["bc"], fd_worst(bc_at, flat, g, rng))

        lam = float(rng.uniform(0.1, 3.0))
        _, g = agents.td3bc_actor_loss_and_grads(pol, q, x, act, lam)

        def td_at(f, pol=pol, q=q, x=x, act=act, lam=lam):
            m = pol.copy()
            m.set_flat_parameters(f)
            return agents.td3bc_actor_loss_and_grads(m, q, x, act, lam)[0]

        worst["td3bc_actor"] = max(worst["td3bc_actor"], fd_worst(td_at, flat, g, rng))

        target = rng.normal(size=n)
        cand = rng.uniform(-1, 1, size=(n, int(rng.integers(2, 6)), dim))
        alpha = float(rng.uniform(0.1, 2.0))
        _, g = agents.cql_critic_loss_and_grads(q, x, act, target, cand, alpha)
        qflat = q.flat_parameters()

        def cql_at(f, q=q, x=x, act=act, target=target, cand=cand, alpha=alpha):
            m = q.copy()
            m.set_flat_parameters(f)
            return agents.cql_critic_loss_and_grads(m, x, act, target, cand, alpha)[0]

        worst["cql_critic"] = max(worst["cql_critic"], fd_worst(cql_at, qflat, g, rng))

    elapsed = time.time() - t0
    for name, value in worst.items():
        assert value < rel_tol, f"{name}: worst relative error {value}"
    assert elapsed < 30.0
    shown = {k: f"{v:.2e}" for k, v in worst.items()}
    report(2, f"(worst rel errors {shown}, {elapsed:.1f}s)")


def test_criterion_3_effective_dimension_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 257))
        d = int(rng.integers(1, 17))
        psi = rng.normal(size=(n, d)) * rng.uniform(0.005, 3.0)
        mine = analysis.effective_dimension(psi, epsilon=0.01).count
        s = np.linalg.svd(psi, compute_uv=False)
        oracle = int(np.sum(s * s / n > 0.01))
        assert mine == oracle

    # doubling the sample count of a fixed random-feature model moves the
    # count by at most one almost always
    net = numerics.init_mlp([4, 32, 12], ["tanh", "identity"], np.random.default_rng(7))
    stable = 0
    for trial in range(50):
        trng = np.random.default_rng(1000 + trial)
        x = trng.normal(size=(256, 4))
        psi_n, _ = numerics.forward(net, x[:128])
        psi_2n, _ = numerics.forward(net, x)
        a = analysis.effective_dimension(psi_n).count
        b = analysis.effective_dimension(psi_2n).count
        stable += abs(a - b) <= 1
    assert stable >= int(0.95 * 50)
    report(3, f"(200/200 oracle matches, {stable}/50 stable under doubling)")


def test_criterion_4_tvd_bound_soundness():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n_s = int(rng.integers(2, 8))
        n_a = int(rng.integers(2, 5))
        mdp = envs.random_mdp(n_s, n_a, rng, discount=float(rng.uniform(0.1, 0.95)))
        pa = envs.TabularPolicy(rng.dirichlet(np.ones(n_a), size=n_s))
        pb = envs.TabularPolicy(rng.dirichlet(np.ones(n_a), size=n_s))
        bound, gap = analysis.tvd_suboptimality_bound(mdp, pa, pb)
        assert bound >= gap
    report(4, "(1000/1000 instances sound)")


def criterion_5_safe(j_output, j_behavior):
    """Criterion 5's safety check: J(pi_out) within 5 % of J(pi_behavior) or
    above it. The margin is on the scale of the J values (J(pi_behavior) is
    0.566 on the gridworld), so a policy much worse than the behavior fails."""
    return j_output >= j_behavior - 0.05 * j_behavior


def test_criterion_5_check_rejects_the_uniform_policy():
    mdp = envs.make_gridworld()
    _, _, greedy = envs.value_iteration(mdp)
    _, j_behavior = envs.evaluate_policy_exact(mdp, envs.epsilon_greedy_policy(greedy, 0.3))
    _, j_uniform = envs.evaluate_policy_exact(mdp, envs.TabularPolicy.uniform(mdp.n_states,
                                                                              mdp.n_actions))
    assert j_uniform < 0.1 < 0.5 < j_behavior
    assert not criterion_5_safe(j_uniform, j_behavior)
    assert criterion_5_safe(j_behavior, j_behavior)


def test_criterion_5_safe_improvement_gridworld():
    t0 = time.time()
    mdp = envs.make_gridworld()
    _, _, greedy = envs.value_iteration(mdp)
    behavior = envs.epsilon_greedy_policy(greedy, 0.3)
    _, j_behavior = envs.evaluate_policy_exact(mdp, behavior)
    safe = 0
    for seed in range(100):
        ds = envs.generate_tabular_dataset(mdp, behavior, 2000, seed=seed)
        cfg = agents.AgentConfig(algorithm="spibb", gamma=mdp.discount, n_wedge=10.0)
        res = agents.train_spibb_tabular(ds, mdp.n_states, mdp.n_actions, cfg)
        rep = analysis.verify_theorem2(mdp, ds, res, behavior)
        assert rep.theorem2_slack >= -1e-9
        safe += criterion_5_safe(rep.J_output, j_behavior)
    elapsed = time.time() - t0
    assert safe >= 95
    assert elapsed < 300.0
    report(5, f"(slack >= -1e-9 in 100/100, safety {safe}/100, {elapsed:.0f}s)")


def test_criterion_6_pessimistic_lower_bound_tabular():
    mdp = envs.make_gridworld()
    _, _, greedy = envs.value_iteration(mdp)
    behavior = envs.epsilon_greedy_policy(greedy, 0.3)
    held, held_and_sound = 0, 0
    for seed in range(100):
        ds = envs.generate_tabular_dataset(mdp, behavior, 2000, seed=10_000 + seed)
        cfg = agents.AgentConfig(algorithm="cql", gamma=mdp.discount, cql_alpha=1.0,
                                 gradient_steps=1500, learning_rate=1e-2, seed=seed)
        res = agents.train_cql(ds, cfg, tabular_shape=(mdp.n_states, mdp.n_actions))
        rep = analysis.verify_theorem3(mdp, ds, res, behavior)
        if rep.lower_bound_precondition_held:
            held += 1
            held_and_sound += rep.theorem3_slack >= -1e-9
    assert held >= 90
    assert held_and_sound == held
    report(6, f"(precondition held in {held}/100, slack >= -1e-9 in {held}/{held})")


@pytest.mark.slow
def test_criterion_7_pretraining_speedup(pointmass_setup):
    env, dataset, encoder, expert_ret, random_ret, pretrain_seconds = pointmass_setup
    t0 = time.time()
    threshold = random_ret + 0.9 * (expert_ret - random_ret)
    budget = 8000

    def run(seed, use_encoder):
        cfg = agents.AgentConfig(algorithm="td3bc", use_encoder=use_encoder,
                                 gradient_steps=budget, batch_size=256,
                                 hidden=(64, 64), seed=seed,
                                 eval_every=500, eval_episodes=20)
        res = agents.train_td3bc(dataset, cfg, encoder if use_encoder else None, env)
        returns = [(r["step"], r["eval_return_mean"]) for r in res.trace]
        hits = [s for s, v in returns if v >= threshold]
        first_hit = hits[0] if hits else budget  # censor misses at the budget
        final = float(np.mean([v for _, v in returns[-2:]]))
        return first_hit, final

    scratch_hits, scratch_finals, bpr_hits, bpr_finals = [], [], [], []
    for seed in range(5):
        hit, final = run(seed, False)
        scratch_hits.append(hit)
        scratch_finals.append(final)
        hit, final = run(seed, True)
        bpr_hits.append(hit)
        bpr_finals.append(final)

    elapsed = pretrain_seconds + (time.time() - t0)
    med_scratch = float(np.median(scratch_hits))
    med_bpr = float(np.median(bpr_hits))
    norm_scratch = normalized(float(np.mean(scratch_finals)), expert_ret, random_ret)
    norm_bpr = normalized(float(np.mean(bpr_finals)), expert_ret, random_ret)
    assert med_bpr <= 0.75 * med_scratch, (med_bpr, med_scratch)
    assert norm_bpr >= norm_scratch - 0.05, (norm_bpr, norm_scratch)
    assert elapsed < 900.0
    report(7, f"(median steps {med_bpr:.0f} vs {med_scratch:.0f}, "
              f"final scores {norm_bpr:.2f} vs {norm_scratch:.2f}, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_8_effective_dimension_ordering(pointmass_setup):
    env, dataset, encoder, _, _, _ = pointmass_setup
    probe = analysis.make_probe_batch(dataset, 512, seed=0)
    steps = 6000

    def ed_curve(seed, co_train):
        cfg = agents.AgentConfig(algorithm="td3bc", use_encoder=True,
                                 co_train_encoder=co_train, gradient_steps=steps,
                                 batch_size=256, hidden=(64, 64), repr_dim=32,
                                 seed=seed, q_hidden_activation="tanh",
                                 co_train_encoder_lr=3e-3)
        res = agents.train_td3bc(dataset, cfg, encoder.copy(frozen=not co_train), env,
                                 probe_batch=probe, probe_every=steps // 16)
        return [c for _, c in analysis.effective_dimension_trace(res.psi_trace)]

    frozen_finals, co_finals, shape_ok = [], [], 0
    for seed in range(5):
        frozen_finals.append(ed_curve(seed, False)[-1])
        co = ed_curve(seed, True)
        co_finals.append(co[-1])
        first_third = co[: len(co) // 3 + 1]
        shape_ok += max(first_third) > co[-1]

    assert np.median(frozen_finals) >= np.median(co_finals), (frozen_finals, co_finals)
    assert shape_ok >= 3, (shape_ok, co_finals)
    report(8, f"(final dims frozen {frozen_finals} vs co-trained {co_finals}, "
              f"rise-then-decline in {shape_ok}/5 seeds)")


def test_criterion_9_determinism_gate(tmp_path):
    blobs = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        out.mkdir()
        args = ["--out", str(out)]
        assert cli.main(["gen-data", "--task", "pointmass", "--behavior", "medium",
                         "--n", "500", "--seed", "0", "--name", "d.jsonl"] + args) == 0
        assert cli.main(["pretrain", "--dataset", str(out / "d.jsonl"), "--steps", "50",
                         "--batch-size", "64", "--repr-dim", "8", "--hidden", "16",
                         "--name", "enc"] + args) == 0
        assert cli.main(["train", "--task", "pointmass", "--dataset", str(out / "d.jsonl"),
                         "--algo", "bc", "--encoder", str(out / "enc.ckpt"),
                         "--seeds", "0", "--gradient-steps", "50", "--batch-size", "64",
                         "--hidden", "16", "--label", "run"] + args) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["audit", "--json"]) == 0
        blobs.append((
            (out / "run-summary.json").read_bytes(),
            (out / "enc.ckpt").read_bytes(),
            (out / "d.jsonl").read_bytes(),
            buf.getvalue(),
        ))
    assert blobs[0] == blobs[1]
    summary = json.loads(blobs[0][0])
    assert summary["schema_version"] == 1
    report(9, "(byte-identical dataset, checkpoint, and summary JSON)")
