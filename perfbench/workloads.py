"""The benchmark's three workloads.

A workload is built from the workload seed and a scratch directory. The
harness calls `setup()` several times (only the last pass is kept), then runs
whole rounds of the operations `round_ops(r)` returns. Each op is one seed of
an experiment the lab runs. `check_op` and `check_round` verify outputs
outside the timed region.
"""

from __future__ import annotations

import functools
import os

import numpy as np

import checks
from bprlab import agents, analysis, bpr, envs

HIDDEN = (64, 64)
BATCH = 256
REPR_DIM = 32


def _pointmass_dataset(seed: int) -> envs.OfflineDataset:
    """The 20k-row medium-expert mix of criteria 7 and 8."""
    env = envs.PointMassEnv()
    mix = [(0.5, envs.pointmass_behavior("expert", env)),
           (0.5, envs.pointmass_behavior("medium", env))]
    return envs.generate_dataset(env, mix, 20_000, seed, behavior_tag="pointmass:medium-expert")


def _pretrain_config(steps: int, seed: int) -> bpr.PretrainConfig:
    return bpr.PretrainConfig(steps=steps, batch_size=BATCH, seed=seed, repr_dim=REPR_DIM,
                              encoder_hidden=(64,), predictor_hidden=(64,))


class Workload:
    """Defaults for the hooks a workload may leave out."""

    units: dict[str, float] = {}  # span name -> steps or episodes per call

    def setup_done(self):
        """Runs after each timed set-up pass, outside the timing."""

    def check_round(self, summaries) -> list[str]:
        return []


class BprPointmass(Workload):
    """Criterion 7's pipeline: pretrain, checkpoint round trip, then TD3+BC on
    raw states, TD3+BC on the frozen encoder and continuous CQL on the frozen
    encoder, each evaluated twice by point-mass rollouts."""

    name = "bpr-pointmass"
    PRETRAIN_STEPS = 800
    TD3BC_STEPS = 400
    CQL_STEPS = 150
    EVALS_PER_RUN = 2
    EVAL_EPISODES = 5
    units = {"bpr.pretrain": PRETRAIN_STEPS,
             "agents.train_cql_continuous": CQL_STEPS,
             "agents.evaluate_return": EVAL_EPISODES}

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.env = envs.PointMassEnv()
        self.dataset = None
        self.evals: list[dict] = []
        self._record_evaluate_return()

    def _record_evaluate_return(self):
        """Rebind agents.evaluate_return so every rollout's states, actions
        and reported mean are kept for re-simulation after the op."""
        original = agents.evaluate_return
        evals = self.evals

        @functools.wraps(original)
        def evaluate_return(policy_fn, env, episodes, seed):
            states, actions = [], []

            def recorded(state):
                action = policy_fn(state)
                states.append(np.array(state, dtype=np.float64))
                actions.append(np.array(action, dtype=np.float64))
                return action

            result = original(recorded, env, episodes, seed)
            evals.append({"goal": np.array(env.goal), "max_steps": env.max_steps,
                          "episodes": episodes, "seed": seed, "states": states,
                          "actions": actions, "mean": result[0]})
            return result

        agents.evaluate_return = evaluate_return

    def setup(self):
        path = os.path.join(self.workdir, "medex.jsonl")
        envs.save_dataset(_pointmass_dataset(self.seed), path)
        self.dataset = envs.load_dataset(path)

    def round_ops(self, r: int):
        return [functools.partial(self._op, self.seed * 1000 + r)]

    def _op(self, seed: int) -> dict:
        ds, tr = self.dataset, self.tracer
        encoder, losses, _, _ = bpr.pretrain(ds, _pretrain_config(self.PRETRAIN_STEPS, seed))
        saved_path = os.path.join(self.workdir, "encoder.ckpt")
        resaved_path = os.path.join(self.workdir, "encoder-reloaded.ckpt")
        bpr.save_encoder(encoder, saved_path)
        frozen = bpr.load_encoder(saved_path)
        bpr.save_encoder(frozen, resaved_path)
        before = [p.copy() for p in frozen.net.parameters()]
        del self.evals[:]
        for variant, enc in (("raw", None), ("frozen", frozen)):
            cfg = agents.AgentConfig(
                algorithm="td3bc", use_encoder=enc is not None, gradient_steps=self.TD3BC_STEPS,
                batch_size=BATCH, hidden=HIDDEN, seed=seed,
                eval_every=self.TD3BC_STEPS // self.EVALS_PER_RUN, eval_episodes=self.EVAL_EPISODES)
            with tr.region(f"agents.train_td3bc.{variant}", self.TD3BC_STEPS):
                agents.train_td3bc(ds, cfg, enc, self.env)
        cfg = agents.AgentConfig(
            algorithm="cql", use_encoder=True, gradient_steps=self.CQL_STEPS, batch_size=BATCH,
            hidden=HIDDEN, seed=seed, eval_every=self.CQL_STEPS // self.EVALS_PER_RUN,
            eval_episodes=self.EVAL_EPISODES)
        agents.train_cql(ds, cfg, frozen, self.env)
        return {"losses": losses, "encoder": encoder, "saved_path": saved_path,
                "resaved_path": resaved_path, "before": before,
                "after": frozen.net.parameters(), "evals": list(self.evals)}

    def check_op(self, out: dict):
        layers = [(l.weight, l.bias, l.activation) for l in out["encoder"].net.layers]
        with open(out["saved_path"], "rb") as fh:
            saved = fh.read()
        with open(out["resaved_path"], "rb") as fh:
            resaved = fh.read()
        problems = (checks.check_pretrain_losses(out["losses"])
                    + checks.check_checkpoint_roundtrip(layers, saved, resaved)
                    + checks.check_params_unchanged(out["before"], out["after"]))
        if len(out["evals"]) != 3 * self.EVALS_PER_RUN:
            problems.append(f"{len(out['evals'])} evaluate_return calls, "
                            f"expected {3 * self.EVALS_PER_RUN}")
        for ev in out["evals"]:
            mean, sim_problems = checks.simulate_pointmass_return(
                ev["goal"], ev["max_steps"], ev["episodes"], ev["seed"],
                ev["states"], ev["actions"])
            problems += sim_problems + checks.check_eval_return(ev["mean"], mean)
        return problems, None


class EdProbe(Workload):
    """Criterion 8 at a dense probe cadence: TD3+BC with a tanh critic on the
    frozen encoder and co-trained from an unfrozen copy, probing the q1
    features every PROBE_EVERY steps, then the effective dimension of every
    snapshot.

    The inputs are fixed rather than drawn from the workload seed: the cyclic
    Jacobi solver takes ~10x longer on some Gram matrices than on others, so
    a drawn dataset would move op time by which snapshots are slow, not by
    the code. The workload seed only sets the order of the ops in a round."""

    name = "ed-probe"
    PRETRAIN_STEPS = 500
    TRAIN_STEPS = 200
    PROBE_EVERY = 100
    EXPERIMENT_SEEDS = (0, 1)
    EPSILON = 0.01

    def __init__(self, seed: int, workdir: str, tracer):
        self.tracer = tracer
        self.env = envs.PointMassEnv()
        order = np.random.default_rng(seed).permutation(len(self.EXPERIMENT_SEEDS))
        self.seeds = [self.EXPERIMENT_SEEDS[i] for i in order]

    def setup(self):
        self.dataset = _pointmass_dataset(0)
        self.encoder, _, _, _ = bpr.pretrain(self.dataset, _pretrain_config(self.PRETRAIN_STEPS, 0))
        self.probe = analysis.make_probe_batch(self.dataset, 512, seed=0)

    def round_ops(self, r: int):
        return [functools.partial(self._op, s) for s in self.seeds]

    def _op(self, seed: int) -> dict:
        out = {}
        for variant, co_train in (("frozen", False), ("cotrain", True)):
            cfg = agents.AgentConfig(
                algorithm="td3bc", use_encoder=True, co_train_encoder=co_train,
                gradient_steps=self.TRAIN_STEPS, batch_size=BATCH, hidden=HIDDEN,
                repr_dim=REPR_DIM, seed=seed, q_hidden_activation="tanh",
                co_train_encoder_lr=3e-3)
            with self.tracer.region(f"agents.train_td3bc.{variant}", self.TRAIN_STEPS):
                res = agents.train_td3bc(self.dataset, cfg, self.encoder.copy(frozen=not co_train),
                                         self.env, probe_batch=self.probe,
                                         probe_every=self.PROBE_EVERY)
            ed = analysis.effective_dimension_trace(res.psi_trace, self.EPSILON)
            out[variant] = (res.psi_trace, ed)
        return out

    def check_op(self, out: dict):
        problems = []
        want_steps = list(range(0, self.TRAIN_STEPS + 1, self.PROBE_EVERY))
        for variant, (psi_trace, ed) in out.items():
            if [s for s, _ in psi_trace] != want_steps or [s for s, _ in ed] != want_steps:
                problems.append(f"{variant}: probe steps {[s for s, _ in ed]} != {want_steps}")
                continue
            for (_, psi), (_, count) in zip(psi_trace, ed):
                problems += checks.check_effective_dimension(psi, count, self.EPSILON)
        return problems, None


class BoundsSweep(Workload):
    """Criteria 5 and 6: per seed of the sweep, tabular SPIBB with
    verify_theorem2 and tabular CQL with verify_theorem3 on one 2000-row
    epsilon-greedy(0.3) gridworld dataset read back from JSONL."""

    name = "bounds-sweep"
    SWEEP = 20
    ROWS = 2000
    CQL_STEPS = 1500
    units = {"agents.train_cql_tabular": CQL_STEPS}

    def __init__(self, seed: int, workdir: str, tracer):
        self.workdir = workdir
        self.seeds = [seed * self.SWEEP + i for i in range(self.SWEEP)]
        self.mdp = envs.make_gridworld()
        _, _, greedy = envs.value_iteration(self.mdp)
        self.behavior = envs.epsilon_greedy_policy(greedy, 0.3)
        m = self.mdp
        self.model = (m.transition, m.reward, m.initial_dist, m.terminal, m.discount)
        self.j_star = checks.optimal_value(*self.model)
        self.j_behavior = checks.policy_value(*self.model, self.behavior.probs)
        self.margin = 0.05 * m.r_max / (1.0 - m.discount)
        self.generated = []
        self.digests = []

    def _path(self, seed: int) -> str:
        return os.path.join(self.workdir, f"grid-{seed}.jsonl")

    def setup(self):
        self.generated = []
        for seed in self.seeds:
            ds = envs.generate_dataset(self.mdp, self.behavior, self.ROWS, seed)
            envs.save_dataset(ds, self._path(seed))
            self.generated.append(ds)

    def setup_done(self):
        self.digests = [checks.array_digest(ds.arrays()) for ds in self.generated]
        self.generated = []

    def round_ops(self, r: int):
        return [functools.partial(self._op, i) for i in range(self.SWEEP)]

    def _op(self, i: int) -> dict:
        m = self.mdp
        ds = envs.load_dataset(self._path(self.seeds[i]))
        cfg = agents.AgentConfig(algorithm="spibb", gamma=m.discount, n_wedge=10.0)
        spibb = agents.train_spibb_tabular(ds, m.n_states, m.n_actions, cfg)
        rep2 = analysis.verify_theorem2(m, ds, spibb, self.behavior)
        cfg = agents.AgentConfig(algorithm="cql", gamma=m.discount, cql_alpha=1.0,
                                 gradient_steps=self.CQL_STEPS, learning_rate=1e-2,
                                 seed=self.seeds[i])
        cql = agents.train_cql(ds, cfg, tabular_shape=(m.n_states, m.n_actions))
        rep3 = analysis.verify_theorem3(m, ds, cql, self.behavior)
        return {"i": i, "dataset": ds, "spibb": spibb, "rep2": rep2, "cql": cql, "rep3": rep3}

    def check_op(self, out: dict):
        i = out["i"]
        problems = checks.check_roundtrip(str(self.seeds[i]), self.digests[i], out["dataset"].arrays())
        j_spibb = checks.policy_value(*self.model, out["spibb"].policy.probs)
        cql, rep3 = out["cql"], out["rep3"]
        j_cql = checks.policy_value(*self.model, cql.policy.probs)
        j_perp = float(self.mdp.initial_dist @ np.sum(cql.policy.probs * cql.q, axis=1))
        for name, got, want in (
                ("SPIBB J(pi_behavior)", out["rep2"].J_behavior, self.j_behavior),
                ("SPIBB J(pi_out)", out["rep2"].J_output, j_spibb),
                ("CQL J(pi_behavior)", rep3.J_behavior, self.j_behavior),
                ("CQL J(pi_out)", rep3.J_output, j_cql)):
            problems += checks.check_close(name, got, want)
        problems += checks.check_not_above_optimal(j_spibb, self.j_star)
        problems += checks.check_not_above_optimal(j_cql, self.j_star)
        problems += checks.check_lower_bound(j_perp, j_cql)
        if rep3.lower_bound_precondition_held != (j_perp <= j_cql + checks.VALUE_TOL):
            problems.append("verify_theorem3 misreports whether J_perp(pi_out) <= J(pi_out)")
        return problems, j_spibb >= self.j_behavior - self.margin

    def check_round(self, summaries):
        return checks.check_safe_rate(sum(bool(s) for s in summaries), len(summaries))


WORKLOADS = {cls.name: cls for cls in (BprPointmass, EdProbe, BoundsSweep)}
