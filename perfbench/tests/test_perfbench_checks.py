"""Each benchmark check passes on a correct output and fails when that output
is corrupted. Run from the root of a checkout:

    python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
from bprlab import agents, analysis, bpr, envs, numerics  # noqa: E402


# ---------------------------------------------------------------- pretraining


def decreasing_losses():
    return np.linspace(1.5, 0.2, 100)


def test_pretrain_losses_pass_on_a_decreasing_trace():
    assert checks.check_pretrain_losses(decreasing_losses()) == []


@pytest.mark.parametrize("bad", [-1e-3, 4.001, np.nan, np.inf])
def test_pretrain_loss_outside_0_4_fails(bad):
    losses = decreasing_losses()
    losses[50] = bad
    assert checks.check_pretrain_losses(losses)


def test_pretrain_loss_that_does_not_fall_fails():
    assert checks.check_pretrain_losses(decreasing_losses()[::-1])


def test_pretrain_losses_of_the_real_trainer_pass():
    env = envs.PointMassEnv()
    ds = envs.generate_dataset(env, envs.pointmass_behavior("expert", env), 500, 0)
    cfg = bpr.PretrainConfig(steps=200, batch_size=64, repr_dim=8, encoder_hidden=(16,),
                             predictor_hidden=(16,))
    _, losses, _, _ = bpr.pretrain(ds, cfg)
    assert checks.check_pretrain_losses(losses) == []


# ---------------------------------------------------------------- checkpoints


@pytest.fixture()
def encoder_file(tmp_path):
    encoder = bpr.build_encoder(4, 8, (16,), np.random.default_rng(0))
    path = str(tmp_path / "enc.ckpt")
    bpr.save_encoder(encoder, path)
    again = str(tmp_path / "enc2.ckpt")
    bpr.save_encoder(bpr.load_encoder(path), again)
    layers = [(l.weight, l.bias, l.activation) for l in encoder.net.layers]
    with open(path, "rb") as fh, open(again, "rb") as fh2:
        return layers, fh.read(), fh2.read()


def test_checkpoint_roundtrip_passes(encoder_file):
    assert checks.check_checkpoint_roundtrip(*encoder_file) == []


@pytest.mark.parametrize("offset", [0, 9, 12, 30, -1])
def test_flipped_checkpoint_byte_fails(encoder_file, offset):
    layers, saved, resaved = encoder_file
    flipped = bytearray(resaved)
    flipped[offset] ^= 0x01
    assert checks.check_checkpoint_roundtrip(layers, saved, bytes(flipped))
    assert checks.check_checkpoint_roundtrip(layers, bytes(flipped), bytes(flipped))


def test_changed_frozen_parameter_fails():
    before = [np.zeros((3, 2)), np.ones(3)]
    after = [p.copy() for p in before]
    assert checks.check_params_unchanged(before, after) == []
    after[1][2] = np.nextafter(1.0, 2.0)
    assert checks.check_params_unchanged(before, after)


# ---------------------------------------------------------------- rollouts


@pytest.fixture()
def rollout():
    env = envs.PointMassEnv(goal=np.array([0.3, -0.2]), max_steps=30)
    states, actions = [], []
    expert = envs.pointmass_behavior("expert", env)
    rng = np.random.default_rng(1)

    def policy(state):
        a = 1.5 * expert(state, rng)  # partly outside [-1, 1] so clipping matters
        states.append(np.array(state))
        actions.append(np.array(a))
        return a

    mean, _, _ = agents.evaluate_return(policy, env, 4, seed=7)
    return env, mean, states, actions


def test_eval_return_resimulation_matches(rollout):
    env, mean, states, actions = rollout
    sim, problems = checks.simulate_pointmass_return(env.goal, env.max_steps, 4, 7, states, actions)
    assert problems == []
    assert checks.check_eval_return(mean, sim) == []


def test_perturbed_eval_return_fails(rollout):
    env, mean, states, actions = rollout
    sim, _ = checks.simulate_pointmass_return(env.goal, env.max_steps, 4, 7, states, actions)
    assert checks.check_eval_return(mean + 1e-6, sim)


def test_rollout_from_other_start_states_fails(rollout):
    env, _, states, actions = rollout
    _, problems = checks.simulate_pointmass_return(env.goal, env.max_steps, 4, 8, states, actions)
    assert problems


# ---------------------------------------------------------------- spectra


def test_effective_dimension_count_matches_program_and_off_by_one_fails():
    rng = np.random.default_rng(0)
    psi = np.tanh(rng.normal(size=(200, 12)) @ np.diag(np.linspace(0.01, 1.0, 12)))
    count = analysis.effective_dimension(psi, 0.01).count
    assert 0 < count < 12
    assert checks.check_effective_dimension(psi, count, 0.01) == []
    assert checks.check_effective_dimension(psi, count + 1, 0.01)
    assert checks.check_effective_dimension(psi, count - 1, 0.01)


# ---------------------------------------------------------------- tabular


@pytest.fixture()
def gridworld():
    mdp = envs.make_gridworld()
    model = (mdp.transition, mdp.reward, mdp.initial_dist, mdp.terminal, mdp.discount)
    _, _, greedy = envs.value_iteration(mdp)
    return mdp, model, greedy, envs.epsilon_greedy_policy(greedy, 0.3)


def test_own_bellman_solve_matches_program_and_perturbed_j_fails(gridworld):
    mdp, model, _, behavior = gridworld
    _, j_program = envs.evaluate_policy_exact(mdp, behavior)
    j_own = checks.policy_value(*model, behavior.probs)
    assert checks.check_close("J", j_program, j_own) == []
    assert checks.check_close("J", j_program + 1e-8, j_own)


def test_value_above_optimal_fails(gridworld):
    mdp, model, greedy, behavior = gridworld
    j_star = checks.optimal_value(*model)
    assert checks.check_not_above_optimal(checks.policy_value(*model, greedy.probs), j_star) == []
    assert checks.check_not_above_optimal(checks.policy_value(*model, behavior.probs), j_star) == []
    assert checks.check_not_above_optimal(j_star + 1e-8, j_star)


def test_lower_bound_above_value_fails():
    assert checks.check_lower_bound(0.4, 0.5) == []
    assert checks.check_lower_bound(0.5 + 1e-8, 0.5)


def test_safe_rate_below_95_percent_fails():
    assert checks.check_safe_rate(19, 20) == []
    assert checks.check_safe_rate(18, 20)
    assert checks.check_safe_rate(0, 0)


def test_dataset_changed_by_roundtrip_fails(gridworld, tmp_path):
    mdp, _, _, behavior = gridworld
    ds = envs.generate_dataset(mdp, behavior, 200, 3)
    digest = checks.array_digest(ds.arrays())
    path = str(tmp_path / "g.jsonl")
    envs.save_dataset(ds, path)
    arrays = envs.load_dataset(path).arrays()
    assert checks.check_roundtrip("g", digest, arrays) == []
    rewards = arrays[2].copy()
    rewards[5] += 1e-12
    assert checks.check_roundtrip("g", digest, arrays[:2] + (rewards,) + arrays[3:])
    dones = arrays[4].astype(np.int64)
    assert checks.check_roundtrip("g", digest, arrays[:4] + (dones,))


def test_checkpoint_layout_matches_numerics_writer():
    model = numerics.init_mlp([3, 5, 2], ["tanh", "identity"], np.random.default_rng(2))
    layers = [(l.weight, l.bias, l.activation) for l in model.layers]
    assert checks.checkpoint_layout(layers) == numerics.checkpoint_bytes(model)
