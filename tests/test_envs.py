import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bprlab import bpr, envs
from bprlab.errors import (
    RejectedInputError,
    UndefinedModelError,
    UnsupportedDiscountError,
)

DATA_DIR = Path(__file__).parent / "data"


def iterative_policy_evaluation(mdp, policy, iters=20000):
    """Independent slow oracle for the direct linear solve."""
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
    r_pi = np.sum(policy.probs * mdp.reward, axis=1)
    live = ~mdp.terminal
    v = np.zeros(mdp.n_states)
    for _ in range(iters):
        v = np.where(live, r_pi + mdp.discount * (p_pi @ v), 0.0)
    return v


class TestExactEvaluation:
    def test_matches_iterative_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mdp = envs.random_mdp(5, 3, rng, discount=float(rng.uniform(0.1, 0.9)))
            policy = envs.TabularPolicy(rng.dirichlet(np.ones(3), size=5))
            v, j = envs.evaluate_policy_exact(mdp, policy)
            v_ref = iterative_policy_evaluation(mdp, policy)
            np.testing.assert_allclose(v, v_ref, atol=1e-9)
            assert abs(j - mdp.initial_dist @ v_ref) < 1e-9

    def test_bellman_residual_tiny(self):
        rng = np.random.default_rng(1)
        mdp = envs.random_mdp(8, 4, rng, discount=0.95)
        policy = envs.TabularPolicy.uniform(8, 4)
        v, _ = envs.evaluate_policy_exact(mdp, policy)
        p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
        r_pi = np.sum(policy.probs * mdp.reward, axis=1)
        np.testing.assert_allclose(v, r_pi + 0.95 * (p_pi @ v), atol=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(2)
        mdp = envs.random_mdp(4, 2, rng, discount=0.8)
        policy = envs.TabularPolicy(rng.dirichlet(np.ones(2), size=4))
        _, j = envs.evaluate_policy_exact(mdp, policy)
        from bprlab.agents import evaluate_return_tabular
        mean, std, returns = evaluate_return_tabular(mdp, policy, 3000, seed=0, horizon=200)
        assert abs(mean - j) < 4.0 * std / np.sqrt(len(returns))

    @staticmethod
    def reference_return_tabular(mdp, policy, episodes, seed, horizon):
        """The Generator.choice loop that evaluate_return_tabular must match bit for bit."""
        rng = np.random.default_rng(seed)
        returns = np.zeros(episodes)
        for ep in range(episodes):
            s = rng.choice(mdp.n_states, p=mdp.initial_dist)
            total, disc = 0.0, 1.0
            for _ in range(horizon):
                if mdp.terminal[s]:
                    break
                a = rng.choice(mdp.n_actions, p=policy.probs[s])
                total += disc * mdp.reward[s, a]
                disc *= mdp.discount
                s = rng.choice(mdp.n_states, p=mdp.transition[s, a])
            returns[ep] = total
        return returns

    @pytest.mark.parametrize("case", ["random-mdp", "gridworld", "counterexample"])
    def test_monte_carlo_returns_equal_the_choice_loop(self, case):
        from bprlab.agents import evaluate_return_tabular
        rng = np.random.default_rng(3)
        mdp, policy = {
            "random-mdp": lambda: (envs.random_mdp(4, 2, rng, discount=0.8),
                                   envs.TabularPolicy(rng.dirichlet(np.ones(2), size=4))),
            "gridworld": lambda: (envs.make_gridworld(), envs.TabularPolicy.uniform(25, 4)),
            "counterexample": lambda: (envs.build_counterexample()[0],
                                       envs.TabularPolicy.uniform(3, 2)),
        }[case]()
        _, _, returns = evaluate_return_tabular(mdp, policy, 60, seed=4, horizon=50)
        want = self.reference_return_tabular(mdp, policy, 60, 4, 50)
        assert returns.tobytes() == want.tobytes()

    def test_gamma_one_with_cycles_rejected(self):
        rng = np.random.default_rng(3)
        mdp = envs.random_mdp(4, 2, rng, discount=0.9)
        mdp.discount = 1.0
        with pytest.raises(UnsupportedDiscountError):
            envs.evaluate_policy_exact(mdp, envs.TabularPolicy.uniform(4, 2))

    def test_gamma_one_episodic_supported(self):
        mdp, _, _ = envs.build_counterexample()
        policy = envs.TabularPolicy.uniform(3, 2)
        _, j = envs.evaluate_policy_exact(mdp, policy)
        assert abs(j - 0.25) < 1e-12


class TestValueIteration:
    def test_greedy_policy_is_optimal(self):
        rng = np.random.default_rng(0)
        mdp = envs.random_mdp(6, 3, rng, discount=0.9)
        v_star, q, greedy = envs.value_iteration(mdp)
        _, j_star = envs.evaluate_policy_exact(mdp, greedy)
        for _ in range(30):
            other = envs.TabularPolicy(rng.dirichlet(np.ones(3), size=6))
            _, j = envs.evaluate_policy_exact(mdp, other)
            assert j <= j_star + 1e-9

    def test_fixed_point(self):
        rng = np.random.default_rng(1)
        mdp = envs.random_mdp(5, 2, rng)
        v, q, _ = envs.value_iteration(mdp)
        np.testing.assert_allclose(v, q.max(axis=1), atol=1e-9)


class TestGridworld:
    def test_structure(self):
        mdp = envs.make_gridworld()
        assert mdp.n_states == 25 and mdp.n_actions == 4
        np.testing.assert_allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-12)
        assert mdp.terminal[24] and not mdp.terminal[:24].any()
        assert mdp.initial_dist[0] == 1.0

    def test_optimal_policy_reaches_goal(self):
        mdp = envs.make_gridworld()
        _, _, greedy = envs.value_iteration(mdp)
        _, j = envs.evaluate_policy_exact(mdp, greedy)
        assert j > 0.5  # well above a uniform-random walker

    def test_epsilon_greedy_mixes(self):
        mdp = envs.make_gridworld()
        _, _, greedy = envs.value_iteration(mdp)
        pol = envs.epsilon_greedy_policy(greedy, 0.3)
        assert np.all(pol.probs >= 0.3 / 4 - 1e-12)
        np.testing.assert_allclose(pol.probs.sum(axis=1), 1.0)


class TestCounterexample:
    def test_exact_values(self):
        mdp, dataset, collapse = envs.build_counterexample()
        pi_hat, _, _ = envs.estimate_behavior_tabular(dataset, 3, 2)
        _, j_hat = envs.evaluate_policy_exact(mdp, pi_hat)
        assert abs(j_hat - 0.25) < 1e-12
        j_a0 = envs.evaluate_on_empirical_collapsed_model(dataset, collapse, np.array([1.0, 0.0]))
        j_a1 = envs.evaluate_on_empirical_collapsed_model(dataset, collapse, np.array([0.0, 1.0]))
        j_mix = envs.evaluate_on_empirical_collapsed_model(dataset, collapse, np.array([0.5, 0.5]))
        assert abs(j_a0 - 1.0 / 3.0) < 1e-12
        assert abs(j_a1 - 0.0) < 1e-12
        assert abs(j_mix - 0.25) < 1e-12

    def test_behavior_estimate_is_uniform(self):
        _, dataset, _ = envs.build_counterexample()
        pi_hat, counts, _ = envs.estimate_behavior_tabular(dataset, 3, 2)
        np.testing.assert_allclose(pi_hat.probs[0], [0.5, 0.5])
        assert counts[0].sum() == 4 and counts[1].sum() == 2

    def test_collapse_merges_live_states(self):
        _, dataset, collapse = envs.build_counterexample()
        collapsed = envs.collapse_dataset(dataset, collapse)
        s, _, _, _, _ = envs.tabular_indices(collapsed)
        assert collapsed.state_dim == 2
        assert set(s.tolist()) == {0}


# Float values whose repr and bytes a dataset file must keep, signed zeros and
# subnormals included.
_IO_VALUES = [0.0, -0.0, 1.0, -1.5, 0.1, 1e-300, 5e-324, 1e300, 123456.789]

# Row lines for load_dataset: spellings of one value that parse alike, signed
# zeros, and malformed lines of each kind (width, type, JSON, key, ragged).
_IO_LINES = [
    '{"s": [0.0], "a": [1.0], "r": 0.0, "s2": [0.0], "d": 1}',
    '{"s": [0.00], "a": [1], "r": 0, "s2": [0e0], "d": true}',
    '{"s": [-0.0], "a": [-1.0], "r": -0.0, "s2": [-0.0], "d": 0}',
    '{"s": [5e-324], "a": [0.5], "r": 1e300, "s2": [0.1], "d": 0}',
    '{"s": [0.0, 1.0], "a": [1.0], "r": 0.0, "s2": [0.0], "d": 1}',
    '{"s": [0.0], "a": [1.0], "r": "x", "s2": [0.0], "d": 1}',
    '{"s": [0.0], "a": [1.0], "r": 0.0, "s2": [0.0], "d": 2}',
    '{"s": [[0.0]], "a": [1.0], "r": 0.0, "s2": [0.0], "d": 1}',
    '{"s": [0.0], "a": [1.0], "s2": [0.0], "d": 1}',
    '[0.0, 1.0]',
    '{not json',
]


class TestDatasetIO:
    # save_dataset and load_dataset as they were before they cached the text
    # of each distinct row: every row formatted, every line parsed.
    @staticmethod
    def reference_save_dataset(dataset, path):
        header = dict(zip(envs._HEADER_KEYS, (dataset.state_dim, dataset.action_dim,
                                              dataset.n, dataset.behavior_tag)))
        s, a, r, s2, d = dataset.arrays()

        def floats(k):
            return "[" + ", ".join(["%r"] * k) + "]"

        row = (f'{{"s": {floats(dataset.state_dim)}, "a": {floats(dataset.action_dim)}, '
               f'"r": %r, "s2": {floats(dataset.state_dim)}, "d": %d}}\n')
        table = np.hstack([s, a, r[:, None], s2, d[:, None]]).tolist()
        envs.atomic_write(path, json.dumps(header) + "\n" + "".join([row % tuple(x) for x in table]))

    @staticmethod
    def reference_load_dataset(path):
        try:
            with open(path) as fh:
                lines = (line for line in fh if line.strip())
                header = json.loads(next(lines, ""))
                state_dim, action_dim, n, tag = (header[k] for k in envs._HEADER_KEYS)
                rows, blocks = 0, []
                while block := [json.loads(line)
                                for line in itertools.islice(lines, envs.ROW_BLOCK)]:
                    rows += len(block)
                    blocks.append([np.array([row[k] for row in block]) for k in envs._ROW_KEYS])
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
        return envs.OfflineDataset(state_dim, action_dim, *columns, tag)

    @staticmethod
    def assert_same_columns(got, want):
        for x, y in zip(got.arrays(), want.arrays()):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        env = envs.PointMassEnv()
        ds = envs.generate_dataset(env, envs.pointmass_behavior("medium", env), 137, 3,
                                   behavior_tag="t")
        path = str(tmp_path / "d.jsonl")
        envs.save_dataset(ds, path)
        ds2 = envs.load_dataset(path)
        for a, b in zip(ds.arrays(), ds2.arrays()):
            np.testing.assert_array_equal(a, b)
        assert ds2.behavior_tag == "t" and ds2.n == 137

    @pytest.mark.parametrize("task", ["pointmass", "gridworld"])
    def test_round_trip_across_row_blocks_is_byte_identical(self, tmp_path, task):
        n = 2 * envs.ROW_BLOCK + 1
        if task == "pointmass":
            env = envs.PointMassEnv()
            ds = envs.generate_dataset(env, envs.pointmass_behavior("medium", env), n, 4)
        else:
            ds = envs.generate_tabular_dataset(envs.make_gridworld(),
                                               envs.TabularPolicy.uniform(25, 4), n, seed=4)
        path = tmp_path / "d.jsonl"
        envs.save_dataset(ds, str(path))
        header = {"state_dim": ds.state_dim, "action_dim": ds.action_dim, "n": n,
                  "behavior_tag": ds.behavior_tag}
        rows = [json.dumps({"s": s.tolist(), "a": a.tolist(), "r": float(r),
                            "s2": s2.tolist(), "d": int(d)}) for s, a, r, s2, d in zip(*ds.arrays())]
        assert path.read_text() == "\n".join([json.dumps(header), *rows]) + "\n"
        self.reference_save_dataset(ds, str(tmp_path / "reference.jsonl"))
        assert (tmp_path / "reference.jsonl").read_bytes() == path.read_bytes()
        loaded = envs.load_dataset(str(path))
        self.assert_same_columns(loaded, ds)
        self.assert_same_columns(loaded, self.reference_load_dataset(str(path)))
        envs.save_dataset(loaded, str(tmp_path / "again.jsonl"))
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_signed_zeros_keep_their_bytes(self, tmp_path):
        # rows 0-7 differ only in the signs of zeros in s, r and s2: a key by
        # value would format them all as row 0
        i = np.arange(24) % 8
        zero = np.zeros(24)
        s = np.stack([np.where(i & 1, -0.0, 0.0), zero + 1.0], axis=1)
        r = np.where(i & 2, -0.0, 0.0)
        s2 = np.stack([zero + 2.0, np.where(i & 4, -0.0, 0.0)], axis=1)
        ds = envs.OfflineDataset(2, 1, s, np.ones((24, 1)), r, s2, np.zeros(24, bool))
        path = tmp_path / "d.jsonl"
        envs.save_dataset(ds, str(path))
        self.reference_save_dataset(ds, str(tmp_path / "reference.jsonl"))
        assert path.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
        rows = path.read_text().splitlines()[1:]
        assert len(set(rows)) == 8 and sum(row.count("-0.0") for row in rows) == 36
        loaded = envs.load_dataset(str(path))
        self.assert_same_columns(loaded, ds)
        assert np.signbit(loaded.rewards).tolist() == [bool(k & 2) for k in i]

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 2)),
           pool=st.lists(st.lists(st.sampled_from(_IO_VALUES), min_size=9, max_size=9),
                         min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=40),
           block=st.integers(1, 8))
    def test_duplicated_rows_match_the_per_row_reference(self, tmp_path, dims, pool, picks,
                                                         block):
        sd, ad = dims
        table = np.array([pool[p % len(pool)] for p in picks])
        s, a, r, s2 = np.split(table[:, :2 * sd + ad + 1], [sd, sd + ad, sd + ad + 1], axis=1)
        ds = envs.OfflineDataset(sd, ad, s, a, r[:, 0], s2, table[:, -1] > 0.5, "dup")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(envs, "ROW_BLOCK", block)
            envs.save_dataset(ds, str(tmp_path / "d.jsonl"))
            self.reference_save_dataset(ds, str(tmp_path / "reference.jsonl"))
            assert (tmp_path / "d.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
            loaded = envs.load_dataset(str(tmp_path / "d.jsonl"))
            self.assert_same_columns(loaded, ds)
            self.assert_same_columns(loaded, self.reference_load_dataset(str(tmp_path / "d.jsonl")))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(picks=st.lists(st.sampled_from(_IO_LINES), min_size=1, max_size=30),
           block=st.integers(1, 8), extra=st.integers(0, 1))
    def test_load_matches_the_per_line_reference(self, tmp_path, picks, block, extra):
        path = str(tmp_path / "d.jsonl")
        header = {"state_dim": 1, "action_dim": 1, "n": len(picks) + extra, "behavior_tag": ""}
        Path(path).write_text("\n".join([json.dumps(header), *picks]) + "\n")
        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(envs, "ROW_BLOCK", block)
            for load in (envs.load_dataset, self.reference_load_dataset):
                try:
                    outcomes.append(load(path))
                except RejectedInputError as exc:
                    outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(want, str):
            assert got == want
        else:
            self.assert_same_columns(got, want)

    def test_save_is_deterministic(self, tmp_path):
        env = envs.PointMassEnv()
        ds = envs.generate_dataset(env, envs.pointmass_behavior("random", env), 50, 1)
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        envs.save_dataset(ds, p1)
        envs.save_dataset(ds, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"state_dim": 1, "action_dim": 1, "n": 2, "behavior_tag": ""}\n'
                        '{"s": [0.0], "a": [1.0], "r": 0.0, "s2": [0.0], "d": 1}\n')
        with pytest.raises(RejectedInputError):
            envs.load_dataset(str(path))

    @pytest.mark.parametrize("text", ["", "\n\n", '{"state_dim": 1, "action_dim": 1, "n": 0, '
                                      '"behavior_tag": ""}\n'], ids=["empty", "blank", "n-0"])
    def test_file_without_rows_rejected(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(RejectedInputError):
            envs.load_dataset(str(path))

    # Written by earlier releases: the first two by the one that stored datasets
    # as per-row objects, the 350-row file by the one that generated point-mass
    # data row by row. The digests are bpr.dataset_hash of the datasets as the
    # writing release loaded them.
    @pytest.mark.parametrize("name, digest", [
        ("pointmass-mixture-20.jsonl",
         "b02c8fd848f79382cf31aaf1ef949017e25c8f8ed3aba40b1f3d7d26f78c0ca8"),
        ("gridworld-eps0.3-50.jsonl",
         "5fdee79d68d944286e1bf501f0396fa3ecd43283ce6f1d64590e1318c7c5eb35"),
        ("pointmass-mixture-350.jsonl",
         "221032855d3fe5c9423b42c29c6117619818306e5a49c789566f6d9d8fe240c8"),
    ])
    def test_old_files_load_and_resave_byte_for_byte(self, tmp_path, name, digest):
        original = DATA_DIR / name
        ds = envs.load_dataset(str(original))
        assert bpr.dataset_hash(ds) == digest
        envs.save_dataset(ds, str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == original.read_bytes()

    def test_atomic_write_replaces(self, tmp_path):
        path = str(tmp_path / "f.txt")
        envs.atomic_write(path, "one")
        envs.atomic_write(path, "two")
        assert open(path).read() == "two"
        assert [p for p in tmp_path.iterdir()] == [tmp_path / "f.txt"]


class TestDatasetArrays:
    def test_arrays_reject_in_place_writes(self):
        _, ds, _ = envs.build_counterexample()
        first = ds.arrays()
        for col in first:
            with pytest.raises(ValueError):
                col[0] = 0
        assert all(x is y for x, y in zip(first, ds.arrays()))  # shared, not copied

    def test_caller_arrays_are_copied(self):
        s = np.zeros((2, 1))
        ds = envs.OfflineDataset(1, 1, s, np.ones((2, 1)), np.zeros(2), s, np.zeros(2, bool))
        s[0, 0] = 5.0
        assert ds.states[0, 0] == 0.0 and s.flags.writeable

    @pytest.mark.parametrize("field, value", [
        ("states", np.zeros((3, 3))),
        ("actions", np.zeros(3)),
        ("rewards", np.zeros(2)),
        ("next_states", np.zeros((3, 1))),
        ("dones", np.zeros((3, 1), bool)),
        ("rewards", np.array([0.0, np.nan, 0.0])),
    ])
    def test_bad_column_rejected(self, field, value):
        cols = dict(states=np.zeros((3, 2)), actions=np.zeros((3, 1)), rewards=np.zeros(3),
                    next_states=np.zeros((3, 2)), dones=np.zeros(3, bool))
        cols[field] = value
        with pytest.raises(RejectedInputError):
            envs.OfflineDataset(2, 1, **cols)

    def test_empty_dataset_rejected(self):
        with pytest.raises(RejectedInputError):
            envs.OfflineDataset(1, 1, np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0),
                                np.zeros((0, 1)), np.zeros(0, bool))


class TestEmpiricalModel:
    def test_counts_and_rewards(self):
        _, dataset, _ = envs.build_counterexample()
        mdp_hat, counts = envs.empirical_mdp_from_dataset(dataset, 3, 2, 1.0)
        assert counts[0, 0] == 2 and counts[0, 1] == 2
        assert counts[1, 0] == 1 and counts[1, 1] == 1
        assert mdp_hat.reward[1, 0] == 1.0 and mdp_hat.reward[0, 0] == 0.0
        # done transitions route to the synthetic absorbing state
        assert mdp_hat.transition[0, 0, 3] == 1.0
        assert mdp_hat.transition[0, 1, 1] == 1.0

    def test_empirical_start_distribution(self):
        _, dataset, _ = envs.build_counterexample()
        mdp_hat, _ = envs.empirical_mdp_from_dataset(dataset, 3, 2, 1.0)
        np.testing.assert_allclose(mdp_hat.initial_dist, [1.0, 0.0, 0.0, 0.0])

    def test_behavior_frequencies_within_binomial_ci(self):
        rng = np.random.default_rng(0)
        mdp = envs.random_mdp(3, 2, rng, discount=0.9)
        true_pol = envs.TabularPolicy(np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
        ds = envs.generate_tabular_dataset(mdp, true_pol, 20000, seed=1, max_episode_len=50)
        est, counts, unvisited = envs.estimate_behavior_tabular(ds, 3, 2)
        assert not unvisited.any()
        for s in range(3):
            n = counts[s].sum()
            p = true_pol.probs[s, 0]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(est.probs[s, 0] - p) < 5 * se

    @staticmethod
    def reference_model(dataset, n_states, n_actions):
        """The per-row loop that empirical_mdp_from_dataset must match bit for bit."""
        s, a, r, s2, d = envs.tabular_indices(dataset)
        n_total = n_states + 1
        counts = np.zeros((n_states, n_actions))
        next_counts = np.zeros((n_states, n_actions, n_total))
        reward_sums = np.zeros((n_states, n_actions))
        start_counts = np.zeros(n_total)
        is_start = True
        for si, ai, ri, s2i, di in zip(s, a, r, s2, d):
            if is_start:
                start_counts[si] += 1
            counts[si, ai] += 1
            reward_sums[si, ai] += ri
            next_counts[si, ai, n_states if di else s2i] += 1
            is_start = bool(di)
        t = np.zeros((n_total, n_actions, n_total))
        rew = np.zeros((n_total, n_actions))
        for si in range(n_states):
            for ai in range(n_actions):
                if counts[si, ai] > 0:
                    t[si, ai] = next_counts[si, ai] / counts[si, ai]
                    rew[si, ai] = reward_sums[si, ai] / counts[si, ai]
                else:
                    t[si, ai, si] = 1.0
        t[n_states, :, n_states] = 1.0
        return t, rew, start_counts / start_counts.sum(), counts

    @pytest.mark.parametrize("case", ["gridworld", "short-gridworld", "counterexample",
                                      "collapsed", "no-terminals"])
    def test_matches_the_per_row_loop_bitwise(self, case):
        _, counterexample, collapse = envs.build_counterexample()
        grid = envs.make_gridworld()
        behavior = envs.epsilon_greedy_policy(envs.value_iteration(grid)[2], 0.3)
        loop_mdp = envs.random_mdp(6, 3, np.random.default_rng(0))
        dataset = {
            "gridworld": lambda: envs.generate_tabular_dataset(grid, behavior, 2000, seed=0),
            "short-gridworld": lambda: envs.generate_tabular_dataset(grid, behavior, 9, seed=1),
            "counterexample": lambda: counterexample,
            "collapsed": lambda: envs.collapse_dataset(counterexample, collapse),
            "no-terminals": lambda: envs.generate_tabular_dataset(
                loop_mdp, envs.TabularPolicy.uniform(6, 3), 40, seed=0),
        }[case]()
        n_states, n_actions = dataset.state_dim, dataset.action_dim
        mdp_hat, counts = envs.empirical_mdp_from_dataset(dataset, n_states, n_actions, 0.9)
        t, rew, rho, ref_counts = self.reference_model(dataset, n_states, n_actions)
        for got, want in ((mdp_hat.transition, t), (mdp_hat.reward, rew),
                          (mdp_hat.initial_dist, rho), (counts, ref_counts)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert mdp_hat.r_max == max(1.0, np.max(np.abs(rew)))
        unvisited = np.append(ref_counts.sum(axis=1) == 0, True)
        np.testing.assert_array_equal(mdp_hat.terminal, unvisited)

    def test_policy_mass_on_unseen_action_rejected(self):
        _, dataset, _ = envs.build_counterexample()
        s, a, r, s2, d = dataset.arrays()
        keep = a[:, 1] == 0  # drop all a1
        pruned = envs.OfflineDataset(3, 2, s[keep], a[keep], r[keep], s2[keep], d[keep])
        collapse = np.array([0, 0, 1])
        with pytest.raises(UndefinedModelError):
            envs.evaluate_on_empirical_collapsed_model(pruned, collapse, np.array([0.0, 1.0]))


class TestTabularGenerationMatchesChoice:
    @staticmethod
    def reference_generate_tabular(mdp, policy, n, seed, max_episode_len=200,
                                   behavior_tag="tabular"):
        """The Generator.choice loop that generate_tabular_dataset must match bit for bit."""
        rng = np.random.default_rng(seed)
        rows = []
        while len(rows) < n:
            s = rng.choice(mdp.n_states, p=mdp.initial_dist)
            for _ in range(max_episode_len):
                a = rng.choice(mdp.n_actions, p=policy.probs[s])
                s2 = rng.choice(mdp.n_states, p=mdp.transition[s, a])
                done = bool(mdp.terminal[s2])
                rows.append((s, a, mdp.reward[s, a], s2, done))
                if done or len(rows) >= n:
                    break
                s = s2
        return envs._tabular_dataset(mdp.n_states, mdp.n_actions, *zip(*rows), behavior_tag)

    @staticmethod
    def same(got, want):
        return got.behavior_tag == want.behavior_tag and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(got.arrays(), want.arrays()))

    @pytest.mark.parametrize("case, seed, n, max_episode_len", [
        ("eps-greedy", 0, 2000, 200),
        ("eps-greedy", 1, 2000, 200),
        ("eps-greedy", 99, 2000, 200),  # criterion 5's seeds are 0-99
        ("eps-greedy", 10_000, 2000, 200),  # criterion 6's are 10000-10099
        ("eps-greedy", 10_099, 2000, 200),
        ("deterministic", 3, 500, 200),
        ("random-mdp", 4, 300, 200),
        ("counterexample-uniform", 5, 400, 200),
        ("eps-greedy", 6, 700, 3),
        ("eps-greedy", 7, 4, 200),
        ("eps-greedy", 8, 5000, 200),  # two draws per row or more: over two uniform blocks
    ], ids=["grid-0", "grid-1", "grid-99", "grid-10000", "grid-10099", "deterministic",
            "random-mdp", "counterexample-uniform", "truncated-episodes", "n-inside-one-episode",
            "several-uniform-blocks"])
    def test_equals_the_choice_loop(self, case, seed, n, max_episode_len):
        grid = envs.make_gridworld()
        greedy = envs.value_iteration(grid)[2]
        mdp, policy = {
            "eps-greedy": lambda: (grid, envs.epsilon_greedy_policy(greedy, 0.3)),
            # zero-probability actions repeat a CDF value
            "deterministic": lambda: (grid, greedy),
            "random-mdp": lambda: (envs.random_mdp(7, 3, np.random.default_rng(seed)),
                                   envs.TabularPolicy(np.random.default_rng(1).dirichlet(
                                       np.ones(3), size=7))),
            "counterexample-uniform": lambda: (envs.build_counterexample()[0],
                                               envs.TabularPolicy.uniform(3, 2)),
        }[case]()
        got = envs.generate_tabular_dataset(mdp, policy, n, seed, max_episode_len, "t")
        want = self.reference_generate_tabular(mdp, policy, n, seed, max_episode_len, "t")
        assert got.n == n and self.same(got, want)

    def test_draws_on_a_cdf_step_follow_choice_and_one_ulp_breaks_equality(self, monkeypatch):
        u = np.random.default_rng(0).random(2)  # seed 0's start and first action draws
        # choice divides each CDF by its total: this start CDF steps at u[0]
        # before the division and above u[0] after it
        rho = np.array([u[0], 1.0 - 1e-10 - u[0]])
        # choice breaks a tie to the right: this action CDF steps exactly at u[1]
        probs = np.tile([u[1], 1.0 - u[1]], (2, 1))
        assert probs.cumsum(axis=1)[0, -1] == 1.0
        mdp = envs.TabularMDP(2, 2, np.full((2, 2, 2), 0.5), np.array([[0.0, 0.5], [1.0, 0.25]]),
                              rho, 0.9, 1.0, np.zeros(2, dtype=bool))
        policy = envs.TabularPolicy(probs)
        want = self.reference_generate_tabular(mdp, policy, 50, 0)
        assert want.states[0, 0] == 1.0 and want.actions[0, 1] == 1.0
        assert self.same(envs.generate_tabular_dataset(mdp, policy, 50, 0), want)
        real = envs._uniforms

        def second_uniform_one_ulp_lower(rng):
            stream = real(rng)
            yield next(stream)
            yield float(np.nextafter(next(stream), 0.0))
            yield from stream

        monkeypatch.setattr(envs, "_uniforms", second_uniform_one_ulp_lower)
        assert not self.same(envs.generate_tabular_dataset(mdp, policy, 50, 0), want)


class TestPointMass:
    def test_step_dynamics(self):
        env = envs.PointMassEnv()
        s = np.array([1.0, 0.0, 0.0, 0.0])
        s2, r = env.step(s, np.array([-1.0, 0.0]))
        np.testing.assert_allclose(s2[2:], [-0.1, 0.0])
        np.testing.assert_allclose(s2[:2], [1.0 - 0.005, 0.0])
        assert abs(r + np.linalg.norm(s2[:2])) < 1e-12

    def test_actions_clipped(self):
        env = envs.PointMassEnv()
        s = np.zeros(4)
        s_big, _ = env.step(s, np.array([100.0, 0.0]))
        s_one, _ = env.step(s, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(s_big, s_one)

    def test_expert_outperforms_random(self):
        env = envs.PointMassEnv()
        from bprlab.agents import evaluate_return
        rng_pol = envs.pointmass_behavior("random", env)
        exp_pol = envs.pointmass_behavior("expert", env)
        fixed = np.random.default_rng(0)
        m_exp, _, _ = evaluate_return(lambda s: exp_pol(s, fixed), env, 20, seed=1)
        m_rnd, _, _ = evaluate_return(lambda s: rng_pol(s, fixed), env, 20, seed=1)
        assert m_exp > m_rnd + 5.0

    def test_dataset_episode_boundaries(self):
        env = envs.PointMassEnv(max_steps=10)
        ds = envs.generate_dataset(env, envs.pointmass_behavior("random", env), 35, 0)
        _, _, _, _, d = ds.arrays()
        assert d[9] and d[19] and d[29] and not d[5]

    def test_generation_deterministic(self):
        env = envs.PointMassEnv()
        a = envs.generate_dataset(env, envs.pointmass_behavior("medium", env), 100, 7)
        b = envs.generate_dataset(env, envs.pointmass_behavior("medium", env), 100, 7)
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)


class TestPointMassGenerationMatchesLoop:
    @staticmethod
    def reference_generate_pointmass(env, behavior, n, seed, behavior_tag="pointmass"):
        """The per-row loop that generate_pointmass_dataset must match bit for bit.
        It steps with env.step, whose dynamics the generator shares; the pinned
        files under tests/data/ and test_step_dynamics check those."""
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
        return envs.OfflineDataset(env.state_dim, env.action_dim, *zip(*rows), behavior_tag)

    @staticmethod
    def behavior(case, env):
        named = {name: envs.pointmass_behavior(name, env) for name in ("expert", "medium", "random")}
        if case == "medex":
            return [(0.5, named["expert"]), (0.5, named["medium"])]
        if case == "weighted":
            return [(1, named["random"]), (0.0, named["expert"]), (3, named["medium"])]
        return named[case]

    @pytest.mark.parametrize("case, n, seed, goal, max_steps", [
        ("expert", 999, 0, None, 100),
        ("medium", 137, 3, None, 100),
        ("random", 50, 1, None, 100),
        ("medex", 20_000, 0, None, 100),  # criteria 7 and 8
        ("medex", 1, 4, None, 100),
        ("medex", 999, 5, None, 100),
        ("weighted", 999, 6, None, 100),
        ("weighted", 137, 7, (0.3, -0.2), 30),
        ("expert", 137, 8, (0.3, -0.2), 30),
        ("random", 999, 9, (1.5, 2.0), 7),
        ("medium", 50, 10, None, 1),
        ("medex", 20_000, 11, (-0.5, 0.25), 250),
    ], ids=["expert", "medium", "random", "medex-20000", "medex-one-row", "medex", "weighted",
            "weighted-goal", "expert-goal", "random-far-goal", "one-step-episodes",
            "medex-20000-goal"])
    def test_equals_the_per_row_loop(self, case, n, seed, goal, max_steps):
        env = envs.PointMassEnv(max_steps=max_steps)
        if goal is not None:
            env.goal = np.array(goal)
        behavior = self.behavior(case, env)
        got = envs.generate_pointmass_dataset(env, behavior, n, seed, "t")
        want = self.reference_generate_pointmass(env, behavior, n, seed, "t")
        assert got.n == n
        assert TestTabularGenerationMatchesChoice.same(got, want)

    def test_behavior_is_a_frozen_callable(self):
        env = envs.PointMassEnv()
        expert = envs.pointmass_behavior("expert", env)
        assert (expert.gain, expert.noise) == (1.0, 0.05)
        with pytest.raises(dataclasses.FrozenInstanceError):
            expert.gain = 2.0
        a = expert(np.array([0.5, -0.5, 0.1, 0.0]), np.random.default_rng(0))
        assert a.shape == (2,) and np.all(np.abs(a) <= 1.0)

    @pytest.mark.parametrize("behavior", [
        lambda s, rng: np.zeros(2),
        "expert-in-a-lambda",
        [(1.0, lambda s, rng: np.zeros(2))],
        [],
        [(-1.0, "expert"), (2.0, "medium")],
        [(np.nan, "expert")],
        [(0.0, "expert")],
        [(np.inf, "expert")],
        [("expert",)],
    ], ids=["lambda", "wrapped-named", "lambda-in-mixture", "empty-mixture", "negative-weight",
            "nan-weight", "zero-weights", "inf-weight", "not-a-pair"])
    def test_other_behaviors_are_rejected(self, behavior):
        env = envs.PointMassEnv()
        expert = envs.pointmass_behavior("expert", env)
        named = lambda b: envs.pointmass_behavior(b, env) if isinstance(b, str) else b
        if behavior == "expert-in-a-lambda":
            behavior = lambda s, rng: expert(s, rng)
        elif isinstance(behavior, list):
            behavior = [tuple(named(x) for x in pair) for pair in behavior]
        with pytest.raises(RejectedInputError):
            envs.generate_pointmass_dataset(env, behavior, 10, 0)

    @pytest.mark.parametrize("n, max_steps", [(0, 100), (10, 0), (10, 2.5)],
                             ids=["no-rows", "empty-episodes", "fractional-episodes"])
    def test_bad_sizes_are_rejected(self, n, max_steps):
        # max_steps = 0 logged no row per episode, so the per-row loop never ended
        env = envs.PointMassEnv(max_steps=max_steps)
        with pytest.raises(RejectedInputError):
            envs.generate_pointmass_dataset(env, envs.pointmass_behavior("random", env), n, 0)


class TestValidation:
    @pytest.mark.parametrize("column, row", [
        (0, 0.4 * np.eye(3)[0] + 0.6 * np.eye(3)[2]),
        (0, np.zeros(3)),
        (1, np.ones(2)),
        (1, np.array([2.0, 0.0])),
        (3, np.array([0.0, 1.0, 1e-300])),
        (3, np.array([1.0, 1.0, -1.0])),
    ], ids=["state-mixture", "state-all-zero", "action-two-ones", "action-two",
            "next-state-tiny", "next-state-sums-to-one"])
    def test_row_that_is_not_one_hot_is_rejected(self, column, row):
        _, dataset, _ = envs.build_counterexample()
        columns = [np.array(col) for col in dataset.arrays()]
        columns[column][4] = row
        with pytest.raises(RejectedInputError, match="row 4 is not one-hot"):
            envs.tabular_indices(envs.OfflineDataset(3, 2, *columns))

    def test_bad_transition_rows_rejected(self):
        with pytest.raises(RejectedInputError):
            envs.TabularMDP(2, 1, np.zeros((2, 1, 2)), np.zeros((2, 1)),
                            np.array([1.0, 0.0]), 0.9, 1.0, np.zeros(2, dtype=bool))

    def test_reward_above_rmax_rejected(self):
        t = np.zeros((1, 1, 1))
        t[0, 0, 0] = 1.0
        with pytest.raises(RejectedInputError):
            envs.TabularMDP(1, 1, t, np.array([[2.0]]), np.array([1.0]), 0.9, 1.0,
                            np.zeros(1, dtype=bool))

    def test_nan_reward_rejected(self):
        # |nan| > r_max is false, so the r_max check alone let it through
        with pytest.raises(RejectedInputError, match="reward entries"):
            envs.TabularMDP(2, 1, np.full((2, 1, 2), 0.5), np.array([[np.nan], [0.0]]),
                            np.array([1.0, 0.0]), 0.9, 1.0, np.zeros(2, dtype=bool))

    def test_nan_r_max_rejected(self):
        with pytest.raises(RejectedInputError, match="r_max must be finite"):
            envs.TabularMDP(2, 1, np.full((2, 1, 2), 0.5), np.zeros((2, 1)),
                            np.array([1.0, 0.0]), 0.9, float("nan"), np.zeros(2, dtype=bool))

    def test_policy_rows_must_normalize(self):
        with pytest.raises(RejectedInputError):
            envs.TabularPolicy(np.array([[0.5, 0.4]]))

    @staticmethod
    def two_state_mdp(transition_row=(0.5, 0.5), initial_dist=(1.0, 0.0)):
        t = np.tile(np.array(transition_row, dtype=float), (2, 1, 1))
        return envs.TabularMDP(2, 1, t, np.zeros((2, 1)), np.array(initial_dist), 0.9, 1.0,
                               np.zeros(2, dtype=bool))

    def test_nan_transition_rejected(self):
        with pytest.raises(RejectedInputError, match="transition entries"):
            self.two_state_mdp(transition_row=(np.nan, 1.0))

    def test_nan_initial_dist_rejected(self):
        with pytest.raises(RejectedInputError, match="initial distribution entries"):
            self.two_state_mdp(initial_dist=(np.nan, 1.0))

    def test_negative_transition_row_that_sums_to_one_rejected(self):
        t = np.tile([0.94, 0.03, -0.27, 0.30], (4, 1, 1))
        assert abs(t.sum(axis=2) - 1.0).max() < 1e-9
        with pytest.raises(RejectedInputError, match="transition entries"):
            envs.TabularMDP(4, 1, t, np.zeros((4, 1)), np.full(4, 0.25), 0.9, 1.0,
                            np.zeros(4, dtype=bool))

    def test_nan_policy_rejected(self):
        with pytest.raises(RejectedInputError, match="non-finite"):
            envs.TabularPolicy(np.array([[np.nan, 1.0], [0.5, 0.5]]))

    @pytest.mark.parametrize("target, row", [
        ("policy", (1.0 + 1e-13, -1e-13)),
        ("transition", (1.25, -0.25)),
        ("transition", (0.5, 0.4)),
        ("transition", (np.inf, 1.0)),
        ("initial_dist", (np.nan, 1.0)),
    ], ids=["policy-tiny-negative", "transition-negative", "transition-sum",
            "transition-inf", "initial-dist-nan"])
    def test_generator_rejects_what_choice_rejected(self, target, row):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, p=np.array(row))
        # TabularPolicy tolerates -1e-12; the MDP is written in place after its checks
        mdp = envs.TabularMDP(2, 2, np.full((2, 2, 2), 0.5), np.zeros((2, 2)),
                              np.array([1.0, 0.0]), 0.9, 1.0, np.zeros(2, dtype=bool))
        policy = envs.TabularPolicy.uniform(2, 2)
        if target == "policy":
            policy = envs.TabularPolicy(np.array([row, (0.5, 0.5)]))
        elif target == "transition":
            mdp.transition[0, 1] = row
        else:
            mdp.initial_dist[:] = row
        with pytest.raises(RejectedInputError, match="cannot sample"):
            envs.generate_tabular_dataset(mdp, policy, 10, seed=0)

    def test_generator_rejects_a_policy_of_the_wrong_shape(self):
        with pytest.raises(RejectedInputError, match="policy shape"):
            envs.generate_tabular_dataset(self.two_state_mdp(), envs.TabularPolicy.uniform(2, 3),
                                          10, seed=0)

    def test_generator_rejects_empty_episodes(self):
        # max_episode_len = 0 logged no row per episode, so the loop never ended
        with pytest.raises(RejectedInputError, match="max_episode_len"):
            envs.generate_tabular_dataset(self.two_state_mdp(), envs.TabularPolicy.uniform(2, 1),
                                          10, seed=0, max_episode_len=0)
