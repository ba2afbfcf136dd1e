import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bprlab import agents, bpr, envs, numerics
from bprlab.errors import (
    BprlabError,
    ContractViolationError,
    RejectedInputError,
    TrainingDivergenceError,
    UnusableDatasetError,
)

finite_vec = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=2, max_size=5
)


def small_dataset(n=400, seed=0):
    env = envs.PointMassEnv()
    return envs.generate_dataset(env, envs.pointmass_behavior("expert", env), n, seed)


class TestLossValues:
    def test_aligned_directions_give_zero(self):
        loss, grad = bpr.bpr_loss(np.array([[2.0, 0.0]]), np.array([[0.5, 0.0]]))
        assert abs(loss) < 1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_opposite_directions_give_four(self):
        loss, _ = bpr.bpr_loss(np.array([[1.0, 0.0]]), np.array([[-3.0, 0.0]]))
        assert abs(loss - 4.0) < 1e-12

    def test_orthogonal_directions_give_two(self):
        loss, _ = bpr.bpr_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]))
        assert abs(loss - 2.0) < 1e-12

    def test_equals_cosine_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.normal(size=(1, 3)) + 0.1
            a = rng.normal(size=(1, 3)) + 0.1
            loss, _ = bpr.bpr_loss(y, a)
            cos = np.sum(y * a) / (np.linalg.norm(y) * np.linalg.norm(a))
            assert abs(loss - (2.0 - 2.0 * cos)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(finite_vec, finite_vec)
    def test_range_and_scale_invariance(self, y, a):
        y = np.array([y])
        a = np.array([a[: y.shape[1]] + [1.0] * max(0, y.shape[1] - len(a))])
        if np.linalg.norm(a) < 1e-3 or np.linalg.norm(y) < 1e-6:
            return
        loss, _ = bpr.bpr_loss(y, a)
        assert -1e-12 <= loss <= 4.0 + 1e-12
        loss_scaled, _ = bpr.bpr_loss(y, 7.5 * a)
        assert abs(loss - loss_scaled) < 1e-9

    def test_one_row_batches_agree_with_the_full_batch(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(8, 3)) + 0.2
        a = rng.normal(size=(8, 3)) + 0.2
        batch_loss, batch_grad = bpr.bpr_loss(y, a)
        rows = [bpr.bpr_loss(y[i : i + 1], a[i : i + 1]) for i in range(8)]
        assert abs(batch_loss - np.mean([l for l, _ in rows])) < 1e-12
        np.testing.assert_allclose(
            batch_grad, np.concatenate([g for _, g in rows]) / 8.0, atol=1e-12)

    def test_tiny_action_norm_rejected(self):
        with pytest.raises(ContractViolationError):
            bpr.bpr_loss(np.array([[1.0, 0.0]]), np.array([[1e-9, 0.0]]))


class TestLossGradients:
    def test_matches_finite_differences_many_configs(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(120):
            dim = int(rng.integers(2, 6))
            y = rng.normal(size=(1, dim)) * rng.uniform(0.5, 5.0)
            a = rng.normal(size=(1, dim))
            while np.linalg.norm(a) < 0.1:
                a = rng.normal(size=(1, dim))
            _, grad = bpr.bpr_loss(y, a)
            for i in range(dim):
                yp, ym = y.copy(), y.copy()
                yp[0, i] += h
                ym[0, i] -= h
                fd = (bpr.bpr_loss(yp, a)[0] - bpr.bpr_loss(ym, a)[0]) / (2 * h)
                denom = max(abs(fd), abs(grad[0, i]), 1e-6)
                assert abs(fd - grad[0, i]) / denom < 1e-4

    def test_gradient_ignores_action_scale(self):
        y = np.array([[1.0, 2.0]])
        a = np.array([[0.3, -0.7]])
        _, g1 = bpr.bpr_loss(y, a)
        _, g2 = bpr.bpr_loss(y, 100.0 * a)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_end_to_end_network_gradient(self):
        rng = np.random.default_rng(1)
        enc = bpr.build_encoder(4, 3, (5,), rng)
        pred = bpr.build_action_net(3, 2, (5,), rng)
        s = rng.normal(size=(6, 4))
        a = rng.normal(size=(6, 2)) + 0.3
        _, grad = bpr.bpr_batch_grads(enc, pred, s, a)
        flat = enc.net.flat_parameters()
        analytic = grad[: flat.size]  # the encoder's part comes first
        h = 1e-6
        idx = rng.choice(flat.size, size=10, replace=False)
        for i in idx:
            def loss_at(v):
                f = flat.copy()
                f[i] = v
                e2 = bpr.EncoderModel(enc.net.copy())
                e2.net.set_flat_parameters(f)
                z, _ = numerics.forward(e2.net, s)
                y, _ = numerics.forward(pred, z)
                return bpr.bpr_loss(y, a)[0]
            fd = (loss_at(flat[i] + h) - loss_at(flat[i] - h)) / (2 * h)
            assert abs(fd - analytic[i]) < 1e-5 * max(1.0, abs(fd))


def _one_dimensional_calls():
    rng = np.random.default_rng(0)
    enc = bpr.build_encoder(3, 2, (4,), rng)
    _, cache = numerics.forward(enc.net, np.zeros((1, 3)))
    row = np.ones(2)
    return {
        "forward": lambda: numerics.forward(enc.net, np.zeros(3)),
        "backward": lambda: numerics.backward(enc.net, cache, row),
        "l2_normalize_with_grad": lambda: numerics.l2_normalize_with_grad(row),
        "bpr_loss": lambda: bpr.bpr_loss(row, row),
        "encode": lambda: enc.encode(np.zeros(3)),
    }


@pytest.mark.parametrize("name", list(_one_dimensional_calls()))
def test_a_one_dimensional_input_is_rejected(name):
    with pytest.raises(RejectedInputError, match="batch"):
        _one_dimensional_calls()[name]()


class TestFiltering:
    def test_drops_below_threshold(self):
        actions = np.array([[1.0, 0.0], [1e-9, 0.0], [0.5, 0.0]])
        ds = envs.OfflineDataset(2, 2, np.zeros((3, 2)), actions, np.zeros(3),
                                 np.zeros((3, 2)), np.ones(3, dtype=bool))
        s, a, dropped = bpr.filter_zero_norm_actions(ds)
        assert dropped == 1 and s.shape[0] == 2

    def test_all_dropped_raises(self):
        ds = envs.OfflineDataset(2, 2, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1),
                                 np.zeros((1, 2)), np.ones(1, dtype=bool))
        with pytest.raises(UnusableDatasetError):
            bpr.pretrain(ds, bpr.PretrainConfig(steps=1, batch_size=4, repr_dim=2,
                                                encoder_hidden=(4,), predictor_hidden=(4,)))


class TestPretrain:
    CFG = dict(batch_size=64, repr_dim=8, encoder_hidden=(16,), predictor_hidden=(16,))

    @pytest.mark.parametrize("field, value", [
        ("steps", -1), ("seed", -1), ("batch_size", 0), ("repr_dim", 0),
        ("encoder_hidden", (16, -2)), ("predictor_hidden", (0,)),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(RejectedInputError, match="must be >= "):
            bpr.PretrainConfig(**{**self.CFG, field: value})

    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
    def test_learning_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(RejectedInputError, match="learning_rate must be finite and > 0"):
            bpr.PretrainConfig(**{**self.CFG, "learning_rate": value})

    def test_non_finite_final_parameters_are_a_divergence(self):
        # a learning rate the config would reject, set after construction: one
        # step has a finite loss and leaves non-finite parameters
        cfg = bpr.PretrainConfig(steps=1, **self.CFG)
        cfg.learning_rate = np.inf
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError,
                                                      match="non-finite encoder"):
            bpr.pretrain(small_dataset(100), cfg)

    def test_loss_decreases(self):
        ds = small_dataset()
        enc, trace, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(steps=400, **self.CFG))
        assert np.mean(trace[-50:]) < np.mean(trace[:50]) - 0.1

    def test_encoder_is_frozen(self):
        ds = small_dataset(100)
        enc, _, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(steps=5, **self.CFG))
        assert enc.frozen
        with pytest.raises(ValueError):
            enc.net.layers[0].weight[0, 0] = 0.0

    @pytest.mark.parametrize("write", [
        lambda enc: enc.net.set_flat_parameters(np.zeros_like(enc.net.flat)),
        lambda enc: numerics.adam_step(numerics.AdamState.for_params(enc.net.flat),
                                       enc.net.flat, np.ones_like(enc.net.flat)),
        lambda enc: agents._soft_update(enc.net.flat, np.zeros_like(enc.net.flat), 0.5),
        lambda enc: numerics.share_buffer([enc.net]),
    ], ids=["set_flat_parameters", "adam_step", "soft_update", "share_buffer"])
    def test_frozen_encoder_rejects_writes(self, write):
        ds = small_dataset(100)
        enc, _, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(steps=5, **self.CFG))
        before = enc.param_hash()
        with pytest.raises(ContractViolationError) as info:
            write(enc)
        assert isinstance(info.value, BprlabError)
        assert enc.param_hash() == before

    def test_encoder_and_predictor_share_one_buffer_and_freeze_covers_the_encoder(self):
        ds = small_dataset(100)
        enc, _, pred, _ = bpr.pretrain(ds, bpr.PretrainConfig(steps=5, **self.CFG))
        assert enc.net.flat.base is pred.flat.base is not None
        assert not any(p.flags.writeable for p in (enc.net.flat, *enc.net.parameters()))
        assert pred.flat.flags.writeable

    def test_checkpoint_bytes_are_pinned(self):
        # digests of the release that kept separate encoder and predictor Adam
        # states: one joint buffer must not change a single bit
        ds = small_dataset(400)
        enc, trace, pred, _ = bpr.pretrain(ds, bpr.PretrainConfig(steps=200, seed=5, **self.CFG))
        digests = [hashlib.sha256(b).hexdigest() for b in (
            numerics.checkpoint_bytes(enc.net), trace.tobytes(), pred.flat.tobytes())]
        assert digests == [
            "4220b5b4519d2fd385f3e392172141f12c6506870a24d3063941dd045432890d",
            "0836ca542169833a97f3cb4c7ea83bb80b602fb111821e37e9f1b923df99fa46",
            "088278ea6f669ddefcca817054afbe7659d4fe54d0b2490de1593ba99ad2b998"]

    def test_zero_steps_returns_initial_frozen_encoder(self):
        ds = small_dataset(100)
        enc, trace, _, _ = bpr.pretrain(ds, bpr.PretrainConfig(steps=0, **self.CFG))
        assert enc.frozen and len(trace) == 0

    def test_deterministic_given_seed(self):
        ds = small_dataset(200)
        cfg = bpr.PretrainConfig(steps=30, seed=5, **self.CFG)
        e1, t1, _, _ = bpr.pretrain(ds, cfg)
        e2, t2, _, _ = bpr.pretrain(ds, cfg)
        assert e1.param_hash() == e2.param_hash()
        np.testing.assert_array_equal(t1, t2)

    def test_linear_behavior_is_learnable(self):
        # behavior action = fixed linear map of state: normalized prediction
        # should become nearly exact
        rng = np.random.default_rng(0)
        w = np.array([[1.0, -0.5, 0.2, 0.0], [0.3, 0.8, 0.0, -0.1]])
        s = rng.normal(size=(1500, 4))
        a = s @ w.T
        keep = np.linalg.norm(a, axis=1) > 0.2
        n = int(keep.sum())
        ds = envs.OfflineDataset(4, 2, s[keep], a[keep], np.zeros(n), s[keep],
                                 np.ones(n, dtype=bool))
        cfg = bpr.PretrainConfig(steps=1500, batch_size=128, repr_dim=8,
                                 encoder_hidden=(32,), predictor_hidden=(32,),
                                 learning_rate=1e-3)
        _, trace, _, _ = bpr.pretrain(ds, cfg)
        assert np.mean(trace[-100:]) < 0.1


class TestEncoderArtifacts:
    def test_save_load_round_trip(self, tmp_path):
        ds = small_dataset(100)
        cfg = bpr.PretrainConfig(steps=10, **TestPretrain.CFG)
        enc, trace, _, _ = bpr.pretrain(ds, cfg)
        path = str(tmp_path / "enc.ckpt")
        bpr.save_encoder(enc, path, bpr.make_manifest(cfg, ds, float(trace[-1])))
        loaded = bpr.load_encoder(path)
        assert loaded.frozen
        assert loaded.param_hash() == enc.param_hash()
        x = np.random.default_rng(0).normal(size=(5, 4))
        np.testing.assert_array_equal(loaded.encode(x), enc.encode(x))
        import json
        manifest = json.load(open(path + ".json"))
        assert manifest["schema_version"] == 1
        assert manifest["repr_dim"] == 8
        assert manifest["dataset_hash"] == bpr.dataset_hash(ds)

    @pytest.mark.parametrize("n", [envs.ROW_BLOCK - 1, envs.ROW_BLOCK + 1,
                                   2 * envs.ROW_BLOCK + 1, 20_000])
    def test_blocked_encode_equals_one_forward_pass(self, n):
        enc = bpr.build_encoder(4, 64, (256, 256), np.random.default_rng(0)).freeze()
        x = np.random.default_rng(n).normal(size=(n, 4))
        want, _ = numerics.forward(enc.net, x)
        assert enc.encode(x).tobytes() == want.tobytes()
        assert enc.encode(x[:1]).tobytes() == numerics.forward(enc.net, x[:1])[0].tobytes()

    def test_encode_memory_is_bounded_by_a_block(self):
        # one pass over 20 000 rows holds two (20 000, 256) hidden activations,
        # 82 MB, to return 10 MB; one block's activations are 8 MB
        enc = bpr.build_encoder(4, 64, (256, 256), np.random.default_rng(0)).freeze()
        x = np.random.default_rng(1).normal(size=(20_000, 4))
        tracemalloc.start()
        try:
            z = enc.encode(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * z.nbytes

    def test_param_hash_changes_with_weights(self):
        rng = np.random.default_rng(0)
        e1 = bpr.build_encoder(3, 2, (4,), rng)
        e2 = e1.copy()
        assert e1.param_hash() == e2.param_hash()
        e2.net.layers[0].weight[0, 0] += 1.0
        assert e1.param_hash() != e2.param_hash()

    def test_dataset_hash_sensitive_to_rewards(self):
        _, ds, _ = envs.build_counterexample()
        h1 = bpr.dataset_hash(ds)
        ds = dataclasses.replace(ds, rewards=ds.rewards + np.eye(ds.n)[0])
        assert bpr.dataset_hash(ds) != h1
